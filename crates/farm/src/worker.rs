//! The farm worker: drain queued suites by leasing cell shards.
//!
//! Per suite, the worker sweeps the shard list; for each shard it can
//! claim (no lease, its own lease, or a torn/expired one), it claims the
//! shard's unterminated cells in one journal batch, runs them on the
//! shared trial runner (thread fan-out via the workspace's one resolver,
//! [`resolve_threads`]), and commits all their outcomes as one group —
//! records content-addressed, then `committed`/`poisoned` — through the
//! runner's own [`Committer`], so the journal replays identically and
//! fsck needs no new record rules. Once every cell of a suite is
//! terminal, whoever gets there finalizes: outcomes are reconstructed
//! from verified records (and journal `poisoned` entries for
//! record-less cells), assembled through the runner's own finish path,
//! and the manifest written — byte-identical to a single-worker run.
//!
//! **Stalls cannot deadlock.** Lease expiry is operation-indexed on the
//! journal; when a sweep makes no progress because another worker holds
//! every remaining shard, this worker appends a probe entry (a duplicate
//! `claimed` — journals are telemetry, not store identity) to advance
//! the clock. A live holder keeps appending and stays ahead of its ttl;
//! a dead one's lease lapses after at most `ttl` probes and the shard is
//! taken over. Stealing from a *slow but live* holder is safe too:
//! record writes are idempotent, and any byte disagreement between two
//! workers' results for one cell is surfaced as a [`Divergence`] instead
//! of being silently overwritten.

use apex_lab::runner::{resolve_threads, run_trials};
use apex_lab::{
    assemble_run, capture_cell, claim_entry, json_diff, lease_dir, lease_path, next_finish_seq,
    read_journal, read_leases, terminal_entry, CacheLookup, Cell, CommitBatch, Committer,
    JournalEntry, LabStore, Lease, Manifest, Suite,
};
use apex_obs::{Metrics, ObsOpts, POW2_BOUNDS};
use apex_scenario::{CacheStats, RunOpts, RunOutcome};
use apex_sim::Json;

use crate::queue::{EntryError, FarmQueue, QueueEntry};

/// Default cells per shard (the lease granularity).
pub const DEFAULT_SHARD_CELLS: usize = 4;

/// Default lease ttl in journal appends.
pub const DEFAULT_TTL: u64 = 32;

/// Options for [`run_worker`].
#[derive(Clone, Debug)]
pub struct WorkerOpts {
    /// Worker identifier (lands in lease files; diagnostic only).
    pub worker: String,
    /// Cells per shard — the unit of lease-based work stealing.
    pub shard_cells: usize,
    /// Lease ttl, in journal appends (operation clock, never wall-clock).
    pub ttl: u64,
    /// Explicit thread count for cell execution (`None` resolves through
    /// [`resolve_threads`]: `APEX_RUNNER_THREADS`, else all cores —
    /// identical semantics to `apex suite run --threads`).
    pub threads: Option<usize>,
    /// Runtime interpreter-engine override for scheme-mode cells (`None`:
    /// each scenario's knob, else the bytecode VM). It
    /// never changes a result byte, so workers running different
    /// interpreters still converge to one record set.
    pub engine: Option<apex_scenario::ProgramEngine>,
    /// Telemetry plane ([`apex_obs::ObsOpts`]). With `metrics` on, the
    /// worker writes a per-suite `metrics-<worker>.json` shard beside the
    /// suite's records; `apex obs metrics --merge` folds the shards into
    /// the same result-plane aggregate a serial run produces. With a
    /// trace path, lease-acquire/probe/expire seams and per-cell engine
    /// events are recorded. Telemetry never changes a stored byte.
    pub obs: ObsOpts,
}

impl Default for WorkerOpts {
    fn default() -> Self {
        WorkerOpts {
            worker: format!("worker-{}", std::process::id()),
            shard_cells: DEFAULT_SHARD_CELLS,
            ttl: DEFAULT_TTL,
            threads: None,
            engine: None,
            obs: ObsOpts::off(),
        }
    }
}

/// Two workers produced different bytes for one cell — the free
/// integrity check the merger performs. The first durable record stays
/// ground truth; the disagreement is reported with JSON-path precision.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Suite the cell belongs to.
    pub suite: String,
    /// The cell's scenario digest.
    pub cell: String,
    /// JSON paths that differ between the stored and fresh documents
    /// (byte-level detail when the documents do not even parse).
    pub paths: Vec<String>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergent results for cell {} of suite {}: {}",
            self.cell,
            self.suite,
            self.paths.join("; ")
        )
    }
}

/// What one [`run_worker`] invocation did.
#[derive(Clone, Debug, Default)]
pub struct WorkerReport {
    /// Queue entries visited.
    pub suites: usize,
    /// Queue files skipped because they do not load, expand, or digest
    /// to their own name (every readable suite is still drained).
    pub skipped: Vec<EntryError>,
    /// Cells this worker actually executed.
    pub executed: usize,
    /// Memoization tally across the first scan of every visited suite.
    pub cache: CacheStats,
    /// Suites this worker finalized (wrote the manifest + `finished`).
    pub finalized: Vec<String>,
    /// Byte disagreements between this worker's results and records
    /// already in the store (empty on a healthy deterministic pipeline).
    pub divergences: Vec<Divergence>,
}

impl WorkerReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "worker: {} suites, {} executed, {} — finalized {}, {} divergences",
            self.suites,
            self.executed,
            self.cache.summary(),
            self.finalized.len(),
            self.divergences.len()
        );
        if !self.skipped.is_empty() {
            out.push_str(&format!(
                ", {} unreadable entries skipped",
                self.skipped.len()
            ));
        }
        out
    }
}

/// Drain every queued suite: claim shards, execute misses, finalize
/// completed suites. Returns when the whole queue is drained; unreadable
/// entries are skipped and listed in [`WorkerReport::skipped`]. Injected
/// faults (via the store's [`FaultInjector`](apex_lab::FaultInjector)) surface as `Err`, exactly
/// like a crashed worker process.
pub fn run_worker(
    queue: &FarmQueue,
    store: &LabStore,
    opts: &WorkerOpts,
) -> Result<WorkerReport, String> {
    let mut report = WorkerReport::default();
    let run_opts = RunOpts {
        engine: opts.engine,
        obs: opts
            .obs
            .open_trace()
            .map_err(|e| format!("trace open failed: {e}"))?,
    };
    for entry in queue.entries()? {
        match entry {
            Ok(entry) => {
                report.suites += 1;
                drain_suite(store, &entry, opts, &run_opts, &mut report)?;
            }
            Err(bad) => report.skipped.push(bad),
        }
    }
    run_opts.obs.flush();
    Ok(report)
}

/// Is this cell terminal — a verified record on disk, or a journal
/// `poisoned`/`exhausted` entry?
fn terminal(store: &LabStore, digest: &str, cell: &Cell, poisoned: &[u64]) -> bool {
    if poisoned.contains(&(cell.index as u64)) {
        return true;
    }
    matches!(
        store.lookup_record(digest, &cell.digest, None),
        CacheLookup::Hit(..)
    )
}

/// Drain one suite, sweep its leases, then (with `--metrics`) write this
/// worker's per-suite metrics shard — `metrics-<worker>.json` beside the
/// records, excluded from byte-identity like every telemetry sidecar.
fn drain_suite(
    store: &LabStore,
    entry: &QueueEntry,
    opts: &WorkerOpts,
    run_opts: &RunOpts,
    report: &mut WorkerReport,
) -> Result<(), String> {
    let mut metrics = Metrics::new();
    // Executed-cell contributions, attributed to shards only once the
    // journal names an owner.
    let mut tallies = std::collections::BTreeMap::new();
    drain_suite_inner(
        store,
        entry,
        opts,
        run_opts,
        report,
        &mut metrics,
        &mut tallies,
    )?;
    // Even an already-finalized suite gets swept, so a crashed worker's
    // debris does not outlive the run it belonged to.
    reclaim_all_leases(store, &entry.digest)?;
    attribute_result_plane(store, &entry.digest, &opts.worker, &tallies, &mut metrics);
    if opts.obs.metrics && !metrics.is_empty() {
        let path = store
            .suite_dir(&entry.digest)
            .join(format!("metrics-{}.json", opts.worker));
        store
            .write_text(&path, &metrics.render_pretty())
            .map_err(|e| format!("metrics write failed: {e}"))?;
    }
    Ok(())
}

/// What one executed cell contributed, held back until the journal
/// says whether this worker *owns* the cell (see
/// [`attribute_result_plane`]).
struct CellTally {
    ok: bool,
    status: &'static str,
    ticks: Option<u64>,
}

/// Fold the tallies of every cell this worker owns into its metrics
/// shard. Ownership is the first terminal (`committed`/`poisoned`)
/// journal entry per index: the journal is one totally-ordered file
/// all workers share, so every worker computes the same attribution
/// and a doubly-executed cell (a lease stolen from a slow-but-live
/// holder) lands in exactly one shard. Merging the shards therefore
/// reproduces a serial run's result plane, not the fleet's raw
/// (duplicate-inflated) work — which is tallied separately under the
/// coordination-plane `farm.executions` counter.
fn attribute_result_plane(
    store: &LabStore,
    digest: &str,
    worker: &str,
    tallies: &std::collections::BTreeMap<u64, CellTally>,
    metrics: &mut Metrics,
) {
    let state = read_journal(&store.journal_path(digest)).unwrap_or_default();
    let mut seen = std::collections::BTreeSet::new();
    for entry in &state.entries {
        let (index, by) = match entry {
            JournalEntry::Committed { index, by, .. } => (*index, by),
            JournalEntry::Poisoned { index, by, .. } => (*index, by),
            _ => continue,
        };
        if !seen.insert(index) || by != worker {
            continue;
        }
        let Some(t) = tallies.get(&index) else {
            continue;
        };
        metrics.add("cells.executed", 1);
        if t.ok {
            metrics.add("cells.ok", 1);
        }
        match t.status {
            "exhausted" => metrics.add("cells.exhausted", 1),
            "poisoned" => metrics.add("cells.poisoned", 1),
            _ => {}
        }
        if let Some(ticks) = t.ticks {
            metrics.add("ticks.executed", ticks);
            metrics.observe_with("cells.ticks", &POW2_BOUNDS, ticks);
        }
    }
}

fn drain_suite_inner(
    store: &LabStore,
    entry: &QueueEntry,
    opts: &WorkerOpts,
    run_opts: &RunOpts,
    report: &mut WorkerReport,
    metrics: &mut Metrics,
    tallies: &mut std::collections::BTreeMap<u64, CellTally>,
) -> Result<(), String> {
    let obs = &run_opts.obs;
    let QueueEntry {
        digest,
        suite,
        cells,
    } = entry;
    let digest = digest.as_str();
    // Seed every result-plane key so a shard that executes (or owns)
    // nothing still merges to the exact key set a serial run writes (a
    // missing counter and a zero counter must be the same document).
    metrics.gauge_max("cells.total", cells.len() as u64);
    for key in [
        "cells.executed",
        "cells.ok",
        "cells.exhausted",
        "cells.poisoned",
        "ticks.executed",
        "farm.executions",
    ] {
        metrics.add(key, 0);
    }
    let dir = store.suite_dir(digest);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal_path = store.journal_path(digest);
    let mut committer = Committer::new(store, digest, &opts.worker);

    // First scan: the memoization tally for this visit.
    for cell in cells {
        let verdict = match store.lookup_record(digest, &cell.digest, None) {
            CacheLookup::Hit(..) => {
                report.cache.hits += 1;
                metrics.add("cache.hits", 1);
                "hit"
            }
            CacheLookup::Miss => {
                report.cache.misses += 1;
                metrics.add("cache.misses", 1);
                "miss"
            }
            CacheLookup::Rejected(_) => {
                report.cache.rejected += 1;
                metrics.add("cache.rejected", 1);
                "rejected"
            }
        };
        obs.emit("farm", "cache", cell.index as u64, verdict, &[]);
    }

    // Fast path: already finalized.
    if read_journal(&journal_path).is_ok_and(|s| s.finished) && store.read_manifest(digest).is_ok()
    {
        return Ok(());
    }

    committer.append(&JournalEntry::Started {
        suite: digest.to_string(),
        name: suite.name.clone(),
        cells: cells.len() as u64,
        resumed: journal_path.exists(),
    })?;

    let shard_cells = opts.shard_cells.max(1);
    let n_shards = cells.len().div_ceil(shard_cells);
    let threads = resolve_threads(opts.threads);
    // Probes advance the operation clock when every remaining shard is
    // held by someone else; after this many fruitless sweeps even the
    // longest-ttl lease must have lapsed, so no progress then means the
    // queue is genuinely wedged (e.g. a fault injector killed the world).
    let probe_budget = opts.ttl.max(1) * (n_shards as u64 + 1) + 64;
    let mut probes = 0u64;

    loop {
        let state = read_journal(&journal_path).unwrap_or_default();
        if state.finished && store.read_manifest(digest).is_ok() {
            return Ok(());
        }
        let mut progress = false;

        for shard in 0..n_shards {
            let lo = shard * shard_cells;
            let hi = (lo + shard_cells).min(cells.len());
            let state = read_journal(&journal_path).unwrap_or_default();
            let pending: Vec<&Cell> = cells[lo..hi]
                .iter()
                .filter(|c| !terminal(store, digest, c, &state.poisoned))
                .collect();
            if pending.is_empty() {
                continue;
            }
            let journal_len = state.entries.len() as u64;
            let path = lease_path(store, digest, shard as u64);
            let claimable = match std::fs::read_to_string(&path) {
                Err(_) => true, // no lease (or unreadable debris)
                Ok(text) => match Lease::parse(&text) {
                    Err(_) => true,                           // torn — reclaim
                    Ok(l) if l.worker == opts.worker => true, // already ours
                    Ok(l) => {
                        // Steal only lapsed claims; the takeover of a
                        // dead worker's lease is a seam worth tracing
                        // (op-indexed on the journal's operation clock).
                        let lapsed = l.expired(journal_len);
                        if lapsed {
                            obs.emit(
                                "farm",
                                "expire",
                                journal_len,
                                &l.worker,
                                &[("shard", shard as u64)],
                            );
                        }
                        lapsed
                    }
                },
            };
            if !claimable {
                continue;
            }
            let lease = Lease {
                suite: digest.to_string(),
                shard: shard as u64,
                start: lo as u64,
                count: (hi - lo) as u64,
                worker: opts.worker.clone(),
                issued_at: journal_len,
                ttl: opts.ttl,
            };
            let ldir = lease_dir(store, digest);
            std::fs::create_dir_all(&ldir).map_err(|e| format!("{}: {e}", ldir.display()))?;
            store
                .write_text(&path, &lease.render_pretty())
                .map_err(|e| format!("lease write failed: {e}"))?;
            obs.emit(
                "farm",
                "lease",
                journal_len,
                &opts.worker,
                &[
                    ("shard", shard as u64),
                    ("start", lo as u64),
                    ("count", (hi - lo) as u64),
                ],
            );

            // Write-ahead: claim every pending cell of the shard, then
            // run them with the shared thread fan-out, then commit them
            // as one group.
            committer.commit(&CommitBatch {
                claims: pending.iter().map(|cell| claim_entry(cell)).collect(),
                ..CommitBatch::default()
            })?;
            let outcomes = run_trials(&pending, threads, |cell| {
                capture_cell(store, cell, run_opts)
            });
            commit_shard(
                store,
                digest,
                &mut committer,
                &pending,
                &outcomes,
                &opts.worker,
                report,
            )?;
            for (cell, outcome) in pending.iter().zip(&outcomes) {
                report.executed += 1;
                // Raw work including duplicate executions of stolen
                // cells; the result plane is attributed at drain end.
                metrics.add("farm.executions", 1);
                tallies.insert(
                    cell.index as u64,
                    CellTally {
                        ok: outcome.ok(),
                        status: outcome.status(),
                        ticks: outcome.record().map(|r| r.report.ticks()),
                    },
                );
            }
            let _ = std::fs::remove_file(&path); // release our claim
            progress = true;
        }

        let state = read_journal(&journal_path).unwrap_or_default();
        let all_terminal = cells
            .iter()
            .all(|c| terminal(store, digest, c, &state.poisoned));
        if all_terminal {
            if !state.finished || store.read_manifest(digest).is_err() {
                finalize(store, digest, suite, cells, &mut committer)?;
                report.finalized.push(digest.to_string());
            }
            return Ok(());
        }
        if !progress {
            // Someone else holds every remaining shard. Advance the
            // operation clock so a dead holder's lease lapses.
            probes += 1;
            if probes > probe_budget {
                return Err(format!(
                    "suite {digest}: no progress after {probes} probes — \
                     remaining shards are leased but never complete"
                ));
            }
            // `terminal` reads the store, so a concurrent worker may have
            // committed the remaining cells since the `all_terminal` pass
            // above; an empty scan just means the next loop will finalize.
            let Some(first_pending) = cells
                .iter()
                .find(|c| !terminal(store, digest, c, &state.poisoned))
            else {
                continue;
            };
            committer.append(&claim_entry(first_pending))?;
            obs.emit(
                "farm",
                "probe",
                state.entries.len() as u64,
                &opts.worker,
                &[("probes", probes)],
            );
            // Bounded, probe-indexed politeness pause (real concurrent
            // workers spin less hot; in-process fault tests, which use
            // tiny ttls, barely wait).
            std::thread::sleep(std::time::Duration::from_millis(probes.min(10)));
        }
    }
}

/// Durably record a shard's outcomes as one group commit: every record
/// (unless verified identical bytes are already there), then every
/// terminal line. A byte disagreement with an existing verified record
/// becomes a [`Divergence`]; the stored bytes stay ground truth.
fn commit_shard(
    store: &LabStore,
    digest: &str,
    committer: &mut Committer<'_>,
    cells: &[&Cell],
    outcomes: &[RunOutcome],
    worker: &str,
    report: &mut WorkerReport,
) -> Result<(), String> {
    let mut batch = CommitBatch::default();
    for (cell, outcome) in cells.iter().zip(outcomes) {
        batch.terminals.push(terminal_entry(cell, outcome, worker));
        let Some(record) = outcome.record() else {
            continue;
        };
        let fresh = record.render_pretty();
        match store.lookup_record(digest, &cell.digest, None) {
            CacheLookup::Hit(stored, _) if stored != fresh => {
                let paths = match (Json::parse(&stored), Json::parse(&fresh)) {
                    (Ok(a), Ok(b)) => json_diff(&a, &b, 8),
                    _ => vec!["(stored bytes are not JSON)".to_string()],
                };
                report.divergences.push(Divergence {
                    suite: digest.to_string(),
                    cell: cell.digest.clone(),
                    paths,
                });
            }
            CacheLookup::Hit(..) => {} // identical bytes already durable
            _ => batch.records.push(record),
        }
    }
    committer.commit(&batch)
}

/// Merge + finalize: reconstruct every cell's outcome from verified
/// records (or journal `poisoned` entries), run the suite's pinned
/// output checks through the runner's own assembly path, and write the
/// manifest — byte-identical to what a single `apex suite run` writes.
fn finalize(
    store: &LabStore,
    digest: &str,
    suite: &Suite,
    cells: &[Cell],
    committer: &mut Committer<'_>,
) -> Result<(), String> {
    let state = read_journal(&store.journal_path(digest)).unwrap_or_default();
    let mut outcomes = Vec::with_capacity(cells.len());
    for cell in cells {
        match store.lookup_record(digest, &cell.digest, None) {
            CacheLookup::Hit(_, record) => outcomes.push(RunOutcome::Complete(record)),
            _ => {
                let (status, message) = state
                    .entries
                    .iter()
                    .rev()
                    .find_map(|e| match e {
                        JournalEntry::Poisoned {
                            index,
                            status,
                            message,
                            ..
                        } if *index == cell.index as u64 => Some((status.clone(), message.clone())),
                        _ => None,
                    })
                    .ok_or_else(|| {
                        format!("cell {} of suite {digest} is not terminal", cell.index)
                    })?;
                outcomes.push(if status == "exhausted" {
                    RunOutcome::Exhausted {
                        scenario: cell.scenario.clone(),
                        message,
                    }
                } else {
                    RunOutcome::Poisoned {
                        scenario: cell.scenario.clone(),
                        message,
                    }
                });
            }
        }
    }
    let run = assemble_run(suite, cells, outcomes);
    let manifest = Manifest::from_run(&run);
    store
        .write_manifest(&manifest)
        .map_err(|e| format!("manifest write failed: {e}"))?;
    committer.append(&JournalEntry::Finished {
        ok: run.all_ok(),
        seq: next_finish_seq(store),
    })
}

/// Delete every lease file of a finalized suite and the `leases/`
/// directory itself — a converged store carries no queue debris.
fn reclaim_all_leases(store: &LabStore, digest: &str) -> Result<(), String> {
    for (path, _) in read_leases(store, digest)? {
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir(lease_dir(store, digest));
    Ok(())
}
