//! The farm worker: drain queued suites by leasing cell shards.
//!
//! Per suite, the worker sweeps the shard list. For each shard with
//! unterminated cells that no other worker holds a live lease on, it
//! appends one `leased` line and the cells' `claimed` lines in one
//! journal batch, runs the cells on the shared trial runner (thread
//! fan-out via the workspace's one resolver, [`resolve_threads`]), and
//! commits all their outcomes as one group — records content-addressed,
//! then `committed`/`poisoned` — through the runner's own [`Committer`],
//! so the journal replays identically and fsck needs no new record
//! rules. The loop learns which cells are terminal from the journal it
//! reads on each shard visit, plus the records the first scan verified.
//! Once every cell is terminal, whoever gets there finalizes: outcomes
//! are reconstructed from verified records (and journal `poisoned`
//! entries for record-less cells), assembled through the runner's own
//! finish path, and the manifest written — byte-identical to a
//! single-worker run. Finalize is the one place record bytes are
//! trusted: a cell whose record it cannot verify is claimed, run and
//! committed again through the same shard path first.
//!
//! **Stalls cannot deadlock.** Lease expiry is operation-indexed on the
//! journal; when a sweep makes no progress because other workers hold
//! every remaining shard, this worker appends a probe entry (a duplicate
//! `claimed` — journals are telemetry, not store identity) to advance
//! the clock. A live holder keeps appending and finishes within its ttl;
//! a dead one's lease lapses after at most `ttl` probes and the shard is
//! taken over. Stealing from a *slow but live* holder is safe too:
//! record writes are idempotent, and any byte disagreement between two
//! workers' results for one cell is surfaced as a [`Divergence`] instead
//! of being silently overwritten.

use apex_lab::runner::{resolve_threads, run_trials};
use apex_lab::{
    assemble_run, capture_cell, claim_entry, json_diff, next_finish_seq, read_journal,
    read_verified, terminal_entry, CacheLookup, CachedCell, Cell, CommitBatch, Committer,
    JournalEntry, JournalState, LabStore, Manifest, Suite,
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
    /// Worker identifier (lands in `leased` and terminal journal lines).
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

/// Drain one suite, then (with `--metrics`) write this
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
    sweep_record_temps(store, entry);
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

/// Remove every record temp (`<cell>.json.<worker>.tmp`) from a finished
/// suite's directory. Finalize verified each record at its final path,
/// so a temp still there is a dead worker's interrupted commit — or a
/// slow duplicate's, whose rename then finds the record already in
/// place ([`Committer::commit`]).
fn sweep_record_temps(store: &LabStore, entry: &QueueEntry) {
    let Ok(files) = std::fs::read_dir(store.suite_dir(&entry.digest)) else {
        return;
    };
    let cells: std::collections::BTreeSet<&str> =
        entry.cells.iter().map(|c| c.digest.as_str()).collect();
    for path in files.flatten().map(|f| f.path()) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let is_record_temp = name.ends_with(".tmp")
            && name
                .split_once('.')
                .is_some_and(|(stem, _)| cells.contains(stem));
        if is_record_temp {
            let _ = store.disk().remove(&path);
        }
    }
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
    let threads = resolve_threads(opts.threads);

    // First scan: the memoization tally for this visit, verified on the
    // runner threads and counted here in cell order.
    let mut cache = CacheStats::default();
    let reads = read_verified(store, digest, cells, None, threads);
    let mut terminal = Terminal::new(cells.len());
    for (cell, read) in cells.iter().zip(reads) {
        let verdict = read.tally(&mut cache);
        obs.emit("farm", "cache", cell.index as u64, verdict, &[]);
        terminal.verified[cell.index] = matches!(read, CachedCell::Hit(..));
    }
    for (key, n) in [
        ("cache.hits", cache.hits),
        ("cache.misses", cache.misses),
        ("cache.rejected", cache.rejected),
    ] {
        if n > 0 {
            metrics.add(key, n);
        }
    }
    report.cache.hits += cache.hits;
    report.cache.misses += cache.misses;
    report.cache.rejected += cache.rejected;

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
    // Probes advance the operation clock when every remaining shard is
    // held by someone else; after this many fruitless sweeps even the
    // longest-ttl lease must have lapsed, so no progress then means the
    // queue is genuinely wedged (e.g. a fault injector killed the world).
    let probe_budget = opts.ttl.max(1) * (n_shards as u64 + 1) + 64;
    let mut probes = 0u64;
    let mut reruns = 0usize;

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
            let done = terminal.mask(&state);
            let pending: Vec<&Cell> = cells[lo..hi].iter().filter(|c| !done[c.index]).collect();
            if pending.is_empty() {
                continue;
            }
            // Another worker's live lease on a pending cell holds the
            // range; a lapsed one is taken over, and that takeover is a
            // seam worth tracing (op-indexed on the operation clock).
            let journal_len = state.entries.len() as u64;
            let mut held = false;
            let mut lapsed = None;
            for lease in state
                .leases()
                .filter(|l| l.by != opts.worker && pending.iter().any(|c| l.covers(c.index as u64)))
            {
                if lease.expired(journal_len) {
                    lapsed = Some(lease.by);
                } else {
                    held = true;
                }
            }
            if held {
                continue;
            }
            if let Some(holder) = lapsed {
                obs.emit(
                    "farm",
                    "expire",
                    journal_len,
                    holder,
                    &[("shard", shard as u64)],
                );
            }
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

            // Write-ahead: lease the shard and claim every pending cell
            // in one journal write, then run them with the shared thread
            // fan-out, then commit them as one group.
            let lease = JournalEntry::Leased {
                start: lo as u64,
                count: (hi - lo) as u64,
                by: opts.worker.clone(),
                ttl: opts.ttl,
            };
            committer.commit(&CommitBatch {
                claims: std::iter::once(lease)
                    .chain(pending.iter().map(|cell| claim_entry(cell)))
                    .collect(),
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
            progress = true;
        }

        let state = read_journal(&journal_path).unwrap_or_default();
        let Some(first_pending) = terminal.mask(&state).iter().position(|done| !done) else {
            if state.finished && store.read_manifest(digest).is_ok() {
                return Ok(());
            }
            let stale = finalize(store, digest, suite, cells, &state, threads, &mut committer)?;
            if stale.is_empty() {
                report.finalized.push(digest.to_string());
                return Ok(());
            }
            // Committed records that no longer verify: run them again.
            reruns += 1;
            if reruns > MAX_RERUNS {
                return Err(format!(
                    "suite {digest}: records of cells {stale:?} still fail verification \
                     after {MAX_RERUNS} re-runs"
                ));
            }
            terminal.reopen(&stale, state.entries.len() as u64);
            continue;
        };
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
            committer.append(&claim_entry(&cells[first_pending]))?;
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

/// How many times a worker re-runs cells whose committed records fail
/// finalize's verification before it gives up on the suite.
const MAX_RERUNS: usize = 3;

/// Which cells of a suite the drain loop counts as terminal. A cell is
/// terminal when the first scan verified its record, or when the
/// journal holds a `committed`/`poisoned` line for it at or after
/// `since[index]`. [`finalize`] is what trusts record bytes; a cell it
/// cannot verify is reopened, so only a newer terminal line counts.
struct Terminal {
    verified: Vec<bool>,
    since: Vec<u64>,
}

impl Terminal {
    fn new(cells: usize) -> Self {
        Terminal {
            verified: vec![false; cells],
            since: vec![0; cells],
        }
    }

    /// Per cell index: terminal given the journal `state`.
    fn mask(&self, state: &JournalState) -> Vec<bool> {
        let mut done = self.verified.clone();
        for (position, entry) in state.entries.iter().enumerate() {
            let index = match entry {
                JournalEntry::Committed { index, .. } | JournalEntry::Poisoned { index, .. } => {
                    *index as usize
                }
                _ => continue,
            };
            if index < done.len() && position as u64 >= self.since[index] {
                done[index] = true;
            }
        }
        done
    }

    /// Stop trusting `cells` until the journal gains a terminal line
    /// for them at position `at` or later.
    fn reopen(&mut self, cells: &[usize], at: u64) {
        for &index in cells {
            self.verified[index] = false;
            self.since[index] = at;
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
    committer.commit(&batch).map(drop)
}

/// Merge + finalize: reconstruct every cell's outcome from verified
/// records (read on `threads` runner threads by the shared
/// verified-read pass) or the journal's `poisoned` entries, run the
/// suite's pinned output checks through the runner's own assembly path,
/// and write the manifest — byte-identical to what a single `apex suite
/// run` writes, pinning the checksums the pass hashed. Returns the
/// indices of cells with neither a verified record nor a `poisoned`
/// entry; when there are any, nothing is written and they must run
/// again.
fn finalize(
    store: &LabStore,
    digest: &str,
    suite: &Suite,
    cells: &[Cell],
    state: &JournalState,
    threads: usize,
    committer: &mut Committer<'_>,
) -> Result<Vec<usize>, String> {
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut checksums = Vec::with_capacity(cells.len());
    let mut stale = Vec::new();
    let reads = read_verified(store, digest, cells, None, threads);
    for (cell, read) in cells.iter().zip(reads) {
        if let CachedCell::Hit(checksum, record) = read {
            outcomes.push(RunOutcome::Complete(record));
            checksums.push(Some(checksum));
            continue;
        }
        let poisoned = state.entries.iter().rev().find_map(|e| match e {
            JournalEntry::Poisoned {
                index,
                status,
                message,
                ..
            } if *index == cell.index as u64 => Some((status.clone(), message.clone())),
            _ => None,
        });
        let Some((status, message)) = poisoned else {
            stale.push(cell.index);
            continue;
        };
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
        checksums.push(None);
    }
    if !stale.is_empty() {
        return Ok(stale);
    }
    let mut run = assemble_run(suite, cells, outcomes);
    run.checksums = checksums;
    let manifest = Manifest::from_run(&run);
    store
        .write_manifest(&manifest)
        .map_err(|e| format!("manifest write failed: {e}"))?;
    committer.append(&JournalEntry::Finished {
        ok: run.all_ok(),
        seq: next_finish_seq(store),
    })?;
    Ok(Vec::new())
}
