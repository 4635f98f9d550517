//! The farm worker: drain queued suites by leasing cell shards.
//!
//! Per suite, the worker sweeps the shard list through the runner's one
//! drain loop ([`drain`]), the loop `apex suite run` uses. Only the
//! claim policy differs: a unit is a shard, consulted as the dispatch
//! cursor reaches it. A shard whose cells are all terminal, or which
//! another worker holds a live lease on, is skipped; otherwise its
//! `leased` line and its pending cells' `claimed` lines go out in one
//! journal write, the cells run in order on one runner thread, and
//! their records and `committed`/`poisoned` lines are group-committed
//! on the shard's `Finished` event — through the runner's own
//! [`Committer`], so the journal replays identically and fsck needs no
//! new record rules. The worker learns which cells are terminal from
//! the records the first scan verified and from its journal, which it
//! reads as it grows ([`JournalReader`]: each read parses only what was
//! appended since the last). Once every cell is terminal, whoever gets
//! there finalizes: outcomes are reconstructed from verified records
//! (and, for a record-less cell, its latest `poisoned` line as the
//! reader replayed it, [`JournalState::poisoned`]) and the suite
//! is closed through the runner's own finish ([`Committer::finish`]) —
//! byte-identical to a single-worker run. Finalize is the one place
//! record bytes are trusted: a cell whose record it cannot verify is
//! claimed, run and committed again by the next sweep first. The first
//! scan is the runner's cache pre-pass ([`scan_cache`]), and a worker's
//! metrics shard counts the cells it owns ([`JournalState::owners`])
//! with the runner's per-cell tally ([`CellTally`]). After a drain the
//! worker sweeps the record temps of the suite's cells, named as
//! [`SuiteFile::of`] reads them.
//!
//! A shard's cells run on one thread, so a suite with fewer shards than
//! runner threads uses fewer threads.
//!
//! **Stalls cannot deadlock.** Lease expiry is operation-indexed on the
//! journal; when a sweep makes no progress because other workers hold
//! every remaining shard, this worker appends a probe entry (a duplicate
//! `claimed` — journals are telemetry, not store identity) to advance
//! the clock. A live holder keeps appending and finishes within its ttl;
//! a dead one's lease lapses after at most `ttl` probes and the shard is
//! taken over. Stealing from a *slow but live* holder is safe too:
//! record writes are idempotent, and the committer keeps any byte
//! disagreement between two workers' results for one cell as drift's
//! [`Divergence`] (kind `RecordDiffers`) instead of overwriting it.

use std::sync::Mutex;

use apex_lab::runner::{drain, resolve_threads, Claim};
use apex_lab::{
    claim_entry, read_verified, scan_cache, CachedCell, Cell, CellTally, Committer, Divergence,
    JournalEntry, JournalReader, JournalState, LabStore, Suite, SuiteFile,
};
use apex_obs::{Metrics, Obs, ObsOpts};
use apex_scenario::{CacheStats, RunOpts, RunOutcome};

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

/// A worker id that is empty or not `[A-Za-z0-9_-]+`. Ids name journal
/// lines and files (`metrics-<id>.json`, `trace-<id>.jsonl`,
/// `<cell>.json.<id>.tmp`); an empty one would stage records at the
/// single runner's shared `.tmp` path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidWorkerId(pub String);

impl std::fmt::Display for InvalidWorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid worker id {:?}: want one or more of [A-Za-z0-9_-]",
            self.0
        )
    }
}

impl std::error::Error for InvalidWorkerId {}

/// Accept `id` as a worker id, or say why it is not one.
pub fn check_worker_id(id: &str) -> Result<(), InvalidWorkerId> {
    let valid = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    if !id.is_empty() && id.chars().all(valid) {
        Ok(())
    } else {
        Err(InvalidWorkerId(id.to_string()))
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
    /// already in the store (empty on a healthy deterministic pipeline):
    /// drift's [`Divergence`]s of kind `RecordDiffers`, the stored bytes
    /// on the expected side.
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
/// entries are skipped and listed in [`WorkerReport::skipped`]. An
/// invalid worker id ([`check_worker_id`]) is refused before anything is
/// opened or written. Injected faults (via the store's
/// [`FaultInjector`](apex_lab::FaultInjector)) surface as `Err`, exactly
/// like a crashed worker process.
pub fn run_worker(
    queue: &FarmQueue,
    store: &LabStore,
    opts: &WorkerOpts,
) -> Result<WorkerReport, String> {
    check_worker_id(&opts.worker).map_err(|e| e.to_string())?;
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
    drain_suite_inner(store, entry, opts, run_opts, report, &mut metrics)?;
    sweep_record_temps(store, entry);
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
        if matches!(SuiteFile::of(name), SuiteFile::Temp(stem) if cells.contains(stem)) {
            let _ = store.disk().remove(&path);
        }
    }
}

/// Drain one suite, tallying into `metrics` the cells this worker owns.
fn drain_suite_inner(
    store: &LabStore,
    entry: &QueueEntry,
    opts: &WorkerOpts,
    run_opts: &RunOpts,
    report: &mut WorkerReport,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let obs = &run_opts.obs;
    let QueueEntry {
        digest,
        suite,
        cells,
    } = entry;
    let digest = digest.as_str();
    // A shard that executes (or owns) nothing still merges to the key
    // set a serial run writes.
    CellTally::seed(metrics, cells.len());
    metrics.add("farm.executions", 0);
    let dir = store.suite_dir(digest);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal_path = store.journal_path(digest);
    let mut committer = Committer::new(store, digest, &opts.worker);
    let threads = resolve_threads(opts.threads);
    let mut tallies = std::collections::BTreeMap::new();

    // First scan: the memoization tally for this visit, verified on the
    // runner threads and counted here in cell order.
    let (cache, reads) = scan_cache(store, digest, cells, None, threads, obs, "farm");
    let mut view = View {
        journal: JournalReader::new(&journal_path),
        done: reads
            .into_iter()
            .map(|read| matches!(read, CachedCell::Hit(..)))
            .collect(),
    };
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
    let finished =
        |view: &View| view.journal.state().finished && store.read_manifest(digest).is_ok();
    if view.refresh().is_ok() && finished(&view) {
        return Ok(());
    }

    committer.append(&JournalEntry::Started {
        suite: digest.to_string(),
        name: suite.name.clone(),
        cells: cells.len() as u64,
        resumed: journal_path.exists(),
    })?;

    let shard_cells = opts.shard_cells.max(1);
    let shards: Vec<(usize, &[Cell])> = cells.chunks(shard_cells).enumerate().collect();
    // Probes advance the operation clock when every remaining shard is
    // held by someone else; after this many fruitless sweeps even the
    // longest-ttl lease must have lapsed, so no progress then means the
    // queue is genuinely wedged (e.g. a fault injector killed the world).
    let probe_budget = opts.ttl.max(1) * (shards.len() as u64 + 1) + 64;
    let mut probes = 0u64;
    let mut reruns = 0usize;

    loop {
        view.refresh()?;
        if finished(&view) {
            break;
        }
        // One sweep of the shard list through the runner's drain loop:
        // a shard is claimed as the cursor reaches it, unless it is done
        // or another worker holds it. The claim policy runs on the
        // runner threads, so the view is shared for the sweep.
        let mut progress = false;
        let shared = Mutex::new(view);
        drain(
            &mut committer,
            &shards,
            threads,
            |&(number, shard)| claim_shard(&shared, number as u64, shard, opts, obs),
            run_opts,
            |_, finished| {
                for (cell, outcome, _) in finished {
                    progress = true;
                    report.executed += 1;
                    // Raw work including duplicate executions of stolen
                    // cells; the result plane is attributed at drain end.
                    metrics.add("farm.executions", 1);
                    tallies.insert(cell.index as u64, CellTally::of(&outcome));
                }
            },
        )?;
        view = shared.into_inner().expect("the claim policy never panics");

        view.refresh()?;
        let Some(first_pending) = view.done.iter().position(|done| !done) else {
            if finished(&view) {
                break;
            }
            let state = view.journal.state();
            let stale = finalize(store, digest, suite, cells, state, threads, &mut committer)?;
            if stale.is_empty() {
                report.finalized.push(digest.to_string());
                break;
            }
            // Committed records that no longer verify: run them again
            // once the journal holds a newer terminal line for them.
            reruns += 1;
            if reruns > MAX_RERUNS {
                return Err(format!(
                    "suite {digest}: records of cells {stale:?} still fail verification \
                     after {MAX_RERUNS} re-runs"
                ));
            }
            for index in stale {
                view.done[index] = false;
            }
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
                view.journal.state().entries.len() as u64,
                &opts.worker,
                &[("probes", probes)],
            );
            // Bounded, probe-indexed politeness pause (real concurrent
            // workers spin less hot; in-process fault tests, which use
            // tiny ttls, barely wait).
            std::thread::sleep(std::time::Duration::from_millis(probes.min(10)));
        }
    }
    report
        .divergences
        .extend_from_slice(committer.divergences());
    // Tally the cells this worker owns (first terminal line): a cell two
    // workers ran lands in one shard, so the merged shards are a serial
    // run's result plane; `farm.executions` counts the raw work. The
    // view has read this worker's terminal lines and all before them.
    let owners = &view.journal.state().owners;
    for (index, tally) in &tallies {
        if owners.get(index).is_some_and(|by| *by == opts.worker) {
            tally.add_to(metrics);
        }
    }
    Ok(())
}

/// How many times a worker re-runs cells whose committed records fail
/// finalize's verification before it gives up on the suite.
const MAX_RERUNS: usize = 3;

/// A worker's view of one suite: its journal, read as it grows, and
/// which cells count as terminal. A cell is terminal once the first
/// scan verified its record or the journal gains a `committed` or
/// `poisoned` line for it. [`finalize`] is what trusts record bytes; a
/// cell it cannot verify is marked pending again, so only a terminal
/// line read after that counts.
struct View {
    journal: JournalReader,
    done: Vec<bool>,
}

impl View {
    /// Read what the journal gained and mark its terminal lines.
    fn refresh(&mut self) -> Result<(), String> {
        for entry in self.journal.read()? {
            if let JournalEntry::Committed { index, .. } | JournalEntry::Poisoned { index, .. } =
                entry
            {
                if let Some(done) = self.done.get_mut(*index as usize) {
                    *done = true;
                }
            }
        }
        Ok(())
    }
}

/// The farm's claim policy, consulted as the drain loop's cursor
/// reaches `shard`: skip it when every cell is terminal or another
/// worker holds a live lease on a pending one; otherwise lease it,
/// taking over a lapsed lease (a seam worth tracing, op-indexed on the
/// operation clock), and claim its pending cells.
fn claim_shard<'c>(
    view: &Mutex<View>,
    number: u64,
    shard: &'c [Cell],
    opts: &WorkerOpts,
    obs: &Obs,
) -> Option<Claim<'c>> {
    let mut view = view.lock().expect("the claim policy never panics");
    // An unreadable journal claims nothing; the sweep's own refresh
    // reports it.
    view.refresh().ok()?;
    let pending: Vec<&Cell> = shard.iter().filter(|c| !view.done[c.index]).collect();
    pending.first()?;
    let state = view.journal.state();
    let journal_len = state.entries.len() as u64;
    let mut lapsed = None;
    for lease in state
        .leases()
        .filter(|l| l.by != opts.worker && pending.iter().any(|c| l.covers(c.index as u64)))
    {
        if !lease.expired(journal_len) {
            return None;
        }
        lapsed = Some(lease.by);
    }
    let (lo, count) = (shard[0].index, shard.len());
    if let Some(holder) = lapsed {
        obs.emit("farm", "expire", journal_len, holder, &[("shard", number)]);
    }
    obs.emit(
        "farm",
        "lease",
        journal_len,
        &opts.worker,
        &[
            ("shard", number),
            ("start", lo as u64),
            ("count", count as u64),
        ],
    );
    Some(Claim {
        lease: Some(JournalEntry::Leased {
            start: lo as u64,
            count: count as u64,
            by: opts.worker.clone(),
            ttl: opts.ttl,
        }),
        cells: pending,
    })
}

/// Merge + finalize: reconstruct every cell's outcome from verified
/// records (read on `threads` runner threads by the shared
/// verified-read pass) or the journal's latest `poisoned` line, and close
/// the suite through the runner's own finish ([`Committer::finish`]) —
/// byte-identical to what a single `apex suite run` writes, pinning the
/// checksums the pass hashed. Returns the
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
        let Some((status, message)) = state.poisoned.get(&(cell.index as u64)) else {
            stale.push(cell.index);
            continue;
        };
        let (scenario, message) = (cell.scenario.clone(), message.clone());
        outcomes.push(if status == "exhausted" {
            RunOutcome::Exhausted { scenario, message }
        } else {
            RunOutcome::Poisoned { scenario, message }
        });
        checksums.push(None);
    }
    if !stale.is_empty() {
        return Ok(stale);
    }
    committer.finish(suite, cells, outcomes, checksums, |_, _| Ok(()))?;
    Ok(Vec::new())
}
