//! The workspace's one thread fan-out, and suite execution on top of it
//! with per-cell panic isolation and (optionally) write-ahead journaling.
//!
//! [`fan_out`] is the only code that spreads independent cells over OS
//! threads, in the queue-dispatch shape: a shared cursor is the queue, N
//! workers drain it, and the calling thread consumes the [`Event`]s in
//! batches — every event that is ready when it looks, so the journaled
//! runner can make a whole batch durable at once ([`Committer`]).
//! [`run_trials`] collects results in config order on top of it, so
//! every artifact is byte-identical at any thread count
//! ([`resolve_threads`]). With one thread, trials run inline on the
//! caller's thread and every batch holds one event, so journal line
//! order and trace interleaving are fully deterministic.
//!
//! Stored records are read back on the same threads. [`read_verified`]
//! is the one verified-read pass: each worker reads one cell's record,
//! verifies it (own address, canonical rendering, the manifest's pinned
//! checksum), hashes the verified bytes once and drops the text; the
//! caller tallies [`CacheStats`] and traces the verdicts in cell order.
//! The `--cached`/`--resume` pre-pass of [`run_suite_journaled`] and the
//! farm's scan and finalize all read through it. Those checksums, and
//! the ones the [`Committer`] hashes as it stages records, ride on
//! [`SuiteRun::checksums`], so [`Manifest::from_run`] renders no record
//! it has already hashed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

use apex_obs::{Metrics, ObsOpts, POW2_BOUNDS};
use apex_scenario::{CacheStats, ReportRecord, RunOpts, RunOutcome};

use crate::digest_hex;
use crate::fault::CELL_PANIC_MARKER;
use crate::journal::{next_finish_seq, Journal, JournalEntry};
use crate::store::{CacheLookup, LabStore, Manifest};
use crate::suite::{Cell, Suite};

/// The worker-thread count for a run: an explicit value wins (clamped to
/// at least 1), otherwise `APEX_RUNNER_THREADS` if set and valid, else
/// all cores. The variable is parsed once per process, so an invalid
/// value warns once, not per sweep.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    explicit.map(|t| t.max(1)).unwrap_or_else(|| {
        *FROM_ENV.get_or_init(|| {
            if let Ok(v) = std::env::var("APEX_RUNNER_THREADS") {
                match v.trim().parse::<usize>() {
                    Ok(t) if t > 0 => return t,
                    _ => eprintln!(
                        "warning: ignoring invalid APEX_RUNNER_THREADS={v:?} (want a positive \
                         integer); using all cores"
                    ),
                }
            }
            std::thread::available_parallelism().map_or(1, |p| p.get())
        })
    })
}

/// What [`fan_out`] reports to the calling thread about one trial,
/// identified by its index into the config slice.
#[derive(Debug)]
pub enum Event<T> {
    /// A worker took the trial from the queue.
    Started(usize),
    /// The trial returned, or panicked with the given message.
    Finished(usize, Result<T, String>),
}

/// Run `f` over every config on up to `threads` scoped OS threads and
/// hand the trials' [`Event`]s to `on_batch` on the calling thread —
/// `Started(i)` before `Finished(i, …)` for every `i`. Each batch is
/// every event that was ready when the previous batch returned (never
/// empty; no size or timeout bounds it). Each trial runs under
/// `catch_unwind`, so a panic becomes `Finished(i, Err(message))` and
/// the other trials run regardless.
///
/// With `threads <= 1` (or a single config) the trials run inline on the
/// caller's thread in config order, with no thread spawned, and every
/// batch holds exactly one event. Returning `Err` from `on_batch` stops
/// the fan-out: workers take no further trials, and that error is
/// returned once in-flight trials finish.
pub fn fan_out<C, T, E, F>(
    configs: &[C],
    threads: usize,
    f: F,
    mut on_batch: impl FnMut(Vec<Event<T>>) -> Result<(), E>,
) -> Result<(), E>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    let run_one = |c: &C| -> Result<T, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(c))).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string())
        })
    };

    let threads = threads.min(configs.len());
    if threads <= 1 {
        for (i, c) in configs.iter().enumerate() {
            on_batch(vec![Event::Started(i)])?;
            on_batch(vec![Event::Finished(i, run_one(c))])?;
        }
        return Ok(());
    }

    let stop = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Event<T>>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (stop, cursor, run_one) = (&stop, &cursor, &run_one);
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(c) = configs.get(i) else { break };
                    if tx.send(Event::Started(i)).is_err()
                        || tx.send(Event::Finished(i, run_one(c))).is_err()
                    {
                        break;
                    }
                }
            });
        }
        drop(tx);

        let mut first_err = Ok(());
        while let Ok(event) = rx.recv() {
            let mut batch = vec![event];
            batch.extend(rx.try_iter());
            // After an error, keep draining so workers exit promptly.
            if first_err.is_ok() {
                first_err = on_batch(batch);
                if first_err.is_err() {
                    stop.store(true, Ordering::SeqCst);
                }
            }
        }
        first_err
    })
}

/// Map `f` over `configs` on up to `threads` threads ([`fan_out`]) and
/// return the results in config order — exactly what a serial
/// `configs.iter().map(f).collect()` returns, provided `f` is a pure
/// function of its config (up to its own seeding).
///
/// # Panics
/// If any trial panics — but only after every other trial has run, so
/// one bad config never aborts the in-flight rest of a sweep.
pub fn run_trials<C, T, F>(configs: &[C], threads: usize, f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    let mut slots: Vec<Option<Result<T, String>>> = (0..configs.len()).map(|_| None).collect();
    let Ok(()) = fan_out(configs, threads, f, |batch| {
        for event in batch {
            if let Event::Finished(i, out) = event {
                slots[i] = Some(out);
            }
        }
        Ok::<(), std::convert::Infallible>(())
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(Ok(t)) => t,
            Some(Err(msg)) => panic!("trial {i} worker panicked: {msg}"),
            None => panic!("trial {i} never finished"),
        })
        .collect()
}

/// A pinned cell whose run produced the wrong results: the suite's
/// [`OutputExpectation`](crate::suite::OutputExpectation) disagreed with
/// the record's named outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputMismatch {
    /// Cell index in expansion order.
    pub index: usize,
    /// The cell's scenario digest.
    pub digest: String,
    /// What the suite pinned.
    pub expected: Vec<u64>,
    /// What the run produced (`None` if the record carried no outputs or
    /// the cell did not complete).
    pub actual: Option<Vec<u64>>,
}

impl std::fmt::Display for OutputMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} ({}): expected outputs {:?}, got {:?}",
            self.index, self.digest, self.expected, self.actual
        )
    }
}

/// A completed suite execution: one [`RunOutcome`] per cell, in
/// expansion order (the runner collects results in config order, so the
/// outcome list is identical whether the run was serial or parallel),
/// plus any failed output assertions.
///
/// Every cell reaches a *typed* terminal state — complete, exhausted
/// (tick budget), or poisoned (panic) — and one bad cell never aborts
/// the rest of the campaign.
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// Suite name.
    pub name: String,
    /// Digest of the canonical suite document.
    pub suite_digest: String,
    /// One outcome per cell, in expansion order.
    pub outcomes: Vec<RunOutcome>,
    /// Each cell's scenario digest, in expansion order: the digests
    /// expansion computed, so the manifest need not hash any scenario
    /// again. Set only by [`assemble_run`], from the cells it was given.
    pub(crate) digests: Vec<String>,
    /// Output assertions that failed: pinned cells whose run produced
    /// different results even though the verifier may have been clean.
    pub output_mismatches: Vec<OutputMismatch>,
    /// The checksum of each outcome's canonical record bytes (`None`
    /// where it has no record), when the caller already hashed them —
    /// verified on read or staged for write. Empty when unknown:
    /// [`Manifest::from_run`] then renders each record to hash it.
    pub checksums: Vec<Option<String>>,
}

impl SuiteRun {
    /// The completed records, in expansion order (cells that exhausted
    /// or poisoned have none).
    pub fn records(&self) -> impl Iterator<Item = &ReportRecord> {
        self.outcomes.iter().filter_map(|o| o.record())
    }

    /// Number of cells whose run completed and met its mode's
    /// correctness bar.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.ok()).count()
    }

    /// Whether every cell completed clean *and* every pinned output
    /// assertion held.
    pub fn all_ok(&self) -> bool {
        self.ok_count() == self.outcomes.len() && self.output_mismatches.is_empty()
    }
}

/// Expand and execute every cell of `suite` across worker threads
/// (`APEX_RUNNER_THREADS` controls fan-out, as everywhere else).
///
/// Fails up front if the suite is ill-formed. Each cell runs under
/// `catch_unwind` ([`RunOutcome::capture`]): a stall-budget trip becomes
/// a typed `exhausted` outcome, any other panic a `poisoned` one, and
/// the remaining cells run regardless.
pub fn run_suite(suite: &Suite) -> Result<SuiteRun, String> {
    let cells = suite.expand()?;
    Ok(run_cells(suite, &cells))
}

/// [`run_suite`] over an already-expanded cell list (callers that need
/// the cells anyway, e.g. drift, avoid expanding twice).
pub fn run_cells(suite: &Suite, cells: &[Cell]) -> SuiteRun {
    let outcomes = run_trials(cells, resolve_threads(None), |cell| {
        RunOutcome::capture(&cell.scenario)
    });
    assemble_run(suite, cells, outcomes)
}

/// Run one cell of a store-backed campaign under `catch_unwind`
/// ([`RunOutcome::capture_opts`]). A [`FaultInjector`] installed on
/// `store` that plans a panic for this cell index gets one, so the
/// isolation path is exercised exactly as a genuine engine panic would
/// exercise it. The journaled runner and the farm worker both execute
/// cells through here.
///
/// [`FaultInjector`]: crate::fault::FaultInjector
pub fn capture_cell(store: &LabStore, cell: &Cell, opts: &RunOpts) -> RunOutcome {
    if store.faults().is_some_and(|f| f.panics_cell(cell.index)) {
        RunOutcome::capture_with(&cell.scenario, |_| {
            panic!("{CELL_PANIC_MARKER} in cell {}", cell.index)
        })
    } else {
        RunOutcome::capture_opts(&cell.scenario, opts)
    }
}

/// The journal entry that claims `cell` for execution. The journaled
/// runner and the farm worker both claim through here.
pub fn claim_entry(cell: &Cell) -> JournalEntry {
    JournalEntry::Claimed {
        index: cell.index as u64,
        cell: cell.digest.clone(),
    }
}

/// The journal entry that makes `cell` terminal: `committed` when its
/// outcome carries a record, `poisoned` (with the outcome's status and
/// message) when it does not. `by` names the committing worker (empty
/// for a single runner). The journaled runner and the farm worker both
/// journal through here.
pub fn terminal_entry(cell: &Cell, outcome: &RunOutcome, by: &str) -> JournalEntry {
    let (index, digest, by) = (cell.index as u64, cell.digest.clone(), by.to_string());
    match outcome {
        RunOutcome::Complete(_) => JournalEntry::Committed {
            index,
            cell: digest,
            ok: outcome.ok(),
            by,
        },
        RunOutcome::Exhausted { message, .. } | RunOutcome::Poisoned { message, .. } => {
            JournalEntry::Poisoned {
                index,
                cell: digest,
                status: outcome.status().to_string(),
                message: message.clone(),
                by,
            }
        }
    }
}

/// One group commit's worth of durable writes for one suite.
#[derive(Debug, Default)]
pub struct CommitBatch<'r> {
    /// `claimed` lines for the cells that started ([`claim_entry`]).
    pub claims: Vec<JournalEntry>,
    /// Records of the cells that finished with one, to be written.
    pub records: Vec<&'r ReportRecord>,
    /// Terminal lines for the cells that finished ([`terminal_entry`]).
    pub terminals: Vec<JournalEntry>,
}

/// The group committer of one suite's journal and records: each
/// [`Committer::commit`] makes a whole [`CommitBatch`] durable with at
/// most three barriers, whatever its size (the protocol and the five
/// invariants it keeps are in [`crate::journal`]). The journaled runner
/// and the farm worker both commit through here, on the store's
/// [`Disk`](crate::Disk), and it reports what the disk issued for it:
/// [`Committer::fsyncs`] and [`Committer::bytes`].
#[derive(Debug)]
pub struct Committer<'s> {
    store: &'s LabStore,
    suite_digest: String,
    by: String,
    journal: Journal,
    barriers_before: u64,
    bytes: u64,
}

impl<'s> Committer<'s> {
    /// A committer for `suite_digest`'s journal and records in `store`,
    /// writing as `by`: empty for a single runner, the worker id for a
    /// farm worker.
    pub fn new(store: &'s LabStore, suite_digest: &str, by: &str) -> Self {
        Committer {
            store,
            suite_digest: suite_digest.to_string(),
            by: by.to_string(),
            journal: store.journal(suite_digest),
            barriers_before: store.disk().barriers(),
            bytes: 0,
        }
    }

    /// Where the record bound for `path` is staged: its plain `.tmp`
    /// sibling for a single runner, so a resumed run overwrites what a
    /// crash left there. Farm workers may commit the same record at
    /// once, so each stages its own file (`<name>.<worker>.tmp`) that
    /// no other worker can truncate or rename.
    fn temp_for(&self, path: &Path) -> std::io::Result<PathBuf> {
        let tmp = apex_scenario::temp_path(path)?;
        Ok(if self.by.is_empty() {
            tmp
        } else {
            tmp.with_extension(format!("{}.tmp", self.by))
        })
    }

    /// Append one entry durably (`started`, `finished`, a farm probe):
    /// one line and one barrier.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), String> {
        self.journal
            .append(entry)
            .map_err(|e| format!("journal append failed: {e}"))
    }

    /// Make `batch` durable: claims and staged records, barrier 1,
    /// renames, barrier 2, terminal lines, barrier 3 — skipping each
    /// barrier that would cover nothing. Returns the checksum of each
    /// record's staged bytes, in `batch.records` order (what the
    /// manifest rows pin).
    pub fn commit(&mut self, batch: &CommitBatch<'_>) -> Result<Vec<String>, String> {
        let jerr = |e: std::io::Error| format!("journal append failed: {e}");
        let werr = |e: std::io::Error| format!("record write failed: {e}");
        self.journal
            .append_batch(&batch.claims, false)
            .map_err(jerr)?;
        let (mut temps, mut paths) = (Vec::new(), Vec::new());
        let mut checksums = Vec::with_capacity(batch.records.len());
        for record in &batch.records {
            let text = record.render_pretty();
            checksums.push(digest_hex(text.as_bytes()));
            let path = self.store.record_path(&self.suite_digest, &record.digest());
            let tmp = self.temp_for(&path).map_err(werr)?;
            self.store.stage_text(&path, &tmp, &text).map_err(werr)?;
            self.bytes += text.len() as u64;
            temps.push(tmp);
            paths.push(path);
        }
        if !temps.is_empty() {
            let (disk, dir) = (self.store.disk(), self.store.suite_dir(&self.suite_digest));
            let mut synced: Vec<&Path> = temps.iter().map(PathBuf::as_path).collect();
            synced.push(self.journal.path());
            disk.sync_files(&dir, &synced).map_err(werr)?;
            for (tmp, path) in temps.iter().zip(&paths) {
                match disk.rename(tmp, path) {
                    // A worker that found the suite finished swept this
                    // farm worker's temp: finalize verified the record
                    // already at its final path.
                    Err(e)
                        if e.kind() == std::io::ErrorKind::NotFound
                            && !self.by.is_empty()
                            && path.exists() => {}
                    done => done.map_err(werr)?,
                }
            }
            disk.sync_dir(&dir);
        }
        self.journal
            .append_batch(&batch.terminals, true)
            .map_err(jerr)?;
        Ok(checksums)
    }

    /// Durability barriers the store's disk issued since this committer
    /// was made.
    pub fn fsyncs(&self) -> u64 {
        self.store.disk().barriers() - self.barriers_before
    }

    /// Record bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// What the verified-read pass ([`read_verified`]) found at one cell's
/// content address: a [`CacheLookup`] whose hit has had its file text
/// hashed and dropped.
#[derive(Debug)]
pub enum CachedCell {
    /// Verified bytes: their checksum and the parsed record.
    Hit(String, Box<ReportRecord>),
    /// No file at the cell's content address.
    Miss,
    /// Bytes present but untrustworthy; the reason they failed
    /// verification.
    Rejected(String),
}

impl CachedCell {
    /// Count this verdict into `stats` and return its trace label:
    /// `hit`, `miss` or `rejected`.
    pub fn tally(&self, stats: &mut CacheStats) -> &'static str {
        match self {
            CachedCell::Hit(..) => {
                stats.hits += 1;
                "hit"
            }
            CachedCell::Miss => {
                stats.misses += 1;
                "miss"
            }
            CachedCell::Rejected(_) => {
                stats.rejected += 1;
                "rejected"
            }
        }
    }
}

/// The verified-read pass: look up every cell of `cells` in suite
/// `suite_digest` of `store` by the rules of [`LabStore::lookup_record`]
/// (own address, canonical rendering, and the pinned checksum of
/// `manifest`'s row, found through a digest index built once), on up to
/// `threads` runner threads ([`run_trials`]). Each worker hashes a hit's
/// verified bytes once — or takes the pin they just matched — and drops
/// the text, so only parsed records outlive the pass.
///
/// The verdicts come back in cell order: a caller that tallies them and
/// traces them in that order ([`CachedCell::tally`]) gets the same
/// [`CacheStats`] and the same events at every thread count.
pub fn read_verified(
    store: &LabStore,
    suite_digest: &str,
    cells: &[Cell],
    manifest: Option<&Manifest>,
    threads: usize,
) -> Vec<CachedCell> {
    let pins = manifest.map(Manifest::pins);
    run_trials(cells, threads, |cell| {
        let pinned = pins
            .as_ref()
            .and_then(|p| p.get(cell.digest.as_str()).copied().flatten());
        match store.lookup_pinned(suite_digest, &cell.digest, pinned) {
            CacheLookup::Hit(text, record) => {
                let checksum = pinned.map_or_else(|| digest_hex(text.as_bytes()), str::to_string);
                CachedCell::Hit(checksum, record)
            }
            CacheLookup::Miss => CachedCell::Miss,
            CacheLookup::Rejected(why) => CachedCell::Rejected(why),
        }
    })
}

/// Check pinned outputs and assemble the [`SuiteRun`] from outcomes in
/// expansion order — the farm's manifest merger reconstructs outcomes
/// from verified records plus journal entries and finalizes through this
/// same path, so its manifest is byte-identical to a single-runner one.
pub fn assemble_run(suite: &Suite, cells: &[Cell], outcomes: Vec<RunOutcome>) -> SuiteRun {
    // Check the suite's pinned outputs against what actually ran
    // (expansion validated that every pinned digest names exactly one
    // cell).
    let mut output_mismatches = Vec::new();
    if !suite.expect.is_empty() {
        let position: HashMap<&str, usize> = cells
            .iter()
            .enumerate()
            .map(|(k, cell)| (cell.digest.as_str(), k))
            .collect();
        for expect in &suite.expect {
            let Some(&k) = position.get(expect.cell.as_str()) else {
                continue;
            };
            let (Some(cell), Some(outcome)) = (cells.get(k), outcomes.get(k)) else {
                continue;
            };
            let actual = outcome.record().and_then(|r| r.outputs.clone());
            if actual.as_deref() != Some(expect.outputs.as_slice()) {
                output_mismatches.push(OutputMismatch {
                    index: cell.index,
                    digest: cell.digest.clone(),
                    expected: expect.outputs.clone(),
                    actual,
                });
            }
        }
    }
    SuiteRun {
        name: suite.name.clone(),
        suite_digest: suite.digest(),
        outcomes,
        digests: cells.iter().map(|cell| cell.digest.clone()).collect(),
        output_mismatches,
        checksums: Vec::new(),
    }
}

/// Options for [`run_suite_journaled`].
#[derive(Clone, Debug, Default)]
pub struct JournalOpts {
    /// Resume an interrupted run: keep the existing journal and skip
    /// cells whose stored records digest-verify byte-for-byte.
    pub resume: bool,
    /// Memoize: consult the store before executing any cell, skip
    /// verified hits, and tally a [`CacheStats`] (also written to
    /// `metrics.json` as `cache.*` counters). Unlike `resume`, hits are
    /// also checked against the existing manifest's pinned checksums, and
    /// the tally distinguishes misses from rejected
    /// (present-but-unverified) bytes.
    pub cached: bool,
    /// Explicit worker-thread count (`None` resolves through
    /// [`resolve_threads`] — `APEX_RUNNER_THREADS` if set, else all
    /// cores; `Some(1)` forces the serial path, whose journal line order
    /// is fully deterministic).
    pub threads: Option<usize>,
    /// Runtime interpreter-engine override for scheme-mode cells
    /// ([`RunOpts::engine`]): `None` honors each scenario's own engine
    /// knob, and runs the bytecode VM where a scenario names none
    /// ([`ProgramEngine::resolve`](apex_scenario::ProgramEngine::resolve)).
    /// The override never changes a result byte — records,
    /// manifests, and digests are engine-independent.
    pub engine: Option<apex_scenario::ProgramEngine>,
    /// Telemetry plane: trace sink and metrics collection
    /// ([`apex_obs::ObsOpts`]). Telemetry observes the run and never
    /// steers it — with any of this on, every record, manifest, and
    /// digest byte is identical to a dark run.
    pub obs: ObsOpts,
}

/// The result of a journaled run: the run itself plus what resume
/// skipped vs executed.
#[derive(Clone, Debug)]
pub struct JournaledRun {
    /// The completed run.
    pub run: SuiteRun,
    /// The manifest written at the end.
    pub manifest: Manifest,
    /// Cell indices skipped because their stored record verified.
    pub skipped: Vec<usize>,
    /// Cell indices actually executed this time.
    pub executed: Vec<usize>,
    /// Memoization tally (all zero unless `resume` or `cached` consulted
    /// the store).
    pub cache: CacheStats,
    /// Wall-clock milliseconds spent executing this run's pending cells
    /// (telemetry only — never part of any stored result byte).
    pub elapsed_ms: u64,
    /// Machine ticks consumed by the cells executed this run (skipped
    /// cells contribute nothing — their ticks were paid for earlier).
    pub executed_ticks: u64,
    /// The unified metrics document written to `metrics.json` (empty
    /// unless the run requested metrics, profiling, or caching).
    pub metrics: Metrics,
}

impl JournaledRun {
    /// Cells that ended in the named terminal status.
    pub fn status_count(&self, status: &str) -> usize {
        self.run
            .outcomes
            .iter()
            .filter(|o| o.status() == status)
            .count()
    }

    /// Throughput over the executed cells, in ticks per second.
    pub fn ticks_per_sec(&self) -> u64 {
        self.executed_ticks.saturating_mul(1000) / self.elapsed_ms.max(1)
    }
}

/// Execute `suite` with a write-ahead journal in `store`.
///
/// Protocol: every cell is claimed (`claimed`) before it runs under
/// `catch_unwind`, then either its record is written and `committed`
/// appended, or `poisoned` is appended (no record). Claims and outcomes
/// are group-committed in whatever batches [`fan_out`] hands over
/// ([`Committer`]). The run starts with a `started` entry and — once the
/// manifest is durably written — ends with `finished`. A crash at *any*
/// boundary leaves a journal prefix plus a set of verified record files; re-running with
/// `opts.resume = true` skips every cell whose content-addressed record
/// already exists, parses, digest-verifies, and is byte-identical to
/// its canonical rendering, then executes only the remainder. The final
/// manifest and record set are byte-identical to an uninterrupted run
/// (the determinism the whole store is built on).
///
/// With a [`FaultInjector`](crate::fault::FaultInjector) installed on
/// `store`, injected kills surface as `Err` mid-run — exactly like a
/// real crash, minus the process exit.
pub fn run_suite_journaled(
    suite: &Suite,
    store: &LabStore,
    opts: &JournalOpts,
) -> Result<JournaledRun, String> {
    let cells = suite.expand()?;
    let suite_digest = suite.digest();
    let dir = store.suite_dir(&suite_digest);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal_path = store.journal_path(&suite_digest);
    if !opts.resume && journal_path.exists() {
        // A fresh run owns its journal; the previous history is not part
        // of this run's story. Records stay — they are content-addressed
        // and will be rewritten with identical bytes anyway.
        store
            .disk()
            .remove(&journal_path)
            .map_err(|e| format!("{}: {e}", journal_path.display()))?;
    }
    let mut committer = Committer::new(store, &suite_digest, "");

    // Telemetry plane. The trace sink (when requested) sees lab-scope
    // cell-lifecycle events from this coordinator thread plus engine-
    // scope events from inside each cell's run; with `threads = 1` the
    // full interleaving is deterministic (the golden canonical-trace test
    // pins it). Nothing here touches a result byte.
    let run_opts = RunOpts {
        engine: opts.engine,
        obs: opts
            .obs
            .open_trace()
            .map_err(|e| format!("trace open failed: {e}"))?,
    };
    let obs = &run_opts.obs;

    // Resume and the cache path share one rule: trust nothing but
    // verified bytes. A record is skippable only if it exists, parses
    // (which digest-verifies the embedded scenario), sits at its own
    // address, and is byte-identical to its canonical rendering — and,
    // on the cached path, matches the manifest row's pinned checksum.
    // The runner threads verify; this thread tallies and traces in cell
    // order.
    let threads = resolve_threads(opts.threads);
    let mut slots: Vec<Option<RunOutcome>> = vec![None; cells.len()];
    let mut checksums: Vec<Option<String>> = vec![None; cells.len()];
    let mut skipped = Vec::new();
    let mut cache = CacheStats::default();
    if opts.resume || opts.cached {
        let manifest = if opts.cached {
            store.read_manifest(&suite_digest).ok()
        } else {
            None
        };
        let reads = read_verified(store, &suite_digest, &cells, manifest.as_ref(), threads);
        for (cell, read) in cells.iter().zip(reads) {
            let verdict = read.tally(&mut cache);
            obs.emit("lab", "cache", cell.index as u64, verdict, &[]);
            if let CachedCell::Hit(checksum, record) = read {
                slots[cell.index] = Some(RunOutcome::Complete(record));
                checksums[cell.index] = Some(checksum);
                skipped.push(cell.index);
            }
        }
    }

    committer.append(&JournalEntry::Started {
        suite: suite_digest.clone(),
        name: suite.name.clone(),
        cells: cells.len() as u64,
        resumed: opts.resume,
    })?;

    let executed: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();

    // Journal + store writes all happen on this thread, one group commit
    // per batch of events; workers only run scenarios. A cell's claim is
    // committed in the batch of its `Started` event, before (or with)
    // its outcome's. With `threads = 1` the cells run inline and every
    // batch is one event, so the line sequence is fully deterministic
    // (the golden-journal test pins it).
    let pending: Vec<&Cell> = executed.iter().map(|&i| &cells[i]).collect();
    let started_at = std::time::Instant::now();
    fan_out(
        &pending,
        threads,
        |cell| capture_cell(store, cell, &run_opts),
        |batch| -> Result<(), String> {
            let mut started = Vec::new();
            let mut finished = Vec::new();
            for event in batch {
                match event {
                    Event::Started(k) => started.push(pending[k]),
                    Event::Finished(k, outcome) => {
                        let cell = pending[k];
                        let outcome = outcome
                            .map_err(|msg| format!("cell {} worker panicked: {msg}", cell.index))?;
                        finished.push((cell, outcome));
                    }
                }
            }
            let staged = committer.commit(&CommitBatch {
                claims: started.iter().map(|cell| claim_entry(cell)).collect(),
                records: finished.iter().filter_map(|(_, o)| o.record()).collect(),
                terminals: finished
                    .iter()
                    .map(|(cell, o)| terminal_entry(cell, o, ""))
                    .collect(),
            })?;
            let with_record = finished.iter().filter(|(_, o)| o.record().is_some());
            for ((cell, _), checksum) in with_record.zip(staged) {
                checksums[cell.index] = Some(checksum);
            }
            for cell in started {
                obs.emit("lab", "claim", cell.index as u64, &cell.digest, &[]);
            }
            for (cell, outcome) in finished {
                let (index, digest) = (cell.index as u64, &cell.digest);
                match outcome.record() {
                    Some(_) => obs.emit(
                        "lab",
                        "commit",
                        index,
                        digest,
                        &[("ok", outcome.ok().into())],
                    ),
                    None => obs.emit("lab", outcome.status(), index, digest, &[]),
                }
                slots[cell.index] = Some(outcome);
            }
            Ok(())
        },
    )?;

    let elapsed_ms = apex_obs::elapsed_ms(started_at);
    let outcomes: Vec<RunOutcome> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.ok_or(format!("cell {i} never reached a terminal state")))
        .collect::<Result<_, _>>()?;
    let executed_ticks: u64 = executed
        .iter()
        .filter_map(|&i| outcomes[i].record())
        .map(|r| r.report.ticks())
        .sum();
    let mut run = assemble_run(suite, &cells, outcomes);
    // Records are already durable (committed incrementally above); only
    // the manifest remains, pinning the checksums hashed on the way.
    run.checksums = checksums;
    let manifest = Manifest::from_run(&run);
    store
        .write_manifest(&manifest)
        .map_err(|e| format!("manifest write failed: {e}"))?;
    // Telemetry, not store identity — written before the `finished` line
    // so a crash right after finalize still has it.
    let metrics = build_run_metrics(
        opts,
        &run,
        &cache,
        &executed,
        executed_ticks,
        elapsed_ms,
        &committer,
    );
    if !metrics.is_empty() {
        store
            .write_metrics(&suite_digest, &metrics)
            .map_err(|e| format!("metrics write failed: {e}"))?;
    }
    obs.flush();
    committer.append(&JournalEntry::Finished {
        ok: run.all_ok(),
        seq: next_finish_seq(store),
    })?;
    Ok(JournaledRun {
        run,
        manifest,
        skipped,
        executed,
        cache,
        elapsed_ms,
        executed_ticks,
        metrics,
    })
}

/// Assemble the unified per-run metrics document ([`apex_obs::Metrics`],
/// written to `metrics.json`) from a finished run's tallies. Empty when
/// no telemetry was requested.
///
/// Namespaces, chosen so [`Metrics::result_plane`] captures exactly the
/// partition-independent slice: `cells.*` / `ticks.*` counters and
/// `cells.*` gauges are deterministic functions of *what* was computed
/// (a fleet drain's merge equals the serial run's aggregate), while
/// `cache.*` coordination tallies, the committer's `store.*` counts and
/// wall-clock `time.*` describe *how this run* got there. `store.fsyncs`
/// counts the barriers issued before the manifest (the `started` line
/// and every group commit's); at more than one thread it depends on how
/// events happened to batch.
fn build_run_metrics(
    opts: &JournalOpts,
    run: &SuiteRun,
    cache: &CacheStats,
    executed: &[usize],
    executed_ticks: u64,
    elapsed_ms: u64,
    committer: &Committer<'_>,
) -> Metrics {
    let mut metrics = Metrics::new();
    if !(opts.obs.metrics || opts.obs.profile || opts.cached) {
        return metrics;
    }
    metrics.gauge_max("cells.total", run.outcomes.len() as u64);
    metrics.add("cells.executed", executed.len() as u64);
    let count = |pred: &dyn Fn(&RunOutcome) -> bool| {
        executed.iter().filter(|&&i| pred(&run.outcomes[i])).count() as u64
    };
    metrics.add("cells.ok", count(&|o| o.ok()));
    metrics.add("cells.exhausted", count(&|o| o.status() == "exhausted"));
    metrics.add("cells.poisoned", count(&|o| o.status() == "poisoned"));
    metrics.add("ticks.executed", executed_ticks);
    metrics.add("cache.hits", cache.hits);
    metrics.add("cache.misses", cache.misses);
    metrics.add("cache.rejected", cache.rejected);
    metrics.add("store.fsyncs", committer.fsyncs());
    metrics.add("store.bytes", committer.bytes());
    for &i in executed {
        if let Some(record) = run.outcomes[i].record() {
            metrics.observe_with("cells.ticks", &POW2_BOUNDS, record.report.ticks());
        }
    }
    if opts.obs.profile {
        // The only wall-clock entry — profiling plane, never compared.
        metrics.add("time.elapsed_ms", elapsed_ms);
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_config_order_regardless_of_threads() {
        let configs: Vec<u64> = (0..64).collect();
        // Uneven per-trial cost to force out-of-order completion.
        let work = |&c: &u64| {
            let mut acc = c;
            for _ in 0..(c % 7) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (c, acc)
        };
        let serial = run_trials(&configs, 1, work);
        let parallel = run_trials(&configs, 8, work);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 64);
        assert!(serial.iter().enumerate().all(|(i, (c, _))| *c == i as u64));
    }

    #[test]
    fn inline_fan_out_interleaves_start_and_finish_in_config_order() {
        let configs = [10u32, 20, 30];
        let mut seen = Vec::new();
        let caller = std::thread::current().id();
        let done: Result<(), ()> = fan_out(
            &configs,
            1,
            |&c| {
                assert_eq!(std::thread::current().id(), caller, "inline trials");
                c + 1
            },
            |batch| {
                assert_eq!(batch.len(), 1, "inline batches hold one event");
                seen.extend(batch.into_iter().map(|event| match event {
                    Event::Started(i) => format!("s{i}"),
                    Event::Finished(i, out) => format!("f{i}={}", out.unwrap()),
                }));
                Ok(())
            },
        );
        assert_eq!(done, Ok(()));
        assert_eq!(seen, ["s0", "f0=11", "s1", "f1=21", "s2", "f2=31"]);
    }

    #[test]
    fn callback_error_stops_the_fan_out() {
        let configs: Vec<u32> = (0..200).collect();
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let mut finished = 0;
            let done = fan_out(
                &configs,
                threads,
                |_| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    ran.fetch_add(1, Ordering::SeqCst)
                },
                |batch| {
                    for event in batch {
                        if let Event::Finished(..) = event {
                            if finished == 2 {
                                return Err("stop");
                            }
                            finished += 1;
                        }
                    }
                    Ok(())
                },
            );
            assert_eq!(done, Err("stop"));
            // Inline, nothing runs past the failing callback; threaded,
            // only trials already taken when the error landed finish.
            let ran = ran.load(Ordering::SeqCst);
            if threads == 1 {
                assert_eq!(ran, 3);
            } else {
                assert!(ran < configs.len() / 2, "threads={threads}: {ran} ran");
            }
        }
    }

    #[test]
    fn a_panicking_trial_surfaces_only_after_every_other_trial_ran() {
        let configs: Vec<u32> = (0..8).collect();
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_trials(&configs, threads, |&c| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    assert_ne!(c, 5, "injected fault");
                })
            }));
            let payload = caught.unwrap_err();
            let msg = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("trial 5 worker panicked"), "{msg}");
            assert!(msg.contains("injected fault"), "{msg}");
            assert_eq!(ran.load(Ordering::SeqCst), 8, "threads={threads}");
        }
    }
}
