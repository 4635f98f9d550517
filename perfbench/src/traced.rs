//! The traced run: the suite pipeline behind `run_suite_journaled`,
//! re-driven step by step through each layer's public functions, with
//! every call timed from outside. Nothing inside the program is
//! instrumented, so the records must come out byte-identical to the
//! untraced run's; the caller checks that.

use std::cell::Cell as StdCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use apex_lab::{
    assemble_run, digest_hex, next_finish_seq, CacheLookup, Cell, Journal, JournalEntry, LabStore,
    Manifest, Suite,
};
use apex_pram::refexec::{execute, Choices};
use apex_scenario::{
    AgreementRunReport, Mode, ProgramEngine, ReportRecord, RunOutcome, Scenario, ScenarioReport,
};
use apex_scheme::verify::{verify, ObservedRun};
use apex_scheme::{SchemeRun, SchemeRunConfig};
use apex_sim::{ProcId, DEFAULT_BATCH};

use crate::Counts;

/// What one cell cost, layer by layer, on the worker that ran it.
#[derive(Debug, Default)]
struct CellTrace {
    /// Scenario assembly, minus the bytecode lowering inside it.
    build: Duration,
    compile: Duration,
    /// `SchemeRun::run`.
    run: Duration,
    /// `AgreementRun::run_phases`.
    agreement: Duration,
    /// `ReportRecord::from_run` + render + digest.
    record: Duration,
    record_bytes: u64,
    checksum: Option<String>,
    blocks: u64,
    scheme_ticks: u64,
    slots: u64,
    live_slots: u64,
    /// The whole cell, claim excluded.
    busy: Duration,
}

/// One traced pass over the suite: layer times and counts summed over
/// its cells.
#[derive(Debug, Default)]
pub struct TracedPass {
    pub wall: Duration,
    pub expand: Duration,
    pub build: Duration,
    pub compile: Duration,
    pub run: Duration,
    pub agreement: Duration,
    pub record: Duration,
    pub write: Duration,
    pub journal: Duration,
    pub manifest: Duration,
    pub lookup: Duration,
    pub commit_wait: Duration,
    pub busy: Duration,
    pub record_bytes: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub appends: u64,
    pub lookups: u64,
    pub hits: u64,
    pub blocks: u64,
    pub scheme_ticks: u64,
    pub slots: u64,
    pub live_slots: u64,
    /// Claim to durable commit, one sample per executed cell.
    pub latencies: Vec<Duration>,
    /// Record checksum per cell index (`None` when the cell has no
    /// record).
    pub checksums: Vec<Option<String>>,
    /// Cells that are not complete and ok, or whose pinned outputs
    /// mismatch, or (cached) that were not verified hits.
    pub bad_cells: Vec<usize>,
    pub counts: Counts,
}

impl TracedPass {
    /// Sum of the layer self times. Verification and schedule sampling
    /// are nested inside `run` and `agreement`, so they add nothing here.
    pub fn self_time(&self) -> Duration {
        self.expand
            + self.build
            + self.compile
            + self.run
            + self.agreement
            + self.record
            + self.write
            + self.journal
            + self.manifest
            + self.lookup
    }

    fn absorb(&mut self, tr: CellTrace) {
        self.build += tr.build;
        self.compile += tr.compile;
        self.run += tr.run;
        self.agreement += tr.agreement;
        self.record += tr.record;
        self.record_bytes += tr.record_bytes;
        self.blocks += tr.blocks;
        self.scheme_ticks += tr.scheme_ticks;
        self.slots += tr.slots;
        self.live_slots += tr.live_slots;
        self.busy += tr.busy;
    }

    fn append(&mut self, journal: &Journal, entry: &JournalEntry) -> Result<(), String> {
        let t = Instant::now();
        journal
            .append(entry)
            .map_err(|e| format!("journal append failed: {e}"))?;
        self.journal += t.elapsed();
        self.appends += 1;
        Ok(())
    }

    /// Write the record (if any) and journal the cell's terminal state,
    /// exactly as the runner's coordinator does.
    fn commit(
        &mut self,
        store: &LabStore,
        journal: &Journal,
        suite_digest: &str,
        cell: &Cell,
        outcome: &RunOutcome,
        bytes: u64,
    ) -> Result<(), String> {
        let entry = match outcome {
            RunOutcome::Complete(record) => {
                let t = Instant::now();
                store
                    .write_record(suite_digest, record)
                    .map_err(|e| format!("record write failed: {e}"))?;
                self.write += t.elapsed();
                self.writes += 1;
                self.write_bytes += bytes;
                JournalEntry::Committed {
                    index: cell.index as u64,
                    cell: cell.digest.clone(),
                    ok: outcome.ok(),
                    by: String::new(),
                }
            }
            RunOutcome::Exhausted { message, .. } | RunOutcome::Poisoned { message, .. } => {
                JournalEntry::Poisoned {
                    index: cell.index as u64,
                    cell: cell.digest.clone(),
                    status: outcome.status().to_string(),
                    message: message.clone(),
                    by: String::new(),
                }
            }
        };
        self.append(journal, &entry)
    }
}

/// Assemble a scheme run. Bytecode cells go through
/// `SchemeRun::new_with_factory` so the lowering pass can be timed apart
/// from the rest of the assembly.
fn assemble(s: &Scenario, tr: &mut CellTrace) -> SchemeRun {
    if s.engine.program_engine != ProgramEngine::Bytecode {
        return s.build_scheme();
    }
    let Mode::Scheme {
        scheme,
        program,
        replicas,
    } = &s.mode
    else {
        unreachable!("assemble is only called on scheme-mode cells");
    };
    let program = program
        .resolve()
        .expect("suite validation resolved the program");
    let mut cfg = SchemeRunConfig::new(*scheme, s.seed).schedule(s.schedule.clone());
    cfg.k = *replicas;
    cfg.agreement = s.agreement;
    cfg.batch = s.engine.batch;
    cfg.tick_budget = s.engine.tick_budget;
    SchemeRun::new_with_factory(program, cfg, |parts| {
        let t = Instant::now();
        let compiled = Rc::new(apex_bc::compile(parts));
        tr.compile = t.elapsed();
        let stats = compiled.stats();
        tr.slots = stats.slots;
        tr.live_slots = stats.live_slots;
        apex_bc::factory_of(compiled, parts)
    })
}

/// A block hook that counts the machine's dispatch blocks.
fn block_counter() -> (Rc<StdCell<u64>>, Box<apex_sim::BlockHook>) {
    let blocks = Rc::new(StdCell::new(0u64));
    let seen = Rc::clone(&blocks);
    (blocks, Box::new(move |_, _, _| seen.set(seen.get() + 1)))
}

/// Run one cell layer by layer and build its record.
fn traced_record(s: &Scenario, tr: &mut CellTrace) -> ReportRecord {
    let report = match &s.mode {
        Mode::Scheme { .. } => {
            let t = Instant::now();
            let mut run = assemble(s, tr);
            tr.build = t.elapsed().saturating_sub(tr.compile);
            let (blocks, hook) = block_counter();
            run.machine_mut().set_block_hook(hook);
            let t = Instant::now();
            let report = run.run();
            tr.run = t.elapsed();
            tr.blocks = blocks.get();
            tr.scheme_ticks = report.ticks;
            ScenarioReport::Scheme(report)
        }
        Mode::Agreement { phases, .. } => {
            let t = Instant::now();
            let mut run = s.build_agreement();
            tr.build = t.elapsed();
            let (blocks, hook) = block_counter();
            run.machine_mut().set_block_hook(hook);
            let t = Instant::now();
            let outcomes = run.run_phases(*phases);
            tr.agreement = t.elapsed();
            tr.blocks = blocks.get();
            ScenarioReport::Agreement(AgreementRunReport {
                outcomes,
                ticks: run.machine().ticks(),
                stability_violations: run.stability_violations(),
            })
        }
        #[allow(unreachable_patterns)]
        _ => panic!("the benchmark's suites hold scheme and agreement cells only"),
    };
    let t = Instant::now();
    let record = ReportRecord::from_run(s.clone(), report);
    let text = record.render_pretty();
    tr.checksum = Some(digest_hex(text.as_bytes()));
    tr.record_bytes = text.len() as u64;
    tr.record = t.elapsed();
    record
}

fn run_cell(cell: &Cell) -> (RunOutcome, CellTrace) {
    let start = Instant::now();
    let mut tr = CellTrace::default();
    let outcome = RunOutcome::capture_with(&cell.scenario, |s| traced_record(s, &mut tr));
    tr.busy = start.elapsed();
    (outcome, tr)
}

/// One traced pass: load, validate and expand the suite, consult the
/// store when `cached`, run the pending cells on `threads` workers with
/// a single committing coordinator, then write the manifest and the
/// `finished` journal line.
pub fn traced_pass(
    suite_path: &Path,
    store: &LabStore,
    threads: usize,
    cached: bool,
) -> Result<TracedPass, String> {
    let mut p = TracedPass::default();
    let start = Instant::now();
    let suite = Suite::load(suite_path)?;
    suite.validate()?;
    let cells = suite.expand()?;
    let suite_digest = suite.digest();
    let dir = store.suite_dir(&suite_digest);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal_path = store.journal_path(&suite_digest);
    if journal_path.exists() {
        std::fs::remove_file(&journal_path)
            .map_err(|e| format!("{}: {e}", journal_path.display()))?;
    }
    let journal = Journal::new(&journal_path);
    p.expand = start.elapsed();

    let mut slots: Vec<Option<RunOutcome>> = vec![None; cells.len()];
    p.checksums = vec![None; cells.len()];
    if cached {
        let t = Instant::now();
        let manifest = store.read_manifest(&suite_digest).ok();
        for cell in &cells {
            p.lookups += 1;
            if let CacheLookup::Hit(text, record) =
                store.lookup_record(&suite_digest, &cell.digest, manifest.as_ref())
            {
                p.checksums[cell.index] = Some(digest_hex(text.as_bytes()));
                slots[cell.index] = Some(RunOutcome::Complete(record));
                p.hits += 1;
            }
        }
        p.lookup = t.elapsed();
    }
    p.append(
        &journal,
        &JournalEntry::Started {
            suite: suite_digest.clone(),
            name: suite.name.clone(),
            cells: cells.len() as u64,
            resumed: false,
        },
    )?;

    let pending: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();
    if cached {
        p.bad_cells.extend(&pending);
    }
    let threads = threads.min(pending.len().max(1));
    if threads <= 1 {
        for &i in &pending {
            let cell = &cells[i];
            let claimed = Instant::now();
            p.append(
                &journal,
                &JournalEntry::Claimed {
                    index: i as u64,
                    cell: cell.digest.clone(),
                },
            )?;
            let (outcome, tr) = run_cell(cell);
            let bytes = tr.record_bytes;
            p.checksums[i] = tr.checksum.clone();
            p.absorb(tr);
            p.commit(store, &journal, &suite_digest, cell, &outcome, bytes)?;
            p.latencies.push(claimed.elapsed());
            slots[i] = Some(outcome);
        }
    } else {
        #[allow(clippy::large_enum_variant)]
        enum Msg {
            Claimed(usize, Instant),
            Done(usize, RunOutcome, CellTrace, Instant),
        }
        let stop = AtomicBool::new(false);
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<Msg>();
        let mut claimed_at: HashMap<usize, Instant> = HashMap::new();
        let result: Result<(), String> = std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let (cursor, stop, pending, cells) = (&cursor, &stop, &pending, &cells);
                scope.spawn(move || loop {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = pending.get(k) else { break };
                    if tx.send(Msg::Claimed(i, Instant::now())).is_err() {
                        break;
                    }
                    let (outcome, tr) = run_cell(&cells[i]);
                    if tx.send(Msg::Done(i, outcome, tr, Instant::now())).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut first_err = None;
            for msg in rx {
                if first_err.is_some() {
                    continue;
                }
                let step = match msg {
                    Msg::Claimed(i, at) => {
                        claimed_at.insert(i, at);
                        p.append(
                            &journal,
                            &JournalEntry::Claimed {
                                index: i as u64,
                                cell: cells[i].digest.clone(),
                            },
                        )
                    }
                    Msg::Done(i, outcome, tr, done_at) => {
                        p.commit_wait += done_at.elapsed();
                        let bytes = tr.record_bytes;
                        p.checksums[i] = tr.checksum.clone();
                        p.absorb(tr);
                        let step =
                            p.commit(store, &journal, &suite_digest, &cells[i], &outcome, bytes);
                        if let Some(at) = claimed_at.get(&i) {
                            p.latencies.push(at.elapsed());
                        }
                        slots[i] = Some(outcome);
                        step
                    }
                };
                if let Err(e) = step {
                    stop.store(true, Ordering::SeqCst);
                    first_err = Some(e);
                }
            }
            first_err.map_or(Ok(()), Err)
        });
        result?;
    }
    let outcomes: Vec<RunOutcome> = slots
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.ok_or_else(|| format!("cell {i} never reached a terminal state")))
        .collect::<Result<_, _>>()?;

    let t = Instant::now();
    let run = assemble_run(&suite, &cells, outcomes);
    let manifest = Manifest::from_run(&run);
    store
        .write_manifest(&manifest)
        .map_err(|e| format!("manifest write failed: {e}"))?;
    p.manifest = t.elapsed();
    if cached {
        // The cached path also leaves its tallies in metrics.json.
        let mut metrics = apex_obs::Metrics::new();
        metrics.gauge_max("cells.total", cells.len() as u64);
        metrics.add("cells.executed", pending.len() as u64);
        metrics.add("cache.hits", p.hits);
        metrics.add("cache.misses", p.lookups - p.hits);
        let t = Instant::now();
        store
            .write_metrics(&suite_digest, &metrics)
            .map_err(|e| format!("metrics write failed: {e}"))?;
        p.write += t.elapsed();
        p.writes += 1;
    }
    let t = Instant::now();
    let seq = next_finish_seq(store);
    p.journal += t.elapsed();
    p.append(
        &journal,
        &JournalEntry::Finished {
            ok: run.all_ok(),
            seq,
        },
    )?;
    p.wall = start.elapsed();

    for (i, outcome) in run.outcomes.iter().enumerate() {
        if !outcome.ok() {
            p.bad_cells.push(i);
        }
    }
    p.bad_cells
        .extend(run.output_mismatches.iter().map(|m| m.index));
    p.bad_cells.sort_unstable();
    p.bad_cells.dedup();
    p.counts = Counts::of(&run.outcomes);
    Ok(p)
}

/// Standalone replays of the two layers nested inside a cell's run.
#[derive(Debug, Default)]
pub struct Replays {
    /// Schedule decisions the machines drew: `⌈ticks / batch⌉ · batch`
    /// per cell, since the machine refills a whole batch at a time.
    pub draws: u64,
    /// Drawing those decisions again through `AdversarySpec::build` +
    /// `Schedule::next_batch`.
    pub sched: Duration,
    /// Verifying every scheme cell's program against the reference
    /// executor (`apex_scheme::verify::verify`).
    pub verify: Duration,
}

/// Replay schedule sampling and verification for every cell, given each
/// cell's machine ticks. Runs outside the traced wall.
pub fn replay(cells: &[Cell], ticks: &[u64]) -> Replays {
    let mut out = Replays::default();
    for (cell, &cell_ticks) in cells.iter().zip(ticks) {
        let s = &cell.scenario;
        let batch = s.engine.batch.unwrap_or(DEFAULT_BATCH) as u64;
        let refills = cell_ticks.div_ceil(batch);
        let mut buf = vec![ProcId(0); batch as usize];
        let t = Instant::now();
        let mut schedule = s.schedule.build(s.n(), s.seed);
        for _ in 0..refills {
            schedule.next_batch(&mut buf);
            black_box(&buf);
        }
        out.sched += t.elapsed();
        out.draws += refills * batch;

        if let Mode::Scheme { program, .. } = &s.mode {
            let program = program
                .resolve()
                .expect("suite validation resolved the program");
            let reference = execute(&program, &Choices::Seeded(s.seed));
            let observed = ObservedRun {
                chosen: reference.outputs,
                final_memory: reference.memory,
                ..ObservedRun::default()
            };
            let t = Instant::now();
            black_box(verify(&program, &observed));
            out.verify += t.elapsed();
        }
    }
    out
}
