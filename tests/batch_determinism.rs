//! Regression suite for the batched tick engine and the parallel trial
//! runner: batching and threading are pure performance devices and must
//! never change a single observable bit.
//!
//! * Every `Schedule` implementation's `next_batch` must emit exactly the
//!   stream its `next` emits (batch transparency), for every
//!   `ScheduleKind` in the gallery plus `Zipf` and `Crash`, under mixed
//!   and ragged chunk sizes.
//! * A `Machine` with the default batch must be tick-for-tick identical to
//!   the `batch(1)` per-tick reference configuration: same work counters,
//!   same per-processor work, same memory snapshot, same ordered write
//!   log (addresses, values, writers, and work stamps).
//! * The bytecode VM runs processor-private ops ahead of their ticks; for
//!   every scheme kind × schedule kind × batch size it must still perform
//!   the tree walker's writes on the same ticks: same ordered write log
//!   (old and new contents, writers, work stamps) and the same work
//!   report, per-processor work included.
//! * The parallel trial runner must reproduce serial results exactly, in
//!   config order.

use std::cell::RefCell;
use std::rc::Rc;

use apex::sim::{
    Machine, MachineBuilder, ProcId, Schedule, ScheduleKind, Script, ScriptSegment, ScriptSpec,
    Stamped, WorkReport,
};
use apex_scenario::{ProgramEngine, ProgramSource, Scenario};
use apex_scheme::SchemeKind;

/// Gallery plus the two kinds the ISSUE singles out.
fn all_kinds() -> Vec<ScheduleKind> {
    let mut kinds = ScheduleKind::gallery();
    kinds.push(ScheduleKind::Zipf { s: 1.2 });
    kinds.push(ScheduleKind::Crash {
        crash_frac: 0.3,
        horizon: 5_000,
    });
    kinds
}

/// Drain `total` decisions via `next_batch` in ragged chunks, with a few
/// interleaved single `next` calls to prove mixing is transparent.
fn drain_batched(s: &mut dyn Schedule, total: usize) -> Vec<ProcId> {
    let chunks = [1usize, 3, 7, 64, 256, 13];
    let mut out = Vec::with_capacity(total);
    let mut ci = 0;
    while out.len() < total {
        if out.len() % 5 == 4 {
            out.push(s.next());
            continue;
        }
        let k = chunks[ci % chunks.len()].min(total - out.len());
        ci += 1;
        let mut buf = vec![ProcId(0); k];
        s.next_batch(&mut buf);
        out.extend(buf);
    }
    out.truncate(total);
    out
}

#[test]
fn next_batch_matches_next_for_every_kind() {
    for kind in all_kinds() {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let mut serial = kind.build(16, seed);
            let mut batched = kind.build(16, seed);
            let want: Vec<ProcId> = (0..10_000).map(|_| serial.next()).collect();
            let got = drain_batched(batched.as_mut(), 10_000);
            assert_eq!(want, got, "{} diverged under batching", kind.label());
        }
    }
}

#[test]
fn scripted_schedule_batches_identically() {
    let mk = || {
        Script::new()
            .run(2, 5)
            .round_robin(&[0, 1, 3], 4)
            .then(ScheduleKind::Uniform.build(4, 99))
    };
    let mut serial = mk();
    let mut batched = mk();
    let want: Vec<ProcId> = (0..500).map(|_| serial.next()).collect();
    let got = drain_batched(&mut batched, 500);
    assert_eq!(want, got, "scripted schedule diverged under batching");
}

/// Ordered, fully stamped write log captured through a machine hook.
type WriteLog = Rc<RefCell<Vec<(usize, u64, u64, usize, u64)>>>;

fn logged_machine(kind: &ScheduleKind, seed: u64, batch: usize) -> (Machine, WriteLog) {
    let machine = MachineBuilder::new(12, 64)
        .seed(seed)
        .schedule_kind(kind)
        .batch(batch)
        .build(|ctx| async move {
            // Deterministic mixed workload: private randomness decides the
            // op, so the protocol exercises reads, writes, computes and
            // no-ops in a seed-reproducible pattern.
            loop {
                match ctx.rand_below(4).await {
                    0 => {
                        let a = ctx.rand_below(64).await as usize;
                        let v = ctx.read(a).await;
                        ctx.write(a, Stamped::new(v.value + 1, v.stamp + 1)).await;
                    }
                    1 => {
                        let a = ctx.rand_below(64).await as usize;
                        ctx.write(a, Stamped::new(ctx.id().0 as u64, 7)).await;
                    }
                    2 => ctx.compute().await,
                    _ => ctx.nop().await,
                }
            }
        });
    let log: WriteLog = Rc::new(RefCell::new(Vec::new()));
    let sink = log.clone();
    machine.add_write_hook(Box::new(move |ev| {
        sink.borrow_mut()
            .push((ev.addr, ev.new.value, ev.new.stamp, ev.writer.0, ev.work));
    }));
    (machine, log)
}

#[test]
fn machine_batched_equals_per_tick_reference_for_every_kind() {
    for kind in all_kinds() {
        let (mut reference, ref_log) = logged_machine(&kind, 42, 1);
        let (mut batched, batch_log) = logged_machine(&kind, 42, apex::sim::DEFAULT_BATCH);

        // The reference machine is driven tick-by-tick (recording the
        // scheduled processor sequence); the batched machine in blocks.
        let pids: Vec<ProcId> = (0..9_973).map(|_| reference.tick()).collect();
        batched.run_ticks(9_973);

        assert_eq!(reference.work(), batched.work(), "{}: work", kind.label());
        assert_eq!(
            reference.ticks(),
            batched.ticks(),
            "{}: ticks",
            kind.label()
        );
        assert_eq!(
            reference.per_proc_work(),
            batched.per_proc_work(),
            "{}: per-proc work",
            kind.label()
        );
        // The scheduled sequence seen by the reference engine must be what
        // the schedule itself emits — and the batched machine's per-proc
        // counters plus its ordered write log pin the same interleaving.
        let mut hist = vec![0u64; 12];
        for p in &pids {
            hist[p.0] += 1;
        }
        assert_eq!(
            hist.as_slice(),
            reference.per_proc_work(),
            "{}: sequence",
            kind.label()
        );

        let ra = reference.report();
        let rb = batched.report();
        assert_eq!(ra.mem_reads, rb.mem_reads, "{}: reads", kind.label());
        assert_eq!(ra.mem_writes, rb.mem_writes, "{}: writes", kind.label());

        let snap_a = reference.with_mem(|m| (0..64).map(|a| m.peek(a)).collect::<Vec<_>>());
        let snap_b = batched.with_mem(|m| (0..64).map(|a| m.peek(a)).collect::<Vec<_>>());
        assert_eq!(snap_a, snap_b, "{}: final memory", kind.label());

        assert_eq!(
            *ref_log.borrow(),
            *batch_log.borrow(),
            "{}: ordered write log (incl. work stamps)",
            kind.label()
        );
    }
}

#[test]
fn run_to_completion_stops_on_the_same_tick_as_the_reference() {
    for kind in all_kinds() {
        let build = |batch: usize| {
            MachineBuilder::new(8, 8)
                .seed(5)
                .schedule_kind(&kind)
                .batch(batch)
                .build(|ctx| async move {
                    let me = ctx.id().0;
                    for i in 1..=50u64 {
                        ctx.write(me, Stamped::new(i, 0)).await;
                    }
                })
        };
        let mut reference = build(1);
        let mut batched = build(apex::sim::DEFAULT_BATCH);
        let wa = reference
            .run_to_completion(10_000_000)
            .expect("reference completes");
        let wb = batched
            .run_to_completion(10_000_000)
            .expect("batched completes");
        assert_eq!(wa, wb, "{}: completion work", kind.label());
        assert_eq!(
            reference.ticks(),
            batched.ticks(),
            "{}: completion tick",
            kind.label()
        );
    }
}

#[test]
fn huge_tick_budgets_do_not_overflow_the_block_arithmetic() {
    // Regression: tick() leaves a partially consumed queue (qpos > 0);
    // an effectively-unbounded budget must saturate, not overflow.
    let mut m = MachineBuilder::new(2, 2)
        .seed(1)
        .schedule_kind(&ScheduleKind::RoundRobin)
        .build(|ctx| async move {
            let me = ctx.id().0;
            for i in 1..=3u64 {
                ctx.write(me, Stamped::new(i, 0)).await;
            }
        });
    m.tick();
    let work = m.run_to_completion(u64::MAX).expect("completes");
    assert_eq!(work, 6, "3 writes per processor");
}

#[test]
fn run_until_matches_the_reference() {
    let build = |batch: usize| {
        MachineBuilder::new(6, 6)
            .seed(11)
            .schedule_kind(&ScheduleKind::Bursty { mean_burst: 17 })
            .batch(batch)
            .build(|ctx| async move {
                let me = ctx.id().0;
                for i in 1..=200u64 {
                    ctx.write(me, Stamped::new(i, 0)).await;
                }
            })
    };
    let mut reference = build(1);
    let mut batched = build(apex::sim::DEFAULT_BATCH);
    let pred = |mem: &apex::sim::SharedMemory| (0..6).all(|a| mem.peek(a).value >= 40);
    let wa = reference.run_until(1_000_000, 97, pred).expect("reference");
    let wb = batched.run_until(1_000_000, 97, pred).expect("batched");
    assert_eq!(wa, wb, "run_until work");
    assert_eq!(reference.ticks(), batched.ticks(), "run_until ticks");
    assert_eq!(reference.work(), batched.work(), "run_until total work");
}

/// Every `ScheduleKind` variant: the gallery, `Zipf`, `Crash`, and a
/// scripted prefix of starvation windows.
fn every_schedule_kind() -> Vec<ScheduleKind> {
    let mut kinds = all_kinds();
    let script = ScriptSpec::new(
        8,
        vec![
            ScriptSegment::Run {
                proc: 3,
                ticks: 700,
            },
            ScriptSegment::AllExcept {
                excluded: vec![0, 5],
                rounds: 40,
            },
        ],
    )
    .fallback(ScheduleKind::Bursty { mean_burst: 9 });
    kinds.push(ScheduleKind::Scripted(script));
    kinds
}

/// One logged write: `(addr, old, new, writer, work)`.
type FullWrite = (usize, Stamped, Stamped, usize, u64);

/// Drive one scheme cell for a fixed number of ticks in ragged chunks
/// (every cut can fall inside a run-ahead), logging every write.
fn scheme_writes(
    scheme: SchemeKind,
    sched: &ScheduleKind,
    engine: ProgramEngine,
    batch: usize,
) -> (Vec<FullWrite>, WorkReport) {
    const TICKS: u64 = 120_000;
    let scenario = Scenario::scheme(scheme, ProgramSource::library("coin-sum", 8, vec![16]), 21)
        .schedule(sched.clone())
        .program_engine(engine)
        .batch(batch);
    let mut run = scenario.build_scheme();
    let machine = run.machine_mut();
    let log: Rc<RefCell<Vec<FullWrite>>> = Rc::default();
    let sink = log.clone();
    machine.add_write_hook(Box::new(move |ev| {
        sink.borrow_mut()
            .push((ev.addr, ev.old, ev.new, ev.writer.0, ev.work));
    }));
    let chunks = [997u64, 1, 64, 4096, 13];
    let mut ci = 0;
    while machine.ticks() < TICKS {
        machine.run_ticks(chunks[ci % chunks.len()].min(TICKS - machine.ticks()));
        ci += 1;
    }
    let report = machine.report();
    let writes = log.borrow().clone();
    (writes, report)
}

#[test]
fn vm_run_ahead_writes_on_the_tree_walkers_ticks() {
    for scheme in [
        SchemeKind::Nondet,
        SchemeKind::DetBaseline,
        SchemeKind::ScanConsensus,
        SchemeKind::IdealCas,
    ] {
        for sched in every_schedule_kind() {
            let (want_log, want) = scheme_writes(scheme, &sched, ProgramEngine::Tree, 1);
            assert!(!want_log.is_empty());
            for engine in [ProgramEngine::Tree, ProgramEngine::Bytecode] {
                for batch in [1, 7, apex::sim::DEFAULT_BATCH] {
                    let (log, report) = scheme_writes(scheme, &sched, engine, batch);
                    let cell = format!(
                        "{scheme:?} × {} on {} batch {batch}",
                        sched.label(),
                        engine.label()
                    );
                    assert_eq!(report, want, "{cell}: work report");
                    assert!(log == want_log, "{cell}: ordered write log");
                }
            }
        }
    }
}

#[test]
fn parallel_trial_runner_reproduces_serial_results_exactly() {
    use apex_lab::runner::run_trials;
    use apex_scenario::{Scenario, SourceSpec};

    let mut trials = Vec::new();
    for n in [8usize, 16] {
        for kind in ScheduleKind::gallery() {
            trials.push(Scenario::agreement(n, SourceSpec::Random(100), 1, 3).schedule(kind));
        }
    }
    type TrialDigest = (u64, u64, Option<u64>, Vec<Option<u64>>, bool);
    let run_one = |s: &Scenario| -> TrialDigest {
        let mut run = s.build_agreement();
        let o = run.run_phase();
        (
            run.machine().ticks(),
            o.advance_work,
            o.completion_work,
            o.agreed.clone(),
            o.report.all_hold(),
        )
    };
    let serial = run_trials(&trials, 1, run_one);
    let parallel = run_trials(&trials, 4, run_one);
    assert_eq!(
        serial, parallel,
        "parallel runner must reproduce serial results in order"
    );

    // And the rendered artifact — the byte-level contract — is identical.
    let render = |results: &[TrialDigest]| {
        let mut table = apex_bench::Table::new(&["ticks", "advance", "ok"]);
        for (ticks, advance, _, _, ok) in results {
            table.row(vec![
                format!("{ticks}"),
                format!("{advance}"),
                format!("{ok}"),
            ]);
        }
        table.to_json()
    };
    assert_eq!(
        render(&serial),
        render(&parallel),
        "artifact bytes must match"
    );
}
