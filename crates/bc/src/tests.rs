//! In-crate differential tests: the VM must be op-for-op identical to the
//! tree walker. (The repo-level `tests/bytecode_determinism.rs` sweeps
//! synthesized programs × adversary trees and the corpus; these are the
//! fast structural checks.)

use apex_pram::library::{coin_sum, tree_reduce};
use apex_pram::{Op, Program};
use apex_scheme::{SchemeKind, SchemeReport, SchemeRun, SchemeRunConfig};
use apex_sim::ScheduleKind;

use crate::factory;

fn run_tree(program: Program, cfg: SchemeRunConfig) -> SchemeReport {
    SchemeRun::new(program, cfg).run()
}

fn run_bc(program: Program, cfg: SchemeRunConfig) -> SchemeReport {
    SchemeRun::new_with_factory(program, cfg, factory).run()
}

/// Every observable of the two reports must match exactly; throughput is
/// the only permitted difference between the engines.
fn assert_identical(a: &SchemeReport, b: &SchemeReport) {
    assert_eq!(a.total_work, b.total_work, "total work");
    assert_eq!(a.ticks, b.ticks, "ticks");
    assert_eq!(a.subphase_work, b.subphase_work, "subphase work");
    assert_eq!(a.final_memory, b.final_memory, "final memory");
    assert_eq!(a.evals, b.evals, "evals");
    assert_eq!(a.copy_writes, b.copy_writes, "copy writes");
    assert_eq!(a.aborted_copies, b.aborted_copies, "aborted copies");
    assert_eq!(
        a.operand_read_failures, b.operand_read_failures,
        "operand read failures"
    );
    assert_eq!(a.verify.violations(), b.verify.violations(), "violations");
}

#[test]
fn nondet_matches_tree_walk_on_deterministic_program() {
    let built = tree_reduce(Op::Add, &[1, 2, 3, 4, 5, 6, 7, 8]);
    let mk = || SchemeRunConfig::new(SchemeKind::Nondet, 42);
    let a = run_tree(built.program.clone(), mk());
    let b = run_bc(built.program.clone(), mk());
    assert!(b.verify.ok(), "{b}");
    assert_identical(&a, &b);
}

#[test]
fn nondet_matches_tree_walk_on_randomized_program() {
    let built = coin_sum(8, 32);
    let mk = || SchemeRunConfig::new(SchemeKind::Nondet, 7);
    let a = run_tree(built.program.clone(), mk());
    let b = run_bc(built.program.clone(), mk());
    assert!(b.verify.ok(), "{b}");
    assert_identical(&a, &b);
}

#[test]
fn all_kinds_match_under_gallery_adversaries() {
    for kind in [
        SchemeKind::Nondet,
        SchemeKind::DetBaseline,
        SchemeKind::ScanConsensus,
        SchemeKind::IdealCas,
    ] {
        for sched in [
            ScheduleKind::Uniform,
            ScheduleKind::Bursty { mean_burst: 7 },
            ScheduleKind::Zipf { s: 2.0 },
        ] {
            let built = tree_reduce(Op::Max, &[5, 1, 9, 3, 2, 8, 6, 7]);
            let mk = || SchemeRunConfig::new(kind, 11).schedule(sched.clone());
            let a = run_tree(built.program.clone(), mk());
            let b = run_bc(built.program.clone(), mk());
            assert_identical(&a, &b);
        }
    }
}

#[test]
fn replica_factor_three_matches() {
    let built = coin_sum(8, 16);
    let mk = || SchemeRunConfig::new(SchemeKind::Nondet, 3).replicas(3);
    let a = run_tree(built.program.clone(), mk());
    let b = run_bc(built.program.clone(), mk());
    assert_identical(&a, &b);
}

#[test]
fn compile_stats_count_live_slots() {
    let built = tree_reduce(Op::Add, &[1, 2, 3, 4]);
    let run_cfg = SchemeRunConfig::new(SchemeKind::Nondet, 1);
    // Compile via the factory path and check sizing through a full run.
    let report = run_bc(built.program.clone(), run_cfg);
    assert!(report.verify.ok());
    let steps = built.program.n_steps() as u64;
    let n = built.program.n_threads as u64;
    // Direct compile for the stats surface.
    let cfg = SchemeRunConfig::new(SchemeKind::Nondet, 1);
    let mut stats = None;
    SchemeRun::new_with_factory(built.program.clone(), cfg, |parts| {
        let compiled = crate::compile(parts);
        stats = Some(compiled.stats());
        factory(parts)
    });
    let stats = stats.unwrap();
    assert_eq!(stats.steps, steps);
    assert_eq!(stats.threads, n);
    assert_eq!(stats.slots, steps * n);
    assert!(stats.live_slots > 0 && stats.live_slots <= stats.slots);
}

// Not a correctness test: measures the machine's raw dispatch floor — 16
// processors that do nothing but spend credits — to bound what any
// interpreter can achieve. Run manually with
// `cargo test -p apex-bc --release -- --ignored --nocapture`.
#[test]
#[ignore]
fn dispatch_floor_probe() {
    use apex_sim::{Account, Bank, Block, Port, Processors, Resumed, Spawn, Wiring};
    struct Drain {
        wiring: Wiring,
        accts: Vec<Account>,
    }
    struct DrainBlock<'a> {
        port: Port<'a>,
        accts: &'a mut [Account],
    }
    struct SpawnDrain;
    impl Spawn for SpawnDrain {
        fn spawn(self, wiring: Wiring) -> Box<dyn Bank> {
            let accts = vec![Account::default(); wiring.n()];
            Box::new(Drain { wiring, accts })
        }
    }
    impl Bank for Drain {
        fn run_block(&mut self, block: &mut Block<'_>) {
            self.wiring.with_port(|port| {
                block.run(&mut DrainBlock {
                    port,
                    accts: &mut self.accts,
                })
            });
        }
    }
    impl Processors for DrainBlock<'_> {
        fn resume(&mut self, p: usize, credit: u64) -> Resumed {
            let acct = &mut self.accts[p];
            acct.grant(credit);
            while self.port.take_credit(acct) {}
            Resumed::Yielded { credit_left: 0 }
        }
    }
    for _ in 0..2 {
        let mut m = apex_sim::MachineBuilder::new(16, 64)
            .seed(11)
            .schedule_kind(&ScheduleKind::Uniform)
            .spawn(SpawnDrain);
        let t = std::time::Instant::now();
        m.run_ticks(2_670_912);
        println!("floor: 2670912 ticks in {} ms", t.elapsed().as_millis());
    }
}

// Not a correctness test: prints raw engine timings for the two
// interpreters over a heavier workload. Run manually with
// `cargo test -p apex-bc --release -- --ignored --nocapture perf`.
#[test]
#[ignore]
fn perf_probe() {
    let built = apex_pram::library::jacobi_smooth(&apex_pram::library::gen_values(16, 5), 8);
    for sched in [
        ScheduleKind::Uniform,
        ScheduleKind::Bursty { mean_burst: 16 },
        ScheduleKind::Bursty { mean_burst: 64 },
    ] {
        for _ in 0..2 {
            let mk = || SchemeRunConfig::new(SchemeKind::Nondet, 11).schedule(sched.clone());
            let t = std::time::Instant::now();
            let a = run_tree(built.program.clone(), mk());
            let tree_ms = t.elapsed().as_millis();
            let t = std::time::Instant::now();
            let b = run_bc(built.program.clone(), mk());
            let bc_ms = t.elapsed().as_millis();
            assert_identical(&a, &b);
            println!(
                "{sched:?} ticks {}: tree {tree_ms} ms, bytecode {bc_ms} ms",
                a.ticks
            );
        }
    }
}

/// Run-ahead keeps the VM's polls at its shared-memory ops: under the
/// uniform adversary (one-tick runs) the machine polls it about once per
/// load/store, ~0.37 times per tick, where per-tick polling made ~0.95;
/// under bursty runs of credits polls stay rare.
#[test]
fn run_ahead_polls_about_once_per_shared_op() {
    use apex_pram::library::{blelloch_scan, gen_values, jacobi_smooth, odd_even_sort};
    for (sched, bound) in [
        (ScheduleKind::Uniform, 0.45),
        (ScheduleKind::Bursty { mean_burst: 64 }, 0.03),
    ] {
        for built in [
            coin_sum(16, 64),
            blelloch_scan(&gen_values(16, 5)),
            jacobi_smooth(&gen_values(16, 5), 8),
            odd_even_sort(&gen_values(16, 5)),
        ] {
            let cfg = SchemeRunConfig::new(SchemeKind::Nondet, 1).schedule(sched.clone());
            let mut run = SchemeRun::new_with_factory(built.program, cfg, factory);
            let m = run.machine_mut();
            m.run_ticks(50_000);
            let ratio = m.polls() as f64 / m.ticks() as f64;
            assert!(ratio <= bound, "{sched:?}: {ratio:.3} polls per tick");
        }
    }
}
