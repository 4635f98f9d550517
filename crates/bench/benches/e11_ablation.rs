//! E11 — design ablations.
//!
//! Four knobs the paper's design fixes, each isolated:
//!
//! 1. **β (bin size)** — smaller bins leave less room above the
//!    stabilization point; Theorem-1 failures appear as β shrinks.
//! 2. **binary vs linear search** — the log log n cycle cost is the binary
//!    search's doing; the linear variant's phases cost Θ(log n / log log n)
//!    more.
//! 3. **replica factor K** — under the gun-volley adversary, K = 1 lets a
//!    single loaded tardy write mask a variable; K ≥ 2 absorbs it.
//! 4. **timestamps** — stampless bins cannot survive reuse (also covered by
//!    a test); reported here for completeness.
//!
//! Each ablation's trial grid fans out on the parallel trial runner;
//! schedules that are not `Send` (scripted adversaries) are built inside
//! the worker threads.

use std::rc::Rc;

use apex_baselines::adversary::{gun_volley, resonant_sleepy};
use apex_baselines::linear::{omega_linear, run_linear_participant};
use apex_bench::{banner, seeds, Experiment, Table};
use apex_clock::PhaseClock;
use apex_core::{
    AgreementConfig, AgreementRun, BinLayout, InstrumentOpts, RandomSource, ValueSource,
};
use apex_lab::runner::{resolve_threads, run_trials};
use apex_scenario::{ProgramSource, Scenario, SourceSpec};
use apex_scheme::{tasks::eval_cost, SchemeKind};
use apex_sim::{MachineBuilder, RegionAllocator, ScheduleKind};

fn beta_sweep(exp: &mut Experiment) {
    println!("\n-- ablation 1: bin size β under clobber pressure (n = 32, resonant sleeper) --");
    let betas = [1usize, 2, 4, 6, 10];
    let seed_list = seeds(4);
    let mut trials = Vec::new();
    for &beta in &betas {
        let cfg = AgreementConfig::with_beta(32, 1, beta, AgreementConfig::DEFAULT_CS);
        let sleeper = resonant_sleepy(&cfg, 0.375);
        for &seed in &seed_list {
            trials.push(
                Scenario::agreement(32, SourceSpec::Random(1 << 20), 3, seed)
                    .schedule(sleeper.clone())
                    .agreement_config(cfg),
            );
        }
    }
    let results = run_trials(&trials, resolve_threads(None), |s| s.run().into_agreement());
    exp.record_trials(results.iter().map(|r| r.ticks));

    let mut t = Table::new(&["β", "cells/bin", "phases ok", "phases failed", "work/phase"]);
    let mut it = results.iter();
    for &beta in &betas {
        let cfg = AgreementConfig::with_beta(32, 1, beta, AgreementConfig::DEFAULT_CS);
        let mut ok = 0usize;
        let mut failed = 0usize;
        let mut work = 0u64;
        for _ in &seed_list {
            let r = it.next().expect("result per trial");
            for o in &r.outcomes {
                if o.report.all_hold() && o.stability_violations == 0 {
                    ok += 1;
                } else {
                    failed += 1;
                }
                work += o.phase_work();
            }
        }
        t.row(vec![
            format!("{beta}"),
            format!("{}", cfg.cells_per_bin),
            format!("{ok}"),
            format!("{failed}"),
            format!("{}", work / (ok + failed).max(1) as u64),
        ]);
    }
    exp.table("beta_sweep", &t);
    println!("small β starves the stabilization headroom; β ≥ ~4 is reliably clean.");
}

fn search_ablation(exp: &mut Experiment) {
    println!("\n-- ablation 2: binary vs linear frontier search (work to fill phase 0) --");
    let sizes = [16usize, 64, 256];
    // Per n: (binary phase work, linear phase work, total ticks).
    let results = run_trials(&sizes, resolve_threads(None), |&n| {
        let cfg = AgreementConfig::for_n(n, 1);
        // Binary: standard harness.
        let source: Rc<dyn ValueSource> = Rc::new(RandomSource::new(100));
        let mut run = AgreementRun::new(
            cfg,
            3,
            &ScheduleKind::Uniform,
            source,
            InstrumentOpts::default(),
        );
        let binary_work = run.run_phase().phase_work();
        // Linear: same cadence, linear cycles.
        let mut alloc = RegionAllocator::new();
        let clock = PhaseClock::new(&mut alloc, n);
        let bins = BinLayout::new(&mut alloc, n, cfg.cells_per_bin);
        let mut m = MachineBuilder::new(n, alloc.total())
            .seed(3)
            .schedule_kind(&ScheduleKind::Uniform)
            .build(move |ctx| {
                let source: Rc<dyn ValueSource> = Rc::new(RandomSource::new(100));
                run_linear_participant(ctx, cfg, bins, clock, source)
            });
        let linear_work = m
            .run_until(u64::MAX / 2, 4096, |mem| clock.oracle(mem) >= 1)
            .expect("linear phase");
        (binary_work, linear_work, run.machine().ticks() + m.ticks())
    });
    exp.record_trials(results.iter().map(|(_, _, ticks)| *ticks));

    let mut t = Table::new(&[
        "n",
        "ω binary",
        "ω linear",
        "work binary",
        "work linear",
        "ratio",
    ]);
    for (&n, (binary_work, linear_work, _)) in sizes.iter().zip(&results) {
        let cfg = AgreementConfig::for_n(n, 1);
        t.row(vec![
            format!("{n}"),
            format!("{}", cfg.omega),
            format!("{}", omega_linear(&cfg)),
            format!("{binary_work}"),
            format!("{linear_work}"),
            format!("{:.2}", *linear_work as f64 / *binary_work as f64),
        ]);
    }
    exp.table("search_ablation", &t);
    println!("the ratio tracks ω_linear/ω_binary = Θ(log n / log log n): the");
    println!("binary search is what keeps cycles at Θ(log log n).");
}

fn replica_sweep(exp: &mut Experiment) {
    println!("\n-- ablation 3: replica factor K under the gun volley (n = 32, 10 seeds) --");
    let cfg = AgreementConfig::for_n(32, eval_cost(3));
    // Guns sleep past random_walks' 4-step variable-rewrite distance.
    let sched = gun_volley(&cfg, 0.5, 4);
    let ks = [1usize, 2, 3];
    let seed_list = seeds(10);
    let mut trials = Vec::new();
    for &k in &ks {
        for &seed in &seed_list {
            trials.push(
                Scenario::scheme(
                    SchemeKind::Nondet,
                    ProgramSource::library("random-walks", 32, vec![1000, 24]),
                    seed,
                )
                .schedule(sched.clone())
                .replicas(k),
            );
        }
    }
    let reports = run_trials(&trials, resolve_threads(None), |s| s.run().into_scheme());
    exp.record_trials(reports.iter().map(|r| r.ticks));

    let mut t = Table::new(&["K", "violations", "bad runs", "operand read failures"]);
    let mut it = reports.iter();
    for &k in &ks {
        let mut violations = 0usize;
        let mut bad = 0usize;
        let mut read_failures = 0u64;
        for _ in &seed_list {
            let r = it.next().expect("report per trial");
            violations += r.verify.violations();
            bad += (r.verify.violations() > 0) as usize;
            read_failures += r.operand_read_failures;
        }
        t.row(vec![
            format!("{k}"),
            format!("{violations}"),
            format!("{bad}/10"),
            format!("{read_failures}"),
        ]);
    }
    exp.table("replica_sweep", &t);
    println!("K = 1 leaves variables one loaded tardy write away from masking;");
    println!("K ≥ 2 absorbs the volley (DESIGN.md §4.4 substitution, quantified).");
}

fn fig3_stress(exp: &mut Experiment) {
    println!("\n-- ablation 4: Fig.-3 oscillation interleaving (n = 8) --");
    let n = 8;
    let cfg = AgreementConfig::for_n(n, 1);
    let phases = 3;
    let seed_list = seeds(4);
    let mut configs = Vec::new();
    for scripted in [false, true] {
        for &seed in &seed_list {
            configs.push((scripted, seed));
        }
    }
    // Scripted schedules are not Send; build them inside the workers.
    let results = run_trials(&configs, resolve_threads(None), |&(scripted, seed)| {
        let source: Rc<dyn ValueSource> = Rc::new(RandomSource::new(1 << 20));
        let mut run = if scripted {
            let sched = apex_baselines::adversary::fig3_interleave(n, &cfg, 20_000, seed);
            AgreementRun::with_schedule(cfg, seed, sched, source, InstrumentOpts::default())
        } else {
            AgreementRun::new(
                cfg,
                seed,
                &ScheduleKind::Uniform,
                source,
                InstrumentOpts::default(),
            )
        };
        let failures = run
            .run_phases(phases)
            .iter()
            .filter(|o| !o.report.all_hold())
            .count();
        (failures, run.stability_violations(), run.machine().ticks())
    });
    exp.record_trials(results.iter().map(|(_, _, ticks)| *ticks));

    let mut t = Table::new(&["schedule", "phases", "T1 failures", "stability violations"]);
    let mut it = results.iter();
    for (label, _) in [("uniform", false), ("fig3-interleave", true)] {
        let mut failures = 0usize;
        let mut stability = 0usize;
        for _ in &seed_list {
            let (f, s, _) = it.next().expect("result per config");
            failures += f;
            stability += s;
        }
        t.row(vec![
            label.into(),
            format!("{}", seed_list.len() * phases),
            format!("{failures}"),
            format!("{stability}"),
        ]);
    }
    exp.table("fig3_stress", &t);
    println!("the crafted overlap raises the oscillation pressure of Fig. 3, yet");
    println!("agreement still stabilizes below the middle cell — the low-probability");
    println!("bad event stays low even when engineered for.");
}

fn main() {
    banner(
        "E11",
        "Design ablations (β, binary search, replicas, Fig. 3)",
        "each design choice is load-bearing at the measured margin",
    );
    let mut exp = Experiment::start("E11");
    beta_sweep(&mut exp);
    search_ablation(&mut exp);
    replica_sweep(&mut exp);
    fig3_stress(&mut exp);
    exp.finish();
}
