//! E10 — the motivating claim: deterministic schemes fail on
//! nondeterministic programs.
//!
//! "All the above schemes are restricted to the execution of deterministic
//! programs and fail if the original program is nondeterministic." (§1)
//!
//! We run the same randomized program through the deterministic prior-work
//! baseline and the paper's agreement scheme under three sleep regimes and
//! report verifier violations. The deterministic scheme breaks exactly in
//! the resonant regime (sleeps crossing subphase boundaries deliver stale
//! `NewVal` re-evaluations mid-copy); the paper's scheme never does. The
//! (n, regime, scheme, seed) grid fans out on the parallel trial runner.

use apex_baselines::adversary::{resonant_sleepy, sleepy_with_multiple};
use apex_bench::{banner, seeds, Experiment, Table};
use apex_core::AgreementConfig;
use apex_lab::runner::{resolve_threads, run_trials};
use apex_scenario::{ProgramSource, Scenario};
use apex_scheme::{tasks::eval_cost, SchemeKind};

fn main() {
    banner(
        "E10",
        "§1 headline: prior schemes fail on nondeterministic programs",
        "det-baseline: violations > 0 under tardy schedules; paper's scheme: 0",
    );
    let mut exp = Experiment::start("E10");
    let sizes = [16usize, 32, 64];
    let seed_list = seeds(5);

    let mut trials = Vec::new();
    let mut grid = Vec::new();
    for &n in &sizes {
        let cfg = AgreementConfig::for_n(n, eval_cost(2));
        let regimes = [
            (
                "uniform (no sleep)".to_string(),
                apex_sim::ScheduleKind::Uniform,
            ),
            (
                "resonant sleeper (1.5 subphases)".to_string(),
                resonant_sleepy(&cfg, 0.5),
            ),
            (
                "detuned sleeper (2.0 subphases)".to_string(),
                sleepy_with_multiple(&cfg, 0.5, 8),
            ),
        ];
        for (label, kind) in regimes {
            for scheme in [SchemeKind::DetBaseline, SchemeKind::Nondet] {
                grid.push((n, label.clone(), scheme));
                for &seed in &seed_list {
                    trials.push(
                        Scenario::scheme(
                            scheme,
                            ProgramSource::library("random-walks", n, vec![1000, 24]),
                            seed,
                        )
                        .schedule(kind.clone()),
                    );
                }
            }
        }
    }
    let reports = run_trials(&trials, resolve_threads(None), |s| s.run().into_scheme());
    exp.record_trials(reports.iter().map(|r| r.ticks));

    let mut table = Table::new(&[
        "n",
        "adversary",
        "scheme",
        "runs",
        "bad runs",
        "violations",
        "ok",
    ]);
    let mut it = reports.iter();
    for (n, label, scheme) in &grid {
        let mut violations = 0usize;
        let mut bad = 0usize;
        for _ in &seed_list {
            let r = it.next().expect("report per trial");
            violations += r.verify.violations();
            bad += (r.verify.violations() > 0) as usize;
        }
        table.row(vec![
            format!("{n}"),
            label.clone(),
            scheme.label().into(),
            format!("{}", seed_list.len()),
            format!("{bad}"),
            format!("{violations}"),
            format!("{}", violations == 0),
        ]);
    }
    exp.table("failure_modes", &table);
    println!("\nverdict: the deterministic baseline produces inconsistent");
    println!("executions exactly when sleeps straddle subphase parities (the");
    println!("resonant regime); detuned sleeps are filtered by the stamps. The");
    println!("agreement-based scheme never violates under any regime — the");
    println!("paper's reason to exist, measured.");
    exp.finish();
}
