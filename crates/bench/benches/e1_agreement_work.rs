//! E1 — Theorem 1 work bound.
//!
//! "After O(n log n log log n) work units w.h.p. [uniqueness, stability,
//! accessibility, correctness hold] for each i."
//!
//! We measure the work from phase start until the validator first confirms
//! the properties, normalize by n·log n·log log n, and fit a power law: a
//! flat normalized column (fitted exponent ≈ the bound's) is the
//! reproduction of the theorem's shape.
//!
//! Trials are independent `(n, adversary, seed)` cells and run on the
//! parallel trial runner; aggregation follows config order, so the table
//! is identical to a serial sweep.

use apex_bench::{
    banner, fit_power, mean, seeds, stddev, sweep_sizes, theorem_one_bound, Experiment, Table,
};
use apex_lab::runner::{resolve_threads, run_trials};
use apex_scenario::{Scenario, SourceSpec};
use apex_sim::ScheduleKind;

fn main() {
    banner(
        "E1",
        "Theorem 1 (work bound of the agreement protocol)",
        "work to (uniqueness ∧ accessibility ∧ correctness) = O(n log n log log n)",
    );
    let mut exp = Experiment::new("E1");
    let schedules = [
        ("uniform", ScheduleKind::Uniform),
        ("bursty", ScheduleKind::Bursty { mean_burst: 64 }),
        (
            "two-class",
            ScheduleKind::TwoClass {
                slow_frac: 0.25,
                ratio: 16.0,
            },
        ),
    ];
    let sizes = sweep_sizes();
    let seed_list = seeds(3);

    // One trial per (n, schedule, seed): skip phase 0 (aligned start is
    // unrepresentative), measure phase 1.
    let mut trials = Vec::new();
    for &n in &sizes {
        for (_, kind) in &schedules {
            for &seed in &seed_list {
                trials.push(
                    Scenario::agreement(n, SourceSpec::Random(1 << 30), 2, seed)
                        .schedule(kind.clone()),
                );
            }
        }
    }
    let results = run_trials(&trials, resolve_threads(None), |s| s.run().into_agreement());

    let mut table = Table::new(&[
        "n",
        "bound n·lg·lglg",
        "work(uniform)",
        "norm",
        "work(bursty)",
        "norm",
        "work(two-class)",
        "norm",
        "sd%",
    ]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut it = results.iter();
    for &n in &sizes {
        let mut cells = vec![format!("{n}"), format!("{:.0}", theorem_one_bound(n))];
        let mut sd_pct: f64 = 0.0;
        for (_, kind) in &schedules {
            let works: Vec<f64> = seed_list
                .iter()
                .map(|_| {
                    let r = it.next().expect("result per trial");
                    let o = &r.outcomes[1];
                    assert!(o.report.all_hold(), "n={n}: Theorem 1 failed");
                    o.work_to_completion().expect("completion") as f64
                })
                .collect();
            let m = mean(&works);
            cells.push(format!("{m:.0}"));
            cells.push(format!("{:.0}", m / theorem_one_bound(n)));
            sd_pct = sd_pct.max(100.0 * stddev(&works) / m);
            if matches!(kind, ScheduleKind::Uniform) {
                xs.push(n as f64);
                ys.push(m);
            }
        }
        cells.push(format!("{sd_pct:.0}%"));
        table.row(cells);
    }
    exp.table("theorem1_work", &table);

    let (e, c, r2) = fit_power(&xs, &ys);
    println!("\nfit (uniform): work ≈ {c:.1} · n^{e:.3}   (r² = {r2:.4})");
    let bounds: Vec<f64> = xs.iter().map(|&x| theorem_one_bound(x as usize)).collect();
    let (eb, _, _) = fit_power(&xs, &bounds);
    println!("bound slope:   n·log n·log log n ~ n^{eb:.3} over this range");
    println!(
        "verdict:       measured exponent within {:.3} of the bound's ⇒ shape holds",
        (e - eb).abs()
    );
    exp.finish();
}
