//! E4 — Lemma 4 / Theorem 1 (3): accessibility.
//!
//! "W.h.p. … for each i, half of the cells Bin_i[j] with j ≥ (β log n)/2
//! are filled." We tabulate the filled fraction of the upper halves at
//! completion time and at clock advance, per adversary. Trials fan out on
//! the parallel runner.

use apex_bench::{banner, mean, seeds, sweep_sizes, Experiment, Table};
use apex_lab::runner::{resolve_threads, run_trials};
use apex_scenario::{Scenario, SourceSpec};
use apex_sim::ScheduleKind;

fn main() {
    banner(
        "E4",
        "Lemma 4 (accessibility of the agreement values)",
        "≥ 1/2 of the upper-half cells of every bin are filled",
    );
    let mut exp = Experiment::new("E4");
    let sizes = sweep_sizes();
    let schedules = [
        ("uniform", ScheduleKind::Uniform),
        (
            "sleepy",
            ScheduleKind::Sleepy {
                sleepy_frac: 0.25,
                awake: 4000,
                asleep: 40_000,
            },
        ),
    ];
    let seed_list = seeds(3);

    let mut trials = Vec::new();
    for &n in &sizes {
        for (_, kind) in &schedules {
            for &seed in &seed_list {
                trials.push(
                    Scenario::agreement(n, SourceSpec::Random(100), 2, seed).schedule(kind.clone()),
                );
            }
        }
    }
    let results = run_trials(&trials, resolve_threads(None), |s| s.run().into_agreement());

    let mut table = Table::new(&[
        "n",
        "schedule",
        "mean filled frac",
        "worst bin frac",
        "bins < 1/2",
        "bins checked",
    ]);
    let mut it = results.iter();
    // Rows with a bin below 1/2, as `(n, schedule, bins)`.
    let mut violations = Vec::new();
    for &n in &sizes {
        for (label, _) in &schedules {
            let mut fracs: Vec<f64> = Vec::new();
            let mut failing = 0usize;
            for _ in &seed_list {
                let r = it.next().expect("result per trial");
                for o in &r.outcomes {
                    for b in &o.report.bins {
                        let f = b.filled_upper as f64 / b.upper_cells as f64;
                        fracs.push(f);
                        failing += (!b.accessible) as usize;
                    }
                }
            }
            let worst = fracs.iter().cloned().fold(f64::INFINITY, f64::min);
            if failing > 0 {
                violations.push((n, *label, failing));
            }
            table.row(vec![
                format!("{n}"),
                label.to_string(),
                format!("{:.3}", mean(&fracs)),
                format!("{worst:.3}"),
                format!("{failing}"),
                format!("{}", fracs.len()),
            ]);
        }
    }
    exp.table("accessibility", &table);
    if violations.is_empty() {
        println!("\nverdict: no bin drops below 1/2 —");
        println!("reading NewVal[i] from the upper half succeeds in O(1) expected reads.");
    } else {
        println!("\nverdict: Lemma 4 fails — bins below 1/2:");
        for (n, label, bins) in &violations {
            println!("  n={n} {label}: {bins}");
        }
    }
    exp.finish();
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
