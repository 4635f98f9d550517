//! The bin-array agreement protocol, watched up close.
//!
//! ```text
//! cargo run --release --example agreement_demo
//! ```
//!
//! 16 asynchronous processors agree on 16 random words per phase. The run
//! is described by an agreement-mode [`Scenario`] (the same declarative
//! form the benchmarks and the fuzzer use), assembled with
//! [`Scenario::build_agreement`] so the demo can step it one phase at a
//! time. It runs three phases, prints Theorem 1's four properties per
//! phase, and renders one bin's cells (value@stamp) so you can see the
//! copy-forward structure and the stale cells left over from earlier
//! phases.

use apex::core::{BinLayout, InstrumentOpts};
use apex::scenario::SourceSpec;
use apex::sim::ScheduleKind;
use apex::Scenario;

fn main() {
    let n = 16;
    let scenario = Scenario::agreement(n, SourceSpec::Random(90), 3, 42)
        .schedule(ScheduleKind::Sleepy {
            sleepy_frac: 0.25,
            awake: 4000,
            asleep: 20_000,
        })
        .instrument(InstrumentOpts::full());
    let mut run = scenario.build_agreement();
    println!("agreement config: {}", run.cfg.sizing_rationale());

    for _ in 0..3 {
        let o = run.run_phase();
        println!("\n=== phase {} ===", o.phase);
        println!(
            "work: {} to completion, {} to clock advance (n log n log log n = {})",
            o.work_to_completion()
                .map_or_else(|| "-".into(), |w| w.to_string()),
            o.phase_work(),
            (n as f64 * (n as f64).log2() * (n as f64).log2().log2()) as u64,
        );
        println!(
            "Theorem 1: unique {}/{}  accessible {}/{}  correct {}/{}  stability violations {}",
            o.report.n_unique(),
            n,
            o.report.n_accessible(),
            n,
            o.report.n_correct(),
            n,
            o.stability_violations,
        );
        if let Some(clobbers) = &o.clobbers {
            println!(
                "clobbers by tardy processors: total {}, worst bin {}",
                clobbers.iter().sum::<u64>(),
                clobbers.iter().max().unwrap()
            );
        }
        // Render bin 0: cells as value@phase (the stamp minus the +1 bias).
        let bins = run.bins;
        let cells: Vec<String> = run.machine().with_mem(|mem| {
            (0..bins.cells_per_bin())
                .map(|j| {
                    let c = mem.peek(bins.cell_addr(0, j));
                    match BinLayout::phase_of_stamp(c.stamp) {
                        Some(p) if p == o.phase => format!("[{:>2}]", c.value),
                        Some(p) => format!(" {:>2}ᵖ{}", c.value, p),
                        None => "  · ".into(),
                    }
                })
                .collect()
        });
        println!("Bin_0 (current-phase cells bracketed, ᵖ = stale phase): ");
        for chunk in cells.chunks(12) {
            println!("  {}", chunk.join(" "));
        }
        println!("agreed NewVal[0] = {:?}", o.agreed[0]);
    }
    println!("\nAll phases reached agreement under a sleepy (tardy-processor) adversary.");
}
