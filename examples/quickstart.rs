//! Quickstart: one declarative `Scenario` from description to verdict.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! A 32-thread randomized program (each thread draws a random value, a tree
//! sums them) is written for an ideal synchronous EREW PRAM — and executed
//! on 32 *asynchronous* processors under a random adversary schedule, using
//! the paper's agreement-based execution scheme. The whole run is named by
//! a single serializable [`Scenario`]: the JSON printed below is a complete,
//! shareable description that reproduces this exact run bit-for-bit
//! (`apex run scenario.json`). The verifier then
//! replays the agreed random choices on the ideal machine and confirms the
//! asynchronous execution was equivalent to a legal synchronous one.

use apex::scheme::SchemeKind;
use apex::sim::ScheduleKind;
use apex::{ProgramSource, Scenario};

fn main() {
    let scenario = Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("coin-sum", 32, vec![100]),
        0xC0FFEE,
    )
    .schedule(ScheduleKind::Uniform);

    println!("== the scenario (a complete, shareable run description) ==");
    println!("{}", scenario.render_pretty());

    let report = scenario.run().into_scheme();

    println!("== asynchronous execution (paper's scheme) ==");
    println!(
        "total work:        {} atomic ops (busy-waiting included)",
        report.total_work
    );
    println!("ideal sync work:   {} ops", report.ideal_work());
    println!(
        "overhead:          {:.0}x  (theory: O(log n · log log n) × constants)",
        report.overhead()
    );
    println!(
        "eval redundancy:   {:.2} evaluations per instruction",
        report.eval_redundancy()
    );
    println!(
        "copy writes:       {} (+{} tardy-safe aborts)",
        report.copy_writes, report.aborted_copies
    );
    println!("\n== verification against the ideal synchronous PRAM ==");
    println!("{}", report.verify);
    assert!(
        report.verify.ok(),
        "execution must be equivalent to a synchronous run"
    );
    println!("OK: the asynchronous run is equivalent to a legal synchronous execution.");
}
