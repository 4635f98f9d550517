//! Suites and the lab store, end to end (the README walkthrough):
//! load the committed smoke suite, expand it, run every cell on the
//! parallel runner, write the content-addressed records, and prove the
//! whole pipeline is drift-free by checking the store against a second
//! run.
//!
//! ```text
//! cargo run --release --example suite_demo
//! ```

use std::path::Path;

use apex_lab::{check_against_store, run_suite_journaled, JournalOpts, LabStore, Suite};

fn main() {
    // The committed example suite: 12 cells spanning both modes, four
    // adversary families, two execution schemes, and a seed range.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("suites/smoke.json");
    let suite = Suite::load(&path).expect("committed suite parses");
    suite.validate().expect("committed suite is well-formed");

    let cells = suite.expand().expect("validated");
    println!(
        "suite {:?} ({}) expands to {} cells",
        suite.name,
        suite.digest(),
        cells.len()
    );

    // Run every cell (APEX_RUNNER_THREADS controls fan-out) and store the
    // records content-addressed under a scratch lab store, journaled.
    let store = LabStore::new(std::env::temp_dir().join("apex-suite-demo"));
    let _ = std::fs::remove_dir_all(store.root());
    let done = run_suite_journaled(&suite, &store, &JournalOpts::default()).expect("suite runs");
    let (run, manifest) = (&done.run, &done.manifest);
    println!(
        "ran {} cells ({} ok) -> {}",
        run.outcomes.len(),
        run.ok_count(),
        store.suite_dir(&run.suite_digest).display()
    );
    for cell in manifest.cells.iter().take(3) {
        println!("  [{}] {} {}", cell.index, cell.digest, cell.summary);
    }
    println!("  …");

    // Drift check: re-run the suite and compare byte-for-byte. The whole
    // pipeline is deterministic, so this is always clean — until a code
    // change alters what some scenario computes.
    let report = check_against_store(&suite, &store).expect("stored run exists");
    println!("{}", report.summary());
    assert!(report.clean(), "the lab pipeline must be deterministic");

    // The named outputs satellite: library workloads declare their output
    // block, so records carry program *results*, not just verdicts.
    if let Some(outputs) = run.outcomes[0].record().and_then(|r| r.outputs.as_ref()) {
        println!("cell 0 named outputs (tree-reduce-max result): {outputs:?}");
    }

    let _ = std::fs::remove_dir_all(store.root());
}
