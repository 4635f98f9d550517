//! The bytecode engine's polls, pinned per cell.
//!
//! The VM runs processor-private ops ahead of their ticks, and the
//! machine settles those ticks without resuming it, so it is resumed
//! about once per shared-memory op instead of once per tick. That is the
//! run-ahead contract, and `Machine::polls()` is its only witness: no
//! record, metric or digest carries it. A dispatch change that resumed
//! the VM more (or less) often would keep every record byte-identical.
//!
//! `tests/golden/engine-polls.json` holds `(ticks, polls)` for every
//! scheme cell of `suites/smoke.json` and `suites/bench-program.json` on
//! the bytecode engine, at the cell's own batch and at `batch(1)`. A
//! dispatch speed-up must pass it unregenerated.

use std::path::Path;

use apex::scenario::{Mode, ProgramEngine, Scenario};
use apex_lab::Suite;

/// `(ticks, polls)` of one scheme run on the bytecode engine.
fn ticks_and_polls(scenario: &Scenario) -> (u64, u64) {
    let mut run = scenario
        .clone()
        .program_engine(ProgramEngine::Bytecode)
        .build_scheme();
    let report = run.run();
    (report.ticks, run.machine_mut().polls())
}

/// The golden document: one JSON object per cell and batch, one per line.
fn render(lines: &[(String, usize, &str, u64, u64)]) -> String {
    let body: Vec<String> = lines
        .iter()
        .map(|(suite, index, batch, ticks, polls)| {
            format!(
                r#"  {{"suite": "{suite}", "cell": {index}, "batch": "{batch}", "ticks": {ticks}, "polls": {polls}}}"#
            )
        })
        .collect();
    format!("{{\n\"cells\": [\n{}\n]\n}}\n", body.join(",\n"))
}

#[test]
fn bytecode_polls_match_their_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut lines = Vec::new();
    for name in ["smoke", "bench-program"] {
        let suite = Suite::load(&root.join(format!("suites/{name}.json"))).unwrap();
        for cell in suite.expand().unwrap() {
            if !matches!(cell.scenario.mode, Mode::Scheme { .. }) {
                continue;
            }
            let (ticks, polls) = ticks_and_polls(&cell.scenario);
            lines.push((name.to_string(), cell.index, "default", ticks, polls));
            let (ticks, polls) = ticks_and_polls(&cell.scenario.clone().batch(1));
            lines.push((name.to_string(), cell.index, "1", ticks, polls));
        }
    }
    let fresh = render(&lines);
    let golden_path = root.join("tests/golden/engine-polls.json");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if fresh == golden {
        return;
    }
    let moved: Vec<String> = fresh
        .lines()
        .filter(|line| line.contains("\"suite\"") && !golden.lines().any(|g| g == *line))
        .map(|line| format!("  {}", line.trim().trim_end_matches(',')))
        .collect();
    let fresh_path =
        std::env::temp_dir().join(format!("apex-engine-polls-{}.json", std::process::id()));
    std::fs::write(&fresh_path, &fresh).unwrap();
    panic!(
        "{} cells moved their polls (this run's figures):\n{}\nPolls are the run-ahead \
         contract: a dispatch change must keep them. Only a change that means to move them \
         may regenerate the golden, with `cp {} {}`, and must say why in CHANGES.md.",
        moved.len(),
        moved.join("\n"),
        fresh_path.display(),
        golden_path.display()
    );
}
