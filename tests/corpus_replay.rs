//! Replay the committed fuzz corpus.
//!
//! Every artifact in `corpus/` is a shrunk (program, schedule, seed)
//! triple found by an `apex synth fuzz` campaign, serialized as a
//! format-v2 reproducer — a full [`Scenario`] document plus its scheme
//! and expected outcome. This suite re-runs each one and asserts the
//! recorded outcome still reproduces — so each past finding of the
//! deterministic baseline's unsoundness stays pinned — and additionally
//! asserts the *differential* half: the paper's scheme verifies clean on
//! the very same divergence-witness triples.

use std::path::Path;

use apex::scenario::{Mode, RunOpts};
use apex::scheme::SchemeKind;
use apex::sim::Json;
use apex_synth::check_scenario;
use apex_synth::repro::{Expectation, Reproducer, VERSION};

fn corpus() -> Vec<(std::path::PathBuf, Reproducer)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    Reproducer::load_dir(&dir).expect("committed corpus loads")
}

#[test]
fn committed_corpus_replays_as_recorded() {
    let entries = corpus();
    assert!(
        entries.len() >= 3,
        "expected at least 3 committed reproducers, found {}",
        entries.len()
    );
    for (path, repro) in &entries {
        repro
            .check(&RunOpts::default())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

#[test]
fn committed_corpus_is_at_the_current_format_version() {
    for (path, repro) in corpus() {
        let text = std::fs::read_to_string(&path).unwrap();
        let version = Json::parse(&text)
            .unwrap()
            .get("version")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(
            version,
            VERSION,
            "{}: not at the current artifact format",
            path.display()
        );
        // v2 artifacts embed a scheme-mode scenario document.
        assert!(matches!(repro.scenario.mode, Mode::Scheme { .. }));
        repro.scenario.validate().unwrap();
    }
}

#[test]
fn divergence_witnesses_are_clean_under_the_paper_scheme() {
    let mut witnesses = 0;
    for (path, repro) in corpus() {
        if repro.expected != Expectation::Diverges || repro.scheme() != SchemeKind::DetBaseline {
            continue;
        }
        witnesses += 1;
        // The differential pair: the same scenario with only `mode.scheme`
        // flipped to the paper's scheme must verify clean.
        let verdict = check_scenario(
            &repro.triple().scenario(SchemeKind::Nondet),
            &RunOpts::default(),
        );
        assert!(
            !verdict.stalled && !verdict.diverged(),
            "{}: paper scheme not clean on divergence witness: {verdict:?}",
            path.display()
        );
    }
    assert!(witnesses >= 3, "expected ≥ 3 divergence witnesses");
}

#[test]
fn corpus_artifacts_are_validated_on_load() {
    for (path, repro) in corpus() {
        let triple = repro.triple();
        assert_eq!(triple.program.validate(), Ok(()), "{}", path.display());
        assert!(
            triple.program.is_nondeterministic() || repro.expected == Expectation::Clean,
            "{}: a divergence witness must be a nondeterministic program",
            path.display()
        );
    }
}
