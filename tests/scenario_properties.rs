//! Property + golden suite for the `Scenario` JSON format.
//!
//! The format's contract: every scenario in the generator space —
//! all eight `ScheduleKind` families, both program sources, both modes,
//! every knob — round-trips through its JSON document **exactly**;
//! documents with an unknown major version are rejected; and the
//! canonical serialized form of one pinned scenario never drifts
//! (`tests/golden/canonical-scenario.json`, also replayed by CI's
//! scenario smoke step). Every committed suite keeps its digest, every
//! golden file and corpus artifact re-renders byte-identically, and the
//! removed kernel mode is a typed parse error.

use std::path::Path;

use apex::scenario::{ProgramSource, Scenario, SourceSpec, FORMAT_MAJOR};
use apex::scheme::SchemeKind;
use apex::sim::{AdversarySpec, Json, ScheduleKind};
use apex_lab::{JournalEntry, Suite};
use apex_obs::TraceEvent;
use apex_synth::gen::{generate_program, GenConfig};
use apex_synth::repro::Reproducer;
use proptest::prelude::*;

mod scenario_gen;

use scenario_gen::{scenario_from_seed, schedule_from_seed};

fn canonical_scenario() -> Scenario {
    Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("coin-sum", 8, vec![32]),
        0xC0FFEE,
    )
    .schedule(ScheduleKind::Bursty { mean_burst: 24 })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Exact JSON round-trip over the full generator space, compact and
    /// pretty forms both.
    #[test]
    fn scenario_json_round_trips_exactly(seed in any::<u64>()) {
        let s = scenario_from_seed(seed);
        prop_assert!(s.validate().is_ok(), "{s:?}: {:?}", s.validate());
        let compact = Scenario::parse(&s.to_json().render()).unwrap();
        let pretty = Scenario::parse(&s.render_pretty()).unwrap();
        prop_assert_eq!(&compact, &s);
        prop_assert_eq!(&pretty, &s);
        // Serialization is canonical: one more trip is byte-stable.
        prop_assert_eq!(compact.render_pretty(), s.render_pretty());
    }

    /// Unknown major versions are rejected no matter the payload; the
    /// minor version is ignorable.
    #[test]
    fn unknown_major_versions_are_rejected(seed in any::<u64>(), bump in 1u64..1000) {
        let s = scenario_from_seed(seed);
        let mut json = s.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::Obj(vec![
                ("major".into(), Json::UInt(FORMAT_MAJOR + bump)),
                ("minor".into(), Json::UInt(0)),
            ]);
        }
        let err = Scenario::from_json(&json).unwrap_err();
        prop_assert!(err.msg.contains("major version"), "{}", err);
    }
}

/// Every `ScheduleKind` family and both program sources are exercised by
/// construction (the proptest above samples; this pins coverage).
#[test]
fn every_schedule_family_and_source_round_trips() {
    for family in 0..8u64 {
        for source_sel in 0..2u64 {
            // Steer the mode picker: seed salt-1 ≠ 0 mod 3 → scheme mode;
            // then force the source branch and the schedule family.
            let p = generate_program(&GenConfig::default(), family * 31 + source_sel);
            let n = p.n_threads;
            let program = if source_sel == 0 {
                ProgramSource::library("coin-sum", 8, vec![16])
            } else {
                ProgramSource::Explicit(p)
            };
            let n = if source_sel == 0 { 8 } else { n };
            let s = Scenario::scheme(SchemeKind::Nondet, program, family)
                .schedule(schedule_from_seed(family, n, family * 7 + source_sel));
            s.validate().unwrap_or_else(|e| panic!("{s:?}: {e}"));
            let back = Scenario::parse(&s.render_pretty()).unwrap();
            assert_eq!(back, s, "family {family} source {source_sel}");
        }
    }
}

/// The canonical scenario's serialized form is pinned byte-for-byte.
#[test]
fn golden_scenario_form_is_pinned() {
    let golden = include_str!("golden/canonical-scenario.json");
    let canonical = canonical_scenario();
    assert_eq!(
        canonical.render_pretty(),
        golden,
        "canonical-scenario.json drifted; regenerate with \
         `apex synth run tests/golden/canonical-scenario.json --emit …` \
         only for a deliberate format change"
    );
    let parsed = Scenario::parse(golden).unwrap();
    assert_eq!(parsed, canonical);
    parsed.validate().unwrap();
}

/// The golden scenario also *runs* — and reproducibly.
#[test]
fn golden_scenario_runs_reproducibly() {
    let a = canonical_scenario().run();
    let b = canonical_scenario().run();
    assert!(a.ok(), "{}", a.summary());
    let (a, b) = (a.scheme(), b.scheme());
    assert_eq!(a.total_work, b.total_work);
    assert_eq!(a.final_memory, b.final_memory);
}

/// A `tick_budget` of `u64::MAX` is effectively unbounded: the stall
/// checks saturate instead of wrapping (a false "clock stalled" in release,
/// an overflow panic in debug), so the run is exactly the budget-less one.
#[test]
fn a_maximal_tick_budget_runs_like_no_budget() {
    let golden = Scenario::parse(include_str!("golden/canonical-scenario.json")).unwrap();
    let agreement = Scenario::agreement(8, SourceSpec::Random(50), 2, 3);
    for free in [golden, agreement] {
        let capped = free.clone().tick_budget(u64::MAX);
        capped.validate().unwrap();
        let (want, got) = (free.run(), capped.run());
        assert!(got.ok(), "{}", got.summary());
        assert_eq!(got.ticks(), want.ticks(), "ticks");
        assert_eq!(got.to_json(), want.to_json(), "work, outputs and verdicts");
    }
}

/// Read a file committed at the repository root.
fn committed(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every committed suite keeps the digest its stores, count goldens and
/// CI runs are addressed by: the scenario format may change only in
/// ways that leave every scheme and agreement document byte-identical.
#[test]
fn committed_suites_keep_their_digests() {
    for (name, digest) in [
        ("smoke", "0bddabfde932ae25"),
        ("adversary", "ce71351ecd0598b9"),
        ("bench-program", "7b4c5a1509323538"),
    ] {
        let suite = Suite::parse(&committed(&format!("suites/{name}.json"))).unwrap();
        assert_eq!(
            suite.digest(),
            digest,
            "suites/{name}.json moved its digest"
        );
    }
}

/// Every golden file and every corpus artifact re-renders byte for byte
/// through its own codec.
#[test]
fn goldens_and_corpus_re_render_byte_identically() {
    let scenario = committed("tests/golden/canonical-scenario.json");
    assert_eq!(
        Scenario::parse(&scenario).unwrap().render_pretty(),
        scenario
    );
    let suite = committed("tests/golden/canonical-suite.json");
    assert_eq!(Suite::parse(&suite).unwrap().render_pretty(), suite);
    let adversary = committed("tests/golden/canonical-adversary.json");
    let spec = AdversarySpec::from_json(&Json::parse(&adversary).unwrap()).unwrap();
    assert_eq!(spec.to_json().render_pretty(), adversary);

    let lines = |path: &str, render: &dyn Fn(&str) -> String| {
        let text = committed(path);
        assert!(text.ends_with('\n'), "{path}");
        for line in text.lines() {
            assert_eq!(render(line), line, "{path}");
        }
    };
    lines("tests/golden/canonical-journal.jsonl", &|l| {
        JournalEntry::parse_line(l).unwrap().to_line()
    });
    lines("tests/golden/canonical-trace.jsonl", &|l| {
        TraceEvent::parse_line(l).unwrap().to_line()
    });

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = Reproducer::load_dir(&dir).unwrap();
    assert!(!entries.is_empty());
    for (path, repro) in entries {
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(repro.to_json().render_pretty(), text, "{}", path.display());
    }
}

/// The kernel mode is gone: a scenario document naming it is a typed
/// parse error, not a panic and not a silently different scenario.
#[test]
fn kernel_mode_documents_are_a_typed_parse_error() {
    let mut json = canonical_scenario().to_json();
    let Json::Obj(fields) = &mut json else {
        unreachable!("a scenario renders an object")
    };
    let mode = fields.iter_mut().find(|(k, _)| k == "mode").unwrap();
    mode.1 = Json::parse(
        r#"{"kind":"kernel","kernel":{"kind":"private-slots","slots":4},"n":8,"ticks":1000}"#,
    )
    .unwrap();
    let err = Scenario::parse(&json.render()).unwrap_err();
    assert!(
        err.msg.contains("unknown scenario mode \"kernel\""),
        "{err}"
    );
}
