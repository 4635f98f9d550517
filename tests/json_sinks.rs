//! The JSON writer's targets against each other.
//!
//! Every document goes out through one writer (see `apex_sim::json`):
//! digests write compact text into a hasher, canonical checks write
//! pretty text into a comparator, and `to_json` writes into a tree.
//! That is only sound if each target sees exactly the bytes the tree's
//! own rendering would produce. Two checks pin it here, over real
//! documents rather than generated trees (that property lives next to
//! the codec):
//!
//! * every committed golden, suite and corpus reproducer, as parsed
//!   `Json`, renders into each sink exactly as into a `String`, and the
//!   comparator rejects every one-byte edit of its pretty text;
//! * every store document type — scenarios (committed and generated),
//!   suites, reproducers, records of both report kinds, outcomes and
//!   manifests — writes through its serializer straight into each sink
//!   exactly what `to_json().render*()` gives. A streaming pretty writer
//!   is told each array's layout by its caller, so this is what catches
//!   a serializer declaring the wrong one.

mod scenario_gen;

use std::path::{Path, PathBuf};

use apex_core::InstrumentOpts;
use apex_lab::{run_suite_journaled, JournalOpts, LabStore, Manifest, ManifestCell, Suite};
use apex_scenario::{Mode, ReportRecord, RunOutcome, Scenario, SourceSpec};
use apex_sim::{fnv1a64, AdversarySpec, Fnv1a, Json, ScheduleKind, ScriptSpec, WriteJson};
use apex_synth::repro::Reproducer;

use scenario_gen::scenario_from_seed;

/// Every `.json` and `.jsonl` file under `dir`, recursively, sorted.
fn documents_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            documents_under(&path, out);
        } else if path
            .extension()
            .is_some_and(|e| e == "json" || e == "jsonl")
        {
            out.push(path);
        }
    }
}

/// The parsed documents of one file: the file itself, or each line of
/// a `.jsonl` file.
fn parse_all(path: &Path) -> Vec<Json> {
    let text = std::fs::read_to_string(path).unwrap();
    let docs: Vec<&str> = if path.extension().is_some_and(|e| e == "jsonl") {
        text.lines().filter(|l| !l.is_empty()).collect()
    } else {
        vec![&text]
    };
    docs.into_iter()
        .map(|d| Json::parse(d).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        .collect()
}

fn committed_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["tests/golden", "suites", "corpus"] {
        documents_under(&root.join(dir), &mut files);
    }
    assert!(files.len() >= 10, "found only {files:?}");
    files
}

/// Byte positions spread over `text`, ASCII ones only, so an edit there
/// keeps the text UTF-8 (only UTF-8 reaches a canonical check).
fn probe_positions(text: &str) -> Vec<usize> {
    let ascii: Vec<usize> = (0..text.len())
        .filter(|&i| text.as_bytes()[i].is_ascii())
        .collect();
    let stride = (ascii.len() / 48).max(1);
    ascii.into_iter().step_by(stride).collect()
}

#[test]
fn sinks_match_the_rendered_bytes_of_every_committed_document() {
    let files = committed_files();
    let mut checked = 0;
    for path in &files {
        for doc in parse_all(path) {
            let name = path.display();
            let (compact, pretty) = (doc.render(), doc.render_pretty());
            assert_eq!(doc.fnv1a64(), fnv1a64(compact.as_bytes()), "{name}");
            let mut h = Fnv1a::new();
            doc.render_pretty_to(&mut h);
            assert_eq!(h.finish(), fnv1a64(pretty.as_bytes()), "{name}");

            assert!(doc.renders_pretty_as(&pretty), "{name}");
            // The comparator hashes as it compares: a match also yields
            // the text's checksum (every mismatch below yields none).
            let checksum = doc.pretty_checksum(&pretty);
            assert_eq!(checksum, Some(fnv1a64(pretty.as_bytes())), "{name}");
            assert!(
                !doc.renders_pretty_as(&pretty[..pretty.len() - 1]),
                "{name}"
            );
            assert!(!doc.renders_pretty_as(&format!("{pretty}\n")), "{name}");
            for at in probe_positions(&pretty) {
                let mut flipped = pretty.as_bytes().to_vec();
                flipped[at] ^= 0x01;
                let flipped = String::from_utf8(flipped).unwrap();
                assert!(!doc.renders_pretty_as(&flipped), "{name}: flip at {at}");
                let mut dropped = pretty.clone();
                dropped.remove(at);
                assert!(!doc.renders_pretty_as(&dropped), "{name}: drop at {at}");
            }
            checked += 1;
        }
    }
    assert!(checked >= files.len());
}

/// The writer-versus-tree law for one value: its compact text, written
/// straight into a `String` and into an [`Fnv1a`], and its pretty text,
/// written into a `String` and into the comparator, are exactly the
/// renderings of its tree.
fn writes_as_its_tree(name: &str, value: &impl WriteJson) {
    let tree = value.to_tree();
    let (compact, pretty) = (tree.render(), tree.render_pretty());
    let mut text = String::new();
    value.render_to(&mut text);
    assert_eq!(text, compact, "{name}: compact text");
    assert_eq!(
        value.fnv1a64(),
        fnv1a64(compact.as_bytes()),
        "{name}: compact digest"
    );
    let mut text = String::new();
    value.render_pretty_to(&mut text);
    assert_eq!(text, pretty, "{name}: pretty text");
    assert_eq!(
        value.pretty_checksum(&pretty),
        Some(fnv1a64(pretty.as_bytes())),
        "{name}: comparator"
    );
    assert!(
        !value.renders_pretty_as(pretty.trim_end()),
        "{name}: comparator on a cut text"
    );
}

#[test]
fn committed_documents_write_as_their_trees() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut suites = 0;
    for path in committed_files() {
        let name = path.display().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let file = path.file_name().unwrap().to_str().unwrap();
        if path.starts_with(root.join("suites")) || file == "canonical-suite.json" {
            let suite = Suite::parse(&text).unwrap();
            writes_as_its_tree(&name, &suite);
            for cell in suite.expand().unwrap() {
                writes_as_its_tree(&format!("{name} cell {}", cell.index), &cell.scenario);
            }
            suites += 1;
        } else if path.starts_with(root.join("corpus")) {
            writes_as_its_tree(&name, &Reproducer::load(&path).unwrap());
        } else if file == "canonical-scenario.json" {
            writes_as_its_tree(&name, &Scenario::parse(&text).unwrap());
        } else if file == "canonical-adversary.json" {
            let spec = AdversarySpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            writes_as_its_tree(&name, &spec);
        }
    }
    assert!(suites >= 4, "{suites} suites");
}

#[test]
fn generated_scenarios_write_as_their_trees() {
    for seed in 0..256u64 {
        let s = scenario_from_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        writes_as_its_tree(&format!("seed {seed}"), &s);
    }
}

#[test]
fn smoke_records_outcomes_and_manifest_write_as_their_trees() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("suites/smoke.json");
    let suite = Suite::load(&path).unwrap();
    let store =
        LabStore::new(std::env::temp_dir().join(format!("apex-json-sinks-{}", std::process::id())));
    let done = run_suite_journaled(&suite, &store, &JournalOpts::default()).unwrap();
    assert!(done.run.all_ok());
    for (i, outcome) in done.run.outcomes.iter().enumerate() {
        let record = outcome.record().expect("smoke cells complete");
        writes_as_its_tree(&format!("smoke record {i}"), record);
        writes_as_its_tree(&format!("smoke outcome {i}"), outcome);
        assert_eq!(record.render_pretty(), record.to_json().render_pretty());
    }
    writes_as_its_tree("smoke manifest", &done.manifest);
    assert_eq!(
        done.manifest.render_pretty(),
        done.manifest.to_json().render_pretty()
    );
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn both_report_kinds_and_every_outcome_write_as_their_trees() {
    let mut agreement = Scenario::agreement(8, SourceSpec::Coin(1, 3), 2, 5);
    if let Mode::Agreement { instrument, .. } = &mut agreement.mode {
        // Clobber counts fill the one optional array of a phase outcome.
        *instrument = InstrumentOpts {
            record_events: true,
            count_clobbers: true,
        };
    }
    let scheme = Scenario::parse(
        &std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/canonical-scenario.json"),
        )
        .unwrap(),
    )
    .unwrap();
    for (kind, scenario) in [("agreement", agreement), ("scheme", scheme)] {
        let record = ReportRecord::run(&scenario);
        writes_as_its_tree(&format!("{kind} record"), &record);
        writes_as_its_tree(&format!("{kind} report"), &record.report);
        writes_as_its_tree(
            &format!("{kind} complete outcome"),
            &RunOutcome::Complete(Box::new(record)),
        );
        let message = "budget of 10 ticks \"spent\"\n\tat phase 1".to_string();
        let exhausted = RunOutcome::Exhausted {
            scenario: scenario.clone(),
            message: message.clone(),
        };
        writes_as_its_tree(&format!("{kind} exhausted outcome"), &exhausted);
        let poisoned = RunOutcome::Poisoned { scenario, message };
        writes_as_its_tree(&format!("{kind} poisoned outcome"), &poisoned);
    }
}

#[test]
fn a_manifest_with_exhausted_and_poisoned_rows_writes_as_its_tree() {
    let row = |index: usize, status: &str, summary: &str, checksum: Option<&str>| ManifestCell {
        index,
        digest: format!("{index:016x}"),
        status: status.to_string(),
        ok: status == "complete",
        summary: summary.to_string(),
        checksum: checksum.map(str::to_string),
    };
    let manifest = Manifest {
        name: "rows".to_string(),
        suite_digest: "0123456789abcdef".to_string(),
        cells: vec![
            row(0, "complete", "consistent", Some("fedcba9876543210")),
            row(1, "exhausted", "exhausted: budget spent", None),
            row(2, "poisoned", "poisoned: \"index\" out of\nbounds", None),
        ],
    };
    writes_as_its_tree("manifest", &manifest);
    let empty = Manifest {
        cells: Vec::new(),
        ..manifest
    };
    writes_as_its_tree("empty manifest", &empty);
}

#[test]
fn mixed_and_empty_containers_write_as_their_trees() {
    let mixed = Json::parse(r#"[1, {"a": [], "b": {}}, "x", [2, [3]], null, {}]"#).unwrap();
    for (name, doc) in [
        ("mixed", mixed),
        ("empty array", Json::Arr(Vec::new())),
        ("empty object", Json::Obj(Vec::new())),
        (
            "nested empties",
            Json::parse(r#"{"a": [], "b": {}, "c": [[], {}]}"#).unwrap(),
        ),
        ("scalar", Json::UInt(7)),
    ] {
        writes_as_its_tree(name, &doc);
        assert_eq!(doc.to_tree(), doc, "{name}");
    }
    // Typed values with empty arrays: a suite with no cells, an
    // adversary with no spans or groups, a script with no segments.
    writes_as_its_tree("empty suite", &Suite::new("empty"));
    writes_as_its_tree(
        "spanless phase switch",
        &AdversarySpec::PhaseSwitch {
            spans: Vec::new(),
            tail: Box::new(AdversarySpec::Base(ScheduleKind::Uniform)),
        },
    );
    writes_as_its_tree(
        "groupless partition",
        &AdversarySpec::Partition { groups: Vec::new() },
    );
    writes_as_its_tree(
        "segmentless script",
        &ScheduleKind::Scripted(ScriptSpec::new(4, Vec::new())),
    );
}
