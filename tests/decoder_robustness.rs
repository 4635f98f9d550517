//! Hostile input never aborts the process.
//!
//! Every document the workspace reads goes through the recursive JSON
//! parser in `apex_sim::json`. Without a nesting cap, one file of
//! `[[[[…` overflows the stack — an abort that no `catch_unwind`
//! contains, taking down a whole fleet or the repair tool with it. The
//! parser caps nesting at [`MAX_DEPTH`], so over-deep input is a typed
//! `Err` at every decoder, and the store tooling treats a planted deep
//! file like any other corrupt record:
//!
//! * `Json::parse`, `Scenario`, `Suite`, `AdversarySpec`, `ReportRecord`
//!   and journal lines all return `Err` on over-deep input;
//! * `apex lab fsck` flags a planted deep record and `--repair`
//!   quarantines it without touching the manifest or other records;
//! * a `--cached` run rejects the planted record and re-executes the
//!   cell, restoring the byte-identical store.

use std::path::PathBuf;

use apex_lab::{
    fsck, run_suite_journaled, FsckIssueKind, JournalEntry, JournalOpts, LabStore, Suite,
};
use apex_scenario::{ProgramSource, ReportRecord, Scenario, SourceSpec};
use apex_scheme::SchemeKind;
use apex_sim::json::MAX_DEPTH;
use apex_sim::{AdversarySpec, Json};

/// 200k unmatched `[` — deep enough to overflow any thread's stack if a
/// decoder recursed on it.
fn deep_brackets() -> String {
    "[".repeat(200_000)
}

/// Over-deep input hidden inside an otherwise plausible document: the cap
/// must hold wherever the nesting starts.
fn deep_field(key: &str) -> String {
    format!("{{\"{key}\": {}}}", deep_brackets())
}

fn small_suite() -> Suite {
    let mut suite = Suite::new("decoder-robustness");
    suite
        .cells
        .push(Scenario::agreement(8, SourceSpec::Random(50), 1, 3));
    suite.cells.push(Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("coin-sum", 8, vec![16]),
        5,
    ));
    suite
}

fn temp_store(tag: &str) -> LabStore {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("apex-decoder-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    LabStore::new(dir)
}

fn serial(cached: bool) -> JournalOpts {
    JournalOpts {
        cached,
        threads: Some(1),
        ..JournalOpts::default()
    }
}

#[test]
fn nesting_at_the_cap_parses_and_one_past_it_is_a_typed_error() {
    let nest = |d: usize| "[".repeat(d) + &"]".repeat(d);
    assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
    let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
    assert!(err.msg.contains("nesting"), "{err}");
}

#[test]
fn every_decoder_rejects_over_deep_input_with_a_typed_error() {
    for text in [
        deep_brackets(),
        deep_field("version"),
        deep_field("scenario"),
    ] {
        assert!(Json::parse(&text).is_err());
        assert!(Scenario::parse(&text).is_err());
        assert!(Suite::parse(&text).is_err());
        assert!(ReportRecord::parse(&text).is_err());
        assert!(JournalEntry::parse_line(&text).is_err());
        let spec = Json::parse(&text).and_then(|j| AdversarySpec::from_json(&j));
        assert!(spec.is_err());
    }
}

#[test]
fn fsck_flags_and_quarantines_a_planted_deep_record() {
    let suite = small_suite();
    let store = temp_store("fsck");
    run_suite_journaled(&suite, &store, &serial(false)).unwrap();
    let digest = suite.digest();
    let manifest = store.read_manifest(&digest).unwrap();
    let victim = store.record_path(&digest, &manifest.cells[1].digest);
    let healthy = store.record_path(&digest, &manifest.cells[0].digest);
    let healthy_bytes = std::fs::read(&healthy).unwrap();
    let manifest_bytes = std::fs::read(store.manifest_path(&digest)).unwrap();
    std::fs::write(&victim, deep_brackets()).unwrap();

    let report = fsck(&store, false).unwrap();
    assert_eq!(report.issues.len(), 1, "{}", report.summary());
    let issue = &report.issues[0];
    assert_eq!(issue.kind, FsckIssueKind::TornOrTruncated);
    assert!(issue.detail.contains("nesting"), "{}", issue.detail);
    assert!(!issue.quarantined);

    let repaired = fsck(&store, true).unwrap();
    assert!(repaired.issues[0].quarantined, "{}", repaired.summary());
    assert!(!victim.exists());
    assert_eq!(std::fs::read(&healthy).unwrap(), healthy_bytes);
    assert_eq!(
        std::fs::read(store.manifest_path(&digest)).unwrap(),
        manifest_bytes
    );
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn cached_run_rejects_a_planted_deep_record_and_re_executes_the_cell() {
    let suite = small_suite();
    let store = temp_store("cached");
    run_suite_journaled(&suite, &store, &serial(false)).unwrap();
    let digest = suite.digest();
    let manifest = store.read_manifest(&digest).unwrap();
    let victim = store.record_path(&digest, &manifest.cells[1].digest);
    let before = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, deep_brackets()).unwrap();

    let done = run_suite_journaled(&suite, &store, &serial(true)).unwrap();
    assert_eq!(done.cache.rejected, 1, "{}", done.cache.summary());
    assert_eq!(done.executed, vec![1]);
    assert!(done.run.all_ok());
    assert_eq!(std::fs::read(&victim).unwrap(), before);
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
}
