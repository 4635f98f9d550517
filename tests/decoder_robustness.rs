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
//!
//! Oversized documents are typed errors too: a suite whose grid asks for
//! more than [`MAX_SUITE_CELLS`] cells, or a scenario whose machine is
//! larger than [`MAX_N`], whose replica factor exceeds [`MAX_REPLICAS`],
//! whose engine batch exceeds [`MAX_BATCH`] or whose agreement phases
//! exceed [`MAX_PHASES`], is rejected before anything is allocated. A
//! sleepy adversary whose period `awake + asleep` overflows is rejected
//! by validation instead of dividing by a wrapped zero mid-run.
//!
//! Finally, a mutation sweep feeds every decoder truncations at every
//! byte, a one-byte substitution at every position, and numeric
//! blow-ups of every number in a canonical instance: each must decode to
//! `Ok` or a typed `Err`, never a panic.

use std::path::{Path, PathBuf};

use apex_lab::{
    fsck, run_suite, run_suite_journaled, BenchDoc, FaultPlan, FsckIssueKind, Grid, JournalEntry,
    JournalOpts, LabStore, Lease, Manifest, SeedRange, Suite, TooManyCells, MAX_SUITE_CELLS,
};
use apex_obs::{Metrics, TraceEvent};
use apex_scenario::{
    ProgramSource, ReportRecord, RunOutcome, Scenario, SourceSpec, MAX_BATCH, MAX_N, MAX_PHASES,
    MAX_REPLICAS,
};
use apex_scheme::SchemeKind;
use apex_sim::json::MAX_DEPTH;
use apex_sim::{AdversarySpec, Json};
use apex_synth::Reproducer;

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

/// A suite of one grid whose seed axis asks for `count` cells.
fn seed_grid_suite(count: u64) -> Suite {
    let mut grid = Grid::new(Scenario::agreement(8, SourceSpec::Random(50), 1, 0));
    grid.seeds = Some(SeedRange { start: 0, count });
    let mut suite = Suite::new("oversized");
    suite.grids.push(grid);
    suite
}

#[test]
fn an_oversized_grid_is_a_typed_error_before_any_allocation() {
    let huge = seed_grid_suite(1_000_000_000_000);
    assert_eq!(
        huge.cell_count(),
        Err(TooManyCells {
            suite: "oversized".into(),
            cells: Some(1_000_000_000_000),
        })
    );
    assert!(huge.expand().unwrap_err().contains("cap"));
    assert!(huge.validate().is_err());
    // The same document through the on-disk decoder path.
    let reloaded = Suite::parse(&huge.render_pretty()).unwrap();
    assert!(reloaded.expand().unwrap_err().contains("cap"));

    // A count that overflows the product is the same typed error.
    let mut overflow = seed_grid_suite(u64::MAX);
    overflow.grids[0].schedules = vec![
        apex_sim::ScheduleKind::Uniform.into(),
        apex_sim::ScheduleKind::RoundRobin.into(),
    ];
    assert_eq!(overflow.cell_count().unwrap_err().cells, None);
    assert!(overflow.expand().is_err());

    // The cap itself is inclusive (counted, not expanded here).
    assert_eq!(
        seed_grid_suite(MAX_SUITE_CELLS as u64).cell_count(),
        Ok(MAX_SUITE_CELLS)
    );
    assert!(seed_grid_suite(MAX_SUITE_CELLS as u64 + 1)
        .cell_count()
        .is_err());
}

#[test]
fn an_oversized_machine_is_a_typed_error_before_any_program_resolves() {
    let n = 1usize << 40;
    let agreement = Scenario::agreement(n, SourceSpec::Random(50), 1, 0);
    let scheme = Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("coin-sum", n, vec![16]),
        0,
    );
    for s in [agreement, scheme] {
        let err = s.validate().unwrap_err();
        assert!(err.0.contains("exceeds the cap"), "{err}");
        // A decoded document hits the same check.
        let reloaded = Scenario::parse(&s.render_pretty()).unwrap();
        assert_eq!(reloaded.validate(), Err(err));
    }
    let at_cap = Scenario::agreement(MAX_N, SourceSpec::Random(50), 1, 0);
    let past_cap = Scenario::agreement(MAX_N + 1, SourceSpec::Random(50), 1, 0);
    assert!(!at_cap.validate().is_err_and(|e| e.0.contains("cap")));
    assert!(past_cap.validate().is_err());
}

/// The golden scenario with one `"key": value` pair replaced.
fn golden_with(key: &str, value: &str) -> Scenario {
    let golden = include_str!("golden/canonical-scenario.json");
    let (from, to) = match key {
        "replicas" => ("\"replicas\": 2", format!("\"replicas\": {value}")),
        "batch" => ("\"batch\": null", format!("\"batch\": {value}")),
        _ => unreachable!("no such knob {key}"),
    };
    assert!(golden.contains(from));
    Scenario::parse(&golden.replace(from, &to)).expect("decodes")
}

#[test]
fn an_oversized_replica_factor_or_batch_is_a_typed_error() {
    // 2^40 replicas or prefetch slots aborted the process on allocation.
    for key in ["replicas", "batch"] {
        let err = golden_with(key, "1099511627776").validate().unwrap_err();
        assert!(err.0.contains("exceeds the cap"), "{key}: {err}");
    }
    let at_cap = |key, v: usize| golden_with(key, &v.to_string()).validate();
    at_cap("replicas", MAX_REPLICAS).unwrap();
    at_cap("batch", MAX_BATCH).unwrap();
    assert!(at_cap("replicas", MAX_REPLICAS + 1).is_err());
    assert!(at_cap("batch", MAX_BATCH + 1).is_err());
}

#[test]
fn an_oversized_agreement_phase_count_is_a_typed_error() {
    // 2^40 phases aborted `apex run` collecting one outcome per phase.
    let huge = Scenario::agreement(8, SourceSpec::Random(50), 1 << 40, 0);
    let err = huge.validate().unwrap_err();
    assert!(err.0.contains("exceeds the cap"), "{err}");
    let reloaded = Scenario::parse(&huge.render_pretty()).unwrap();
    assert_eq!(reloaded.validate(), Err(err));
    // The run path hits the same check and poisons the cell, never aborts.
    assert_eq!(RunOutcome::capture(&huge).status(), "poisoned");
    let at_cap = Scenario::agreement(8, SourceSpec::Random(50), MAX_PHASES, 0);
    at_cap.validate().unwrap();
    let past_cap = Scenario::agreement(8, SourceSpec::Random(50), MAX_PHASES + 1, 0);
    assert!(past_cap.validate().is_err());
}

/// A sleepy period of `u64::MAX + 1` ticks, as a base and as an overlay.
fn overflowing_sleepy_specs() -> Vec<AdversarySpec> {
    let fields = r#""sleepy_frac": 0.5, "awake": 18446744073709551615, "asleep": 1"#;
    [
        format!(r#"{{"kind": "sleepy", {fields}}}"#),
        format!(
            r#"{{"kind": "overlay", "layer": "sleepy", {fields}, "base": {{"kind": "uniform"}}}}"#
        ),
    ]
    .iter()
    .map(|text| AdversarySpec::from_json(&Json::parse(text).unwrap()).unwrap())
    .collect()
}

#[test]
fn an_overflowing_sleepy_base_period_is_rejected() {
    let err = overflowing_sleepy_specs()[0].validate(8).unwrap_err();
    assert!(err.contains("overflows"), "{err}");
}

#[test]
fn an_overflowing_sleepy_overlay_period_is_rejected() {
    let spec = &overflowing_sleepy_specs()[1];
    let err = spec.validate(8).unwrap_err();
    assert!(err.contains("overflows"), "{err}");
    // A scenario carrying it is rejected before it runs.
    let scenario = Scenario::agreement(8, SourceSpec::Random(50), 1, 0).schedule(spec.clone());
    assert!(scenario.validate().unwrap_err().0.contains("overflows"));
}

/// Decode `text` as a document of the given kind; `true` when it
/// decodes.
fn decodes(kind: &str, text: &str) -> bool {
    let json = || Json::parse(text);
    match kind {
        "scenario" => Scenario::parse(text).is_ok(),
        "suite" => Suite::parse(text).is_ok(),
        "adversary" => json().and_then(|j| AdversarySpec::from_json(&j)).is_ok(),
        "record" => ReportRecord::parse(text).is_ok(),
        "outcome" => RunOutcome::parse(text).is_ok(),
        "manifest" => json().and_then(|j| Manifest::from_json(&j)).is_ok(),
        "journal" => JournalEntry::parse_line(text).is_ok(),
        "lease" => Lease::parse(text).is_ok(),
        "fault-plan" => FaultPlan::parse(text).is_ok(),
        "bench" => BenchDoc::parse(text).is_ok(),
        "metrics" => Metrics::parse(text).is_ok(),
        "trace" => TraceEvent::parse_line(text).is_ok(),
        "reproducer" => json().and_then(|j| Reproducer::from_json(&j)).is_ok(),
        _ => unreachable!("no decoder for {kind}"),
    }
}

fn golden(file: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file)).unwrap()
}

/// A canonical instance of every on-disk document the workspace decodes,
/// by kind.
fn subjects() -> Vec<(&'static str, String)> {
    let suite = small_suite();
    let run = run_suite(&suite).unwrap();
    let record = run.records().nth(1).unwrap().clone();
    let poisoned = RunOutcome::capture_with(&record.scenario, |_| panic!("planted"));
    let mut metrics = Metrics::new();
    metrics.add("cells.executed", 3);
    metrics.gauge_max("cells.total", 4);
    metrics.observe("cells.ticks", 300);
    let plan = r#"{"kill_after_journal": 7, "torn_write": {"write": 2, "keep": 10},
        "bit_flip": {"write": 1, "byte": 3, "mask": 4}, "panic_cells": [1, 2],
        "transient": [{"write": 0, "fails": 2}]}"#;
    let lease = Lease {
        suite: suite.digest(),
        shard: 1,
        start: 4,
        count: 4,
        worker: "w".into(),
        issued_at: 9,
        ttl: 32,
    };
    let trace = golden("tests/golden/canonical-trace.jsonl");
    let mut out = vec![
        ("scenario", golden("tests/golden/canonical-scenario.json")),
        ("suite", golden("tests/golden/canonical-suite.json")),
        ("adversary", golden("tests/golden/canonical-adversary.json")),
        ("record", record.render_pretty()),
        ("outcome", poisoned.render_pretty()),
        (
            "manifest",
            Manifest::from_run(&run).to_json().render_pretty(),
        ),
        ("lease", lease.render_pretty()),
        (
            "fault-plan",
            FaultPlan::parse(plan).unwrap().to_json().render_pretty(),
        ),
        ("bench", golden("BENCH_program-compile.json")),
        ("metrics", metrics.render_pretty()),
        ("trace", trace.lines().next().unwrap().to_string()),
        (
            "reproducer",
            golden("corpus/ideal-cas-17ba6fed69bb11e7.json"),
        ),
    ];
    // One journal line per entry kind.
    let journal = golden("tests/golden/canonical-journal.jsonl");
    let mut kinds = std::collections::BTreeSet::new();
    for line in journal.lines() {
        if kinds.insert(Json::parse(line).unwrap().get("kind").unwrap().render()) {
            out.push(("journal", line.to_string()));
        }
    }
    for (kind, doc) in &out {
        assert!(
            decodes(kind, doc),
            "{kind}: the canonical instance must decode"
        );
    }
    out
}

/// Decode `text`, turning a panic into a test failure that names the
/// document kind and the mutation.
fn must_not_panic(kind: &str, mutation: &str, text: &str) {
    if std::panic::catch_unwind(|| decodes(kind, text)).is_err() {
        panic!("{kind} decoder panicked on {mutation}: {text:?}");
    }
}

#[test]
fn truncation_at_every_byte_never_panics() {
    for (kind, doc) in subjects() {
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            must_not_panic(kind, &format!("truncation at {cut}"), &doc[..cut]);
        }
    }
}

#[test]
fn a_substituted_byte_at_every_position_never_panics() {
    // Every structural byte, plus a digit, a sign, an exponent letter
    // and whitespace — each turns one token into another — everywhere.
    const SUBSTITUTES: &[u8] = b"\"{}[]:,-09e \\";
    let mut mutations = 0;
    for (kind, doc) in subjects() {
        let bytes = doc.as_bytes();
        for pos in 0..bytes.len() {
            for &with in SUBSTITUTES.iter().filter(|&&b| b != bytes[pos]) {
                let mut mutated = bytes.to_vec();
                mutated[pos] = with;
                // A substitution inside a multi-byte character is not text.
                if let Ok(text) = String::from_utf8(mutated) {
                    mutations += 1;
                    must_not_panic(kind, &format!("substitution at {pos}"), &text);
                }
            }
        }
    }
    assert!(mutations > 100_000, "{mutations} substitutions");
}

/// Byte ranges of the unsigned integer literals in a JSON document: digit
/// runs that start a value (after `:`, `[`, `,` or whitespace).
fn number_spans(doc: &str) -> Vec<(usize, usize)> {
    let bytes = doc.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let starts_value = i > 0 && b": [,\n".contains(&bytes[i - 1]);
        let end = i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
        if starts_value && end > i {
            spans.push((i, end));
        }
        i = end.max(i + 1);
    }
    spans
}

#[test]
fn numeric_blow_ups_and_wrong_types_never_panic() {
    const REPLACEMENTS: &[&str] = &[
        "18446744073709551615",
        "18446744073709551616",
        "1e308",
        "-1",
        "\"7\"",
        "[7]",
        "{\"n\": 7}",
        "null",
    ];
    let mut numbers = 0;
    for (kind, doc) in subjects() {
        for (start, end) in number_spans(&doc) {
            numbers += 1;
            for with in REPLACEMENTS {
                let text = format!("{}{with}{}", &doc[..start], &doc[end..]);
                must_not_panic(kind, &format!("number at {start} -> {with}"), &text);
            }
        }
    }
    assert!(numbers > 100, "the sweep must reach the documents' numbers");
}
