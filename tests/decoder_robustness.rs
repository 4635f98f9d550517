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
//! by validation instead of dividing by a wrapped zero mid-run, and so
//! are zipf, two-class and bursty adversaries whose sampler weights or
//! burst law degenerate in floating point. A reproducer in any format
//! but the current one is an "unsupported artifact version" error.
//!
//! Finally, a mutation sweep feeds every decoder truncations at every
//! byte, a one-byte substitution at every position, and numeric
//! blow-ups of every number in a canonical instance: each must decode to
//! `Ok` or a typed `Err`, never a panic. Every mutated record the store's
//! cache lookup returns as a hit, and every mutated manifest the store
//! reads, must re-render to exactly its own bytes, so no two byte strings
//! address one digest.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use apex_lab::{
    fsck, run_suite, run_suite_journaled, CacheLookup, FaultPlan, FsckIssueKind, Grid,
    JournalEntry, JournalOpts, LabStore, Manifest, SeedRange, Suite, TooManyCells, MAX_SUITE_CELLS,
};
use apex_obs::{Metrics, TraceEvent};
use apex_scenario::{
    ProgramSource, ReportRecord, RunOutcome, Scenario, SourceSpec, MAX_BATCH, MAX_N, MAX_PHASES,
    MAX_REPLICAS,
};
use apex_scheme::SchemeKind;
use apex_sim::json::MAX_DEPTH;
use apex_sim::{AdversarySpec, Json, ScheduleKind, MAX_ADVERSARY_DEPTH};
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
fn an_adversary_tree_past_the_depth_cap_is_refused_while_decoding() {
    // `depth` levels of speed warps over a uniform leaf.
    let tree = |depth: usize| {
        (1..depth).fold(AdversarySpec::Base(ScheduleKind::Uniform), |base, _| {
            AdversarySpec::Scale {
                factors: vec![1, 1],
                base: Box::new(base),
            }
        })
    };
    let decode = |depth: usize| {
        let text = tree(depth).to_json().render();
        AdversarySpec::from_json(&Json::parse(&text).unwrap())
    };
    assert_eq!(
        decode(MAX_ADVERSARY_DEPTH).unwrap().depth(),
        MAX_ADVERSARY_DEPTH
    );
    let err = decode(MAX_ADVERSARY_DEPTH + 1).unwrap_err();
    assert_eq!(
        err.msg,
        format!(
            "adversary tree depth {} exceeds the maximum {MAX_ADVERSARY_DEPTH}",
            MAX_ADVERSARY_DEPTH + 1
        )
    );
    // `validate` still refuses a tree built in code.
    assert!(tree(MAX_ADVERSARY_DEPTH + 1).validate(2).is_err());
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

#[test]
fn a_non_canonical_manifest_is_refused_and_rewritten_by_a_cached_run() {
    // One more space of indentation keeps the manifest's JSON and its
    // self-checksum (taken over the compact rendering) intact: only the
    // canonical re-render tells the two byte strings apart.
    let suite = small_suite();
    let store = temp_store("manifest-canonical");
    run_suite_journaled(&suite, &store, &serial(false)).unwrap();
    let digest = suite.digest();
    let path = store.manifest_path(&digest);
    let canonical = std::fs::read_to_string(&path).unwrap();
    let padded = canonical.replacen("\n  ", "\n   ", 1);
    assert!(Manifest::from_json(&Json::parse(&padded).unwrap()).is_ok());
    std::fs::write(&path, &padded).unwrap();

    let e = store.read_manifest(&digest).unwrap_err();
    assert!(e.contains("canonical"), "{e}");
    let report = fsck(&store, false).unwrap();
    assert_eq!(report.issues.len(), 1, "{}", report.summary());
    assert_eq!(report.issues[0].file, "manifest.json");
    assert_eq!(report.issues[0].kind, FsckIssueKind::NotCanonical);

    // Without a readable manifest there are no pins, but every record
    // still verifies on its own: all hits, and the manifest is rewritten.
    let done = run_suite_journaled(&suite, &store, &serial(true)).unwrap();
    assert!(done.cache.all_hit(), "{}", done.cache.summary());
    assert_eq!(std::fs::read_to_string(&path).unwrap(), canonical);
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
fn a_repeated_object_key_is_a_typed_error_naming_the_key() {
    // A repeated key used to keep its first value: the canonical scenario
    // with `"seed": 999` ahead of its own `"seed"` decoded, and ran seed
    // 999.
    let golden = include_str!("golden/canonical-scenario.json");
    let seed_twice = golden.replacen('{', "{\"seed\": 999,", 1);
    let err = Scenario::parse(&seed_twice).unwrap_err();
    assert_eq!(err.msg, "duplicate object key \"seed\"");
    // Nested objects are held to the same rule …
    let batch_twice = golden.replacen("\"batch\": null", "\"batch\": 4, \"batch\": null", 1);
    let err = Scenario::parse(&batch_twice).unwrap_err();
    assert!(err.msg.contains("\"batch\""), "{err}");
    // … and so is every document built on the same parser.
    let suite = small_suite().render_pretty();
    let name_twice = suite.replacen('{', "{\"name\": \"other\",", 1);
    assert!(Suite::parse(&name_twice).is_err_and(|e| e.msg.contains("\"name\"")));
    assert!(Scenario::parse(golden).is_ok());
}

#[test]
fn every_committed_document_parses_without_a_repeated_key() {
    // The committed suites, corpus, goldens, bench artifacts and
    // benchmark references are all canonical renders, so rejecting
    // repeated keys breaks none of them.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = ["suites", "corpus", "tests/golden", "perfbench/reference"]
        .iter()
        .flat_map(|dir| std::fs::read_dir(root.join(dir)).unwrap())
        .map(|entry| entry.unwrap().path())
        .chain(
            std::fs::read_dir(root)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .filter(|p| {
                    let name = p.file_name().unwrap().to_string_lossy();
                    name.starts_with("BENCH_") && name.ends_with(".json")
                }),
        )
        .collect();
    files.sort();
    let mut documents = 0;
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let docs: Vec<&str> = match path.extension().and_then(|e| e.to_str()) {
            Some("json") => vec![text.as_str()],
            Some("jsonl") => text.lines().collect(),
            _ => continue,
        };
        for doc in docs {
            Json::parse(doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            documents += 1;
        }
    }
    assert!(
        documents > files.len(),
        "{documents} documents in {files:?}"
    );
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

#[test]
fn a_v1_reproducer_is_an_unsupported_version() {
    // The retired v1 layout spelled scheme, seed, schedule and program
    // inline; no committed artifact uses it.
    let v1 = r#"{
      "version": 1,
      "scheme": "nondet-scheme",
      "expected": "clean",
      "seed": 7,
      "note": "v1 layout",
      "schedule": {"kind": "bursty", "mean_burst": 16},
      "program": {"name": "pair", "n_threads": 2, "mem_size": 2, "init": [1, 2], "steps": []}
    }"#;
    let err = Reproducer::from_json(&Json::parse(v1).unwrap()).unwrap_err();
    assert!(err.msg.contains("unsupported artifact version 1"), "{err}");
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

/// Adversaries whose parameters parse and are in their documented
/// ranges, but whose sampler weights or burst law degenerate in floating
/// point, with the word their validation error must carry:
///
/// * zipf `s = 1000`: `1/8^1000` underflows to 0, and building the
///   sampler panicked (`weights must be positive`) mid-run;
/// * two-class ratio `1e308`: the total weight overflows to +inf, and
///   every draw landed on the last processor;
/// * bursty mean `2^54`: `1 − 1/mean` rounds to 1, its log is 0, and
///   every burst silently had length 1.
const SAMPLER_BREAKERS: [(&str, &str); 3] = [
    (r#"{"kind": "zipf", "s": 1000}"#, "normal positive"),
    (
        r#"{"kind": "two-class", "slow_frac": 0.25, "ratio": 1e308}"#,
        "overflow",
    ),
    (
        r#"{"kind": "bursty", "mean_burst": 18014398509481984}"#,
        "too large",
    ),
];

#[test]
fn adversaries_that_break_the_sampler_are_typed_errors() {
    for (text, word) in SAMPLER_BREAKERS {
        let spec = AdversarySpec::from_json(&Json::parse(text).unwrap()).unwrap();
        let err = spec.validate(8).unwrap_err();
        assert!(err.contains(word), "{text}: {err}");
        // Nested under a combinator, the leaf is still checked.
        let overlay = format!(
            r#"{{"kind": "overlay", "layer": "crash", "crash_frac": 0.25, "horizon": 64,
                "base": {text}}}"#
        );
        let overlay = AdversarySpec::from_json(&Json::parse(&overlay).unwrap()).unwrap();
        assert!(overlay.validate(8).unwrap_err().contains(word), "{text}");
        // A scenario carrying it is rejected before it runs, and the run
        // path poisons the cell instead of panicking in the sampler.
        let scenario = Scenario::agreement(8, SourceSpec::Random(50), 1, 0).schedule(spec);
        assert!(scenario.validate().unwrap_err().0.contains(word), "{text}");
        assert_eq!(
            RunOutcome::capture(&scenario).status(),
            "poisoned",
            "{text}"
        );
    }
    // The rules reject no sampler that works: the edges just inside them.
    for text in [
        r#"{"kind": "zipf", "s": 300}"#,
        r#"{"kind": "two-class", "slow_frac": 0.25, "ratio": 1e307}"#,
        r#"{"kind": "bursty", "mean_burst": 9007199254740992}"#,
    ] {
        let spec = AdversarySpec::from_json(&Json::parse(text).unwrap()).unwrap();
        spec.validate(8).unwrap_or_else(|e| panic!("{text}: {e}"));
        let mut schedule = spec.build(8, 1);
        for _ in 0..1000 {
            assert!(schedule.next().0 < 8, "{text}");
        }
    }
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
        "fault-plan" => FaultPlan::parse(text).is_ok(),
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
        (
            "fault-plan",
            FaultPlan::parse(plan).unwrap().to_json().render_pretty(),
        ),
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
    // The farm's lines: a shard lease, and a terminal line naming its
    // worker (single-runner journals omit `by`).
    for entry in [
        JournalEntry::Leased {
            start: 4,
            count: 4,
            by: "w".into(),
            ttl: 32,
        },
        JournalEntry::Committed {
            index: 5,
            cell: record.digest(),
            ok: true,
            by: "w".into(),
        },
    ] {
        out.push(("journal", entry.to_line()));
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
/// document kind and the mutation; `true` when it decodes.
fn must_not_panic(kind: &str, mutation: &str, text: &str) -> bool {
    match std::panic::catch_unwind(|| decodes(kind, text)) {
        Ok(decoded) => decoded,
        Err(_) => panic!("{kind} decoder panicked on {mutation}: {text:?}"),
    }
}

/// A temporary store the sweeps file mutated records and manifests in, to
/// ask the store itself whether it accepts them. Whatever it accepts
/// must be the canonical rendering of what it decoded — then no two
/// byte strings address one digest.
struct Filing {
    store: LabStore,
    /// The address the canonical record is filed at.
    record: String,
    /// Mutations that decoded, and so reached the store.
    filed: usize,
}

impl Filing {
    fn new(tag: &str, subjects: &[(&str, String)]) -> Self {
        let store = temp_store(tag);
        std::fs::create_dir_all(store.suite_dir(FILING_SUITE)).unwrap();
        let (_, record) = subjects.iter().find(|(k, _)| *k == "record").unwrap();
        Filing {
            store,
            record: ReportRecord::parse(record).unwrap().digest(),
            filed: 0,
        }
    }

    /// File one decoded mutation of a `kind` document and, when the store
    /// accepts it, check that it re-renders to exactly its own bytes.
    fn check(&mut self, kind: &str, mutation: &str, text: &str) {
        let rendered = match kind {
            "record" => {
                let path = self.store.record_path(FILING_SUITE, &self.record);
                std::fs::write(path, text).unwrap();
                match self.store.lookup_record(FILING_SUITE, &self.record, None) {
                    CacheLookup::Hit(bytes, record) => {
                        assert_eq!(bytes, text, "record {mutation}: a hit returns the file");
                        record.render_pretty()
                    }
                    _ => return,
                }
            }
            "manifest" => {
                std::fs::write(self.store.manifest_path(FILING_SUITE), text).unwrap();
                match self.store.read_manifest(FILING_SUITE) {
                    Ok(manifest) => manifest.to_json().render_pretty(),
                    Err(_) => return,
                }
            }
            _ => return,
        };
        self.filed += 1;
        assert_eq!(
            rendered, text,
            "{kind} {mutation} was accepted but is not canonical"
        );
    }
}

impl Drop for Filing {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.store.root());
    }
}

/// The suite directory [`Filing`] files into.
const FILING_SUITE: &str = "0000000000000000";

#[test]
fn truncation_at_every_byte_never_panics() {
    let subjects = subjects();
    let mut filing = Filing::new("truncated", &subjects);
    for (kind, doc) in &subjects {
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            let mutation = format!("truncation at {cut}");
            if must_not_panic(kind, &mutation, &doc[..cut]) {
                filing.check(kind, &mutation, &doc[..cut]);
            }
        }
    }
}

#[test]
fn a_substituted_byte_at_every_position_never_panics() {
    // Every structural byte, plus a digit, a sign, an exponent letter
    // and whitespace — each turns one token into another — everywhere.
    const SUBSTITUTES: &[u8] = b"\"{}[]:,-09e \\";
    let subjects = subjects();
    let mut filing = Filing::new("substituted", &subjects);
    let mut mutations = 0;
    let mut decoded = BTreeMap::new();
    for (kind, doc) in &subjects {
        let bytes = doc.as_bytes();
        for pos in 0..bytes.len() {
            for &with in SUBSTITUTES.iter().filter(|&&b| b != bytes[pos]) {
                let mut mutated = bytes.to_vec();
                mutated[pos] = with;
                // A substitution inside a multi-byte character is not text.
                if let Ok(text) = String::from_utf8(mutated) {
                    mutations += 1;
                    let mutation = format!("substitution at {pos}");
                    if must_not_panic(kind, &mutation, &text) {
                        *decoded.entry(*kind).or_insert(0) += 1;
                        filing.check(kind, &mutation, &text);
                    }
                }
            }
        }
    }
    assert!(mutations > 100_000, "{mutations} substitutions");
    // Both digest-addressed kinds have mutations that still decode —
    // whitespace that moved, a key renamed past the optional checksum,
    // a report number changed — so the canonical check has work to do.
    assert!(
        decoded["record"] > 0 && decoded["manifest"] > 0,
        "{decoded:?}"
    );
    assert!(filing.filed > 0, "some mutated record is still a hit");
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
    let subjects = subjects();
    let mut filing = Filing::new("numeric", &subjects);
    let mut numbers = 0;
    for (kind, doc) in &subjects {
        for (start, end) in number_spans(doc) {
            numbers += 1;
            for with in REPLACEMENTS {
                let text = format!("{}{with}{}", &doc[..start], &doc[end..]);
                let mutation = format!("number at {start} -> {with}");
                if must_not_panic(kind, &mutation, &text) {
                    filing.check(kind, &mutation, &text);
                }
            }
        }
    }
    assert!(numbers > 100, "the sweep must reach the documents' numbers");
    assert!(
        filing.filed > 0,
        "some replaced report number is still a hit"
    );
}
