//! End-to-end lab store contract over the committed example suite:
//! write → read → byte-identical re-render, a second run produces
//! byte-identical records with a clean drift report, mutating or
//! deleting a stored record or editing a manifest row is flagged as
//! drift, and the cache and fsck pass one verdict on stored bytes.

use apex_lab::{
    check_against_store, compare_stores, fsck, run_suite_journaled, verify_record, CacheLookup,
    DriftKind, FsckIssueKind, JournalOpts, JournaledRun, LabStore, Suite, SuiteFile,
};
use apex_scenario::ReportRecord;

fn smoke_suite() -> Suite {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("suites/smoke.json");
    let suite = Suite::load(&path).unwrap();
    suite.validate().unwrap();
    suite
}

fn temp_store(tag: &str) -> LabStore {
    let dir = std::env::temp_dir().join(format!("apex-lab-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    LabStore::new(dir)
}

/// Run `suite` into `store` through the journaled runner.
fn store_run(suite: &Suite, store: &LabStore) -> JournaledRun {
    run_suite_journaled(suite, store, &JournalOpts::default()).unwrap()
}

/// One stored record's verified text and parsed record.
fn stored(store: &LabStore, suite: &str, cell: &str) -> (String, ReportRecord) {
    match store.lookup_record(suite, cell, None) {
        CacheLookup::Hit(text, record) => (text, *record),
        other => panic!("{cell}: {other:?}"),
    }
}

#[test]
fn store_round_trip_is_byte_identical() {
    let suite = smoke_suite();
    let store = temp_store("roundtrip");
    let JournaledRun { run, manifest, .. } = store_run(&suite, &store);
    assert_eq!(run.outcomes.len(), 13);
    assert_eq!(run.records().count(), 13, "every smoke cell completes");
    assert_eq!(run.ok_count(), 13, "every smoke cell verifies clean");
    assert!(run.all_ok(), "{:?}", run.output_mismatches);

    // Read every record back: the parsed record re-renders to exactly the
    // stored bytes, and a full load/save cycle is the identity.
    for cell in &manifest.cells {
        let (text, record) = stored(&store, &suite.digest(), &cell.digest);
        assert_eq!(record.render_pretty(), text, "cell {}", cell.index);
        let path = store.record_path(&suite.digest(), &cell.digest);
        let reloaded = ReportRecord::load(&path).unwrap();
        assert_eq!(reloaded.render_pretty(), text);
        assert_eq!(reloaded.digest(), cell.digest);
    }

    // A second, independent run writes byte-identical records.
    let second = temp_store("roundtrip-b");
    store_run(&suite, &second);
    for cell in &manifest.cells {
        let (a, _) = stored(&store, &suite.digest(), &cell.digest);
        let (b, _) = stored(&second, &suite.digest(), &cell.digest);
        assert_eq!(a, b, "cell {}", cell.index);
    }
    assert_eq!(
        store.read_manifest(&suite.digest()).unwrap(),
        second.read_manifest(&suite.digest()).unwrap()
    );

    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(second.root());
}

#[test]
fn drift_is_clean_until_a_record_is_mutated_or_deleted() {
    let suite = smoke_suite();
    let store = temp_store("drift");
    let manifest = store_run(&suite, &store).manifest;

    let report = check_against_store(&suite, &store).unwrap();
    assert!(report.clean(), "{}", report.summary());
    assert_eq!(report.checked, 13);

    // Mutate one record's measured work: flagged as RecordDiffers with
    // the JSON path in the detail.
    let victim = store.record_path(&suite.digest(), &manifest.cells[0].digest);
    let original = std::fs::read_to_string(&victim).unwrap();
    let tampered = original.replacen("\"total_work\": ", "\"total_work\": 9", 1);
    assert_ne!(original, tampered, "the smoke suite records total_work");
    std::fs::write(&victim, &tampered).unwrap();
    let report = check_against_store(&suite, &store).unwrap();
    assert_eq!(report.divergences.len(), 1, "{}", report.summary());
    assert_eq!(report.divergences[0].kind, DriftKind::RecordDiffers);
    assert!(
        report.divergences[0].detail.contains("total_work"),
        "{}",
        report.divergences[0].detail
    );

    // Delete it instead: flagged as MissingRecord.
    std::fs::remove_file(&victim).unwrap();
    let report = check_against_store(&suite, &store).unwrap();
    assert_eq!(report.divergences.len(), 1);
    assert_eq!(report.divergences[0].kind, DriftKind::MissingRecord);
    assert_eq!(report.divergences[0].index, Some(0));

    // A mutated *scenario* hashes to a different suite: checking it
    // against this store has no baseline at all.
    let mut edited = suite.clone();
    edited.grids[0].base.seed += 1;
    assert!(check_against_store(&edited, &store).is_err());

    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn stores_whose_manifests_differ_do_not_compare_clean() {
    let suite = smoke_suite();
    let (a, b) = (temp_store("cmp-manifest-a"), temp_store("cmp-manifest-b"));
    store_run(&suite, &a);
    store_run(&suite, &b);
    let report = compare_stores(&a, &b).unwrap();
    assert!(report.clean(), "{}", report.summary());

    // Rename the suite in one manifest: every record still matches.
    let path = b.manifest_path(&suite.digest());
    let text = std::fs::read_to_string(&path).unwrap();
    let renamed = text.replacen("\"name\": \"smoke\"", "\"name\": \"smoke-edited\"", 1);
    assert_ne!(text, renamed, "the smoke manifest names its suite");
    std::fs::write(&path, renamed).unwrap();
    let report = compare_stores(&a, &b).unwrap();
    assert_eq!(report.divergences.len(), 1, "{}", report.summary());
    let d = &report.divergences[0];
    assert_eq!(d.kind, DriftKind::ManifestMismatch);
    assert!(d.to_string().contains(&suite.digest()), "{d}");
    assert!(d.detail.contains(".name"), "{}", d.detail);

    // A manifest only one store holds is drift too.
    std::fs::remove_file(&path).unwrap();
    let report = compare_stores(&a, &b).unwrap();
    assert_eq!(report.divergences.len(), 1, "{}", report.summary());
    assert_eq!(report.divergences[0].kind, DriftKind::ManifestMismatch);

    let _ = std::fs::remove_dir_all(a.root());
    let _ = std::fs::remove_dir_all(b.root());
}

#[test]
fn drift_sees_an_edited_manifest_row() {
    let suite = smoke_suite();
    let store = temp_store("drift-manifest");
    store_run(&suite, &store);

    // A valid, canonical manifest that no longer describes the run:
    // every record still matches, only one row's summary moved.
    let mut manifest = store.read_manifest(&suite.digest()).unwrap();
    manifest.cells[3].summary.push_str(" (edited)");
    store.write_manifest(&manifest).unwrap();
    assert_eq!(store.read_manifest(&suite.digest()).unwrap(), manifest);

    let report = check_against_store(&suite, &store).unwrap();
    assert_eq!(report.divergences.len(), 1, "{}", report.summary());
    let d = &report.divergences[0];
    assert_eq!(d.kind, DriftKind::ManifestMismatch);
    assert!(d.detail.contains("summary"), "{}", d.detail);

    let _ = std::fs::remove_dir_all(store.root());
}

/// `bytes` with the last digit of the first `"total_work"` value
/// changed: still canonical JSON at the same address, so only the
/// checksum its manifest row pins can tell.
fn flip_total_work(bytes: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(bytes).unwrap();
    let key = "\"total_work\": ";
    let start = text.find(key).expect("the smoke records carry total_work") + key.len();
    let len = text[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let mut out = bytes.to_vec();
    let last = &mut out[start + len - 1];
    *last = b'0' + (*last - b'0' + 1) % 10;
    out
}

#[test]
fn the_cache_and_fsck_pass_one_verdict_on_stored_records() {
    let suite = smoke_suite();
    let digest = suite.digest();
    let store = temp_store("verdicts");
    let manifest = store_run(&suite, &store).manifest;
    let (victim, donor) = (&manifest.cells[0], &manifest.cells[1]);
    let path = store.record_path(&digest, &victim.digest);
    let good = std::fs::read(&path).unwrap();
    let text = String::from_utf8(good.clone()).unwrap();
    let mut not_utf8 = good.clone();
    not_utf8.insert(good.len() / 2, 0xff);

    use FsckIssueKind::*;
    let cases: [(&str, Vec<u8>, Option<FsckIssueKind>); 7] = [
        ("healthy", good.clone(), None),
        (
            "torn prefix",
            good[..good.len() / 2].to_vec(),
            Some(TornOrTruncated),
        ),
        ("non-UTF-8", not_utf8, Some(TornOrTruncated)),
        (
            "bit flip under a pinned checksum",
            flip_total_work(&good),
            Some(ChecksumMismatch),
        ),
        (
            "misaddressed",
            std::fs::read(store.record_path(&digest, &donor.digest)).unwrap(),
            Some(DigestMismatch),
        ),
        (
            "non-canonical whitespace",
            text.replacen("\n  ", "\n   ", 1).into_bytes(),
            Some(NotCanonical),
        ),
        (
            "nesting bomb",
            "[".repeat(200_000).into_bytes(),
            Some(TornOrTruncated),
        ),
    ];
    for (name, bytes, class) in cases {
        std::fs::write(&path, &bytes).unwrap();
        let verdict = verify_record(bytes, &victim.digest, victim.checksum.as_deref());
        let issues = fsck(&store, false).unwrap().issues;
        let lookup = store.lookup_record(&digest, &victim.digest, Some(&manifest));
        match class {
            None => {
                assert!(verdict.is_ok(), "{name}: {verdict:?}");
                assert!(issues.is_empty(), "{name}: {issues:?}");
                assert!(matches!(lookup, CacheLookup::Hit(..)), "{name}: {lookup:?}");
            }
            Some(class) => {
                let fault = verdict.expect_err(name);
                assert_eq!(fault.kind, class, "{name}: {fault}");
                assert_eq!(issues.len(), 1, "{name}: {issues:?}");
                assert_eq!(issues[0].file, format!("{}.json", victim.digest), "{name}");
                assert_eq!(
                    (issues[0].kind, &issues[0].detail),
                    (fault.kind, &fault.detail)
                );
                let CacheLookup::Rejected(reason) = lookup else {
                    panic!("{name}: the cache trusted bytes fsck reports: {lookup:?}");
                };
                assert_eq!(reason, fault.to_string(), "{name}");
            }
        }
    }

    let _ = std::fs::remove_dir_all(store.root());
}

/// The one classifier of suite-directory names, over every name a run,
/// a farm drain with `--metrics --trace` and fsck's quarantine write.
#[test]
fn suite_file_names_classify_as_their_writers_mean_them() {
    use SuiteFile::*;
    let cell = "0123456789abcdef";
    let table: &[(&str, SuiteFile<'_>)] = &[
        // What `apex suite run` writes (records, manifest, journal,
        // `--metrics`, `--trace`) and the temps its writes stage.
        ("0123456789abcdef.json", Record(cell)),
        ("manifest.json", Manifest),
        ("journal.jsonl", Journal),
        ("metrics.json", Metrics),
        ("trace.jsonl", Trace),
        ("0123456789abcdef.json.tmp", Temp(cell)),
        ("manifest.json.tmp", Temp("manifest")),
        ("metrics.json.tmp", Temp("metrics")),
        // A farm drain with `--metrics --trace`: per-worker shards
        // and record temps.
        ("metrics-w1.json", Metrics),
        ("metrics-w1.json.tmp", Temp("metrics-w1")),
        ("trace-w1.jsonl", Trace),
        ("0123456789abcdef.json.w1.tmp", Temp(cell)),
        ("0123456789abcdef.json.left_2-b.tmp", Temp(cell)),
        // fsck quarantine: a name taken gets a numeric suffix.
        ("0123456789abcdef.json.1", Other),
        ("journal.jsonl.2", Other),
        ("metrics.json.1", Other),
        ("0123456789abcdef.json.tmp.1", Other),
        // Strays: any `*.tmp` is a temp, `metrics*.json` a sidecar,
        // any other `*.json` a record.
        ("x.tmp", Temp("x")),
        ("notes.txt", Other),
        ("manifest.jsonl", Other),
        ("metricsx.json", Metrics),
        ("trace.json", Record("trace")),
        ("a.b.json", Record("a.b")),
        ("quarantine", Other),
    ];
    for &(name, want) in table {
        assert_eq!(SuiteFile::of(name), want, "{name}");
    }
}
