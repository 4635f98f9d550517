//! The store's verdicts on planted faults, pinned byte for byte.
//!
//! `apex lab fsck` and the cache read stored bytes through one verdict
//! (`verify_record`, `verify_manifest`), and the text of that verdict —
//! fsck's issue kind and detail, the cache's `Rejected` reason — is what
//! an operator reads. A fixed table of faults is planted into a fresh
//! store of `suites/smoke.json`, one at a time, and every answer is
//! compared with `tests/golden/store-faults.json`: a change to the
//! parser or a decoder that moves any message or byte offset fails here.

use std::path::Path;

use apex_lab::{fsck, run_suite_journaled, CacheLookup, JournalOpts, LabStore, Suite};
use apex_sim::Json;

/// `text` with the unsigned integer after the first `key` replaced by
/// `with`.
fn replace_number(text: &str, key: &str, with: &str) -> String {
    let start = text.find(key).expect("the record holds the key") + key.len();
    let len = text[start..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("a number ends");
    format!("{}{with}{}", &text[..start], &text[start + len..])
}

/// The planted record faults: a name and the bytes that replace the
/// victim record (`good`; `donor` is another cell's record).
fn record_faults(good: &[u8], donor: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let text = std::str::from_utf8(good).unwrap();
    let edit = |from: &str, to: &str| {
        assert!(text.contains(from), "the record holds {from:?}");
        text.replacen(from, to, 1).into_bytes()
    };
    let mut not_utf8 = good.to_vec();
    not_utf8.insert(good.len() / 2, 0xff);
    vec![
        ("truncated at byte 1", good[..1].to_vec()),
        ("truncated at the middle", good[..good.len() / 2].to_vec()),
        (
            "truncated before the last brace",
            good[..good.len() - 2].to_vec(),
        ),
        (
            "bad \\u escape",
            edit("\"digest\": \"", "\"digest\": \"\\uzz"),
        ),
        (
            "duplicate key after unescaping",
            edit("\"minor\": 0", "\"minor\": 0,\n    \"\\u006dajor\": 1"),
        ),
        (
            "over-deep nesting",
            edit(
                "\"outputs\": ",
                &format!("\"outputs\": {}", "[".repeat(200)),
            ),
        ),
        ("non-UTF-8", not_utf8),
        (
            "invalid number",
            replace_number(text, "\"seed\": ", "1e999").into_bytes(),
        ),
        ("trailing bytes", format!("{text}x").into_bytes()),
        (
            "wrong-type scalar field",
            edit("\"major\": 1", "\"major\": \"1\""),
        ),
        (
            "wrong-type container field",
            replace_number(
                text,
                "\"seed\": ",
                "{\"a\": [1, 2.5, null, true, \"\\u00e9\"]}",
            )
            .into_bytes(),
        ),
        ("wrong major version", edit("\"major\": 1", "\"major\": 2")),
        ("misaddressed", donor.to_vec()),
        ("non-canonical whitespace", edit("\n  ", "\n   ")),
    ]
}

/// Every fsck issue in `store`, as `{file, kind, detail}`.
fn fsck_issues(store: &LabStore) -> Json {
    let issues = fsck(store, false).unwrap().issues;
    Json::Arr(
        issues
            .into_iter()
            .map(|i| {
                Json::Obj(vec![
                    ("file".into(), Json::Str(i.file)),
                    ("kind".into(), Json::Str(i.kind.to_string())),
                    ("detail".into(), Json::Str(i.detail)),
                ])
            })
            .collect(),
    )
}

fn verdict(fault: &str, fsck: Json, cache: String) -> Json {
    Json::Obj(vec![
        ("fault".into(), Json::Str(fault.into())),
        ("fsck".into(), fsck),
        ("cache".into(), Json::Str(cache)),
    ])
}

#[test]
fn planted_store_faults_match_their_golden_verdicts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let suite = Suite::load(&root.join("suites/smoke.json")).unwrap();
    let dir = std::env::temp_dir().join(format!("apex-store-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = LabStore::new(&dir);
    let opts = JournalOpts {
        threads: Some(1),
        ..JournalOpts::default()
    };
    let manifest = run_suite_journaled(&suite, &store, &opts).unwrap().manifest;
    let digest = suite.digest();
    let (victim, donor) = (&manifest.cells[0], &manifest.cells[1]);
    let path = store.record_path(&digest, &victim.digest);
    let good = std::fs::read(&path).unwrap();
    let donor = std::fs::read(store.record_path(&digest, &donor.digest)).unwrap();

    let mut verdicts = Vec::new();
    for (name, bytes) in record_faults(&good, &donor) {
        std::fs::write(&path, &bytes).unwrap();
        let cache = match store.lookup_record(&digest, &victim.digest, Some(&manifest)) {
            CacheLookup::Rejected(why) => why,
            other => panic!("{name}: the cache did not reject the bytes: {other:?}"),
        };
        verdicts.push(verdict(name, fsck_issues(&store), cache));
    }
    std::fs::write(&path, &good).unwrap();

    let manifest_path = store.manifest_path(&digest);
    let manifest_bytes = std::fs::read(&manifest_path).unwrap();
    std::fs::write(&manifest_path, &manifest_bytes[..manifest_bytes.len() / 2]).unwrap();
    let why = store.read_manifest(&digest).unwrap_err();
    let cache = why.replace(&dir.display().to_string(), "$STORE");
    verdicts.push(verdict("torn manifest", fsck_issues(&store), cache));

    let fresh = Json::Arr(verdicts).render_pretty();
    let golden_path = root.join("tests/golden/store-faults.json");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let fresh_path = dir.join("store-faults.json");
    std::fs::write(&fresh_path, &fresh).unwrap();
    assert!(
        fresh == golden,
        "the store's verdicts on planted faults moved; the fresh document is {}. If the \
         change is intended, regenerate the golden with `cp {} {}` and explain why in \
         CHANGES.md.",
        fresh_path.display(),
        fresh_path.display(),
        golden_path.display(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
