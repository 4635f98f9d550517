//! The committed suites' deterministic counts, pinned byte for byte.
//!
//! A run's wall-clock throughput depends on the host; the counts it is
//! made of do not. Runtime ≈ Σ count × unit cost (Husainov &
//! Kudryashova's time-estimation model), so a change that moves no count
//! moves runtime only through unit costs, and a change that moves one
//! shows up here on any machine.
//!
//! Each `tests/golden/counts-<suite>.json` is the `metrics.json` a fresh
//! single-threaded run of `suites/<suite>.json` writes with metrics on:
//! `cells.*`, `ticks.executed`, `cache.*`, `store.fsyncs`, `store.bytes`
//! and the `cells.ticks` histogram. A change that moves a count must
//! regenerate the golden and say why in CHANGES.md.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use apex_lab::{run_suite_journaled, JournalOpts, LabStore, Suite};
use apex_obs::{Metrics, ObsOpts};

/// `kind name → value` for every instrument in `m`.
fn instruments(m: &Metrics) -> BTreeMap<String, String> {
    let counters = m
        .counters()
        .map(|(k, v)| (format!("counter {k}"), v.to_string()));
    let gauges = m
        .gauges()
        .map(|(k, v)| (format!("gauge {k}"), v.to_string()));
    let hists = m
        .hists()
        .map(|(k, h)| (format!("hist {k}"), format!("{h:?}")));
    counters.chain(gauges).chain(hists).collect()
}

/// One line per instrument whose value differs between the documents.
fn moved(golden: &str, fresh: &str) -> Vec<String> {
    let parse = |text: &str| instruments(&Metrics::parse(text).unwrap_or_default());
    let (golden, fresh) = (parse(golden), parse(fresh));
    let absent = String::from("absent");
    let names: BTreeSet<&String> = golden.keys().chain(fresh.keys()).collect();
    names
        .into_iter()
        .filter(|name| golden.get(*name) != fresh.get(*name))
        .map(|name| {
            let golden = golden.get(name).unwrap_or(&absent);
            let fresh = fresh.get(name).unwrap_or(&absent);
            format!("  {name}: golden {golden}, this run {fresh}")
        })
        .collect()
}

#[test]
fn committed_suites_match_their_count_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let opts = JournalOpts {
        threads: Some(1),
        obs: ObsOpts {
            trace: None,
            metrics: true,
            profile: false,
        },
        ..JournalOpts::default()
    };
    for name in ["smoke", "adversary", "bench-program"] {
        let suite = Suite::load(&root.join(format!("suites/{name}.json"))).unwrap();
        let dir = std::env::temp_dir().join(format!("apex-counts-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = LabStore::new(&dir);
        run_suite_journaled(&suite, &store, &opts).unwrap();
        let fresh_path = store.metrics_path(&suite.digest());
        let fresh = std::fs::read_to_string(&fresh_path).unwrap();
        let golden_path = root.join(format!("tests/golden/counts-{name}.json"));
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
        // On a mismatch the fresh store is kept, so its document can be
        // copied over the golden.
        assert!(
            fresh == golden,
            "suites/{name}.json moved its counts:\n{}\nIf the change is intended, regenerate \
             the golden with `cp {} {}` and explain why in CHANGES.md.",
            moved(&golden, &fresh).join("\n"),
            fresh_path.display(),
            golden_path.display()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
