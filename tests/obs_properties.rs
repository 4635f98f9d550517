//! The telemetry plane's one hard promise, property-tested: **observing
//! a run never changes a result byte**. Traces, metrics, and profiling
//! are pure observers of the deterministic execution underneath.
//!
//! The invariants this file pins:
//!
//! * a fully instrumented suite run (`--trace --metrics`) writes a store
//!   byte-identical — outside the telemetry sidecars — to an
//!   uninstrumented run, at worker-thread counts 1, 2, and 4;
//! * the store counters (`store.fsyncs`, `store.bytes`) the metrics carry
//!   are coordination-plane only, and at one thread `store.fsyncs` is
//!   exactly three barriers per executed cell plus the `started` line;
//! * `apex obs metrics --merge` over a racing two-worker farm drain
//!   equals the serial run's aggregate on the result plane, even when
//!   lease stealing makes both workers execute the same cell;
//! * the canonical scenario's `--threads 1` trace on the tree walker is
//!   byte-pinned (`tests/golden/canonical-trace.jsonl`) — the trace codec
//!   and the engine's operation-indexed batch boundaries cannot drift
//!   silently — and the default (bytecode) run emits the same engine
//!   events behind one `compile`/`lower` event;
//! * [`TELEMETRY_FILES`] — the single source of truth for byte-identity
//!   exclusion — stays in sync with CI's `TELEMETRY_EXCLUDES` env list.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use apex_farm::{run_worker, FarmQueue, WorkerOpts};
use apex_lab::{
    fsck, run_suite_journaled, Grid, JournalOpts, LabStore, SeedRange, Suite, TELEMETRY_FILES,
};
use apex_obs::{read_trace, Metrics, Obs, ObsOpts, TraceEvent, TraceLog};
use apex_scenario::{ProgramEngine, ProgramSource, RunOpts, RunOutcome, Scenario, SourceSpec};
use apex_scheme::SchemeKind;
use apex_sim::ScheduleKind;
use proptest::prelude::*;

/// A small mixed suite: agreement cells plus a nondet-scheme grid —
/// cheap enough to run per proptest case, rich enough to exercise the
/// engine and lab trace seams.
fn obs_suite(seed: u64) -> Suite {
    let mut suite = Suite::new(format!("obs-unit-{seed}"));
    suite
        .cells
        .push(Scenario::agreement(8, SourceSpec::Random(50), 1, 40 + seed));
    let mut grid = Grid::new(Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("coin-sum", 8, vec![16]),
        1,
    ));
    grid.schedules = vec![ScheduleKind::Uniform.into()];
    grid.seeds = Some(SeedRange {
        start: seed % 7,
        count: 3,
    });
    suite.grids.push(grid);
    suite
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apex-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The suite directory's durable identity: file name → bytes, minus
/// every telemetry sidecar ([`TELEMETRY_FILES`] plus per-worker
/// `metrics-*`/`trace-*` shards).
fn file_map(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            continue;
        }
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if TELEMETRY_FILES.contains(&name.as_str())
            || name.starts_with("metrics-")
            || name.starts_with("trace-")
        {
            continue;
        }
        out.insert(name, std::fs::read(&path).unwrap());
    }
    out
}

fn opts(threads: usize, obs: ObsOpts) -> JournalOpts {
    JournalOpts {
        threads: Some(threads),
        obs,
        ..JournalOpts::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The no-observer-effect law: for any seeded suite and each worker
    /// count in {1, 2, 4}, a run with tracing + metrics on produces the
    /// byte-identical record set, manifest, and digests as a dark run —
    /// and the trace it wrote actually parses.
    #[test]
    fn telemetry_never_changes_a_result_byte(seed in 0u64..1024) {
        let suite = obs_suite(seed);
        for threads in [1usize, 2, 4] {
            let tag = format!("dark-{seed}-{threads}");
            let dark_store = LabStore::new(temp_dir(&tag));
            run_suite_journaled(&suite, &dark_store, &opts(threads, ObsOpts::off())).unwrap();
            let reference = file_map(&dark_store.suite_dir(&suite.digest()));

            let lit_store = LabStore::new(temp_dir(&format!("lit-{seed}-{threads}")));
            let trace = lit_store.root().join("trace.jsonl");
            let lit = ObsOpts {
                trace: Some(trace.clone()),
                metrics: true,
                profile: false,
            };
            let done = run_suite_journaled(&suite, &lit_store, &opts(threads, lit)).unwrap();

            prop_assert_eq!(
                file_map(&lit_store.suite_dir(&suite.digest())),
                reference,
                "telemetry changed a result byte at threads={}",
                threads
            );
            prop_assert!(!done.metrics.is_empty(), "metrics were requested");
            let log = read_trace(&trace).unwrap();
            prop_assert!(!log.torn_tail);
            prop_assert!(!log.events.is_empty(), "the run must have traced");
            // The metrics sidecar round-trips through its own codec.
            let stored = Metrics::load(&lit_store.metrics_path(&suite.digest())).unwrap();
            prop_assert_eq!(&stored, &done.metrics);
            // The store counters are there, count what was written, and
            // stay out of the result plane.
            let record_bytes: usize = done.run.records().map(|r| r.render_pretty().len()).sum();
            prop_assert_eq!(done.metrics.counter("store.bytes"), record_bytes as u64);
            prop_assert!(done.metrics.counter("store.fsyncs") > 0);
            let plane = done.metrics.result_plane();
            prop_assert_eq!(plane.counter("store.fsyncs"), 0);
            prop_assert_eq!(plane.counter("store.bytes"), 0);

            let _ = std::fs::remove_dir_all(dark_store.root());
            let _ = std::fs::remove_dir_all(lit_store.root());
        }
    }
}

/// Merge the per-worker `metrics-<id>.json` shards a farm drain leaves
/// beside a suite's records.
fn merged_shards(store: &LabStore, digest: &str) -> Metrics {
    let mut merged = Metrics::new();
    let mut shards = 0;
    for entry in std::fs::read_dir(store.suite_dir(digest)).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap();
        if name.starts_with("metrics-") && name.ends_with(".json") {
            merged.merge(&Metrics::load(&path).unwrap()).unwrap();
            shards += 1;
        }
    }
    assert!(shards >= 1, "the drain must have written metrics shards");
    merged
}

#[test]
fn fleet_merge_equals_the_serial_aggregate() {
    // Two racing in-process workers, tiny ttl so lease stealing (and
    // with it duplicate cell execution) is likely; the journal-order
    // ownership attribution must still make the merged result plane
    // equal the serial run's, exactly.
    let suite = obs_suite(3);
    let serial_store = LabStore::new(temp_dir("merge-serial"));
    let done = run_suite_journaled(
        &suite,
        &serial_store,
        &opts(
            1,
            ObsOpts {
                trace: None,
                metrics: true,
                profile: false,
            },
        ),
    )
    .unwrap();

    let store = LabStore::new(temp_dir("merge-farm"));
    let queue = FarmQueue::new(temp_dir("merge-queue"));
    queue.submit(&suite).unwrap();
    std::thread::scope(|scope| {
        for id in ["alpha", "beta"] {
            let (queue, store) = (&queue, &store);
            let w = WorkerOpts {
                worker: id.to_string(),
                shard_cells: 1,
                ttl: 2,
                threads: Some(1),
                obs: ObsOpts {
                    trace: None,
                    metrics: true,
                    profile: false,
                },
                ..WorkerOpts::default()
            };
            scope.spawn(move || run_worker(queue, store, &w).unwrap());
        }
    });

    let merged = merged_shards(&store, &suite.digest());
    assert_eq!(
        merged.result_plane(),
        done.metrics.result_plane(),
        "fleet-merged result plane must equal the serial aggregate\n\
         merged:\n{}\nserial:\n{}",
        merged.render_pretty(),
        done.metrics.render_pretty()
    );
    // Raw executions may exceed owned cells (stolen cells run twice);
    // never the other way around.
    assert!(merged.counter("farm.executions") >= merged.counter("cells.executed"));
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(serial_store.root());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn serial_smoke_run_issues_three_barriers_per_cell() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("suites/smoke.json");
    let suite = Suite::load(&path).unwrap();
    let store = LabStore::new(temp_dir("barriers"));
    let metrics_on = ObsOpts {
        trace: None,
        metrics: true,
        profile: false,
    };
    let done = run_suite_journaled(&suite, &store, &opts(1, metrics_on)).unwrap();
    assert!(done.run.all_ok());
    assert_eq!(done.executed.len(), 13);
    // Per cell: one filesystem sync for its record and claim, one
    // directory fsync for the rename, one journal fsync for `committed`
    // (committing cell by cell took four). Plus the `started` line.
    assert_eq!(done.metrics.counter("store.fsyncs"), 3 * 13 + 1);
    assert_eq!(done.metrics.counter("store.bytes"), 24562);
    let _ = std::fs::remove_dir_all(store.root());
}

/// Trace the canonical scenario at one thread under `engine` (`None`:
/// the default): the trace file's text, and its events through the
/// public reader.
fn canonical_trace(engine: Option<ProgramEngine>, tag: &str) -> (String, TraceLog) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scenario = Scenario::load(&root.join("tests/golden/canonical-scenario.json")).unwrap();
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let opts = RunOpts {
        engine,
        obs: Obs::to_file(&path).unwrap(),
    };
    let outcome = RunOutcome::capture_opts(&scenario, &opts);
    opts.obs.flush();
    assert!(outcome.ok(), "the canonical scenario must complete");
    let text = std::fs::read_to_string(&path).unwrap();
    let log = read_trace(&path).unwrap();
    assert!(!log.torn_tail);
    let _ = std::fs::remove_dir_all(&dir);
    (text, log)
}

#[test]
fn canonical_trace_is_byte_pinned() {
    // The committed golden trace is what a single-threaded run of the
    // canonical scenario emits on the tree walker, byte for byte — the
    // versioned codec, the operation-indexed sequence numbers, and the
    // engine's batch boundaries are all pinned at once. Regenerate with
    // `apex run tests/golden/canonical-scenario.json --engine tree --trace`
    // if the engine's batching intentionally changes.
    let (fresh, log) = canonical_trace(Some(ProgramEngine::Tree), "golden-trace");
    let golden = include_str!("golden/canonical-trace.jsonl");
    assert_eq!(
        fresh, golden,
        "canonical-trace.jsonl drifted; if the change is intentional, regenerate with \
         `apex run tests/golden/canonical-scenario.json --engine tree --trace`"
    );
    // And the pinned bytes parse through the public reader.
    assert_eq!(log.events.len(), golden.lines().count());
    assert!(log.events.iter().all(|e| e.scope == "engine"));
}

#[test]
fn default_canonical_trace_is_the_golden_behind_one_lowering_event() {
    // The default engine is the bytecode VM: it lowers the program once
    // (one `compile`/`lower` event) and then emits exactly the tree
    // walker's engine events, shifted one sequence number down.
    let (_, fresh) = canonical_trace(None, "default-trace");
    let golden: Vec<TraceEvent> = include_str!("golden/canonical-trace.jsonl")
        .lines()
        .map(|line| TraceEvent::parse_line(line).unwrap())
        .collect();
    let (lower, engine) = fresh.events.split_first().expect("a non-empty trace");
    assert_eq!(
        (lower.scope.as_str(), lower.kind.as_str()),
        ("compile", "lower")
    );
    assert_eq!(lower.seq, 0);
    let key = |e: &TraceEvent| {
        (
            e.kind.clone(),
            e.scope.clone(),
            e.op,
            e.label.clone(),
            e.fields.clone(),
        )
    };
    assert_eq!(
        engine.iter().map(key).collect::<Vec<_>>(),
        golden.iter().map(key).collect::<Vec<_>>()
    );
    assert!(engine.iter().zip(&golden).all(|(e, g)| e.seq == g.seq + 1));
}

/// Minimal one-`*` glob match, the shape `diff --exclude` uses here.
fn glob_matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((pre, suf)) => {
            name.len() >= pre.len() + suf.len() && name.starts_with(pre) && name.ends_with(suf)
        }
    }
}

#[test]
fn telemetry_files_stay_in_sync_with_ci_excludes() {
    // TELEMETRY_FILES is the single source of truth; CI's hoisted
    // TELEMETRY_EXCLUDES env list must cover every entry (and the
    // per-worker shard names) so `diff -r` comparisons in the smoke
    // jobs never flag a telemetry sidecar as drift.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
    let patterns: Vec<&str> = ci
        .lines()
        .filter_map(|l| l.trim().strip_prefix("--exclude="))
        .collect();
    assert!(
        !patterns.is_empty(),
        "ci.yml must hoist a TELEMETRY_EXCLUDES list"
    );
    let mut expected: Vec<String> = TELEMETRY_FILES.iter().map(|f| f.to_string()).collect();
    // Per-worker shards a farm drain writes beside the suite's records.
    expected.push("metrics-some-worker.json".to_string());
    expected.push("trace-some-worker.jsonl".to_string());
    for name in &expected {
        assert!(
            patterns.iter().any(|p| glob_matches(p, name)),
            "telemetry file {name:?} is not covered by CI's exclusion list {patterns:?}"
        );
    }
}
