//! The campaign farm, end to end: memoizing cache, multi-worker claim
//! queue, journal leases, and convergence under injected faults.
//!
//! The invariants this file pins:
//!
//! * a second `--cached` run of an already-stored suite executes zero
//!   cells, tallies all-hit [`CacheStats`], and leaves the store
//!   byte-identical — with the same manifest, tally and cache trace at
//!   every runner thread count, and the cold run's manifest bytes;
//! * any number of concurrent (or crashed-and-replaced) workers drain a
//!   queued suite to a record set and manifest **byte-identical** to a
//!   single serial `apex suite run` — the journal and metrics sidecars
//!   are per-run telemetry and excluded from the comparison;
//! * a live `leased` journal line by another worker holds its range
//!   until probes expire it, and fsck leaves a live claim in an
//!   in-flight run alone;
//! * a record corrupted after its `committed` line is re-run before
//!   finalize, so the manifest only ever pins verified bytes;
//! * seeded fault plans (kills mid-lease, torn record writes, duplicate
//!   claims via tiny ttls) never prevent convergence once a clean
//!   worker finishes the drain;
//! * one unreadable, misnamed or oversized queue entry is skipped with a
//!   typed [`EntryError`], and every readable suite still drains.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use apex_farm::{query, run_worker, EntryError, FarmQueue, QueryAnswer, WorkerOpts};
use apex_lab::{
    fsck, is_kill, read_journal, run_suite_journaled, FaultInjector, FaultPlan, Grid, Journal,
    JournalEntry, JournalOpts, JournalState, JournaledRun, LabStore, SeedRange, Suite, TornWrite,
    TELEMETRY_FILES,
};
use apex_obs::{read_trace, ObsOpts};
use apex_scenario::{CacheStats, ProgramSource, Scenario, SourceSpec};
use apex_scheme::SchemeKind;
use apex_sim::ScheduleKind;
use proptest::prelude::*;

/// The cell indices of the journal's `kind` lines (`claimed`,
/// `committed` or `poisoned`), in file order.
fn indices_of(state: &JournalState, kind: &str) -> Vec<u64> {
    state
        .entries
        .iter()
        .filter(|e| e.kind() == kind)
        .filter_map(|e| match e {
            JournalEntry::Claimed { index, .. }
            | JournalEntry::Committed { index, .. }
            | JournalEntry::Poisoned { index, .. } => Some(*index),
            _ => None,
        })
        .collect()
}

fn committed_suite(name: &str) -> Suite {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("suites/{name}.json"));
    let suite = Suite::load(&path).unwrap();
    suite.validate().unwrap();
    suite
}

/// A small mixed suite (4 cells): cheap enough to run once per proptest
/// case, rich enough to cross shard boundaries at `shard_cells = 2`.
fn farm_suite() -> Suite {
    let mut suite = Suite::new("farm-unit");
    suite
        .cells
        .push(Scenario::agreement(8, SourceSpec::Random(50), 1, 41));
    suite
        .cells
        .push(Scenario::agreement(8, SourceSpec::Random(50), 1, 42));
    let mut grid = Grid::new(Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("coin-sum", 8, vec![16]),
        1,
    ));
    grid.schedules = vec![ScheduleKind::Uniform.into()];
    grid.seeds = Some(SeedRange { start: 1, count: 2 });
    suite.grids.push(grid);
    suite
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apex-farm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn temp_store(tag: &str) -> LabStore {
    LabStore::new(temp_dir(&format!("store-{tag}")))
}

fn serial() -> JournalOpts {
    JournalOpts {
        threads: Some(1),
        ..JournalOpts::default()
    }
}

/// The suite directory's durable identity: file name → bytes, minus the
/// telemetry sidecars ([`TELEMETRY_FILES`] plus per-worker
/// `metrics-*`/`trace-*` shards) — exactly what must be byte-identical
/// across runner topologies. Subdirectories are listed by name, so a
/// stray one fails the comparison.
fn file_map(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if path.is_dir() {
            out.insert(format!("{name}/"), Vec::new());
            continue;
        }
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

/// Serial single-runner ground truth for `suite`.
fn reference_map(suite: &Suite, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let store = temp_store(tag);
    run_suite_journaled(suite, &store, &serial()).unwrap();
    let map = file_map(&store.suite_dir(&suite.digest()));
    let _ = std::fs::remove_dir_all(store.root());
    map
}

fn worker(id: &str) -> WorkerOpts {
    WorkerOpts {
        worker: id.to_string(),
        shard_cells: 2,
        ttl: 8,
        threads: Some(1),
        ..WorkerOpts::default()
    }
}

#[test]
fn cached_rerun_executes_nothing_and_is_byte_identical() {
    // The memoization proof, on the committed adversary suite: run once,
    // then `--cached` — zero cells executed, all-hit stats, same bytes.
    let suite = committed_suite("adversary");
    let store = temp_store("cached-adv");
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let before = file_map(&store.suite_dir(&suite.digest()));

    let cached = JournalOpts {
        cached: true,
        threads: Some(1),
        ..JournalOpts::default()
    };
    let done = run_suite_journaled(&suite, &store, &cached).unwrap();
    assert!(done.executed.is_empty(), "cached run must execute 0 cells");
    assert_eq!(done.skipped.len(), suite.expand().unwrap().len());
    assert!(done.cache.all_hit(), "{}", done.cache.summary());
    assert_eq!(done.cache.hits as usize, done.skipped.len());
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), before);

    // The tally is on disk too, as metrics.json's `cache.*` counters.
    let metrics = store.read_metrics(&suite.digest()).unwrap();
    assert_eq!(metrics.counter("cache.hits"), done.cache.hits);
    assert_eq!(metrics.counter("cache.misses"), 0);
    assert_eq!(metrics.counter("cache.rejected"), 0);
    let _ = std::fs::remove_dir_all(store.root());
}

/// Copy one suite directory's files (not its subdirectories) from
/// `from` into a fresh store tagged `tag`.
fn copy_suite(from: &LabStore, digest: &str, tag: &str) -> LabStore {
    let to = temp_store(tag);
    let dir = to.suite_dir(digest);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(from.suite_dir(digest)).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
    }
    to
}

/// A `--cached` run of `suite` on `store` at `threads`, traced: the run
/// and its `lab`/`cache` events as `(cell index, verdict)`.
fn traced_cached_run(
    suite: &Suite,
    store: &LabStore,
    threads: usize,
) -> (JournaledRun, Vec<(u64, String)>) {
    let trace = store.root().join("cache-trace.jsonl");
    let opts = JournalOpts {
        cached: true,
        threads: Some(threads),
        obs: ObsOpts {
            trace: Some(trace.clone()),
            ..ObsOpts::off()
        },
        ..JournalOpts::default()
    };
    let done = run_suite_journaled(suite, store, &opts).unwrap();
    let events = read_trace(&trace)
        .unwrap()
        .events
        .into_iter()
        .filter(|e| e.scope == "lab" && e.kind == "cache")
        .map(|e| (e.op, e.label))
        .collect();
    (done, events)
}

#[test]
fn the_cached_path_does_not_depend_on_thread_count() {
    // Cached lookups are verified on the runner threads but tallied and
    // traced in cell order, so every observable of a `--cached` run is
    // the same at one thread and at four — and the manifest it writes,
    // built from the checksums the verified-read pass hashed, equals the
    // cold run's byte for byte.
    let suite = committed_suite("adversary");
    let digest = suite.digest();
    let cold = temp_store("threads-cold");
    run_suite_journaled(&suite, &cold, &serial()).unwrap();
    let reference = file_map(&cold.suite_dir(&digest));
    let cells = suite.expand().unwrap().len();
    let all_hit: Vec<(u64, String)> = (0..cells as u64).map(|i| (i, "hit".into())).collect();

    let mut seen = Vec::new();
    for threads in [1, 4] {
        let store = copy_suite(&cold, &digest, &format!("threads-warm-{threads}"));
        let (done, events) = traced_cached_run(&suite, &store, threads);
        assert!(done.executed.is_empty(), "threads={threads}");
        assert!(done.cache.all_hit(), "{}", done.cache.summary());
        assert_eq!(
            events, all_hit,
            "threads={threads}: cache events in cell order"
        );
        assert_eq!(file_map(&store.suite_dir(&digest)), reference);
        seen.push((done.manifest, done.cache, events));
        let _ = std::fs::remove_dir_all(store.root());
    }
    assert_eq!(seen[0], seen[1]);

    // One record corrupted mid-suite: both thread counts reject exactly
    // that cell, re-run it, and restore the reference bytes.
    let victim = cells / 2;
    let victim_digest = &seen[0].0.cells[victim].digest;
    let mut seen = Vec::new();
    for threads in [1, 4] {
        let store = copy_suite(&cold, &digest, &format!("threads-flip-{threads}"));
        let path = store.record_path(&digest, victim_digest);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        let (done, events) = traced_cached_run(&suite, &store, threads);
        assert_eq!(done.executed, vec![victim], "threads={threads}");
        assert_eq!(
            done.cache,
            CacheStats {
                hits: cells as u64 - 1,
                misses: 0,
                rejected: 1
            }
        );
        let mut expect = all_hit.clone();
        expect[victim].1 = "rejected".into();
        assert_eq!(events, expect, "threads={threads}");
        assert_eq!(file_map(&store.suite_dir(&digest)), reference);
        seen.push((done.manifest, done.cache, events));
        let _ = std::fs::remove_dir_all(store.root());
    }
    assert_eq!(seen[0], seen[1]);

    // The farm's finalize reads the same store through the same pass and
    // writes that same manifest, at any width.
    for threads in [1, 4] {
        let store = copy_suite(&cold, &digest, &format!("threads-farm-{threads}"));
        std::fs::remove_file(store.manifest_path(&digest)).unwrap();
        let queue = FarmQueue::new(temp_dir(&format!("queue-threads-{threads}")));
        queue.submit(&suite).unwrap();
        let opts = WorkerOpts {
            threads: Some(threads),
            ..worker("finalizer")
        };
        let report = run_worker(&queue, &store, &opts).unwrap();
        assert_eq!(report.executed, 0);
        assert!(report.cache.all_hit(), "{}", report.cache.summary());
        assert_eq!(report.finalized, vec![digest.clone()]);
        assert_eq!(file_map(&store.suite_dir(&digest)), reference);
        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(queue.root());
    }
    let _ = std::fs::remove_dir_all(cold.root());
}

#[test]
fn cached_run_rejects_and_heals_a_corrupt_record() {
    let suite = farm_suite();
    let store = temp_store("cached-heal");
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let before = file_map(&store.suite_dir(&suite.digest()));

    // Corrupt one record in place: the cached run must classify it as
    // rejected (present but unverifiable), re-execute exactly that cell,
    // and restore the byte-identical store.
    let manifest = store.read_manifest(&suite.digest()).unwrap();
    let victim = store.record_path(&suite.digest(), &manifest.cells[1].digest);
    std::fs::write(&victim, "not a record").unwrap();

    let cached = JournalOpts {
        cached: true,
        threads: Some(1),
        ..JournalOpts::default()
    };
    let done = run_suite_journaled(&suite, &store, &cached).unwrap();
    assert_eq!(done.cache.rejected, 1, "{}", done.cache.summary());
    assert_eq!(done.executed, vec![1]);
    assert!(!done.cache.all_hit());
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), before);
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn two_concurrent_workers_converge_byte_identically_to_serial() {
    let suite = committed_suite("smoke");
    let reference = reference_map(&suite, "two-ref");
    let store = temp_store("two");
    let queue = FarmQueue::new(temp_dir("queue-two"));
    queue.submit(&suite).unwrap();

    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = ["alpha", "beta"]
            .into_iter()
            .map(|id| {
                let (queue, store) = (&queue, &store);
                scope.spawn(move || run_worker(queue, store, &worker(id)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect::<Vec<_>>()
    });
    for report in &reports {
        assert!(report.divergences.is_empty(), "{}", report.summary());
    }
    // At least one worker finalized (both may — finalization writes the
    // same manifest bytes, so the race is benign) and between them every
    // cell ran at least once. The lease protocol is an optimization, so
    // only the conservative bounds hold, not perfect partitioning.
    let cells = suite.expand().unwrap().len();
    assert!(reports.iter().map(|r| r.finalized.len()).sum::<usize>() >= 1);
    assert!(reports.iter().map(|r| r.executed).sum::<usize>() >= cells);

    assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
    assert!(fsck(&store, false).unwrap().clean());
    let status = queue.status(&store).unwrap();
    assert!(status.all_finished(), "{}", status.summary());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn worker_killed_mid_lease_is_replaced_and_converges() {
    let suite = committed_suite("smoke");
    let reference = reference_map(&suite, "kill-ref");
    let store = temp_store("kill");
    let queue = FarmQueue::new(temp_dir("queue-kill"));
    queue.submit(&suite).unwrap();

    // Worker one dies mid-drain: a few cells committed, its last lease
    // still live in the journal, journal unfinished.
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(4),
            ..FaultPlan::default()
        })));
    let err = run_worker(&queue, &faulty, &worker("doomed")).unwrap_err();
    assert!(is_kill(&err), "{err}");
    assert!(
        !read_journal(&store.journal_path(&suite.digest()))
            .unwrap()
            .finished
    );

    // Worker two (fresh process, no faults) takes over: expired or
    // foreign-but-dead leases lapse on the operation clock as the worker
    // appends, the remaining shards run, the suite finalizes.
    let report = run_worker(&queue, &store, &worker("relief")).unwrap();
    assert_eq!(report.finalized, vec![suite.digest()]);
    assert!(report.divergences.is_empty());

    assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn fsck_leaves_a_live_claim_in_an_inflight_run_alone() {
    let suite = farm_suite();
    let store = temp_store("lease-live");
    let queue = FarmQueue::new(temp_dir("queue-live"));
    queue.submit(&suite).unwrap();
    // Die right after the first shard's lease hits the journal: the
    // journal is in-flight and the lease's operation budget is unspent.
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(2),
            ..FaultPlan::default()
        })));
    let err = run_worker(
        &queue,
        &faulty,
        &WorkerOpts {
            ttl: 1_000,
            ..worker("live")
        },
    )
    .unwrap_err();
    assert!(is_kill(&err), "{err}");
    let journal = read_journal(&store.journal_path(&suite.digest())).unwrap();
    let live: Vec<_> = journal.live_leases().map(|l| l.by).collect();
    assert_eq!(live, vec!["live"]);

    // No issue: the claim is within budget and the run in-flight.
    let report = fsck(&store, false).unwrap();
    assert!(report.clean(), "{}", report.summary());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn a_live_foreign_lease_holds_its_range_until_probes_expire_it() {
    // A planted `leased` line by a worker that never comes back covers
    // shard 0. The worker runs shard 1, then probes until the lease
    // lapses on the journal's operation clock, then takes shard 0 over
    // and traces the takeover naming the holder.
    let suite = farm_suite();
    let reference = reference_map(&suite, "foreign-ref");
    let store = temp_store("foreign");
    let queue = FarmQueue::new(temp_dir("queue-foreign"));
    queue.submit(&suite).unwrap();
    let digest = suite.digest();
    std::fs::create_dir_all(store.suite_dir(&digest)).unwrap();
    let ttl = 16;
    Journal::new(store.journal_path(&digest))
        .append(&JournalEntry::Leased {
            start: 0,
            count: 2,
            by: "ghost".into(),
            ttl,
        })
        .unwrap();

    let trace = store.root().join("foreign-trace.jsonl");
    let opts = WorkerOpts {
        obs: ObsOpts {
            trace: Some(trace.clone()),
            ..ObsOpts::off()
        },
        ..worker("heir")
    };
    let report = run_worker(&queue, &store, &opts).unwrap();
    assert_eq!(report.finalized, vec![digest.clone()]);
    assert_eq!(report.executed, 4, "no cell ran twice");

    let farm: Vec<(String, u64, String)> = read_trace(&trace)
        .unwrap()
        .events
        .into_iter()
        .filter(|e| e.scope == "farm" && e.kind != "cache")
        .map(|e| (e.kind, e.op, e.label))
        .collect();
    let kinds: Vec<&str> = farm.iter().map(|(kind, ..)| kind.as_str()).collect();
    let probes = kinds.iter().filter(|k| **k == "probe").count();
    assert!(probes > 0, "{farm:?}");
    // Shard 1 first, then probes, then the takeover of shard 0 — once
    // the journal has reached the ghost lease's deadline.
    let mut expect = vec!["lease"];
    expect.extend(std::iter::repeat_n("probe", probes));
    expect.extend(["expire", "lease"]);
    assert_eq!(kinds, expect, "{farm:?}");
    let (_, op, holder) = &farm[probes + 1];
    assert_eq!(holder, "ghost");
    assert!(*op >= ttl, "expired at journal length {op}");

    assert_eq!(file_map(&store.suite_dir(&digest)), reference);
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn a_record_corrupted_after_its_commit_is_re_run_before_finalize() {
    // The doomed worker commits shard 0 and dies. A committed record is
    // then flipped on disk. The relief worker counts the cell terminal
    // from its `committed` line, but finalize cannot verify the record,
    // so the cell is claimed, run and committed again before the
    // manifest is written.
    let suite = farm_suite();
    let reference = reference_map(&suite, "recommit-ref");
    let store = temp_store("recommit");
    let queue = FarmQueue::new(temp_dir("queue-recommit"));
    queue.submit(&suite).unwrap();
    let digest = suite.digest();
    // started, leased, 2 claims, 2 committed: die on shard 1's lease.
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(6),
            ..FaultPlan::default()
        })));
    let err = run_worker(&queue, &faulty, &worker("doomed")).unwrap_err();
    assert!(is_kill(&err), "{err}");
    let journal = read_journal(&store.journal_path(&digest)).unwrap();
    assert_eq!(indices_of(&journal, "committed"), vec![0, 1]);

    let cells = suite.expand().unwrap();
    // With no manifest yet there is no pinned checksum, so the flip
    // must break the JSON itself: `{` becomes `z`.
    let victim = store.record_path(&digest, &cells[1].digest);
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[0] ^= 1;
    std::fs::write(&victim, bytes).unwrap();

    let report = run_worker(&queue, &store, &worker("relief")).unwrap();
    assert_eq!(report.finalized, vec![digest.clone()]);
    assert_eq!(report.cache.rejected, 1, "{}", report.summary());
    assert_eq!(report.executed, 3, "shard 1 plus the re-run of cell 1");
    let journal = read_journal(&store.journal_path(&digest)).unwrap();
    let commits_of_1 = indices_of(&journal, "committed")
        .into_iter()
        .filter(|&i| i == 1)
        .count();
    assert_eq!(commits_of_1, 2, "committed once by each worker");
    assert_eq!(journal.owners[&1], "doomed", "the first terminal line owns");

    assert_eq!(file_map(&store.suite_dir(&digest)), reference);
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn query_misses_enqueue_then_hit_after_a_worker_drains() {
    let store = temp_store("query");
    let queue = FarmQueue::new(temp_dir("queue-query"));
    let scenario = Scenario::agreement(8, SourceSpec::Random(50), 1, 77);

    // Miss: enqueued as a one-cell suite, idempotently.
    let QueryAnswer::Enqueued {
        suite_digest,
        fresh,
        ..
    } = query(&store, &queue, &scenario).unwrap()
    else {
        panic!("expected a miss on an empty store")
    };
    assert!(fresh);
    let QueryAnswer::Enqueued { fresh, .. } = query(&store, &queue, &scenario).unwrap() else {
        panic!("expected the repeat query to still miss")
    };
    assert!(!fresh, "re-enqueueing the same query must be idempotent");

    let report = run_worker(&queue, &store, &worker("solo")).unwrap();
    assert_eq!(report.finalized, vec![suite_digest.clone()]);

    // Hit: the stored bytes verbatim, found under the one-cell suite.
    let QueryAnswer::Hit {
        suite,
        text,
        record,
    } = query(&store, &queue, &scenario).unwrap()
    else {
        panic!("expected a hit after the worker drained the queue")
    };
    assert_eq!(suite, suite_digest);
    assert_eq!(record.scenario.digest(), scenario.digest());
    let stored = std::fs::read_to_string(store.record_path(&suite, &scenario.digest())).unwrap();
    assert_eq!(text, stored);
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

/// Seed → a worker fleet's fault plans. Worker 0 may be killed at a
/// seeded journal boundary, worker 1 may tear one of its first two
/// record writes;
/// tiny ttls plus concurrency produce duplicate claims organically.
fn fleet_plans(seed: u64, workers: usize) -> Vec<Option<FaultPlan>> {
    (0..workers)
        .map(|w| match w {
            0 if seed & 1 != 0 => Some(FaultPlan {
                kill_after_journal: Some((seed >> 2) % 9),
                ..FaultPlan::default()
            }),
            1 if seed & 2 != 0 => Some(FaultPlan {
                torn_write: Some(TornWrite {
                    write: (seed >> 6) % 2,
                    keep: (seed % 64) as usize,
                }),
                ..FaultPlan::default()
            }),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// For any seeded fleet of 2–4 in-process workers — some killed
    /// mid-lease, some tearing record writes, all racing with tiny ttls —
    /// the merged store converges byte-identical to the single-worker
    /// reference once a final clean worker drains what is left.
    #[test]
    fn seeded_worker_fleets_converge_to_the_serial_bytes(seed in any::<u64>()) {
        let suite = farm_suite();
        let workers = 2 + (seed % 3) as usize;
        let tag = format!("fleet-{seed:016x}");
        let reference = reference_map(&suite, &tag);
        let store = temp_store(&tag);
        let queue = FarmQueue::new(temp_dir(&format!("queue-{tag}")));
        queue.submit(&suite).unwrap();

        let plans = fleet_plans(seed, workers);
        std::thread::scope(|scope| {
            for (w, plan) in plans.iter().enumerate() {
                let (queue, store) = (&queue, &store);
                let opts = WorkerOpts {
                    worker: format!("fleet-{w}"),
                    shard_cells: 1 + (seed as usize >> 3) % 2,
                    ttl: 2 + seed % 4,
                    threads: Some(1),
                    ..WorkerOpts::default()
                };
                scope.spawn(move || {
                    let faulted = match plan {
                        Some(p) => store.clone().with_faults(Arc::new(FaultInjector::new(p.clone()))),
                        None => store.clone(),
                    };
                    // A faulted worker may die (is_kill) — that is the
                    // point; a clean one must not error.
                    match run_worker(queue, &faulted, &opts) {
                        Ok(report) => assert!(report.divergences.is_empty(), "{}", report.summary()),
                        Err(e) => assert!(is_kill(&e) && plan.is_some(), "{e}"),
                    }
                });
            }
        });

        // One final clean sweep: outwaits dead leases, runs stragglers,
        // finalizes if nobody else did.
        let report = run_worker(&queue, &store, &worker("closer")).unwrap();
        prop_assert!(report.divergences.is_empty(), "{}", report.summary());

        prop_assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
        prop_assert!(fsck(&store, false).unwrap().clean());
        prop_assert!(queue.status(&store).unwrap().all_finished());

        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(queue.root());
    }
}

#[test]
fn worker_cache_stats_tally_hits_on_a_pre_populated_store() {
    // Submit a suite that is already fully stored: the worker's scan
    // counts pure hits, executes nothing, and only finalization remains.
    let suite = farm_suite();
    let store = temp_store("prehit");
    let queue = FarmQueue::new(temp_dir("queue-prehit"));
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let before = file_map(&store.suite_dir(&suite.digest()));
    queue.submit(&suite).unwrap();

    let report = run_worker(&queue, &store, &worker("idle")).unwrap();
    assert_eq!(report.executed, 0);
    assert!(report.cache.all_hit(), "{}", report.cache.summary());
    assert_eq!(
        report.cache,
        CacheStats {
            hits: suite.expand().unwrap().len() as u64,
            misses: 0,
            rejected: 0
        }
    );
    assert!(report.finalized.is_empty(), "already finished upstream");
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), before);
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn invalid_worker_ids_are_refused_before_anything_is_written() {
    // An id names journal lines and files (`metrics-<id>.json`,
    // `<cell>.json.<id>.tmp`); an empty one would stage records at the
    // single runner's shared `.tmp` path.
    let suite = farm_suite();
    let store = temp_store("bad-id");
    let queue = FarmQueue::new(temp_dir("queue-bad-id"));
    queue.submit(&suite).unwrap();
    for id in ["", "a/b", "../up", "two words", "dot.ted", "ünï"] {
        let err = run_worker(&queue, &store, &worker(id)).unwrap_err();
        assert!(err.contains("worker id"), "{id:?}: {err}");
        assert!(!store.root().exists(), "{id:?} wrote into the store");
    }
    let report = run_worker(&queue, &store, &worker("ok_id-2")).unwrap();
    assert_eq!(report.finalized, vec![suite.digest()]);
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn unreadable_queue_entries_are_skipped_and_every_readable_suite_drains() {
    let suite = farm_suite();
    let reference = reference_map(&suite, "bad-entries-ref");
    let store = temp_store("bad-entries");
    let queue = FarmQueue::new(temp_dir("queue-bad-entries"));
    let (digest, _, _) = queue.submit(&suite).unwrap();

    // Planted beside the real entry; `0-…` sorts ahead of every digest,
    // so the worker meets the bad files first.
    let torn = queue.root().join("0-torn.json");
    std::fs::write(&torn, "{\"suite\": 5").unwrap();
    let mut renamed = farm_suite();
    renamed.name = "farm-renamed".into();
    let misnamed = queue.root().join("0-misnamed.json");
    std::fs::write(&misnamed, renamed.render_pretty()).unwrap();
    // Named by its own digest, so only the cell cap rejects it.
    let mut oversized = farm_suite();
    oversized.grids[0].seeds = Some(SeedRange {
        start: 0,
        count: 1_000_000_000_000,
    });
    let oversized_path = queue.entry_path(&oversized.digest());
    std::fs::write(&oversized_path, oversized.render_pretty()).unwrap();

    let report = run_worker(&queue, &store, &worker("survivor")).unwrap();
    assert_eq!(report.suites, 1);
    assert_eq!(report.finalized, vec![digest.clone()]);
    assert_eq!(file_map(&store.suite_dir(&digest)), reference);
    assert!(report.summary().contains("3 unreadable entries skipped"));
    assert_eq!(report.skipped.len(), 3, "{:?}", report.skipped);
    assert!(report.skipped.contains(&EntryError::Misnamed {
        path: misnamed,
        digest: renamed.digest(),
    }));
    let unreadable = |path: &Path| {
        report.skipped.iter().find_map(|e| match e {
            EntryError::Unreadable { path: p, error } if p == path => Some(error.as_str()),
            _ => None,
        })
    };
    assert!(unreadable(&torn).is_some());
    assert!(unreadable(&oversized_path).is_some_and(|e| e.contains("cap")));

    // Status lists the same entries as unreadable and never reports the
    // queue as finished while they sit in it.
    let status = queue.status(&store).unwrap();
    assert_eq!(status.unreadable, report.skipped);
    assert_eq!(status.suites.len(), 1);
    assert!(status.suites[0].finished);
    assert!(!status.all_finished());
    assert!(
        status.summary().contains("3 unreadable"),
        "{}",
        status.summary()
    );
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn a_serial_one_worker_drain_journals_like_suite_run_plus_leases() {
    // `suite run` and the farm worker share one drain loop. At one
    // thread with one-cell shards, the worker's journal is the serial
    // run's, line for line, but for a `leased` line before each claim
    // and the worker id in `by`.
    let suite = committed_suite("smoke");
    let digest = suite.digest();
    let serial_store = temp_store("one-loop-serial");
    run_suite_journaled(&suite, &serial_store, &serial()).unwrap();
    let serial_text = std::fs::read_to_string(serial_store.journal_path(&digest)).unwrap();

    let store = temp_store("one-loop-farm");
    let queue = FarmQueue::new(temp_dir("queue-one-loop"));
    queue.submit(&suite).unwrap();
    let opts = WorkerOpts {
        shard_cells: 1,
        ..worker("solo")
    };
    let report = run_worker(&queue, &store, &opts).unwrap();
    assert_eq!(report.finalized, vec![digest.clone()]);
    let farm = read_journal(&store.journal_path(&digest)).unwrap();

    let mut unleased = Vec::new();
    for (position, entry) in farm.entries.iter().enumerate() {
        match entry {
            JournalEntry::Leased {
                start,
                count,
                by,
                ttl,
            } => {
                assert_eq!((*count, by.as_str(), *ttl), (1, "solo", opts.ttl));
                let next = &farm.entries[position + 1];
                assert!(
                    matches!(next, JournalEntry::Claimed { index, .. } if index == start),
                    "lease at {position} is not followed by its claim: {next:?}"
                );
            }
            JournalEntry::Committed { by, .. } | JournalEntry::Poisoned { by, .. } => {
                assert_eq!(by, "solo");
                let mut entry = entry.clone();
                if let JournalEntry::Committed { by, .. } | JournalEntry::Poisoned { by, .. } =
                    &mut entry
                {
                    by.clear();
                }
                unleased.push(entry.to_line());
            }
            other => unleased.push(other.to_line()),
        }
    }
    let claims = indices_of(&farm, "claimed").len();
    assert_eq!(farm.leases().count(), claims, "one lease per claim");
    assert_eq!(claims, suite.expand().unwrap().len());
    let serial_lines: Vec<&str> = serial_text.lines().collect();
    assert_eq!(unleased, serial_lines);
    let _ = std::fs::remove_dir_all(serial_store.root());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}
