//! The campaign farm, end to end: memoizing cache, multi-worker claim
//! queue, lease reclamation, and convergence under injected faults.
//!
//! The invariants this file pins:
//!
//! * a second `--cached` run of an already-stored suite executes zero
//!   cells, tallies all-hit [`CacheStats`], and leaves the store
//!   byte-identical;
//! * any number of concurrent (or crashed-and-replaced) workers drain a
//!   queued suite to a record set and manifest **byte-identical** to a
//!   single serial `apex suite run` — the journal and metrics sidecars
//!   are per-run telemetry and excluded from the comparison;
//! * every bad-lease class (torn, stale, orphaned) is detected by fsck
//!   and *reclaimed* — deleted, never quarantined — while a live claim
//!   in an in-flight run is left alone;
//! * seeded fault plans (kills mid-lease, torn lease writes, duplicate
//!   claims via tiny ttls) never prevent convergence once a clean
//!   worker finishes the drain.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use apex_farm::{query, run_worker, FarmQueue, QueryAnswer, WorkerOpts};
use apex_lab::{
    fsck, is_kill, lease_dir, lease_path, read_journal, run_suite_journaled, FaultInjector,
    FaultPlan, FsckIssueKind, Grid, JournalOpts, LabStore, Lease, SeedRange, Suite, TornWrite,
    TELEMETRY_FILES,
};
use apex_scenario::{CacheStats, ProgramSource, Scenario, SourceSpec};
use apex_scheme::SchemeKind;
use apex_sim::ScheduleKind;
use proptest::prelude::*;

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
/// `metrics-*`/`trace-*` shards) and any `leases/` debris — exactly what
/// must be byte-identical across runner topologies.
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
    assert!(
        !lease_dir(&store, &suite.digest()).exists(),
        "a converged store carries no queue debris"
    );
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

    // Worker one dies mid-drain: a few cells committed, a lease likely
    // still on disk, journal unfinished.
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
    assert!(!lease_dir(&store, &suite.digest()).exists());
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

/// Write a syntactically valid lease file for `suite`'s shard `k`.
fn plant_lease(store: &LabStore, suite: &str, lease: &Lease) {
    let dir = lease_dir(store, suite);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(lease_path(store, suite, lease.shard), lease.render_pretty()).unwrap();
}

#[test]
fn fsck_reclaims_torn_leases_from_a_fault_plan() {
    // The first store write of a worker drain is the shard lease; tear
    // it and die. fsck must classify the debris as a torn lease and
    // reclaim (not quarantine) it.
    let suite = farm_suite();
    let store = temp_store("lease-torn");
    let queue = FarmQueue::new(temp_dir("queue-torn"));
    queue.submit(&suite).unwrap();
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            torn_write: Some(TornWrite { write: 0, keep: 24 }),
            ..FaultPlan::default()
        })));
    let err = run_worker(&queue, &faulty, &worker("tearer")).unwrap_err();
    assert!(is_kill(&err), "{err}");
    let shard0 = lease_path(&store, &suite.digest(), 0);
    assert!(shard0.exists(), "the torn lease must be on disk");

    let report = fsck(&store, true).unwrap();
    let lease_issues: Vec<_> = report
        .issues
        .iter()
        .filter(|i| i.kind == FsckIssueKind::LeaseTorn)
        .collect();
    assert_eq!(lease_issues.len(), 1, "{}", report.summary());
    assert!(lease_issues[0].reclaimed && !lease_issues[0].quarantined);
    assert!(!shard0.exists());
    assert!(
        !store.quarantine_root().exists()
            || !store
                .quarantine_root()
                .join(suite.digest())
                .join("shard-0.json")
                .exists(),
        "leases are reclaimed, never quarantined"
    );
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn fsck_reclaims_stale_leases_after_the_run_finishes() {
    // A kill plan leaves a live lease behind; the run is then finished
    // by the journaled runner (which knows nothing of leases). The
    // leftover claim outlived its run: stale, reclaimed.
    let suite = farm_suite();
    let store = temp_store("lease-stale");
    let queue = FarmQueue::new(temp_dir("queue-stale"));
    queue.submit(&suite).unwrap();
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(3),
            ..FaultPlan::default()
        })));
    let err = run_worker(&queue, &faulty, &worker("doomed")).unwrap_err();
    assert!(is_kill(&err), "{err}");
    assert!(lease_path(&store, &suite.digest(), 0).exists());

    let resume = JournalOpts {
        resume: true,
        threads: Some(1),
        ..JournalOpts::default()
    };
    run_suite_journaled(&suite, &store, &resume).unwrap();

    let report = fsck(&store, true).unwrap();
    let stale: Vec<_> = report
        .issues
        .iter()
        .filter(|i| i.kind == FsckIssueKind::LeaseStale)
        .collect();
    assert_eq!(stale.len(), 1, "{}", report.summary());
    assert!(stale[0].reclaimed && !stale[0].quarantined);
    assert!(!lease_dir(&store, &suite.digest()).exists());
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn fsck_reclaims_orphaned_shard_claims() {
    let suite = farm_suite();
    let store = temp_store("lease-orphan");
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let digest = suite.digest();

    // Orphan class 1: a lease filed under this suite but claiming
    // another. Orphan class 2: a shard range past the suite's expansion.
    plant_lease(
        &store,
        &digest,
        &Lease {
            suite: "feedfacefeedface".into(),
            shard: 0,
            start: 0,
            count: 2,
            worker: "stray".into(),
            issued_at: 0,
            ttl: u64::MAX,
        },
    );
    plant_lease(
        &store,
        &digest,
        &Lease {
            suite: digest.clone(),
            shard: 7,
            start: 90,
            count: 2,
            worker: "confused".into(),
            issued_at: 0,
            ttl: u64::MAX,
        },
    );

    let report = fsck(&store, true).unwrap();
    let orphans: Vec<_> = report
        .issues
        .iter()
        .filter(|i| i.kind == FsckIssueKind::LeaseOrphan)
        .collect();
    assert_eq!(orphans.len(), 2, "{}", report.summary());
    assert!(orphans.iter().all(|i| i.reclaimed && !i.quarantined));
    assert!(!lease_dir(&store, &digest).exists());
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn fsck_leaves_a_live_claim_in_an_inflight_run_alone() {
    let suite = farm_suite();
    let store = temp_store("lease-live");
    let queue = FarmQueue::new(temp_dir("queue-live"));
    queue.submit(&suite).unwrap();
    // Die right after the first shard's claims hit the journal: the
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
    assert!(lease_path(&store, &suite.digest(), 0).exists());

    // No lease issue: the claim is within budget and the run in-flight.
    let report = fsck(&store, false).unwrap();
    assert!(
        !report.issues.iter().any(|i| matches!(
            i.kind,
            FsckIssueKind::LeaseTorn | FsckIssueKind::LeaseStale | FsckIssueKind::LeaseOrphan
        )),
        "{}",
        report.summary()
    );
    assert!(lease_path(&store, &suite.digest(), 0).exists());
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
/// seeded journal boundary, worker 1 may tear its first lease write;
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
    /// mid-lease, some tearing lease writes, all racing with tiny ttls —
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

        // One final clean sweep: reclaims dead leases, runs stragglers,
        // finalizes if nobody else did.
        let report = run_worker(&queue, &store, &worker("closer")).unwrap();
        prop_assert!(report.divergences.is_empty(), "{}", report.summary());

        prop_assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
        prop_assert!(!lease_dir(&store, &suite.digest()).exists());
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
