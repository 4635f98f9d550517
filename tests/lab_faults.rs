//! The crash-safety proof: deterministic fault injection against the
//! journaled suite runner, the atomic store, fsck, and gc.
//!
//! Every fault here is data — a seeded [`FaultPlan`] triggering by
//! operation index, never by wall clock — so each scenario replays
//! bit-for-bit. The central invariants:
//!
//! * killing the run before *any* journal append, then resuming,
//!   converges to a record set and manifest byte-identical to an
//!   uninterrupted run;
//! * every injected corruption class (torn write, silent bit flip,
//!   orphan, missing record, stale temp, corrupt journal) is detected by
//!   `fsck`, which never reports an issue on a clean store and never
//!   deletes — repair moves files to quarantine;
//! * a panicking cell poisons exactly itself; transient write errors are
//!   absorbed by bounded retry;
//! * at two runner threads, where cells are group-committed in batches
//!   of whatever finished together, a kill at any journal boundary leaves
//!   the protocol's on-disk invariants intact (see `apex_lab::journal`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use apex_lab::{
    claim_entry, fsck, gc, is_kill, read_journal, run_suite_journaled, terminal_entry, BitFlip,
    CacheLookup, CommitBatch, Committer, FaultInjector, FaultPlan, FsckIssueKind, Grid,
    JournalEntry, JournalOpts, JournalState, LabStore, SeedRange, Suite, TornWrite, TransientFault,
    CELL_PANIC_MARKER, JOURNAL_FILE,
};
use apex_scenario::{ProgramSource, RunOutcome, Scenario, SourceSpec};
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

/// A small all-complete suite (4 cells) for the boundary sweep — the
/// committed suites are exercised separately; the sweep re-runs the
/// whole suite once per journal boundary, so it wants a cheap one.
fn sweep_suite() -> Suite {
    let mut suite = Suite::new("fault-sweep");
    suite
        .cells
        .push(Scenario::agreement(8, SourceSpec::Random(50), 1, 11));
    suite
        .cells
        .push(Scenario::agreement(8, SourceSpec::Random(50), 1, 12));
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

fn temp_store(tag: &str) -> LabStore {
    let dir = std::env::temp_dir().join(format!("apex-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    LabStore::new(dir)
}

fn serial() -> JournalOpts {
    JournalOpts {
        resume: false,
        threads: Some(1),
        ..JournalOpts::default()
    }
}

fn resume_serial() -> JournalOpts {
    JournalOpts {
        resume: true,
        threads: Some(1),
        ..JournalOpts::default()
    }
}

/// The suite directory's durable content: file name → bytes, excluding
/// the journal (an intent log, not a result — resumed histories differ
/// from uninterrupted ones by design).
fn file_map(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if name == JOURNAL_FILE {
            continue;
        }
        out.insert(name, std::fs::read(&path).unwrap());
    }
    out
}

/// Run `suite` uninterrupted into a fresh store and return its file map
/// (the byte-level ground truth every fault scenario must converge to).
fn reference_map(suite: &Suite, tag: &str) -> (BTreeMap<String, Vec<u8>>, PathBuf) {
    let store = temp_store(tag);
    let done = run_suite_journaled(suite, &store, &serial()).unwrap();
    assert_eq!(done.executed.len(), suite.expand().unwrap().len());
    let dir = store.suite_dir(&suite.digest());
    (file_map(&dir), store.root().to_path_buf())
}

#[test]
fn kill_at_every_journal_boundary_then_resume_converges() {
    let suite = sweep_suite();
    let cells = suite.expand().unwrap().len();
    // Serial append count: started + (claimed + committed) per cell +
    // finished.
    let total_appends = (2 * cells + 2) as u64;
    let (reference, ref_root) = reference_map(&suite, "sweep-ref");

    for k in 0..total_appends {
        let tag = format!("sweep-{k}");
        let store = temp_store(&tag);
        let injector = Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(k),
            ..FaultPlan::default()
        }));
        let faulty = store.clone().with_faults(injector.clone());
        let err = run_suite_journaled(&suite, &faulty, &serial()).unwrap_err();
        assert!(is_kill(&err), "boundary {k}: {err}");
        assert!(injector.killed());

        // The journal on disk is a clean prefix — exactly k lines.
        let state =
            apex_lab::read_journal(&store.journal_path(&suite.digest())).unwrap_or_default();
        assert_eq!(state.entries.len() as u64, k, "boundary {k}");
        assert!(!state.torn_tail);

        // Resume on a clean process (no injector) converges to the
        // reference bytes, record for record, manifest included.
        let done = run_suite_journaled(&suite, &store, &resume_serial()).unwrap();
        assert_eq!(done.skipped.len() + done.executed.len(), cells);
        assert_eq!(
            file_map(&store.suite_dir(&suite.digest())),
            reference,
            "boundary {k}: resumed store diverges from uninterrupted run"
        );

        // And fsck on the converged store is clean — resume left no
        // debris behind.
        let report = fsck(&store, false).unwrap();
        assert!(report.clean(), "boundary {k}: {}", report.summary());

        let _ = std::fs::remove_dir_all(store.root());
    }

    // Killing past the last boundary never fires: the run completes.
    let store = temp_store("sweep-past").with_faults(Arc::new(FaultInjector::new(FaultPlan {
        kill_after_journal: Some(total_appends),
        ..FaultPlan::default()
    })));
    let done = run_suite_journaled(&suite, &store, &serial()).unwrap();
    assert!(done.run.all_ok());
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(ref_root);
}

/// Invariants 2–4 of the group-commit protocol, checked on disk after a
/// kill: every terminal line's cell was claimed earlier in the file, every
/// `committed` line's record sits at its final path and verifies, and no
/// record exists without a `claimed` line.
fn assert_commit_invariants(store: &LabStore, suite: &Suite, k: u64) {
    let digest = suite.digest();
    let state = read_journal(&store.journal_path(&digest)).unwrap_or_default();
    let mut claimed = std::collections::BTreeSet::new();
    for entry in &state.entries {
        match entry {
            JournalEntry::Claimed { cell, .. } => {
                claimed.insert(cell.clone());
            }
            JournalEntry::Committed { cell, .. } | JournalEntry::Poisoned { cell, .. } => {
                assert!(
                    claimed.contains(cell),
                    "boundary {k}: {cell} terminal before claim"
                );
                if let JournalEntry::Committed { .. } = entry {
                    assert!(
                        matches!(
                            store.lookup_record(&digest, cell, None),
                            CacheLookup::Hit(..)
                        ),
                        "boundary {k}: {cell} committed without a verified record"
                    );
                }
            }
            _ => {}
        }
    }
    for record in store.record_digests(&digest).unwrap_or_default() {
        assert!(
            claimed.contains(&record),
            "boundary {k}: record {record} was never claimed"
        );
    }
}

#[test]
fn kill_at_every_journal_boundary_at_two_threads_keeps_the_commit_invariants() {
    let suite = sweep_suite();
    let cells = suite.expand().unwrap().len();
    // Batching changes when lines land, not how many: still started +
    // (claimed + terminal) per cell + finished.
    let total_appends = (2 * cells + 2) as u64;
    let (reference, ref_root) = reference_map(&suite, "sweep2-ref");
    let two = |resume| JournalOpts {
        resume,
        threads: Some(2),
        ..JournalOpts::default()
    };

    for k in 0..total_appends {
        let store = temp_store(&format!("sweep2-{k}"));
        let injector = Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(k),
            ..FaultPlan::default()
        }));
        let faulty = store.clone().with_faults(injector);
        let err = run_suite_journaled(&suite, &faulty, &two(false)).unwrap_err();
        assert!(is_kill(&err), "boundary {k}: {err}");
        let state = read_journal(&store.journal_path(&suite.digest())).unwrap_or_default();
        assert_eq!(state.entries.len() as u64, k, "boundary {k}");
        assert!(!state.torn_tail);
        assert_commit_invariants(&store, &suite, k);

        let done = run_suite_journaled(&suite, &store, &two(true)).unwrap();
        assert_eq!(done.skipped.len() + done.executed.len(), cells);
        assert_eq!(
            file_map(&store.suite_dir(&suite.digest())),
            reference,
            "boundary {k}: resumed store diverges from the serial run"
        );
        let report = fsck(&store, false).unwrap();
        assert!(report.clean(), "boundary {k}: {}", report.summary());
        let _ = std::fs::remove_dir_all(store.root());
    }
    let _ = std::fs::remove_dir_all(ref_root);
}

#[test]
fn torn_write_inside_a_multi_record_batch_is_healed_by_resume() {
    let suite = sweep_suite();
    let cells = suite.expand().unwrap();
    let (reference, ref_root) = reference_map(&suite, "batch-torn-ref");
    let store = temp_store("batch-torn");
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            // Store write 1 is the batch's second record: the first is
            // staged in its temp file when the second tears.
            torn_write: Some(TornWrite { write: 1, keep: 40 }),
            ..FaultPlan::default()
        })));
    // One batch holding every cell's claim, record and terminal line.
    let outcomes: Vec<RunOutcome> = cells
        .iter()
        .map(|c| RunOutcome::capture(&c.scenario))
        .collect();
    std::fs::create_dir_all(store.suite_dir(&suite.digest())).unwrap();
    let mut committer = Committer::new(&faulty, &suite.digest(), "");
    committer
        .append(&JournalEntry::Started {
            suite: suite.digest(),
            name: suite.name.clone(),
            cells: cells.len() as u64,
            resumed: false,
        })
        .unwrap();
    let err = committer
        .commit(&CommitBatch {
            claims: cells.iter().map(claim_entry).collect(),
            records: outcomes.iter().filter_map(RunOutcome::record).collect(),
            terminals: cells
                .iter()
                .zip(&outcomes)
                .map(|(c, o)| terminal_entry(c, o, ""))
                .collect(),
        })
        .unwrap_err();
    assert!(is_kill(&err), "{err}");

    // The batch died before any rename: every cell claimed, none
    // terminal, one torn record and one staged temp on disk.
    let state = read_journal(&store.journal_path(&suite.digest())).unwrap();
    assert_eq!(indices_of(&state, "claimed").len(), cells.len());
    assert!(indices_of(&state, "committed").is_empty());
    assert!(state.owners.is_empty(), "no cell is terminal");
    assert_commit_invariants(&store, &suite, 0);
    let kinds: Vec<FsckIssueKind> = fsck(&store, false)
        .unwrap()
        .issues
        .iter()
        .map(|i| i.kind)
        .collect();
    assert!(kinds.contains(&FsckIssueKind::TornOrTruncated), "{kinds:?}");
    assert!(kinds.contains(&FsckIssueKind::StaleTemp), "{kinds:?}");

    // Resume trusts neither file: it re-runs every cell, overwrites the
    // staged temp, and converges with no debris left.
    let done = run_suite_journaled(&suite, &store, &resume_serial()).unwrap();
    assert_eq!(done.executed.len(), cells.len());
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(ref_root);
}

#[test]
fn resume_of_a_finished_run_skips_everything_byte_identically() {
    let suite = sweep_suite();
    let store = temp_store("resume-noop");
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let before = file_map(&store.suite_dir(&suite.digest()));
    let done = run_suite_journaled(&suite, &store, &resume_serial()).unwrap();
    assert_eq!(done.skipped.len(), suite.expand().unwrap().len());
    assert!(done.executed.is_empty());
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), before);
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn kill_mid_run_then_resume_on_the_committed_adversary_suite() {
    let suite = committed_suite("adversary");
    let (reference, ref_root) = reference_map(&suite, "adv-ref");
    let store = temp_store("adv-kill");
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            // Mid-run: a few cells committed, the rest never claimed.
            kill_after_journal: Some(7),
            ..FaultPlan::default()
        })));
    let err = run_suite_journaled(&suite, &faulty, &serial()).unwrap_err();
    assert!(is_kill(&err), "{err}");

    let done = run_suite_journaled(&suite, &store, &resume_serial()).unwrap();
    assert!(
        !done.skipped.is_empty() && !done.executed.is_empty(),
        "mid-run kill must leave both verified records ({:?}) and pending cells ({:?})",
        done.skipped,
        done.executed
    );
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(ref_root);
}

#[test]
fn torn_write_is_detected_by_fsck_and_healed_by_resume() {
    let suite = sweep_suite();
    let (reference, ref_root) = reference_map(&suite, "torn-ref");
    let store = temp_store("torn");
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            // Store write 0 is cell 0's record on the serial path: keep a
            // 40-byte prefix at the final path, then die.
            torn_write: Some(TornWrite { write: 0, keep: 40 }),
            ..FaultPlan::default()
        })));
    let err = run_suite_journaled(&suite, &faulty, &serial()).unwrap_err();
    assert!(is_kill(&err), "{err}");

    // fsck names the torn record (no manifest yet — the journal marks the
    // suite as in-flight, which is legal).
    let report = fsck(&store, false).unwrap();
    assert!(
        report
            .issues
            .iter()
            .any(|i| i.kind == FsckIssueKind::TornOrTruncated),
        "{}",
        report.summary()
    );

    // Resume re-runs the torn cell (its bytes do not verify) and
    // converges.
    let done = run_suite_journaled(&suite, &store, &resume_serial()).unwrap();
    assert!(!done.executed.is_empty());
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(ref_root);
}

#[test]
fn silent_bit_flip_is_caught_only_by_the_manifest_checksum() {
    let suite = sweep_suite();
    // Find a digit inside cell 0's record to flip: digits stay digits
    // under XOR 0x01, so the corrupted file still parses, still
    // digest-verifies (the digest covers only the scenario), and still
    // *is* a canonical rendering — of the wrong record. Only the
    // checksum its manifest row pinned at write time can tell.
    let record = RunOutcome::capture(&suite.expand().unwrap()[0].scenario);
    let text = record.record().unwrap().render_pretty();
    // Flip the *second* digit: the first would risk a leading zero,
    // whose re-rendering is shorter (a NotCanonical catch, which is the
    // easy case — this test wants the hard one).
    let marker = "\"ticks\": ";
    let byte = text.find(marker).unwrap() + marker.len() + 1;
    assert!(text.as_bytes()[byte].is_ascii_digit());

    let store = temp_store("flip").with_faults(Arc::new(FaultInjector::new(FaultPlan {
        bit_flip: Some(BitFlip {
            write: 0,
            byte,
            mask: 0x01,
        }),
        ..FaultPlan::default()
    })));
    // The run itself succeeds — the corruption is silent.
    let done = run_suite_journaled(&suite, &store, &serial()).unwrap();
    assert!(done.run.all_ok());

    let report = fsck(&store, false).unwrap();
    let kinds: Vec<FsckIssueKind> = report.issues.iter().map(|i| i.kind).collect();
    assert_eq!(
        kinds,
        vec![FsckIssueKind::ChecksumMismatch],
        "{}",
        report.summary()
    );

    // Repair quarantines the flipped record; the next fsck downgrades the
    // issue to a missing record (the manifest row still names it) and
    // moves nothing further.
    let repaired = fsck(&store, true).unwrap();
    assert!(repaired.issues[0].quarantined);
    let again = fsck(&store, true).unwrap();
    let kinds: Vec<FsckIssueKind> = again.issues.iter().map(|i| i.kind).collect();
    assert_eq!(
        kinds,
        vec![FsckIssueKind::MissingRecord],
        "{}",
        again.summary()
    );

    // Resume re-runs the quarantined cell and restores the clean state.
    let done = run_suite_journaled(&suite, &store, &resume_serial()).unwrap();
    assert!(done.run.all_ok());
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn cell_panic_is_isolated_poisoned_and_not_a_false_positive() {
    let suite = sweep_suite();
    let store = temp_store("panic").with_faults(Arc::new(FaultInjector::new(FaultPlan {
        panic_cells: vec![2],
        ..FaultPlan::default()
    })));
    let done = run_suite_journaled(&suite, &store, &serial()).unwrap();

    // Exactly cell 2 poisoned, everything else complete and ok.
    assert!(!done.run.all_ok());
    assert_eq!(done.run.ok_count(), done.run.outcomes.len() - 1);
    let poisoned = &done.run.outcomes[2];
    assert_eq!(poisoned.status(), "poisoned");
    assert!(poisoned.summary().contains(CELL_PANIC_MARKER));
    let row = &done.manifest.cells[2];
    assert_eq!(row.status, "poisoned");
    assert!(!row.ok);
    assert!(row.checksum.is_none());

    // The journal records the poisoning; the store is *clean* — a
    // poisoned cell with no record is a legal terminal state, not
    // corruption.
    let state = apex_lab::read_journal(&store.journal_path(&suite.digest())).unwrap();
    assert_eq!(indices_of(&state, "poisoned"), vec![2]);
    assert_eq!(state.poisoned[&2].0, "poisoned");
    assert!(state.finished);
    let report = fsck(&store, false).unwrap();
    assert!(report.clean(), "{}", report.summary());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn transient_write_errors_are_absorbed_by_bounded_retry() {
    let suite = sweep_suite();
    let (reference, ref_root) = reference_map(&suite, "transient-ref");
    let store = temp_store("transient").with_faults(Arc::new(FaultInjector::new(FaultPlan {
        transient: vec![
            TransientFault { write: 0, fails: 2 },
            TransientFault { write: 3, fails: 3 },
        ],
        ..FaultPlan::default()
    })));
    let done = run_suite_journaled(&suite, &store, &serial()).unwrap();
    assert!(done.run.all_ok());
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(ref_root);
}

#[test]
fn fsck_has_zero_false_positives_on_the_committed_suites() {
    let store = temp_store("clean-committed");
    for name in ["smoke", "adversary"] {
        let suite = committed_suite(name);
        let done = run_suite_journaled(&suite, &store, &serial()).unwrap();
        assert!(done.run.all_ok(), "{name} must run clean");
    }
    let report = fsck(&store, false).unwrap();
    assert_eq!(report.suites, 2);
    assert!(report.clean(), "{}", report.summary());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn fsck_flags_orphans_stale_temps_and_journal_corruption_and_quarantines() {
    let suite = sweep_suite();
    let store = temp_store("fsck-classes");
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let dir = store.suite_dir(&suite.digest());
    // The manifest and every record, byte for byte: repair may move only
    // the planted debris below.
    let durable: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect();

    // Orphan: a perfectly healthy record the manifest does not name
    // (here: a record from a different suite, at its own address).
    let stray = Scenario::agreement(8, SourceSpec::Random(50), 1, 99);
    let record = RunOutcome::capture(&stray);
    let record = record.record().unwrap();
    std::fs::write(
        dir.join(format!("{}.json", record.digest())),
        record.render_pretty(),
    )
    .unwrap();
    // Stale temp: leftover of an interrupted atomic write.
    std::fs::write(dir.join("deadbeefdeadbeef.json.tmp"), b"partial").unwrap();
    // Journal corruption *before* the final line: impossible under the
    // append discipline, so fsck treats it as damage.
    let journal = store.journal_path(&suite.digest());
    let text = std::fs::read_to_string(&journal).unwrap();
    let broken = text.replacen("\"kind\":\"claimed\"", "\"kind\":\"cla", 1);
    assert_ne!(text, broken);
    std::fs::write(&journal, broken).unwrap();
    // The two retired per-run sidecars (`<stem>-stats.json`, for cache
    // tallies and engine timings) that stores written by older builds may
    // still hold: nothing writes or special-cases them any more, so they
    // are non-record `.json` debris like any other.
    let retired: Vec<String> = ["cache", "exec"]
        .iter()
        .map(|stem| format!("{stem}-stats.json"))
        .collect();
    std::fs::write(
        dir.join(&retired[0]),
        "{\"version\": {\"major\": 1, \"minor\": 0}, \"hits\": 3, \"misses\": 0, \"rejected\": 0}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join(&retired[1]),
        "{\"exec\": \"serial\", \"workers\": 1, \"ticks\": 10, \"elapsed_ms\": 1}\n",
    )
    .unwrap();

    let report = fsck(&store, true).unwrap();
    let mut kinds: Vec<FsckIssueKind> = report.issues.iter().map(|i| i.kind).collect();
    kinds.sort_by_key(|k| format!("{k}"));
    assert_eq!(
        kinds,
        vec![
            FsckIssueKind::JournalCorrupt,
            FsckIssueKind::Orphan,
            FsckIssueKind::StaleTemp,
            FsckIssueKind::TornOrTruncated,
            FsckIssueKind::TornOrTruncated,
        ],
        "{}",
        report.summary()
    );
    assert!(report.issues.iter().all(|i| i.quarantined));
    for sidecar in &retired {
        assert!(!dir.join(sidecar).exists(), "{sidecar} left in place");
        assert!(store
            .quarantine_root()
            .join(suite.digest())
            .join(sidecar)
            .exists());
    }
    for (path, bytes) in &durable {
        assert_eq!(&std::fs::read(path).unwrap(), bytes, "{}", path.display());
    }

    // Quarantine preserved the orphan's exact bytes.
    let qdir = store.quarantine_root().join(suite.digest());
    let preserved =
        std::fs::read_to_string(qdir.join(format!("{}.json", record.digest()))).unwrap();
    assert_eq!(preserved, record.render_pretty());

    // Repair is idempotent: a second pass finds nothing left to move —
    // the journal, the orphan, and the temp file are all in quarantine,
    // and the manifest-plus-records that remain are healthy.
    let again = fsck(&store, true).unwrap();
    assert!(again.clean(), "{}", again.summary());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn gc_keeps_recent_suites_never_touches_quarantine_or_inflight() {
    let store = temp_store("gc");
    // Three finished suites; their journals carry finish seqs 1, 2, 3 in
    // run order — no sleeps, no mtime dependence.
    let mut digests = Vec::new();
    for seed in [21, 22, 23] {
        let mut suite = Suite::new(format!("gc-{seed}"));
        suite
            .cells
            .push(Scenario::agreement(8, SourceSpec::Random(50), 1, seed));
        run_suite_journaled(&suite, &store, &serial()).unwrap();
        digests.push(suite.digest());
    }
    // Adversarial mtimes: rewrite the *oldest-seq* suite's manifest with
    // identical bytes, making it the mtime-newest file. A ranking by
    // manifest mtime would now keep digests[0]; the journal-seq ranking
    // this test pins must keep digests[2] regardless.
    let oldest_manifest = store.manifest_path(&digests[0]);
    let bytes = std::fs::read(&oldest_manifest).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    std::fs::write(&oldest_manifest, bytes).unwrap();
    // One in-flight suite: journal, no manifest.
    let mut inflight = Suite::new("gc-inflight");
    inflight
        .cells
        .push(Scenario::agreement(8, SourceSpec::Random(50), 1, 77));
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(2),
            ..FaultPlan::default()
        })));
    run_suite_journaled(&inflight, &faulty, &serial()).unwrap_err();
    // And a quarantine directory with evidence in it.
    let qfile = store.quarantine_root().join(&digests[0]).join("x.json");
    std::fs::create_dir_all(qfile.parent().unwrap()).unwrap();
    std::fs::write(&qfile, "evidence").unwrap();

    // Dry run: decides, touches nothing.
    let dry = gc(&store, 1, true).unwrap();
    assert!(dry.dry_run);
    assert_eq!(dry.deleted.len(), 2);
    assert!(store.suite_dir(&digests[0]).exists());
    assert!(dry.summary().contains("would delete"));

    // Real pass: the newest finished suite and the in-flight one stay,
    // the two older finished suites go, quarantine is untouched.
    let report = gc(&store, 1, false).unwrap();
    let mut expect_deleted = vec![digests[0].clone(), digests[1].clone()];
    expect_deleted.sort();
    assert_eq!(report.deleted, expect_deleted);
    assert!(store.suite_dir(&digests[2]).exists());
    assert!(store.suite_dir(&inflight.digest()).exists());
    assert!(qfile.exists());
    assert!(!store.suite_dir(&digests[0]).exists());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn gc_tie_breaks_equal_finish_seqs_by_digest() {
    let store = temp_store("gc-tie");
    let mut digests = Vec::new();
    for seed in [31, 32] {
        let mut suite = Suite::new(format!("gc-tie-{seed}"));
        suite
            .cells
            .push(Scenario::agreement(8, SourceSpec::Random(50), 1, seed));
        run_suite_journaled(&suite, &store, &serial()).unwrap();
        digests.push(suite.digest());
    }
    // Strip the `seq` field from both journals (the pre-seq legacy form,
    // which parses as seq 0) so the two suites rank equal and only the
    // digest tie-break decides: ascending, so the smaller digest is kept.
    for d in &digests {
        let path = store.journal_path(d);
        let text = std::fs::read_to_string(&path).unwrap();
        let stripped: String = text
            .lines()
            .map(|l| match l.find(",\"seq\":") {
                Some(i) => format!("{}}}\n", &l[..i]),
                None => format!("{l}\n"),
            })
            .collect();
        assert_ne!(stripped, text, "expected a seq field to strip");
        std::fs::write(&path, stripped).unwrap();
    }
    digests.sort();
    let report = gc(&store, 1, false).unwrap();
    assert_eq!(report.deleted, vec![digests[1].clone()]);
    assert!(store.suite_dir(&digests[0]).exists());
    assert!(!store.suite_dir(&digests[1]).exists());
    let _ = std::fs::remove_dir_all(store.root());
}

/// Derive a [`FaultPlan`] from one seed — the proptest's search space.
/// Kills, panics, and transients compose; torn writes and bit flips have
/// dedicated deterministic tests above (their healing paths differ).
fn plan_from_seed(seed: u64, cells: usize) -> FaultPlan {
    let appends = (2 * cells + 2) as u64;
    FaultPlan {
        kill_after_journal: (seed & 1 != 0).then_some((seed >> 1) % appends),
        panic_cells: if seed & 2 != 0 {
            vec![((seed >> 8) as usize) % cells]
        } else {
            Vec::new()
        },
        transient: if seed & 4 != 0 {
            vec![TransientFault {
                write: (seed >> 16) % (cells as u64),
                fails: ((seed >> 24) % 3) as u32,
            }]
        } else {
            Vec::new()
        },
        ..FaultPlan::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Plans round-trip byte-identically through their JSON form.
    #[test]
    fn fault_plans_round_trip(seed in any::<u64>()) {
        let plan = plan_from_seed(seed, 10);
        let text = plan.to_json().render_pretty();
        let back = FaultPlan::parse(&text).unwrap();
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.to_json().render_pretty(), text);
    }

    /// For any seeded kill/panic/transient plan over the committed
    /// adversary suite: the faulted run either completes or dies with
    /// the injected kill, and resuming under the same non-fatal faults
    /// converges to the byte-identical store a never-killed run with
    /// those faults produces.
    #[test]
    fn seeded_fault_plans_converge_after_resume(seed in any::<u64>()) {
        let suite = committed_suite("adversary");
        let cells = suite.expand().unwrap().len();
        let plan = plan_from_seed(seed, cells);

        // Reference: the same plan minus the kill, uninterrupted.
        let survivor = FaultPlan { kill_after_journal: None, transient: Vec::new(), ..plan.clone() };
        let ref_store = temp_store(&format!("prop-ref-{seed:016x}"));
        let ref_faults = ref_store.clone().with_faults(Arc::new(FaultInjector::new(survivor.clone())));
        run_suite_journaled(&suite, &ref_faults, &serial()).unwrap();
        let reference = file_map(&ref_store.suite_dir(&suite.digest()));

        let store = temp_store(&format!("prop-{seed:016x}"));
        let faulty = store.clone().with_faults(Arc::new(FaultInjector::new(plan.clone())));
        match run_suite_journaled(&suite, &faulty, &serial()) {
            Ok(_) => prop_assert!(plan.kill_after_journal.is_none(), "survived a planned kill"),
            Err(e) => {
                prop_assert!(is_kill(&e), "{e}");
                let resumed = store.clone().with_faults(Arc::new(FaultInjector::new(survivor)));
                run_suite_journaled(&suite, &resumed, &resume_serial()).unwrap();
            }
        }
        prop_assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
        prop_assert!(fsck(&store, false).unwrap().clean());

        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(ref_store.root());
    }
}

/// The serial journal line sequence over the committed adversary suite
/// is pinned: any change to the journal format, the append protocol, or
/// suite expansion order shows up as a diff against
/// `tests/golden/canonical-journal.jsonl`.
#[test]
fn golden_journal_is_pinned() {
    let suite = committed_suite("adversary");
    let store = temp_store("golden-journal");
    let done = run_suite_journaled(&suite, &store, &serial()).unwrap();
    assert!(done.run.all_ok());
    let actual = std::fs::read_to_string(store.journal_path(&suite.digest())).unwrap();
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/canonical-journal.jsonl");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    assert_eq!(
        actual, golden,
        "serial journal diverged from the pinned golden file \
         (regenerate tests/golden/canonical-journal.jsonl if the change is intentional)"
    );
    let _ = std::fs::remove_dir_all(store.root());
}
