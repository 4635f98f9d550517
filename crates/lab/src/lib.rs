//! # apex-lab — scenario suites, the lab results store, drift detection
//!
//! The rest of the workspace makes every run a declarative, serializable
//! [`Scenario`](apex_scenario::Scenario); this crate makes whole
//! *experiments* first-class and their *results* durable:
//!
//! * [`Suite`] — a versioned JSON document naming a list and/or grid of
//!   scenarios (axes over schemes, sizes, adversaries, engine batches and
//!   seed ranges), expanded deterministically into content-digested
//!   [`Cell`]s;
//! * [`runner`] — the workspace's one thread fan-out
//!   ([`runner::fan_out`], [`runner::run_trials`],
//!   [`runner::resolve_threads`]), the one drain loop of the journal
//!   protocol on top of it ([`runner::drain`]), and [`run_suite`] /
//!   [`run_suite_journaled`], producing one
//!   [`ReportRecord`](apex_scenario::ReportRecord) per cell;
//! * [`LabStore`] — a filesystem-backed, content-addressed results store
//!   (`.apex/lab/<suite-digest>/<cell-digest>.json` plus a deterministic
//!   manifest — no timestamps, no database, diffable by hand), written
//!   through one [`Disk`]: the filesystem or a
//!   [`FaultInjector`] running a [`FaultPlan`]. One rule per stored
//!   document decides which bytes are trusted ([`verify_record`],
//!   [`verify_manifest`]), for the cache and [`fsck()`] alike, and one
//!   classifier decides what a file name in a suite directory is
//!   ([`SuiteFile`]);
//! * [`check_against_store`] / [`compare_stores`] — drift detection
//!   through one suite comparator: the pipeline is deterministic end to
//!   end, so *any* byte difference in a record or a manifest on
//!   re-execution is a real regression (reported per cell with the JSON
//!   paths that moved).
//!
//! The farm (`apex-farm`) adds no store rule and no loop of its own: it
//! runs cells through the runner's drain loop under its own claim
//! policy, reads its journal with a [`JournalReader`] (whose replayed
//! [`JournalState`] names each cell's owner and poisoned outcome),
//! sweeps temps by [`SuiteFile`], tallies and
//! finishes a suite through [`CellTally`] and [`Committer::finish`],
//! and reports the bytes its [`Committer`] found disagreeing as drift's
//! [`Divergence`].
//!
//! Results are bytes; speed is telemetry. A journaled run reports its
//! throughput ([`JournaledRun::ticks_per_sec`], and `time.elapsed_ms` in
//! `metrics.json` under profiling) but writes no benchmark artifact:
//! wall-clock benchmarking, with repeats and spread, is the `perfbench`
//! package's, and the run's deterministic counts are pinned by
//! `tests/golden/counts-*.json`.
//!
//! The `apex` binary (`crates/cli`) fronts all of it:
//! `apex suite run|expand`, `apex drift`, `apex run`, `apex synth …`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disk;
pub mod drift;
pub mod fault;
pub mod fsck;
pub mod gc;
pub mod journal;
pub mod runner;
pub mod store;
pub mod suite;

pub use disk::Disk;
pub use drift::{
    check_against_store, check_cells_against_store, compare_stores, diff_detail, json_diff,
    Divergence, DriftKind, DriftReport,
};
pub use fault::{
    is_kill, BitFlip, FaultInjector, FaultPlan, TornWrite, TransientFault, CELL_PANIC_MARKER,
    KILL_MARKER,
};
pub use fsck::{fsck, FsckIssue, FsckIssueKind, FsckReport};
pub use gc::{gc, GcReport};
pub use journal::{
    finish_seq, next_finish_seq, read_journal, Journal, JournalEntry, JournalReader, JournalState,
    LeaseLine, JOURNAL_FILE, JOURNAL_FORMAT_MAJOR,
};
pub use runner::{
    assemble_run, claim_entry, read_verified, run_cells, run_suite, run_suite_journaled,
    scan_cache, terminal_entry, CachedCell, CellTally, CommitBatch, Committer, JournalOpts,
    JournaledRun, OutputMismatch, SuiteRun,
};
pub use store::{
    merge_metrics, verify_manifest, verify_record, CacheLookup, LabStore, Manifest, ManifestCell,
    StoreFault, SuiteFile, DEFAULT_STORE_ROOT, MAX_WRITE_ATTEMPTS, QUARANTINE_DIR, TELEMETRY_FILES,
};
pub use suite::{
    Cell, Grid, OutputExpectation, SeedRange, Suite, TooManyCells, MAX_SUITE_CELLS,
    SUITE_FORMAT_MAJOR, SUITE_FORMAT_MINOR,
};

/// 16-hex-digit content digest (FNV-1a via
/// [`apex_scenario::fnv1a64`]) — the store's address format.
pub fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", apex_scenario::fnv1a64(bytes))
}

/// [`digest_hex`] of `doc`'s compact rendering, or of its pretty one
/// when `pretty`, hashed as its serializer writes it (see
/// [`apex_sim::json`]): neither the bytes nor a tree are built.
pub(crate) fn rendered_digest_hex(doc: &impl apex_sim::WriteJson, pretty: bool) -> String {
    let mut h = apex_sim::Fnv1a::new();
    if pretty {
        doc.render_pretty_to(&mut h);
    } else {
        doc.render_to(&mut h);
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_scenario::{ProgramSource, Scenario, SourceSpec};
    use apex_scheme::SchemeKind;
    use apex_sim::ScheduleKind;

    fn small_suite() -> Suite {
        let mut suite = Suite::new("lab-unit");
        suite
            .cells
            .push(Scenario::agreement(8, SourceSpec::Random(50), 1, 11));
        let mut grid = Grid::new(Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("coin-sum", 8, vec![16]),
            1,
        ));
        grid.schedules = vec![
            ScheduleKind::Uniform.into(),
            ScheduleKind::Bursty { mean_burst: 4 }.into(),
        ];
        grid.seeds = Some(SeedRange { start: 1, count: 2 });
        suite.grids.push(grid);
        suite
    }

    fn temp_store(tag: &str) -> LabStore {
        let dir = std::env::temp_dir().join(format!("apex-lab-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        LabStore::new(dir)
    }

    /// Run `suite` into `store` through the journaled runner.
    fn store_run(suite: &Suite, store: &LabStore) -> JournaledRun {
        run_suite_journaled(suite, store, &JournalOpts::default()).unwrap()
    }

    #[test]
    fn run_store_drift_round_trip_and_mutation_detection() {
        let suite = small_suite();
        let store = temp_store("roundtrip");

        // Run and store.
        let JournaledRun { run, manifest, .. } = store_run(&suite, &store);
        assert_eq!(run.outcomes.len(), 5);
        assert_eq!(run.records().count(), 5);
        assert_eq!(manifest.cells.len(), 5);
        assert!(manifest.cells.iter().all(|c| c.status == "complete"));
        assert!(manifest.cells.iter().all(|c| c.checksum.is_some()));

        // A fresh check is clean.
        let report = check_against_store(&suite, &store).unwrap();
        assert!(report.clean(), "{}", report.summary());

        // Re-writing the same run is byte-idempotent.
        let digest = suite.digest();
        let first = store.record_path(&digest, &manifest.cells[0].digest);
        let before = std::fs::read(&first).unwrap();
        store_run(&suite, &store);
        assert_eq!(before, std::fs::read(&first).unwrap());

        // Mutating one record is flagged with a field-level detail.
        let victim = store.record_path(&digest, &manifest.cells[1].digest);
        let tampered =
            std::fs::read_to_string(&victim)
                .unwrap()
                .replacen("\"ticks\": ", "\"ticks\": 1", 1);
        std::fs::write(&victim, tampered).unwrap();
        let report = check_against_store(&suite, &store).unwrap();
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].kind, DriftKind::RecordDiffers);
        assert!(
            report.divergences[0].detail.contains("ticks"),
            "{}",
            report.summary()
        );

        // A present-but-unparseable record is "differs", not "missing".
        store_run(&suite, &store);
        std::fs::write(
            store.record_path(&digest, &manifest.cells[1].digest),
            "not json at all",
        )
        .unwrap();
        let report = check_against_store(&suite, &store).unwrap();
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].kind, DriftKind::RecordDiffers);

        // Deleting a record is flagged as missing.
        store_run(&suite, &store);
        std::fs::remove_file(store.record_path(&digest, &manifest.cells[2].digest)).unwrap();
        let report = check_against_store(&suite, &store).unwrap();
        assert!(report
            .divergences
            .iter()
            .any(|d| d.kind == DriftKind::MissingRecord));

        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn output_assertions_gate_the_run() {
        use apex_pram::library::gen_values;
        // tree-reduce-max writes max(gen_values(8, 3)) into its output.
        let cell = Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("tree-reduce-max", 8, vec![3]),
            1,
        );
        let digest = cell.digest();
        let truth = gen_values(8, 3).iter().copied().fold(0, u64::max);

        let mut suite = Suite::new("pinned");
        suite.cells.push(cell);
        suite.expect.push(OutputExpectation {
            cell: digest.clone(),
            outputs: vec![truth],
        });
        let run = run_suite(&suite).unwrap();
        assert!(run.all_ok(), "{:?}", run.output_mismatches);

        // The same suite pinning the wrong value fails the run even
        // though the verifier is clean on every cell.
        suite.expect[0].outputs = vec![truth + 1];
        let run = run_suite(&suite).unwrap();
        assert_eq!(run.ok_count(), run.outcomes.len(), "verifier stays clean");
        assert!(!run.all_ok());
        assert_eq!(run.output_mismatches.len(), 1);
        let m = &run.output_mismatches[0];
        assert_eq!(m.digest, digest);
        assert_eq!(m.expected, vec![truth + 1]);
        assert_eq!(m.actual, Some(vec![truth]));
        assert!(m.to_string().contains("expected outputs"));
    }

    #[test]
    fn changed_scenario_shows_up_as_missing_plus_extra() {
        let mut suite = small_suite();
        let store = temp_store("changed");
        store_run(&suite, &store);

        // Changing a cell moves its content address; checking the *edited*
        // suite against the old store is a different suite digest, so pin
        // the store by keeping the suite digest fixed: mutate a stored
        // record's *name* instead (same effect as a scenario edit).
        let manifest = store.read_manifest(&suite.digest()).unwrap();
        let old = store.record_path(&suite.digest(), &manifest.cells[0].digest);
        let renamed = store
            .suite_dir(&suite.digest())
            .join("feedfacefeedface.json");
        std::fs::rename(&old, &renamed).unwrap();
        let report = check_against_store(&suite, &store).unwrap();
        assert!(report
            .divergences
            .iter()
            .any(|d| d.kind == DriftKind::MissingRecord));
        assert!(report
            .divergences
            .iter()
            .any(|d| d.kind == DriftKind::ExtraRecord));

        // And an edited suite simply has no stored run yet.
        suite.cells[0].seed += 1;
        assert!(check_against_store(&suite, &store).is_err());

        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn store_comparison_flags_byte_differences() {
        let suite = small_suite();
        let a = temp_store("cmp-a");
        let b = temp_store("cmp-b");
        store_run(&suite, &a);
        store_run(&suite, &b);
        let report = compare_stores(&a, &b).unwrap();
        assert!(report.clean(), "{}", report.summary());

        let manifest = a.read_manifest(&suite.digest()).unwrap();
        std::fs::remove_file(b.record_path(&suite.digest(), &manifest.cells[0].digest)).unwrap();
        let report = compare_stores(&a, &b).unwrap();
        assert!(!report.clean());

        let _ = std::fs::remove_dir_all(a.root());
        let _ = std::fs::remove_dir_all(b.root());
    }

    #[test]
    fn json_diff_names_moved_paths() {
        use apex_sim::Json;
        let a = Json::parse(r#"{"x": 1, "y": [1, 2], "z": {"w": true}}"#).unwrap();
        let b = Json::parse(r#"{"x": 2, "y": [1, 3], "z": {"w": true}}"#).unwrap();
        let diffs = json_diff(&a, &b, 4);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].contains(".x"));
        assert!(diffs[1].contains(".y[1]"));
        assert!(json_diff(&a, &a, 4).is_empty());
    }
}
