//! # apex-scenario — one declarative entry point for every run
//!
//! The paper's claim is parameterized over a whole space: program ×
//! execution scheme × oblivious adversary × protocol constants × seed.
//! This crate names one point of that space as a single serializable
//! value, the [`Scenario`] — the way verification tooling for
//! asynchronous programs treats the program-plus-schedule pair as one
//! first-class analyzable object.
//!
//! * [`Scenario`] — the description: a [`Mode`] (PRAM program through a
//!   [`SchemeKind`](apex_scheme::SchemeKind), or the raw agreement
//!   protocol), a [`ScheduleKind`](apex_sim::ScheduleKind), the master
//!   seed, optional [`AgreementConfig`](apex_core::AgreementConfig)
//!   override, and [`EngineKnobs`];
//! * [`Scenario::validate`] — rejects ill-formed points before any
//!   machine is assembled;
//! * [`Scenario::run`] — validate, assemble, execute, and report
//!   ([`ScenarioReport`]); [`Scenario::run_opts`] does the same under
//!   runtime [`RunOpts`] (interpreter override, trace sink) that change
//!   no report byte;
//! * [`Scenario::to_json`] / [`Scenario::from_json`] — a versioned,
//!   exact round-trip through the workspace's dependency-free codec
//!   ([`apex_sim::json`]), so every run anyone constructs — fuzzer
//!   finding, benchmark cell, or hand-written experiment — is a
//!   shareable JSON file that reproduces bit-for-bit
//!   (`apex run scenario.json`).
//!
//! The experiment targets and the lab's suite cells build this type
//! directly; the fuzzer's reproducers and the examples wrap it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod outcome;
mod program;
mod record;
mod report;
mod scenario;

/// 64-bit FNV-1a over `bytes` — the workspace's content-address hash
/// (the same construction names fuzz-corpus artifacts).
pub use apex_sim::fnv1a64;
pub use cache::CacheStats;
pub use outcome::{catch_panic, RunOutcome, OUTCOME_FORMAT_MAJOR, OUTCOME_FORMAT_MINOR};
pub use program::{
    op_from_name, op_name, program_from_json, program_to_json, scheme_from_label, ProgramMemo,
    ProgramSource,
};
pub use record::{
    atomic_write, atomic_write_bytes, temp_path, ReportRecord, StoredRecordError,
    RECORD_FORMAT_MAJOR, RECORD_FORMAT_MINOR,
};
pub use report::{
    scheme_report_from_json, scheme_report_to_json, verify_report_from_json, verify_report_to_json,
    AgreementRunReport, ScenarioReport,
};
pub use scenario::{
    agreement_config_from_json, agreement_config_to_json, EngineKnobs, Mode, ProgramEngine,
    RunOpts, Scenario, ScenarioError, SourceSpec, FORMAT_MAJOR, FORMAT_MINOR, MAX_BATCH, MAX_N,
    MAX_PHASES, MAX_REPLICAS,
};

/// A value of another crate (`apex-pram`, `apex-scheme`, `apex-core`)
/// as this crate's documents embed it: its one serializer lives here.
pub(crate) struct Doc<'a, T>(pub(crate) &'a T);

#[cfg(test)]
mod tests {
    use super::*;
    use apex_core::{AgreementConfig, InstrumentOpts};
    use apex_pram::library::coin_sum;
    use apex_pram::Op;
    use apex_scheme::SchemeKind;
    use apex_sim::{Json, ScheduleKind, ScriptSegment, ScriptSpec};

    fn gallery_scenarios() -> Vec<Scenario> {
        let scripted = ScheduleKind::Scripted(
            ScriptSpec::new(
                8,
                vec![
                    ScriptSegment::Run { proc: 1, ticks: 64 },
                    ScriptSegment::AllExcept {
                        excluded: vec![0],
                        rounds: 3,
                    },
                ],
            )
            .fallback(ScheduleKind::Bursty { mean_burst: 16 }),
        );
        vec![
            Scenario::scheme(
                SchemeKind::Nondet,
                ProgramSource::library("coin-sum", 8, vec![32]),
                1,
            ),
            Scenario::scheme(
                SchemeKind::DetBaseline,
                ProgramSource::Explicit(coin_sum(4, 8).program),
                2,
            )
            .schedule(ScheduleKind::Sleepy {
                sleepy_frac: 0.25,
                awake: 100,
                asleep: 900,
            })
            .replicas(3)
            .batch(64),
            Scenario::scheme(
                SchemeKind::IdealCas,
                ProgramSource::library("random-walks", 8, vec![1000, 4]),
                3,
            )
            .schedule(scripted)
            .tick_budget(50_000_000),
            Scenario::agreement(16, SourceSpec::Random(100), 2, 4)
                .schedule(ScheduleKind::Zipf { s: 1.5 })
                .instrument(InstrumentOpts::full()),
            Scenario::agreement(8, SourceSpec::Coin(1, 4), 1, 5)
                .agreement_config(AgreementConfig::for_n(8, 1)),
            Scenario::agreement(8, SourceSpec::Keyed, 1, 6).schedule(ScheduleKind::TwoClass {
                slow_frac: 0.25,
                ratio: 8.0,
            }),
        ]
    }

    #[test]
    fn gallery_validates_and_round_trips_exactly() {
        for s in gallery_scenarios() {
            s.validate().unwrap_or_else(|e| panic!("{s:?}: {e}"));
            let compact = Scenario::parse(&s.to_json().render()).unwrap();
            let pretty = Scenario::parse(&s.render_pretty()).unwrap();
            assert_eq!(compact, s);
            assert_eq!(pretty, s);
        }
    }

    #[test]
    fn unknown_major_version_is_rejected_and_minor_is_tolerated() {
        let s = gallery_scenarios().remove(0);
        let mut json = s.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::Obj(vec![
                ("major".into(), Json::UInt(FORMAT_MAJOR + 1)),
                ("minor".into(), Json::UInt(0)),
            ]);
        }
        let err = Scenario::from_json(&json).unwrap_err();
        assert!(err.msg.contains("major version"), "{err}");

        let mut json = s.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::Obj(vec![
                ("major".into(), Json::UInt(FORMAT_MAJOR)),
                ("minor".into(), Json::UInt(FORMAT_MINOR + 7)),
            ]);
        }
        assert_eq!(Scenario::from_json(&json).unwrap(), s);
    }

    #[test]
    fn missing_version_is_rejected() {
        let e = Scenario::parse("{\"seed\": 1}").unwrap_err();
        assert!(e.msg.contains("version"), "{e}");
    }

    #[test]
    fn validate_rejects_ill_formed_points() {
        let bad_library = Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("no-such-program", 8, vec![]),
            1,
        );
        assert!(bad_library.validate().is_err());

        let bad_n = Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("coin-sum", 6, vec![32]),
            1,
        );
        assert!(bad_n.validate().is_err());

        let bad_params = Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("coin-sum", 8, vec![]),
            1,
        );
        assert!(bad_params.validate().is_err());

        let mismatched_script = Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("coin-sum", 8, vec![32]),
            1,
        )
        .schedule(ScheduleKind::Scripted(ScriptSpec::new(4, vec![])));
        assert!(mismatched_script.validate().is_err());

        let mismatched_cfg = Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("coin-sum", 8, vec![32]),
            1,
        )
        .agreement_config(AgreementConfig::for_n(16, 4));
        assert!(mismatched_cfg.validate().is_err());

        let zero_batch = Scenario::agreement(8, SourceSpec::Random(10), 1, 1).batch(0);
        assert!(zero_batch.validate().is_err());

        // Source parameters the sources themselves would assert on must be
        // caught by validate(), with or without a constants override.
        let zero_bound = Scenario::agreement(8, SourceSpec::Random(0), 1, 1);
        assert!(zero_bound.validate().is_err());
        let top_heavy_coin = Scenario::agreement(8, SourceSpec::Coin(5, 2), 1, 1);
        assert!(top_heavy_coin.validate().is_err());
        let top_heavy_with_cfg = Scenario::agreement(8, SourceSpec::Coin(5, 2), 1, 1)
            .agreement_config(AgreementConfig::for_n(8, 1));
        assert!(top_heavy_with_cfg.validate().is_err());

        let degenerate = Scenario::agreement(1, SourceSpec::Random(10), 1, 1);
        assert!(degenerate.validate().is_err());

        let bad_zipf = Scenario::agreement(8, SourceSpec::Random(10), 1, 1)
            .schedule(ScheduleKind::Zipf { s: -1.0 });
        assert!(bad_zipf.validate().is_err());
    }

    #[test]
    fn scheme_scenario_matches_direct_harness_run() {
        use apex_scheme::{SchemeRun, SchemeRunConfig};
        let scenario = Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::Explicit(coin_sum(8, 16).program),
            9,
        )
        .schedule(ScheduleKind::Bursty { mean_burst: 16 });
        let via_scenario = scenario.run();
        let direct = SchemeRun::new(
            coin_sum(8, 16).program,
            SchemeRunConfig::new(SchemeKind::Nondet, 9)
                .schedule(ScheduleKind::Bursty { mean_burst: 16 }),
        )
        .run();
        let r = via_scenario.scheme();
        assert_eq!(r.total_work, direct.total_work);
        assert_eq!(r.final_memory, direct.final_memory);
        assert!(via_scenario.ok());
        assert!(via_scenario.summary().contains("nondet-scheme"));
    }

    #[test]
    fn bytecode_engine_is_digest_preserving_and_report_identical() {
        let base = Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("coin-sum", 8, vec![32]),
            1,
        );
        let bc = base.clone().program_engine(ProgramEngine::Bytecode);
        let tree = base.clone().program_engine(ProgramEngine::Tree);
        // An unset knob is omitted from the document, so every
        // pre-existing scenario digest is byte-for-byte unchanged …
        assert_eq!(base.engine.program_engine, None);
        assert!(!base.to_json().render().contains("program_engine"));
        // … while either explicit knob round-trips exactly, as its own
        // document.
        for knobbed in [&bc, &tree] {
            assert_ne!(base.digest(), knobbed.digest());
            assert_eq!(
                Scenario::parse(&knobbed.to_json().render()).unwrap(),
                *knobbed
            );
        }
        assert_ne!(bc.digest(), tree.digest());
        assert!(tree
            .to_json()
            .render()
            .contains(r#""program_engine":"tree""#));
        // Reports are engine-independent down to the rendered bytes, via
        // the default, the document knobs, and the runtime override.
        let default = base.run();
        let via_override = base.run_opts(&RunOpts {
            engine: Some(ProgramEngine::Tree),
            ..RunOpts::default()
        });
        for other in [bc.run(), tree.run(), via_override] {
            assert_eq!(default.to_json().render(), other.to_json().render());
        }
    }

    #[test]
    fn engine_resolves_override_then_knob_then_bytecode() {
        use ProgramEngine::{Bytecode, Tree};
        // Nothing named anywhere: the bytecode VM.
        assert_eq!(ProgramEngine::resolve(None, None), Bytecode);
        for knob in [Tree, Bytecode] {
            // The knob beats the default …
            assert_eq!(ProgramEngine::resolve(None, Some(knob)), knob);
            for wanted in [Tree, Bytecode] {
                // … and the override beats the knob.
                assert_eq!(ProgramEngine::resolve(Some(wanted), Some(knob)), wanted);
                assert_eq!(ProgramEngine::resolve(Some(wanted), None), wanted);
            }
        }
    }

    #[test]
    fn agreement_scenario_runs_and_batching_is_transparent() {
        let base = Scenario::agreement(8, SourceSpec::Random(100), 1, 42);
        let a = base.clone().run();
        let b = base.batch(1).run();
        let (a, b) = (a.agreement(), b.agreement());
        assert!(!a.outcomes.is_empty());
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.outcomes[0].advance_work, b.outcomes[0].advance_work);
        assert_eq!(a.outcomes[0].agreed, b.outcomes[0].agreed);
    }

    #[test]
    fn library_sources_resolve_across_the_catalog() {
        for (name, params) in ProgramSource::library_names() {
            let params: Vec<u64> = (0..params.len() as u64).map(|i| i + 2).collect();
            let source = ProgramSource::library(name, 8, params);
            let p = source.resolve().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(p.validate().is_ok(), "{name}");
            assert_eq!(p.n_threads, 8, "{name}");
        }
    }

    #[test]
    fn tree_reduce_library_source_computes_the_reduction() {
        use apex_pram::library::gen_values;
        use apex_pram::refexec::{execute, Choices};
        let p = ProgramSource::library("tree-reduce-max", 8, vec![3])
            .resolve()
            .unwrap();
        let expect = gen_values(8, 3).iter().copied().fold(0, u64::max);
        let out = execute(&p, &Choices::Seeded(0));
        assert!(out.memory.contains(&expect));
        let _ = Op::Max; // op table is part of this crate's public surface
    }
}
