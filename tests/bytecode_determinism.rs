//! Differential suite for the bytecode engine (`apex-bc`).
//!
//! The bytecode VM's contract is *byte-identity*: for any scheme-mode
//! scenario, the default bytecode engine must produce the exact
//! [`ReportRecord`](apex::scenario::ReportRecord) bytes of the
//! tree-walking interpreter (`--engine tree`) — same work, same final
//! memory, same event counters, same verifier verdict, same digests. The
//! tree walker is the oracle; the VM is only ever a faster spelling of
//! the same op sequence.
//!
//! Three layers pin the contract:
//! * a proptest sweep over synthesized nondeterministic programs paired
//!   with synthesized adversary schedules (the fuzz generator's full
//!   space, not just the library workloads),
//! * a deterministic sweep of every scheme kind × adversary family over
//!   library programs,
//! * a replay of the committed fuzz corpus on the bytecode engine — every
//!   pinned divergence (and cleanliness) finding must reproduce
//!   identically on both interpreters.

use apex::scenario::{ProgramEngine, RunOpts, RunOutcome, Scenario};
use apex::scheme::SchemeKind;
use apex_synth::gen::{generate_nondet_program, GenConfig};
use apex_synth::repro::Reproducer;
use apex_synth::sched_gen::{generate_adversary, SchedGenConfig};
use apex_synth::Triple;
use proptest::prelude::*;

/// Run options that override the interpreter.
fn on(engine: ProgramEngine) -> RunOpts {
    RunOpts {
        engine: Some(engine),
        ..RunOpts::default()
    }
}

/// Render the full report record under `engine`; this is what the lab
/// store writes, so equality here is store-level byte-identity.
fn record_bytes(scenario: &Scenario, engine: ProgramEngine) -> String {
    let outcome = RunOutcome::capture_opts(scenario, &on(engine));
    assert!(
        outcome.record().is_some(),
        "scenario must execute: {}",
        outcome.summary()
    );
    outcome.to_json().render_pretty()
}

fn assert_engines_agree(scenario: &Scenario, what: &str) {
    let tree = record_bytes(scenario, ProgramEngine::Tree);
    let bytecode = record_bytes(scenario, ProgramEngine::Bytecode);
    assert_eq!(tree, bytecode, "{what}: engine records diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Synthesized nondeterministic program × synthesized adversary tree:
    /// the two interpreters render byte-identical report records.
    #[test]
    fn synthesized_triples_render_identically(seed in any::<u64>()) {
        let program = generate_nondet_program(&GenConfig::default().nondet_only(), seed);
        let schedule = generate_adversary(&SchedGenConfig::default(), program.n_threads, seed);
        let triple = Triple { program, schedule, seed };
        assert_engines_agree(&triple.scenario(SchemeKind::Nondet), &format!("seed {seed}"));
    }
}

/// Every scheme kind × adversary family agrees on a library workload
/// (the proptest above covers only the nondet scheme, whose cycle path
/// is the deepest; this sweep pins the other three interpreters' paths).
#[test]
fn all_scheme_kinds_render_identically_under_adversaries() {
    use apex::sim::ScheduleKind;
    for kind in [
        SchemeKind::Nondet,
        SchemeKind::DetBaseline,
        SchemeKind::ScanConsensus,
        SchemeKind::IdealCas,
    ] {
        for sched in [
            ScheduleKind::Uniform,
            ScheduleKind::Bursty { mean_burst: 9 },
            ScheduleKind::Zipf { s: 1.5 },
        ] {
            let scenario = Scenario::scheme(
                kind,
                apex::scenario::ProgramSource::library("coin-sum", 8, vec![32]),
                23,
            )
            .schedule(sched.clone());
            assert_engines_agree(&scenario, &format!("{kind:?} under {sched:?}"));
        }
    }
}

/// The scenario knob (not just the runtime override) selects the engine,
/// and the digest moves with it: an explicit `bytecode` or `tree` knob is
/// a different document than an unset one, while the unset knob keeps
/// the digest every pre-engine store recorded.
#[test]
fn engine_knob_round_trips_and_default_digest_is_stable() {
    let base = Scenario::scheme(
        SchemeKind::Nondet,
        apex::scenario::ProgramSource::library("coin-sum", 8, vec![32]),
        23,
    );
    for engine in [ProgramEngine::Tree, ProgramEngine::Bytecode] {
        let knobbed = base.clone().program_engine(engine);
        assert_ne!(base.digest(), knobbed.digest());
        let rt = Scenario::from_json(&knobbed.to_json()).unwrap();
        assert_eq!(rt.digest(), knobbed.digest());
        assert_eq!(rt.engine.program_engine, Some(engine));
        // And the knob, which the run resolves to with no override,
        // renders the record the other engine renders.
        let other = match engine {
            ProgramEngine::Tree => ProgramEngine::Bytecode,
            ProgramEngine::Bytecode => ProgramEngine::Tree,
        };
        let via_knob = RunOutcome::capture(&knobbed).to_json().render_pretty();
        assert_eq!(via_knob, record_bytes(&knobbed, other), "{engine} knob");
    }
    // The unset knob serializes without the field, so digests of
    // pre-engine documents are untouched.
    let rt = Scenario::from_json(&base.to_json()).unwrap();
    assert_eq!(rt.engine.program_engine, None);
    assert_eq!(rt.digest(), base.digest());
}

/// The committed corpus replays to its recorded outcome on both engines,
/// and every artifact's record bytes match across them.
#[test]
fn corpus_replays_identically_on_the_bytecode_engine() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = Reproducer::load_dir(&dir).expect("committed corpus loads");
    assert!(!entries.is_empty(), "corpus must not be empty");
    for (path, repro) in &entries {
        for engine in [ProgramEngine::Tree, ProgramEngine::Bytecode] {
            repro
                .check(&on(engine))
                .unwrap_or_else(|e| panic!("{} on {engine}: {e}", path.display()));
        }
        assert_engines_agree(&repro.scenario, &path.display().to_string());
    }
}
