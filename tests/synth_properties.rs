//! Property suite for the synthesis subsystem's invariants.
//!
//! The program generator promises strict EREW *by construction*; the
//! checker proves strict EREW *by inspection*. These properties pin the
//! two to each other over the seeded program space: every emission
//! validates, every deliberate single-instruction conflict mutation is
//! caught, the static last-write table agrees with the emitted writes,
//! and synthesized adversaries round-trip through their JSON form and
//! replay identically.

use apex_synth::gen::{conflicting_mutation, generate_nondet_program, generate_program, GenConfig};
use apex_synth::repro::{program_from_json, program_to_json};
use apex_synth::sched_gen::{generate_schedule, SchedGenConfig};
use proptest::prelude::*;

fn dense_config() -> GenConfig {
    // Full activity over ≥ 4 threads so a two-thread victim pair always
    // exists for the mutation property.
    GenConfig {
        threads: (4, 8),
        p_active: 1.0,
        ..GenConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every generated program passes the strict-EREW checker.
    #[test]
    fn every_generated_program_is_strict_erew(seed in any::<u64>()) {
        let p = generate_program(&GenConfig::default(), seed);
        prop_assert_eq!(p.validate(), Ok(()));
        prop_assert!(p.n_threads >= 2);
        prop_assert!(p.n_steps() >= 1);
        prop_assert_eq!(p.init.len(), p.mem_size);
    }

    /// Forced-nondeterministic generation also validates and really does
    /// contain a randomized instruction.
    #[test]
    fn nondet_generation_is_strict_erew_and_randomized(seed in any::<u64>()) {
        let p = generate_nondet_program(&GenConfig::default().nondet_only(), seed);
        prop_assert_eq!(p.validate(), Ok(()));
        prop_assert!(p.is_nondeterministic());
    }

    /// A single-instruction mutation that points one thread's operand at
    /// another thread's destination is always caught by the checker.
    #[test]
    fn conflict_mutations_are_caught(seed in any::<u64>()) {
        let p = generate_program(&dense_config(), seed);
        let m = conflicting_mutation(&p, seed).expect("dense program has a victim pair");
        prop_assert!(
            matches!(m.validate(), Err(apex::pram::ProgramError::ErewConflict { .. })),
            "mutation survived the checker: {:?}",
            m.validate()
        );
    }

    /// The static last-write table lists exactly the steps whose emitted
    /// instructions write each variable.
    #[test]
    fn last_write_table_matches_emitted_writes(seed in any::<u64>()) {
        let p = generate_program(&GenConfig::default(), seed);
        let lw = p.last_write_table();
        for (step, row) in p.steps.iter().enumerate() {
            for instr in row.iter().flatten() {
                prop_assert!(lw.write_steps(instr.dst).contains(&(step as u64)));
                // A reader at the next step expects this write's stamp (or
                // a later one if the variable is rewritten, which strict
                // EREW rules out within the step).
                prop_assert_eq!(lw.expected_stamp(instr.dst, step as u64 + 1), step as u64 + 1);
            }
        }
    }

    /// Generated programs survive the reproducer JSON encoding exactly.
    #[test]
    fn generated_programs_round_trip_through_artifact_json(seed in any::<u64>()) {
        let p = generate_program(&GenConfig::default(), seed);
        let back = program_to_json(&p).decode(program_from_json).expect("round trip");
        prop_assert_eq!(back, p);
    }

    /// Synthesized adversaries round-trip through JSON and the rebuilt
    /// schedule plays the identical decision stream.
    #[test]
    fn synthesized_schedules_round_trip_and_replay(seed in any::<u64>(), n in 2usize..9) {
        let kind = generate_schedule(&SchedGenConfig::default(), n, seed);
        let text = kind.to_json().render();
        let parsed = apex::sim::Json::parse(&text).expect("rendered JSON parses");
        let back = apex::sim::ScheduleKind::from_json(&parsed).expect("decodes");
        prop_assert_eq!(&back, &kind);
        let mut a = kind.build(n, seed);
        let mut b = back.build(n, seed);
        for _ in 0..300 {
            prop_assert_eq!(a.next(), b.next());
        }
    }
}
