//! The differential oracle over (program, schedule, seed) triples.
//!
//! One triple fixes an entire asynchronous execution: the program, the
//! oblivious adversary, and the master seed that derives every private
//! random source. A triple plus a scheme is a full [`Scenario`]
//! ([`Triple::scenario`]), and every oracle leg goes through
//! [`RunOutcome::capture_opts`] — so the legs of a differential
//! comparison are scenarios differing in exactly one field,
//! `mode.scheme`, and a leg ends the way a lab cell does: a complete
//! record, an exhausted run (a clock stall: survivable data) or a
//! poisoned one (any other panic: a failure). The oracle
//! runs the scenario through its execution scheme
//! on the batched engine; the scheme harness then replays the agreed
//! choices through the ideal executor with `Choices::Injected` and
//! compares memory, per-instruction outputs, and admissibility
//! ([`apex_scheme::verify`]). On top of the verifier the oracle checks the
//! run's *work accounting* invariants (tick/work identity, subphase
//! monotonicity), so a divergence in any of memory, outputs, or
//! bookkeeping fails the triple.
//!
//! Expected differential shape (the paper's Theorem 1 vs its §1
//! motivation): [`SchemeKind::Nondet`] must never diverge; running the
//! same nondeterministic triples through [`SchemeKind::DetBaseline`]
//! *does* diverge on a measurable fraction — each such triple is a
//! concrete witness that the prior-work scheme is unsound for
//! nondeterministic programs (the E10 claim, generalized from one
//! hand-written workload to the synthesized program space).

use apex_pram::Program;
use apex_scenario::{ProgramSource, RunOpts, RunOutcome, Scenario};
use apex_scheme::{SchemeKind, SchemeReport};
use apex_sim::AdversarySpec;

/// One generated scenario point: the workload and adversary, with the
/// scheme left open (the differential axis).
#[derive(Clone, Debug, PartialEq)]
pub struct Triple {
    /// The synthesized strict-EREW program.
    pub program: Program,
    /// The synthesized oblivious adversary (any algebra composition).
    pub schedule: AdversarySpec,
    /// Master seed (private random sources + schedule fallback stream).
    pub seed: u64,
}

impl Triple {
    /// The full [`Scenario`] this triple describes under `kind` — the
    /// oracle's legs differ **only** in this one field, which is the whole
    /// differential argument.
    pub fn scenario(&self, kind: SchemeKind) -> Scenario {
        Scenario::scheme(
            kind,
            ProgramSource::Explicit(self.program.clone()),
            self.seed,
        )
        .schedule(self.schedule.clone())
    }
}

/// What the oracle concluded about one (triple, scheme) execution.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Verifier violations (replica divergence, missing values,
    /// deterministic mismatches, inadmissible choices, final-memory
    /// mismatches, replay shape errors).
    pub violations: usize,
    /// Work-accounting invariants that failed (human-readable), plus any
    /// non-stall harness panic.
    pub work_anomalies: Vec<String>,
    /// The run tripped the clock-stall liveness budget — counted
    /// separately from divergence.
    pub stalled: bool,
}

impl Verdict {
    /// Whether the execution was inconsistent with every synchronous run
    /// (the fuzzer's failure condition).
    pub fn diverged(&self) -> bool {
        self.violations > 0 || !self.work_anomalies.is_empty()
    }
}

/// Execute a scheme-mode scenario as a typed [`RunOutcome`]
/// ([`RunOutcome::capture_opts`]): the harness's clock-stall assertion
/// is [`RunOutcome::Exhausted`]; any other panic (including a failed
/// [`Scenario::validate`]) is [`RunOutcome::Poisoned`] and must be
/// treated as a failure by callers.
///
/// `opts` can override the interpreter engine ([`RunOpts::engine`]).
/// Reports are engine-independent, so a divergence found on one engine
/// and replayed on the other is a bug in an interpreter, not in the
/// finding.
pub fn run_scenario(scenario: &Scenario, opts: &RunOpts) -> RunOutcome {
    RunOutcome::capture_opts(scenario, opts)
}

/// [`run_scenario`] for a (triple, scheme) pair.
pub fn run_triple(triple: &Triple, kind: SchemeKind) -> RunOutcome {
    run_scenario(&triple.scenario(kind), &RunOpts::default())
}

/// Apply the oracle's checks to a completed run.
pub fn judge(report: &SchemeReport) -> Verdict {
    let mut work_anomalies = Vec::new();
    if report.ticks != report.total_work {
        work_anomalies.push(format!(
            "ticks {} != total work {} under the count-as-work policy",
            report.ticks, report.total_work
        ));
    }
    if report.subphase_work.len() != 2 * report.t_steps {
        work_anomalies.push(format!(
            "{} subphase boundaries for {} steps (want {})",
            report.subphase_work.len(),
            report.t_steps,
            2 * report.t_steps
        ));
    }
    if report.subphase_work.windows(2).any(|w| w[0] > w[1]) {
        work_anomalies.push("subphase work not monotone".into());
    }
    if let Some(&last) = report.subphase_work.last() {
        if last > report.total_work {
            work_anomalies.push(format!(
                "final subphase boundary {last} exceeds total work {}",
                report.total_work
            ));
        }
    }
    Verdict {
        violations: report.verify.violations(),
        work_anomalies,
        stalled: false,
    }
}

/// [`judge`] extended to every outcome. An exhausted run (a clock
/// stall) yields a verdict with `stalled = true` and no divergence; a
/// poisoned one *is* a divergence (recorded as a work anomaly so
/// campaigns and reproducers fail loudly on engine crashes).
pub fn verdict(outcome: &RunOutcome) -> Verdict {
    match outcome {
        RunOutcome::Complete(record) => judge(record.report.scheme()),
        RunOutcome::Exhausted { .. } => Verdict {
            stalled: true,
            ..Verdict::default()
        },
        RunOutcome::Poisoned { message, .. } => Verdict {
            work_anomalies: vec![format!("harness panic: {message}")],
            ..Verdict::default()
        },
    }
}

/// [`run_scenario`] + [`verdict`] in one call.
pub fn check_scenario(scenario: &Scenario, opts: &RunOpts) -> Verdict {
    verdict(&run_scenario(scenario, opts))
}

/// [`check_scenario`] for a (triple, scheme) pair.
pub fn check_triple(triple: &Triple, kind: SchemeKind) -> Verdict {
    check_scenario(&triple.scenario(kind), &RunOpts::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_nondet_program, GenConfig};
    use crate::sched_gen::{generate_adversary, SchedGenConfig};

    fn triple(seed: u64) -> Triple {
        let program = generate_nondet_program(&GenConfig::default(), seed);
        let schedule = generate_adversary(&SchedGenConfig::default(), program.n_threads, seed);
        Triple {
            program,
            schedule,
            seed,
        }
    }

    /// The scheme report of a run that completed.
    fn scheme_report(outcome: RunOutcome) -> SchemeReport {
        match outcome {
            RunOutcome::Complete(record) => record.report.into_scheme(),
            other => panic!("run did not complete: {}", other.summary()),
        }
    }

    #[test]
    fn nondet_scheme_is_clean_on_synthesized_triples() {
        for seed in 0..5 {
            let t = triple(seed);
            let v = check_triple(&t, SchemeKind::Nondet);
            assert!(!v.stalled, "seed {seed} stalled");
            assert!(!v.diverged(), "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn non_stall_panics_are_divergences_not_stalls() {
        // An invalid program trips the harness's "valid program" assert —
        // a non-stall panic, which must fail the triple loudly.
        let mut t = triple(0);
        t.program.init.pop();
        let v = check_triple(&t, SchemeKind::Nondet);
        assert!(!v.stalled, "{v:?}");
        assert!(v.diverged(), "{v:?}");
        assert!(v.work_anomalies[0].contains("harness panic"), "{v:?}");
        assert!(matches!(
            run_triple(&t, SchemeKind::Nondet),
            RunOutcome::Poisoned { .. }
        ));
    }

    #[test]
    fn judge_flags_cooked_work_accounting() {
        let t = triple(1);
        let mut report = scheme_report(run_triple(&t, SchemeKind::Nondet));
        assert!(!judge(&report).diverged());
        report.ticks += 1;
        report.subphase_work.push(report.total_work + 999);
        let v = judge(&report);
        assert!(v.work_anomalies.len() >= 2, "{v:?}");
        assert!(v.diverged());
    }

    #[test]
    fn oracle_legs_differ_only_in_the_scheme_field() {
        let t = triple(2);
        let a = t.scenario(SchemeKind::Nondet);
        let b = t.scenario(SchemeKind::DetBaseline);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.agreement, b.agreement);
        assert_eq!(a.engine, b.engine);
        let (
            apex_scenario::Mode::Scheme {
                program: pa,
                replicas: ka,
                ..
            },
            apex_scenario::Mode::Scheme {
                program: pb,
                replicas: kb,
                ..
            },
        ) = (&a.mode, &b.mode)
        else {
            panic!("triple scenarios are scheme-mode");
        };
        assert_eq!(pa, pb);
        assert_eq!(ka, kb);
        assert_ne!(a, b, "the one differing field");
    }

    #[test]
    fn comparator_schemes_are_clean_on_a_synthesized_triple() {
        let t = triple(4);
        for kind in [SchemeKind::ScanConsensus, SchemeKind::IdealCas] {
            let v = check_triple(&t, kind);
            assert!(!v.stalled, "{kind:?} stalled");
            assert!(!v.diverged(), "{kind:?}: {v:?}");
        }
    }

    #[test]
    fn verdicts_are_reproducible() {
        let t = triple(3);
        let a = scheme_report(run_triple(&t, SchemeKind::Nondet));
        let b = scheme_report(run_triple(&t, SchemeKind::Nondet));
        assert_eq!(a.total_work, b.total_work);
        assert_eq!(a.final_memory, b.final_memory);
    }
}
