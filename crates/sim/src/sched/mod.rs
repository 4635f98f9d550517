//! Oblivious adversary schedules.
//!
//! The A-PRAM adversary fixes, *before the computation begins*, which
//! processor performs each successive atomic step (formally the schedule
//! functions `S_i : N → R⁺ ∪ {∞}` of the paper; we realize the equivalent
//! global interleaving: tick `t` is the `t`-th work unit and the schedule
//! names the processor that performs it). The adversary knows the program,
//! its inputs, and the execution scheme — but not the processors' dynamic
//! random choices.
//!
//! Every implementation here draws only from the *schedule* RNG stream
//! ([`crate::rng::schedule_rng`]) and from its own tick counter, never from
//! protocol state, so obliviousness holds by construction.

mod algebra;
mod availability;
mod basic;
mod bursty;
mod combinators;
mod crash;
mod scripted;
mod sleepy;
mod spec;

pub use algebra::{AdversarySpec, Group, OverlayKind, Span, MAX_ADVERSARY_DEPTH};
pub use basic::{RoundRobin, UniformRandom, WeightedSpeeds};
pub use bursty::Bursty;
pub use combinators::{OverlaySchedule, PartitionSchedule, PhaseSwitchSchedule, ScaleSchedule};
pub use crash::CrashSchedule;
pub use scripted::{Script, ScriptedSchedule};
pub use sleepy::Sleepy;
pub use spec::{ScriptSegment, ScriptSpec};

use crate::rng::schedule_rng;
use crate::word::ProcId;

/// A source of scheduling decisions: one processor id per atomic step.
///
/// Implementations must be *total* (always return some processor) and
/// *oblivious* (a pure function of their seed and call count).
///
/// # Batched dispatch
///
/// The machine consumes decisions through [`Schedule::next_batch`], one
/// virtual call per block instead of one per atomic step. Every
/// implementation must uphold the **batch-transparency invariant**:
///
/// > `next_batch(out)` writes exactly the sequence that `out.len()`
/// > successive calls to `next()` would have produced, and leaves the
/// > schedule in the identical state.
///
/// Mixing `next()` and `next_batch()` calls on one schedule is therefore
/// legal and cannot change the decision stream. The regression suite in
/// `tests/batch_determinism.rs` checks this for every [`ScheduleKind`],
/// and `tests/decision_streams.rs` pins the streams themselves.
///
/// # Cost contract
///
/// `next_batch` is the hot path: every machine tick's decision comes
/// through it. It costs O(1) amortized per decision, whatever `n` is:
///
/// * uniform, round-robin, bursty and scripted decisions are O(1) each;
/// * zipf and two-class decisions look up a guide table
///   (`rand::distributions::WeightedIndex`), O(1) per draw;
/// * a partition pays two binary searches per group per batch, and no
///   division per decision;
/// * an overlay, and the base sleepy and crash schedules, cut the batch
///   where the fault pattern's availability changes (found in O(log n))
///   and build an `n`-entry availability table only for a window of at
///   least `n` ticks. A shorter window is decided tick by tick against
///   the pattern, as `next` does.
///
/// `next()` is the per-tick reference that `next_batch` must reproduce;
/// it is not optimized, and nothing on the hot path calls it per tick.
pub trait Schedule {
    /// The processor that performs the next atomic step.
    fn next(&mut self) -> ProcId;

    /// Fill `out` with the next `out.len()` scheduling decisions.
    ///
    /// The default forwards to [`Schedule::next`]; implementations
    /// override it to amortize dispatch and per-call setup, and must obey
    /// the batch-transparency invariant above.
    fn next_batch(&mut self, out: &mut [ProcId]) {
        for slot in out.iter_mut() {
            *slot = self.next();
        }
    }

    /// Number of processors.
    fn n(&self) -> usize;

    /// Human-readable description for reports.
    fn describe(&self) -> String;
}

/// Boxed schedule, the form consumed by the machine builder.
pub type BoxedSchedule = Box<dyn Schedule>;

/// Declarative schedule family, convenient for sweeping adversaries in
/// experiments. `build` instantiates a concrete [`Schedule`] for a given
/// processor count and master seed.
///
/// Since the adversary-algebra redesign this enum is the set of *base*
/// adversaries: canonical sugar that [lowers](ScheduleKind::lower) into
/// [`AdversarySpec::Base`] with a bit-identical decision stream. Open
/// compositions (overlays, phase switches, partitions, speed warps) live
/// in [`AdversarySpec`].
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleKind {
    /// Perfectly fair rotation — the synchronous-like best case.
    RoundRobin,
    /// Each step performed by a uniformly random processor.
    Uniform,
    /// Processor `i` runs at relative speed `1/(i+1)^s` (heavily skewed
    /// speeds; models a loaded machine).
    Zipf {
        /// Skew exponent (`s = 0` is uniform; larger is more skewed).
        s: f64,
    },
    /// A fraction of slow processors running `ratio`× slower than the rest.
    TwoClass {
        /// Fraction of processors that are slow, in `[0, 1]`.
        slow_frac: f64,
        /// Speed advantage of fast processors (≥ 1).
        ratio: f64,
    },
    /// A random processor runs an entire geometric-length burst of steps
    /// before another is scheduled (models coarse context switching).
    Bursty {
        /// Mean burst length in steps.
        mean_burst: u64,
    },
    /// A fraction of processors periodically sleeps for long windows — the
    /// paper's *tardy processors*, the source of clobbers (Lemma 1).
    Sleepy {
        /// Fraction of processors that alternate awake/asleep.
        sleepy_frac: f64,
        /// Ticks awake per period.
        awake: u64,
        /// Ticks asleep per period.
        asleep: u64,
    },
    /// Fail-stop: a fraction of processors halts forever at a random tick
    /// within `horizon` (the paper's `S_i(k) = ∞`).
    Crash {
        /// Fraction of processors (excluding processor 0) that crash.
        crash_frac: f64,
        /// Crash times are uniform in `[0, horizon)`.
        horizon: u64,
    },
    /// An explicit scripted prefix (declarative [`ScriptSpec`] segments)
    /// followed by a fallback family — the serializable form of
    /// [`ScriptedSchedule`], used by synthesized adversaries and shrunk
    /// fuzz reproducers.
    Scripted(ScriptSpec),
}

impl ScheduleKind {
    /// Instantiate the schedule for `n` processors from `master_seed`.
    pub fn build(&self, n: usize, master_seed: u64) -> BoxedSchedule {
        let rng = schedule_rng(master_seed);
        match *self {
            ScheduleKind::RoundRobin => Box::new(RoundRobin::new(n)),
            ScheduleKind::Uniform => Box::new(UniformRandom::new(n, rng)),
            ScheduleKind::Zipf { s } => Box::new(WeightedSpeeds::zipf(n, s, rng)),
            ScheduleKind::TwoClass { slow_frac, ratio } => {
                Box::new(WeightedSpeeds::two_class(n, slow_frac, ratio, rng))
            }
            ScheduleKind::Bursty { mean_burst } => Box::new(Bursty::new(n, mean_burst, rng)),
            ScheduleKind::Sleepy {
                sleepy_frac,
                awake,
                asleep,
            } => Box::new(Sleepy::new(n, sleepy_frac, awake, asleep, rng)),
            ScheduleKind::Crash {
                crash_frac,
                horizon,
            } => Box::new(CrashSchedule::uniform_crashes(n, crash_frac, horizon, rng)),
            ScheduleKind::Scripted(ref spec) => {
                Box::new(spec::build_scripted(spec, n, master_seed))
            }
        }
    }

    /// Short label for table columns.
    pub fn label(&self) -> &'static str {
        match self {
            ScheduleKind::RoundRobin => "round-robin",
            ScheduleKind::Uniform => "uniform",
            ScheduleKind::Zipf { .. } => "zipf",
            ScheduleKind::TwoClass { .. } => "two-class",
            ScheduleKind::Bursty { .. } => "bursty",
            ScheduleKind::Sleepy { .. } => "sleepy",
            ScheduleKind::Crash { .. } => "crash",
            ScheduleKind::Scripted(_) => "scripted",
        }
    }

    /// The standard adversary gallery used across experiments.
    pub fn gallery() -> Vec<ScheduleKind> {
        vec![
            ScheduleKind::RoundRobin,
            ScheduleKind::Uniform,
            ScheduleKind::TwoClass {
                slow_frac: 0.25,
                ratio: 16.0,
            },
            ScheduleKind::Bursty { mean_burst: 64 },
            ScheduleKind::Sleepy {
                sleepy_frac: 0.125,
                awake: 512,
                asleep: 4096,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(s: &mut dyn Schedule, ticks: usize) -> Vec<u64> {
        let mut h = vec![0u64; s.n()];
        for _ in 0..ticks {
            h[s.next().0] += 1;
        }
        h
    }

    #[test]
    fn every_kind_builds_and_is_total() {
        for kind in ScheduleKind::gallery().into_iter().chain([
            ScheduleKind::Zipf { s: 1.0 },
            ScheduleKind::Crash {
                crash_frac: 0.3,
                horizon: 100,
            },
        ]) {
            let mut s = kind.build(8, 7);
            assert_eq!(s.n(), 8);
            let h = histogram(s.as_mut(), 2000);
            assert_eq!(h.iter().sum::<u64>(), 2000, "{}", kind.label());
            assert!(!s.describe().is_empty());
        }
    }

    #[test]
    fn schedules_are_reproducible_from_seed() {
        for kind in ScheduleKind::gallery() {
            let mut a = kind.build(16, 99);
            let mut b = kind.build(16, 99);
            for _ in 0..500 {
                assert_eq!(a.next(), b.next(), "{}", kind.label());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ScheduleKind::Uniform.build(16, 1);
        let mut b = ScheduleKind::Uniform.build(16, 2);
        let same = (0..200).filter(|_| a.next() == b.next()).count();
        assert!(same < 50);
    }
}
