//! Phase-by-phase experiment harness for the agreement protocol.
//!
//! [`AgreementRun`] wires together a machine, a phase clock, a bin array and
//! `n` participants, then steps the system one *phase* at a time, recording
//! for each phase exactly the quantities Theorem 1 and Lemmas 1–7 speak
//! about: work to completion, work to clock advance, clobbers per bin,
//! agreed values, and (optionally) the full cycle log for stage analysis.

use std::rc::Rc;

use apex_clock::PhaseClock;
use apex_sim::{Machine, MachineBuilder, RegionAllocator, ScheduleKind, Value};

use crate::config::AgreementConfig;
use crate::driver::Participant;
use crate::events::{new_sink, ClobberCounter, EventSink};
use crate::layout::BinLayout;
use crate::source::ValueSource;
use crate::validate::{check_theorem_one, StabilityTracker, TheoremOneReport};

/// Which instrumentation to attach (cycle logs are memory-hungry at large
/// n; clobber counting is cheap).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstrumentOpts {
    /// Record every cycle and evaluation into an [`EventSink`].
    pub record_events: bool,
    /// Count clobbers per bin via a write hook.
    pub count_clobbers: bool,
}

impl InstrumentOpts {
    /// Everything on (small-n experiments).
    pub fn full() -> Self {
        InstrumentOpts {
            record_events: true,
            count_clobbers: true,
        }
    }

    /// Clobber counting only.
    pub fn clobbers_only() -> Self {
        InstrumentOpts {
            record_events: false,
            count_clobbers: true,
        }
    }
}

/// Everything observed about one completed phase.
#[derive(Clone, Debug)]
pub struct PhaseOutcome {
    /// Phase number π.
    pub phase: u64,
    /// Global work when the phase began (clock oracle reached π).
    pub start_work: u64,
    /// Global work when uniqueness+accessibility first held for every bin
    /// (`None` if that never happened before the clock advanced — a
    /// Theorem-1 failure).
    pub completion_work: Option<u64>,
    /// Global work when the clock oracle advanced past π.
    pub advance_work: u64,
    /// The Theorem-1 report at advance time.
    pub report: TheoremOneReport,
    /// Clobbers per bin during the phase (if counted).
    pub clobbers: Option<Vec<u64>>,
    /// Stability violations observed within the phase.
    pub stability_violations: usize,
    /// The agreed values at advance time.
    pub agreed: Vec<Option<Value>>,
}

impl PhaseOutcome {
    /// Work spent inside the phase up to completion.
    pub fn work_to_completion(&self) -> Option<u64> {
        self.completion_work.map(|w| w - self.start_work)
    }

    /// Work spent inside the whole phase (to clock advance).
    pub fn phase_work(&self) -> u64 {
        self.advance_work - self.start_work
    }

    /// Maximum clobbers in any single bin (Lemma 1's quantity).
    pub fn max_clobbers(&self) -> Option<u64> {
        self.clobbers
            .as_ref()
            .map(|c| c.iter().copied().max().unwrap_or(0))
    }
}

/// A live agreement system stepped one phase at a time.
pub struct AgreementRun {
    machine: Machine,
    /// Protocol constants in force.
    pub cfg: AgreementConfig,
    /// The bin array.
    pub bins: BinLayout,
    /// The phase clock.
    pub clock: PhaseClock,
    /// The cycle/eval log, when recording.
    pub sink: Option<EventSink>,
    /// Override for the per-phase stall budget (work units past the phase
    /// start before [`AgreementRun::run_phase`] declares a clock stall);
    /// `None` derives a generous default from the config.
    pub stall_budget: Option<u64>,
    clobbers: Option<ClobberCounter>,
    stability: StabilityTracker,
    current_phase: u64,
    /// Work at the start of the current phase.
    phase_start_work: u64,
}

impl AgreementRun {
    /// Assemble a run: `n` participants agreeing on values from `source`
    /// under the given adversary kind.
    pub fn new(
        cfg: AgreementConfig,
        seed: u64,
        kind: &ScheduleKind,
        source: Rc<dyn ValueSource>,
        opts: InstrumentOpts,
    ) -> Self {
        Self::with_schedule(cfg, seed, kind.build(cfg.n, seed), source, opts)
    }

    /// Assemble a run under an explicit (possibly hand-scripted) oblivious
    /// schedule — used by the Fig.-3 and gun-adversary experiments.
    pub fn with_schedule(
        cfg: AgreementConfig,
        seed: u64,
        schedule: apex_sim::BoxedSchedule,
        source: Rc<dyn ValueSource>,
        opts: InstrumentOpts,
    ) -> Self {
        Self::with_schedule_batched(cfg, seed, schedule, source, opts, None)
    }

    /// [`AgreementRun::with_schedule`] with an explicit engine batch size
    /// (`None` keeps the machine default). Batching is tick-transparent, so
    /// the knob changes throughput, never results.
    pub fn with_schedule_batched(
        cfg: AgreementConfig,
        seed: u64,
        schedule: apex_sim::BoxedSchedule,
        source: Rc<dyn ValueSource>,
        opts: InstrumentOpts,
        batch: Option<usize>,
    ) -> Self {
        assert!(
            source.max_cost() <= cfg.eval_cost,
            "source cost {} exceeds configured eval budget {}",
            source.max_cost(),
            cfg.eval_cost
        );
        let n = cfg.n;
        let mut alloc = RegionAllocator::new();
        let clock = PhaseClock::new(&mut alloc, n);
        let bins = BinLayout::new(&mut alloc, n, cfg.cells_per_bin);
        let sink = opts.record_events.then(new_sink);

        let participant_sink = sink.clone();
        let mut builder = MachineBuilder::new(n, alloc.total())
            .seed(seed)
            .schedule(schedule);
        if let Some(b) = batch {
            builder = builder.batch(b);
        }
        let mut machine = builder.build(move |ctx| {
            let p = Participant {
                cfg,
                bins,
                clock,
                source: source.clone(),
                sink: participant_sink.clone(),
            };
            p.run(ctx)
        });

        let clobbers = opts
            .count_clobbers
            .then(|| machine.with_mem_mut(|mem| ClobberCounter::install(mem, bins)));

        AgreementRun {
            machine,
            cfg,
            bins,
            clock,
            sink,
            stall_budget: None,
            clobbers,
            stability: StabilityTracker::new(),
            current_phase: 0,
            phase_start_work: 0,
        }
    }

    /// Convenience constructor with default config.
    pub fn with_default_config(
        n: usize,
        seed: u64,
        kind: &ScheduleKind,
        source: Rc<dyn ValueSource>,
        opts: InstrumentOpts,
    ) -> Self {
        let cfg = AgreementConfig::for_n(n, source.max_cost());
        Self::new(cfg, seed, kind, source, opts)
    }

    /// The machine (for work queries and custom instrumentation).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access — for installing telemetry hooks before
    /// the run (instrumentation only; hooks observe, never steer).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The phase currently in progress.
    pub fn current_phase(&self) -> u64 {
        self.current_phase
    }

    /// Stability violations observed so far across all phases.
    pub fn stability_violations(&self) -> usize {
        self.stability.violations.len()
    }

    /// Run the system until the clock oracle advances past the current
    /// phase; observe completion, clobbers and stability along the way.
    ///
    /// # Panics
    /// If the clock fails to advance within a very generous work budget
    /// (protocol misconfiguration).
    pub fn run_phase(&mut self) -> PhaseOutcome {
        let phase = self.current_phase;
        let start_work = self.phase_start_work;
        if let Some(c) = &self.clobbers {
            c.set_phase(phase);
        }

        // Observation cadence: once per stage (the analysis' natural unit).
        let chunk = self.cfg.stage_work().max(64);
        let mut completion_work: Option<u64> = None;
        // Generous stall budget: 64× the expected phase work, unless the
        // caller pinned an explicit per-phase budget.
        let budget = start_work.saturating_add(self.stall_budget.unwrap_or_else(|| {
            64 * self.cfg.min_cycles_per_phase().max(1) * self.cfg.omega + 1_000_000
        }));
        loop {
            self.machine.run_ticks(chunk);
            let (advanced, done) = self.machine.with_mem(|mem| {
                let v = self.clock.oracle(mem);
                (v > phase, v)
            });
            let _ = done;
            if completion_work.is_none() {
                let ok = self.machine.with_mem(|mem| {
                    let r = check_theorem_one(mem, &self.bins, phase, None);
                    r.all_hold()
                });
                if ok {
                    completion_work = Some(self.machine.work());
                }
            }
            if completion_work.is_some() {
                // Track stability of the established values.
                self.machine
                    .with_mem(|mem| self.stability.observe(mem, &self.bins, phase));
            }
            if advanced {
                break;
            }
            assert!(
                self.machine.work() < budget,
                "clock failed to advance past phase {phase} within budget \
                 (cfg: {})",
                self.cfg.sizing_rationale()
            );
        }

        let advance_work = self.machine.work();
        let log = self.sink.as_ref().map(|s| s.borrow());
        let report = self
            .machine
            .with_mem(|mem| check_theorem_one(mem, &self.bins, phase, log.as_deref()));
        drop(log);
        let agreed = report.agreed_values();
        let clobbers = self.clobbers.as_ref().map(|c| c.take());
        let stability_violations = self.stability.violations.len();

        self.current_phase += 1;
        self.phase_start_work = advance_work;

        PhaseOutcome {
            phase,
            start_work,
            completion_work,
            advance_work,
            report,
            clobbers,
            stability_violations,
            agreed,
        }
    }

    /// Run `k` phases, returning all outcomes.
    pub fn run_phases(&mut self, k: usize) -> Vec<PhaseOutcome> {
        (0..k).map(|_| self.run_phase()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{KeyedSource, RandomSource};

    #[test]
    fn phases_complete_and_validate_under_uniform_schedule() {
        let src: Rc<dyn ValueSource> = Rc::new(RandomSource::new(1 << 20));
        let mut run = AgreementRun::with_default_config(
            16,
            42,
            &ScheduleKind::Uniform,
            src,
            InstrumentOpts::full(),
        );
        let outcomes = run.run_phases(3);
        for o in &outcomes {
            assert!(
                o.report.all_hold(),
                "phase {} failed Theorem 1: {:?}",
                o.phase,
                o.report
            );
            assert!(
                o.completion_work.is_some(),
                "phase {} never completed",
                o.phase
            );
            assert!(o.work_to_completion().unwrap() <= o.phase_work());
            assert_eq!(o.stability_violations, 0);
            assert!(o.agreed.iter().all(|v| v.is_some()));
        }
        // Consecutive phases have increasing start work.
        assert!(outcomes[0].advance_work <= outcomes[1].start_work + 1);
    }

    #[test]
    fn deterministic_source_agrees_on_expected_values() {
        let src: Rc<dyn ValueSource> = Rc::new(KeyedSource);
        let mut run = AgreementRun::with_default_config(
            8,
            7,
            &ScheduleKind::Uniform,
            src,
            InstrumentOpts::default(),
        );
        let o = run.run_phase();
        for (i, v) in o.agreed.iter().enumerate() {
            assert_eq!(*v, Some(KeyedSource::expected(0, i)));
        }
    }

    #[test]
    fn clobbers_are_counted_under_sleepy_adversary() {
        let src: Rc<dyn ValueSource> = Rc::new(RandomSource::new(100));
        let kind = ScheduleKind::Sleepy {
            sleepy_frac: 0.25,
            awake: 2000,
            asleep: 30_000,
        };
        let mut run =
            AgreementRun::with_default_config(16, 3, &kind, src, InstrumentOpts::clobbers_only());
        let outcomes = run.run_phases(4);
        // Sleepers waking across phase boundaries must clobber eventually.
        let total: u64 = outcomes
            .iter()
            .filter_map(|o| o.clobbers.as_ref())
            .flat_map(|c| c.iter().copied())
            .sum();
        // (We only require the machinery to work; Lemma 1's bound is
        // checked statistically in experiment E2.)
        let _ = total;
        for o in &outcomes {
            assert!(
                o.report.all_hold(),
                "phase {} failed under sleepers",
                o.phase
            );
        }
    }

    #[test]
    fn run_is_reproducible() {
        let mk = || {
            let src: Rc<dyn ValueSource> = Rc::new(RandomSource::new(1000));
            let mut run = AgreementRun::with_default_config(
                8,
                99,
                &ScheduleKind::Bursty { mean_burst: 16 },
                src,
                InstrumentOpts::default(),
            );
            let o = run.run_phase();
            (o.advance_work, o.agreed)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "exceeds configured eval budget")]
    fn oversized_source_is_rejected() {
        let cfg = AgreementConfig::for_n(8, 0);
        let src: Rc<dyn ValueSource> = Rc::new(RandomSource::new(10));
        let _ = AgreementRun::new(
            cfg,
            1,
            &ScheduleKind::Uniform,
            src,
            InstrumentOpts::default(),
        );
    }
}
