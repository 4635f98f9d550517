//! The scheme run harness: machine assembly, phase-boundary observation,
//! and verification.

use std::rc::Rc;

use apex_core::{new_sink, AgreementConfig, ValueSource};
use apex_pram::{LastWriteTable, Program, Value};
use apex_sim::{
    AdversarySpec, Ctx, Machine, MachineBuilder, RegionAllocator, ScheduleKind, Spawn, Stamped,
};

use crate::drivers::{SchemeKind, SchemeProcessor};
use crate::map::{ReplicaK, SchemeMap};
use crate::report::SchemeReport;
use crate::source::InstrSource;
use crate::tasks::{eval_cost, new_events, EventsHandle};
use crate::verify::{verify, ObservedRun};

/// Configuration of a scheme run.
#[derive(Clone, Debug)]
pub struct SchemeRunConfig {
    /// Which scheme to run.
    pub kind: SchemeKind,
    /// Master seed.
    pub seed: u64,
    /// Adversary (any algebra spec; legacy [`ScheduleKind`]s lower via
    /// [`Into`]).
    pub schedule: AdversarySpec,
    /// Variable replication factor K.
    pub k: ReplicaK,
    /// Override the agreement constants (default: sized from the program).
    pub agreement: Option<AgreementConfig>,
    /// Engine batch size (`None` keeps the machine default; batching is
    /// tick-transparent, so this changes throughput, never results).
    pub batch: Option<usize>,
    /// Override for the per-subphase stall budget in work units (`None`
    /// derives a generous default from the agreement constants).
    pub tick_budget: Option<u64>,
}

impl SchemeRunConfig {
    /// Defaults: uniform adversary, K = 2.
    pub fn new(kind: SchemeKind, seed: u64) -> Self {
        SchemeRunConfig {
            kind,
            seed,
            schedule: AdversarySpec::Base(ScheduleKind::Uniform),
            k: ReplicaK::default(),
            agreement: None,
            batch: None,
            tick_budget: None,
        }
    }

    /// Set the adversary (accepts a [`ScheduleKind`] or any
    /// [`AdversarySpec`]).
    pub fn schedule(mut self, s: impl Into<AdversarySpec>) -> Self {
        self.schedule = s.into();
        self
    }

    /// Set the replication factor.
    pub fn replicas(mut self, k: usize) -> Self {
        self.k = ReplicaK(k);
        self
    }

    /// Set the engine batch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Set the per-subphase stall budget.
    pub fn tick_budget(mut self, budget: u64) -> Self {
        self.tick_budget = Some(budget);
        self
    }
}

/// The assembled ingredients of a scheme run, handed to a processor
/// factory (see [`SchemeRun::new_with_factory`]) so an alternative engine
/// can build its own per-processor execution — over the *same* memory map,
/// program tables, and event counters as the stock tree-walking
/// processors.
pub struct SchemeParts {
    /// Which scheme the processors implement.
    pub kind: SchemeKind,
    /// The agreement constants in force (ω, clock cadence, bin sizing).
    pub cfg: AgreementConfig,
    /// The shared-memory layout.
    pub map: SchemeMap,
    /// The resolved program.
    pub program: Rc<Program>,
    /// Last-write table for stamp-validated operand reads.
    pub lw: Rc<LastWriteTable>,
    /// Shared protocol-event counters (all processors increment the same
    /// handle; the final [`SchemeReport`] copies them out).
    pub events: EventsHandle,
}

/// A fully assembled scheme execution.
pub struct SchemeRun {
    machine: Machine,
    map: SchemeMap,
    cfg: AgreementConfig,
    kind: SchemeKind,
    program: Rc<Program>,
    lw: Rc<LastWriteTable>,
    events: EventsHandle,
    schedule_desc: String,
    tick_budget: Option<u64>,
}

impl SchemeRun {
    /// Assemble machine + processors for `program` under `run_cfg`, using
    /// the stock tree-walking [`SchemeProcessor`]s.
    pub fn new(program: Program, run_cfg: SchemeRunConfig) -> Self {
        Self::new_with_factory(program, run_cfg, |parts| {
            let n = parts.program.n_threads;
            let sink = (n <= 64).then(new_sink); // cycle logs only for small n
            let source: Rc<dyn ValueSource> = Rc::new(InstrSource::new(
                parts.program.clone(),
                parts.lw.clone(),
                parts.map,
                parts.events.clone(),
            ));
            let proc_template = SchemeProcessor {
                kind: parts.kind,
                cfg: parts.cfg,
                map: parts.map,
                program: parts.program.clone(),
                lw: parts.lw.clone(),
                source,
                events: parts.events.clone(),
                sink,
            };
            move |ctx: Ctx| {
                let p = proc_template.clone();
                p.run(ctx)
            }
        })
    }

    /// Assemble machine + processors with a caller-supplied processor
    /// factory.
    ///
    /// The factory receives the assembled [`SchemeParts`] and returns the
    /// machine's processors: a per-processor `FnMut(Ctx) -> impl Future`
    /// builder (called once per processor), or a whole processor bank.
    /// Alternative engines (the bytecode VM's bank) use this seam to
    /// substitute their own execution loop while the harness — memory
    /// layout, initial pokes, phase observation, verification — stays
    /// identical.
    pub fn new_with_factory<F, B>(program: Program, run_cfg: SchemeRunConfig, factory: F) -> Self
    where
        F: FnOnce(&SchemeParts) -> B,
        B: Spawn,
    {
        assert!(program.n_steps() >= 1, "empty program");
        program.validate().expect("valid program");
        let n = program.n_threads;
        let cfg = run_cfg
            .agreement
            .unwrap_or_else(|| AgreementConfig::for_n(n, eval_cost(run_cfg.k.0)));
        assert!(
            cfg.eval_cost >= eval_cost(run_cfg.k.0),
            "eval budget too small for K"
        );

        let mut alloc = RegionAllocator::new();
        let map = SchemeMap::new(
            &mut alloc,
            &cfg,
            &program,
            run_cfg.k,
            run_cfg.kind.needs_proposals(),
        );
        let program = Rc::new(program);
        let lw = Rc::new(program.last_write_table());
        let events = new_events();

        let parts = SchemeParts {
            kind: run_cfg.kind,
            cfg,
            map,
            program: program.clone(),
            lw: lw.clone(),
            events: events.clone(),
        };
        let proc_builder = factory(&parts);

        let mut builder = MachineBuilder::new(n, alloc.total())
            .seed(run_cfg.seed)
            .schedule_spec(&run_cfg.schedule);
        if let Some(b) = run_cfg.batch {
            builder = builder.batch(b);
        }
        let machine = builder.spawn(proc_builder);

        // Install the initial program-variable values into every replica
        // with stamp 0 (the "input" state of the machine).
        for (v, &val) in program.init.iter().enumerate() {
            for r in 0..map.k {
                machine.poke(map.var_addr(v, r), Stamped::new(val, 0));
            }
        }

        let schedule_desc = machine.schedule_description();
        SchemeRun {
            machine,
            map,
            cfg,
            kind: run_cfg.kind,
            program,
            lw,
            events,
            schedule_desc,
            tick_budget: run_cfg.tick_budget,
        }
    }

    /// The agreement constants in force.
    pub fn config(&self) -> &AgreementConfig {
        &self.cfg
    }

    /// Mutable machine access — for installing telemetry hooks before
    /// the run (instrumentation only; hooks observe, never steer).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Run to completion: drive the machine until the clock oracle reaches
    /// `2T`, observing each step's chosen values at its Copy-subphase
    /// boundary, then verify. The machine stays readable afterwards
    /// ([`SchemeRun::machine_mut`]) for engine costs no report carries,
    /// such as [`Machine::polls`].
    ///
    /// Call it once per run.
    ///
    /// # Panics
    /// If the clock stalls (protocol misconfiguration).
    pub fn run(&mut self) -> SchemeReport {
        let t_steps = self.program.n_steps();
        let done = SchemeMap::done_clock(t_steps as u64);

        let mut observed = ObservedRun::default();
        let mut subphase_work = Vec::with_capacity(done as usize);
        let mut boundary = 0u64; // next clock value whose crossing we await
        let subphase_budget = self.tick_budget.unwrap_or_else(|| {
            64 * self.cfg.nominal_cycles_per_phase().max(1) * self.cfg.omega + 2_000_000
        });
        while boundary < done {
            let budget = self.machine.work().saturating_add(subphase_budget);
            loop {
                self.machine.run_ticks(self.cfg.stage_work().max(64));
                let v = self.machine.with_mem(|mem| self.map.clock.oracle(mem));
                if v > boundary {
                    break;
                }
                assert!(
                    self.machine.work() < budget,
                    "clock stalled before value {} ({})",
                    boundary + 1,
                    self.cfg.sizing_rationale()
                );
            }
            subphase_work.push(self.machine.work());
            // boundary crossed: if it was a Copy subphase (odd), step
            // (boundary-1)/2 is complete — snapshot its chosen values.
            let (step, is_copy) = SchemeMap::decode_clock(boundary);
            if is_copy {
                self.snapshot_step(step, &mut observed);
            }
            boundary += 1;
        }

        // Final memory: stamp-validated read of every variable.
        observed.final_memory = (0..self.map.n_vars)
            .map(|var| self.read_final_var(var, t_steps as u64))
            .collect();

        let verify_report = verify(&self.program, &observed);
        let final_memory = observed.final_memory.clone();
        let ev = self.events.borrow();
        SchemeReport {
            kind: self.kind,
            schedule: self.schedule_desc.clone(),
            program: self.program.name.clone(),
            n: self.program.n_threads,
            t_steps,
            total_work: self.machine.work(),
            ticks: self.machine.ticks(),
            subphase_work,
            verify: verify_report,
            operand_read_failures: 0,
            copy_writes: 0,
            aborted_copies: 0,
            evals: 0,
            final_memory,
        }
        .from_events(&ev)
    }

    /// Observe the chosen value of every `(step, thread)` from the
    /// destination replicas (observer-level).
    fn snapshot_step(&self, step: u64, observed: &mut ObservedRun) {
        self.machine.with_mem(|mem| {
            for thread in 0..self.program.n_threads {
                let Some(instr) = self.program.instr(step as usize, thread) else {
                    continue;
                };
                let mut vals: Vec<Value> = Vec::new();
                for r in 0..self.map.k {
                    let c = mem.peek(self.map.var_addr(instr.dst, r));
                    if c.stamp == step + 1 {
                        vals.push(c.value);
                    }
                }
                match vals.first() {
                    None => observed.missing.push((step, thread)),
                    Some(&first) => {
                        if vals.iter().any(|v| *v != first) {
                            observed.replica_divergences.push((step, thread));
                        }
                        observed.chosen.insert((step, thread), first);
                    }
                }
            }
        });
    }

    /// Stamp-validated final read of a variable (as a reader at step `T`
    /// would see it).
    fn read_final_var(&self, var: usize, t_steps: u64) -> Value {
        let expect = self.lw.expected_stamp(var, t_steps);
        self.machine.with_mem(|mem| {
            let mut last = 0;
            for r in 0..self.map.k {
                let c = mem.peek(self.map.var_addr(var, r));
                last = c.value;
                if c.stamp == expect {
                    return c.value;
                }
            }
            last
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_pram::library::{coin_sum, tree_reduce};
    use apex_pram::Op;

    #[test]
    fn nondet_scheme_runs_deterministic_program_correctly() {
        let built = tree_reduce(Op::Add, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let report = SchemeRun::new(
            built.program.clone(),
            SchemeRunConfig::new(SchemeKind::Nondet, 42),
        )
        .run();
        assert!(report.verify.ok(), "{report}");
        // The final output variable holds the sum.
        // (Verified inside verify() against the replay; spot-check overhead
        // bookkeeping here.)
        assert!(report.total_work > 0);
        assert!(report.overhead() > 1.0);
        assert_eq!(report.subphase_work.len(), 2 * report.t_steps);
    }

    #[test]
    fn nondet_scheme_runs_randomized_program_correctly() {
        let built = coin_sum(8, 32);
        let report = SchemeRun::new(
            built.program.clone(),
            SchemeRunConfig::new(SchemeKind::Nondet, 7),
        )
        .run();
        assert!(report.verify.ok(), "{report}");
        assert!(report.evals >= (report.n * report.t_steps) as u64 / 2);
    }

    #[test]
    fn det_baseline_runs_deterministic_program_correctly() {
        let built = tree_reduce(Op::Max, &[5, 1, 9, 3]);
        let report = SchemeRun::new(
            built.program.clone(),
            SchemeRunConfig::new(SchemeKind::DetBaseline, 21),
        )
        .run();
        assert!(report.verify.ok(), "{report}");
    }

    #[test]
    fn scan_consensus_runs_deterministic_program_correctly() {
        let built = tree_reduce(Op::Add, &[4, 4, 4, 4, 4, 4, 4, 4]);
        let report = SchemeRun::new(
            built.program.clone(),
            SchemeRunConfig::new(SchemeKind::ScanConsensus, 5),
        )
        .run();
        assert!(report.verify.ok(), "{report}");
        // Θ(n)-per-value tasks make it costlier per step than the ideal.
        assert!(report.overhead() > 1.0);
    }

    #[test]
    fn ideal_cas_runs_randomized_program_correctly() {
        let built = coin_sum(8, 16);
        let report = SchemeRun::new(
            built.program.clone(),
            SchemeRunConfig::new(SchemeKind::IdealCas, 11),
        )
        .run();
        assert!(report.verify.ok(), "{report}");
    }

    #[test]
    fn runs_are_reproducible() {
        let mk = || {
            let built = coin_sum(8, 16);
            SchemeRun::new(built.program, SchemeRunConfig::new(SchemeKind::Nondet, 9)).run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.total_work, b.total_work);
        assert_eq!(a.verify.violations(), b.verify.violations());
    }
}
