//! The asynchronous host machine `H`: `n` processors, a shared memory, an
//! oblivious adversary schedule, and exact work accounting.
//!
//! # The batched tick engine
//!
//! The machine executes schedule decisions in **blocks**. Decisions are
//! prefetched from the adversary through [`crate::sched::Schedule::next_batch`]
//! into an internal queue (one virtual call per block instead of one per
//! atomic step), and each block is handed to the processor
//! [`Bank`](super::Bank) in one call. The bank borrows what its processors
//! share once per block and runs the block through the one dispatch loop
//! ([`Block::run`](super::Block::run)), which hoists everything that is
//! tick-invariant: the shared memory's "now" tracks the work counter
//! through a shared cell instead of a per-tick `set_now` call, and
//! per-processor credit/ops live in plain fields or `Cell`s.
//!
//! Consecutive decisions for the *same* processor (bursty bursts, busy-wait
//! tails on crashed/finished processors) are **run-coalesced**: the loop
//! grants the whole run of op credits at once and resumes the processor
//! a single time, during which it spends the credits op by op — advancing
//! the work counter exactly as per-tick resumes would — until the run is
//! exhausted. One resume per run instead of one per tick is the engine's
//! largest win under bursty adversaries.
//!
//! ## Run-ahead of private ops
//!
//! In the A-PRAM model only shared-memory reads and writes order one
//! processor against another; a private coin flip, a local computation or
//! a no-op commutes with every step of every other processor. A bank may
//! therefore execute a processor's *private* ops before their ticks
//! arrive ([`Port::prepay`](super::Port::prepay)): the processor's
//! prepaid count grows, and when the schedule later grants the processor
//! ticks, the dispatch loop settles them against that count first —
//! advancing `work`, `per_proc_work`, `ticks` and the op counter exactly
//! as spent credits would, in O(1) and without a resume — and resumes
//! only for the rest of the run. The run-ahead invariant:
//!
//! * a prepaid op changes only the processor's registers and its private
//!   RNG (a run may stop before the op's tick comes, so nothing it does
//!   may be visible outside the processor);
//! * a processor with prepaid ops holds no credits, and is resumed again
//!   only after all of them are settled, so its next shared-memory op
//!   still executes on the tick — and at the work instant — the per-tick
//!   engine would give it;
//! * a processor never completes while it holds prepaid ops (asserted).
//!
//! Async [`Ctx`] operations never prepay; only the bytecode VM does.
//! [`Machine::polls`] counts the resumes that remain.
//!
//! ## Invariants (checked by `tests/batch_determinism.rs`)
//!
//! * **Batch transparency** — a machine driven by any mix of [`Machine::tick`],
//!   [`Machine::run_ticks`], [`Machine::run_until`] and
//!   [`Machine::run_to_completion`] performs the *identical* sequence of
//!   (processor, atomic operation) pairs for every batch size, including
//!   the degenerate `batch_size = 1` reference configuration. Schedules
//!   are pure functions of their call count, prefetching decisions early
//!   cannot change them, and the queue hands them out one tick at a time.
//! * **Exact consumption** — `run_ticks(k)` executes exactly `k` ticks;
//!   prefetched-but-unexecuted decisions stay in the queue for the next
//!   call, so early exits (`run_to_completion` finishing mid-block) never
//!   skip or replay a decision.
//! * **Work accounting** — identical to the per-tick engine: one work unit
//!   per executed tick under [`IdlePolicy::CountAsWork`], one per live
//!   tick under [`IdlePolicy::Skip`], and `WriteEvent::work` equals the
//!   work counter at the instant of the write — prepaid ticks included,
//!   since they are settled on the ticks that grant them.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use crate::error::RunTimeout;
use crate::memory::{Region, SharedMemory, WriteHook};
use crate::metrics::WorkReport;
use crate::sched::{BoxedSchedule, ScheduleKind};
use crate::word::{ProcId, Stamped};

use super::bank::{Bank, Block, Core, Spawn, Wiring};
use super::ctx::Ctx;

/// Default number of schedule decisions prefetched per block.
pub const DEFAULT_BATCH: usize = 256;

/// What happens when the schedule grants a step to a processor whose
/// protocol future has completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IdlePolicy {
    /// The step is busy-waiting and counts as a work unit — the paper's
    /// accounting ("busy waiting and idling" count). Default.
    #[default]
    CountAsWork,
    /// The step is dropped silently (useful for harnesses that want to
    /// measure only live work).
    Skip,
}

/// Builder for a [`Machine`].
pub struct MachineBuilder {
    n: usize,
    mem_size: usize,
    seed: u64,
    schedule: Option<BoxedSchedule>,
    idle: IdlePolicy,
    batch: usize,
}

impl MachineBuilder {
    /// A machine with `n` processors and `mem_size` shared-memory cells.
    pub fn new(n: usize, mem_size: usize) -> Self {
        assert!(n > 0, "need at least one processor");
        MachineBuilder {
            n,
            mem_size,
            seed: 0xA93B_5EED,
            schedule: None,
            idle: IdlePolicy::default(),
            batch: DEFAULT_BATCH,
        }
    }

    /// Master seed; derives the schedule stream and all per-processor
    /// private random sources (see [`crate::rng`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Install a concrete adversary schedule (defaults to
    /// [`ScheduleKind::Uniform`]).
    pub fn schedule(mut self, s: BoxedSchedule) -> Self {
        assert_eq!(s.n(), self.n, "schedule built for wrong processor count");
        self.schedule = Some(s);
        self
    }

    /// Install an adversary by kind.
    pub fn schedule_kind(self, kind: &ScheduleKind) -> Self {
        let n = self.n;
        let seed = self.seed;
        self.schedule(kind.build(n, seed))
    }

    /// Install an adversary by compiling an algebra spec (the open-ended
    /// counterpart of [`MachineBuilder::schedule_kind`]; set the seed
    /// first, it feeds the spec's derived streams).
    pub fn schedule_spec(self, spec: &crate::sched::AdversarySpec) -> Self {
        let n = self.n;
        let seed = self.seed;
        self.schedule(spec.build(n, seed))
    }

    /// Policy for steps granted to completed processors.
    pub fn idle_policy(mut self, idle: IdlePolicy) -> Self {
        self.idle = idle;
        self
    }

    /// Schedule-prefetch block size (default [`DEFAULT_BATCH`]). The
    /// decision stream is identical for every value — see the module docs;
    /// `batch(1)` is the per-tick reference configuration used by the
    /// determinism regression suite.
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        self.batch = batch;
        self
    }

    /// Spawn all `n` processors from a factory and finish construction. The
    /// factory receives each processor's [`Ctx`] and returns its protocol
    /// future.
    pub fn build<F, Fut>(self, factory: F) -> Machine
    where
        F: FnMut(Ctx) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        self.spawn(factory)
    }

    /// Finish construction with the processor bank `processors` builds:
    /// a [`build`](MachineBuilder::build) factory, or a bank that holds its
    /// processors itself (the bytecode VM).
    pub fn spawn(self, processors: impl Spawn) -> Machine {
        let seed = self.seed;
        let schedule = self
            .schedule
            .unwrap_or_else(|| ScheduleKind::Uniform.build(self.n, seed));
        let work = Rc::new(Cell::new(0u64));
        let mut memory = SharedMemory::new(self.mem_size);
        memory.attach_now_source(work.clone());
        let mem = Rc::new(RefCell::new(memory));
        let bank = processors.spawn(Wiring::new(self.n, seed, mem.clone(), work.clone()));
        Machine {
            mem,
            bank,
            core: Core {
                work,
                per_proc_work: vec![0; self.n],
                ticks: 0,
                idle: self.idle,
                done: vec![false; self.n],
                live: self.n,
                polls: 0,
            },
            schedule,
            queue: Vec::with_capacity(self.batch),
            qpos: 0,
            batch: self.batch,
            block_hook: None,
        }
    }
}

/// The asynchronous host system: drives a bank of processors according to
/// the adversary schedule, one atomic operation per tick, dispatched in
/// prefetched blocks (see the module docs).
pub struct Machine {
    mem: Rc<RefCell<SharedMemory>>,
    bank: Box<dyn Bank>,
    core: Core,
    schedule: BoxedSchedule,
    /// Prefetched schedule decisions; `queue[qpos..]` are not yet executed.
    queue: Vec<ProcId>,
    qpos: usize,
    batch: usize,
    /// Telemetry observer called after each executed block (see
    /// [`Machine::set_block_hook`]); `None` costs one branch per block.
    block_hook: Option<Box<BlockHook>>,
}

/// Block-boundary observer: `(executed, total_ticks, total_work)` —
/// the ticks this block executed and the machine's cumulative tick and
/// work counters after it. Instrumentation only: the hook sees state,
/// it cannot change any.
pub type BlockHook = dyn FnMut(u64, u64, u64);

impl Machine {
    /// Number of processors.
    pub fn n(&self) -> usize {
        self.core.done.len()
    }

    /// Total work units performed so far (the paper's complexity measure).
    pub fn work(&self) -> u64 {
        self.core.work.get()
    }

    /// Work units per processor.
    pub fn per_proc_work(&self) -> &[u64] {
        &self.core.per_proc_work
    }

    /// Schedule ticks elapsed (equals `work()` under
    /// [`IdlePolicy::CountAsWork`]).
    pub fn ticks(&self) -> u64 {
        self.core.ticks
    }

    /// Processor resumes so far (for a future, one poll): one per
    /// coalesced run that is not wholly settled by prepaid ops (see the
    /// module docs). A deterministic function of the run's configuration,
    /// like `ticks`, but an engine cost rather than a model quantity — no
    /// report carries it.
    pub fn polls(&self) -> u64 {
        self.core.polls
    }

    /// Configured schedule-prefetch block size.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Whether every processor's protocol has completed (O(1)).
    pub fn all_done(&self) -> bool {
        self.core.live == 0
    }

    /// Number of processors whose protocol is still running.
    pub fn live_procs(&self) -> usize {
        self.core.live
    }

    /// Whether processor `p`'s protocol has completed.
    pub fn is_done(&self, p: ProcId) -> bool {
        self.core.done[p.0]
    }

    /// Refill the decision queue from the schedule. Consumed entries are
    /// dropped; unexecuted ones are preserved (exact-consumption
    /// invariant).
    fn refill_queue(&mut self) {
        debug_assert_eq!(self.qpos, self.queue.len(), "refill with pending decisions");
        self.queue.clear();
        self.queue.resize(self.batch, ProcId(0));
        self.schedule.next_batch(&mut self.queue);
        self.qpos = 0;
    }

    /// Hand the queued decisions `qpos..end` to the bank as one block;
    /// returns the number executed.
    fn dispatch(&mut self, end: usize, stop_when_done: bool) -> u64 {
        let mut block = Block::new(&mut self.core, &self.queue[self.qpos..end], stop_when_done);
        self.bank.run_block(&mut block);
        let executed = block.executed();
        assert!(
            executed > 0 || (stop_when_done && self.core.live == 0),
            "the processor bank did not run its block"
        );
        self.qpos += executed;
        executed as u64
    }

    /// Execute up to `max` queued ticks (refilling the queue once if it is
    /// empty); stops early when `stop_when_done` and every processor has
    /// completed. Returns the number of ticks executed.
    fn run_block(&mut self, max: u64, stop_when_done: bool) -> u64 {
        if stop_when_done && self.core.live == 0 {
            return 0;
        }
        if self.qpos == self.queue.len() {
            self.refill_queue();
        }
        let end = self.queue.len().min(
            self.qpos
                .saturating_add(max.min(usize::MAX as u64) as usize),
        );
        let executed = self.dispatch(end, stop_when_done);
        if executed > 0 {
            if let Some(hook) = &mut self.block_hook {
                hook(executed, self.core.ticks, self.core.work.get());
            }
        }
        executed
    }

    /// Install a block-boundary telemetry observer (replacing any
    /// previous one). The hook fires after every non-empty block run by
    /// [`Machine::run_ticks`] / [`Machine::run_until`] /
    /// [`Machine::run_to_completion`] with the executed tick count and
    /// the cumulative tick/work counters — operation-indexed data only,
    /// so observers stay deterministic. Per-tick stepping via
    /// [`Machine::tick`] does not fire it.
    pub fn set_block_hook(&mut self, hook: Box<BlockHook>) {
        self.block_hook = Some(hook);
    }

    /// Execute one schedule tick: the adversary names a processor, which
    /// performs exactly one atomic operation (or busy-waits if completed).
    /// Returns the processor that was scheduled.
    pub fn tick(&mut self) -> ProcId {
        if self.qpos == self.queue.len() {
            self.refill_queue();
        }
        let pid = self.queue[self.qpos];
        self.dispatch(self.qpos + 1, false);
        pid
    }

    /// Run exactly `k` ticks.
    pub fn run_ticks(&mut self, k: u64) {
        let mut remaining = k;
        while remaining > 0 {
            remaining -= self.run_block(remaining, false);
        }
    }

    /// Run until `pred` holds over the shared memory (checked every
    /// `check_every` ticks; the check is instrumentation and costs no work),
    /// or until `cap` total ticks have elapsed.
    ///
    /// Returns the total work at the moment the predicate first held.
    pub fn run_until<P>(
        &mut self,
        cap: u64,
        check_every: u64,
        mut pred: P,
    ) -> Result<u64, RunTimeout>
    where
        P: FnMut(&SharedMemory) -> bool,
    {
        assert!(check_every > 0);
        loop {
            if pred(&self.mem.borrow()) {
                return Ok(self.work());
            }
            if self.ticks() >= cap {
                return Err(RunTimeout {
                    work: self.work(),
                    ticks: self.ticks(),
                });
            }
            let burst = check_every.min(cap.saturating_sub(self.ticks())).max(1);
            self.run_ticks(burst);
        }
    }

    /// Run until all processor futures have completed (useful for finite
    /// protocols), with a tick cap. Stops on the exact tick the last
    /// processor completes, like the per-tick reference engine.
    pub fn run_to_completion(&mut self, cap: u64) -> Result<u64, RunTimeout> {
        while !self.all_done() {
            if self.ticks() >= cap {
                return Err(RunTimeout {
                    work: self.work(),
                    ticks: self.ticks(),
                });
            }
            self.run_block(cap - self.ticks(), true);
        }
        Ok(self.work())
    }

    /// Observer access to the shared memory (instrumentation).
    pub fn with_mem<R>(&self, f: impl FnOnce(&SharedMemory) -> R) -> R {
        f(&self.mem.borrow())
    }

    /// Mutable observer access to the shared memory — for installing hooks
    /// and test setup (instrumentation; changes no work accounting).
    pub fn with_mem_mut<R>(&mut self, f: impl FnOnce(&mut SharedMemory) -> R) -> R {
        f(&mut self.mem.borrow_mut())
    }

    /// Observer read of one cell (instrumentation).
    pub fn peek(&self, addr: usize) -> Stamped {
        self.mem.borrow().peek(addr)
    }

    /// Observer snapshot of a region (instrumentation).
    pub fn snapshot(&self, region: Region) -> Vec<Stamped> {
        self.mem.borrow().snapshot(region)
    }

    /// Test/setup write to a cell (instrumentation).
    pub fn poke(&self, addr: usize, w: Stamped) {
        self.mem.borrow_mut().poke(addr, w);
    }

    /// Install a write observer on the shared memory.
    pub fn add_write_hook(&self, hook: WriteHook) {
        self.mem.borrow_mut().add_write_hook(hook);
    }

    /// Work/ops accounting snapshot.
    pub fn report(&self) -> WorkReport {
        WorkReport {
            total_work: self.work(),
            ticks: self.ticks(),
            per_proc: self.core.per_proc_work.clone(),
            mem_reads: self.mem.borrow().total_reads(),
            mem_writes: self.mem.borrow().total_writes(),
        }
    }

    /// The adversary's self-description (for experiment reports).
    pub fn schedule_description(&self) -> String {
        self.schedule.describe()
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("n", &self.n())
            .field("work", &self.work())
            .field("ticks", &self.ticks())
            .field("batch", &self.batch)
            .field("live", &self.core.live)
            .field("schedule", &self.schedule.describe())
            .finish()
    }
}
