//! The asynchronous host machine `H`: `n` processors, a shared memory, an
//! oblivious adversary schedule, and exact work accounting.
//!
//! # The batched tick engine
//!
//! The machine executes schedule decisions in **blocks**. Decisions are
//! prefetched from the adversary through [`crate::sched::Schedule::next_batch`]
//! into an internal queue (one virtual call per block instead of one per
//! atomic step), and the inner dispatch loop hoists everything that is
//! tick-invariant: the poll `Context` is built once per block, the shared
//! memory's "now" tracks the work counter through a shared cell instead of
//! a per-tick `set_now` call, and per-processor credit/ops live in plain
//! `Cell`s.
//!
//! Consecutive decisions for the *same* processor (bursty bursts, busy-wait
//! tails on crashed/finished processors) are **run-coalesced**: the machine
//! grants the whole run of op credits at once and polls the protocol future
//! a single time, during which the protocol's `OpTick` leaf consumes the
//! credits op by op — advancing the work counter exactly as per-tick
//! polling would — until the run is exhausted. One poll per run instead of
//! one per tick is the engine's largest win under bursty adversaries.
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
//!   work counter at the instant of the write.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::error::RunTimeout;
use crate::memory::{Region, SharedMemory, WriteHook};
use crate::metrics::WorkReport;
use crate::rng::proc_rng;
use crate::sched::{BoxedSchedule, ScheduleKind};
use crate::word::{ProcId, Stamped};

use super::ctx::{Ctx, ProcState};

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

struct ProcSlot {
    fut: Option<Pin<Box<dyn Future<Output = ()>>>>,
    state: Rc<ProcState>,
}

struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
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
    pub fn build<F, Fut>(self, mut factory: F) -> Machine
    where
        F: FnMut(Ctx) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let seed = self.seed;
        let schedule = self
            .schedule
            .unwrap_or_else(|| ScheduleKind::Uniform.build(self.n, seed));
        let work = Rc::new(Cell::new(0u64));
        let mut memory = SharedMemory::new(self.mem_size);
        memory.attach_now_source(work.clone());
        let mem = Rc::new(RefCell::new(memory));
        let mut procs = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let state = Rc::new(ProcState::default());
            let ctx = Ctx::new(
                ProcId(i),
                mem.clone(),
                state.clone(),
                proc_rng(seed, i),
                work.clone(),
            );
            let fut: Pin<Box<dyn Future<Output = ()>>> = Box::pin(factory(ctx));
            procs.push(ProcSlot {
                fut: Some(fut),
                state,
            });
        }
        let live = procs.len();
        Machine {
            mem,
            procs,
            schedule,
            work,
            per_proc_work: vec![0; self.n],
            ticks: 0,
            idle: self.idle,
            waker: Waker::from(Arc::new(NoopWake)),
            queue: Vec::with_capacity(self.batch),
            qpos: 0,
            batch: self.batch,
            live,
            block_hook: None,
        }
    }
}

/// The asynchronous host system: drives processor futures according to the
/// adversary schedule, one atomic operation per tick, dispatched in
/// prefetched blocks (see the module docs).
pub struct Machine {
    mem: Rc<RefCell<SharedMemory>>,
    procs: Vec<ProcSlot>,
    schedule: BoxedSchedule,
    work: Rc<Cell<u64>>,
    per_proc_work: Vec<u64>,
    ticks: u64,
    idle: IdlePolicy,
    waker: Waker,
    /// Prefetched schedule decisions; `queue[qpos..]` are not yet executed.
    queue: Vec<ProcId>,
    qpos: usize,
    batch: usize,
    /// Processors whose protocol future has not completed.
    live: usize,
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
        self.procs.len()
    }

    /// Total work units performed so far (the paper's complexity measure).
    pub fn work(&self) -> u64 {
        self.work.get()
    }

    /// Work units per processor.
    pub fn per_proc_work(&self) -> &[u64] {
        &self.per_proc_work
    }

    /// Schedule ticks elapsed (equals `work()` under
    /// [`IdlePolicy::CountAsWork`]).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Configured schedule-prefetch block size.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Whether every processor's protocol future has completed (O(1)).
    pub fn all_done(&self) -> bool {
        self.live == 0
    }

    /// Number of processors whose protocol future is still running.
    pub fn live_procs(&self) -> usize {
        self.live
    }

    /// Whether processor `p`'s protocol future has completed.
    pub fn is_done(&self, p: ProcId) -> bool {
        self.procs[p.0].fut.is_none()
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

    /// Execute `run` consecutive decisions for the same processor in one
    /// poll (run coalescing). The innermost hot path — everything
    /// tick-invariant lives in the caller.
    ///
    /// Credits are charged inside the protocol's `OpTick` leaf (which also
    /// advances the work counter op by op), so granting a run of `k`
    /// credits and polling once is observably identical to `k` per-tick
    /// polls: the body code between two awaits runs at the same work
    /// instant either way, and no other processor can run during the run
    /// because the schedule granted it wholesale.
    /// Returns the ticks actually executed: always `run`, except when
    /// `truncate_on_done` and this run completed the *last* live future —
    /// then the run is cut at the completion tick (exactly where the
    /// per-tick reference loop of `run_to_completion` stops) and the
    /// unused decisions stay queued.
    #[inline(always)]
    fn step_run(
        &mut self,
        pid: ProcId,
        run: u64,
        cx: &mut Context<'_>,
        truncate_on_done: bool,
    ) -> u64 {
        let slot = &mut self.procs[pid.0];
        match slot.fut.as_mut() {
            None => {
                // Completed-processor fast path: busy-wait accounting for
                // the whole run in O(1), no credit handshake, no poll.
                if self.idle == IdlePolicy::CountAsWork {
                    self.work.set(self.work.get() + run);
                    self.per_proc_work[pid.0] += run;
                }
                self.ticks += run;
                run
            }
            Some(fut) => {
                slot.state.credit.set(run);
                match fut.as_mut().poll(cx) {
                    Poll::Ready(()) => {
                        // The future completed mid-run after consuming
                        // `run - leftover` ops; completion happens on the
                        // last consuming tick, and the rest of the run is
                        // busy-waiting. Exception: an await-free protocol
                        // completes on its first granted tick without
                        // consuming — the per-tick reference charges that
                        // live poll tick under both idle policies.
                        let leftover = slot.state.credit.get();
                        slot.state.credit.set(0);
                        slot.fut = None;
                        self.live -= 1;
                        let consumed = run - leftover;
                        let first_poll_tick = u64::from(consumed == 0);
                        if truncate_on_done && self.live == 0 {
                            let used = consumed + first_poll_tick;
                            self.work.set(self.work.get() + first_poll_tick);
                            self.per_proc_work[pid.0] += used;
                            self.ticks += used;
                            return used;
                        }
                        match self.idle {
                            IdlePolicy::CountAsWork => {
                                self.work.set(self.work.get() + leftover);
                                self.per_proc_work[pid.0] += run;
                            }
                            IdlePolicy::Skip => {
                                self.work.set(self.work.get() + first_poll_tick);
                                self.per_proc_work[pid.0] += consumed + first_poll_tick;
                            }
                        }
                        self.ticks += run;
                        run
                    }
                    Poll::Pending => {
                        assert_eq!(
                            slot.state.credit.get(),
                            0,
                            "protocol on {pid} yielded without performing an atomic operation \
                             (protocols must only await Ctx operations)"
                        );
                        // All `run` credits were consumed (and charged to
                        // the work counter by OpTick).
                        self.per_proc_work[pid.0] += run;
                        self.ticks += run;
                        run
                    }
                }
            }
        }
    }

    /// Execute up to `max` queued ticks (refilling the queue once if it is
    /// empty); stops early when `stop_when_done` and every processor has
    /// completed. Returns the number of ticks executed.
    fn run_block(&mut self, max: u64, stop_when_done: bool) -> u64 {
        if stop_when_done && self.live == 0 {
            return 0;
        }
        if self.qpos == self.queue.len() {
            self.refill_queue();
        }
        let end = self.queue.len().min(
            self.qpos
                .saturating_add(max.min(usize::MAX as u64) as usize),
        );
        // Detach the queue so the dispatch loop can borrow `self` mutably;
        // the queue is plain data and nothing re-enters the machine.
        let queue = std::mem::take(&mut self.queue);
        let waker = self.waker.clone();
        let mut cx = Context::from_waker(&waker);
        let mut i = self.qpos;
        while i < end {
            let pid = queue[i];
            // Coalesce the run of consecutive decisions for `pid` (runs
            // never cross the block/budget boundary, so exact tick
            // consumption is preserved).
            let mut run = 1usize;
            while i + run < end && queue[i + run] == pid {
                run += 1;
            }
            let used = self.step_run(pid, run as u64, &mut cx, stop_when_done);
            i += used as usize;
            if stop_when_done && self.live == 0 {
                break;
            }
        }
        let executed = (i - self.qpos) as u64;
        self.qpos = i;
        self.queue = queue;
        if executed > 0 {
            if let Some(hook) = &mut self.block_hook {
                hook(executed, self.ticks, self.work.get());
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
    /// [`Machine::tick`] bypasses blocks and does not fire it.
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
        self.qpos += 1;
        let waker = self.waker.clone();
        let mut cx = Context::from_waker(&waker);
        self.step_run(pid, 1, &mut cx, false);
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
            if self.ticks >= cap {
                return Err(RunTimeout {
                    work: self.work(),
                    ticks: self.ticks,
                });
            }
            let burst = check_every.min(cap.saturating_sub(self.ticks)).max(1);
            self.run_ticks(burst);
        }
    }

    /// Run until all processor futures have completed (useful for finite
    /// protocols), with a tick cap. Stops on the exact tick the last
    /// processor completes, like the per-tick reference engine.
    pub fn run_to_completion(&mut self, cap: u64) -> Result<u64, RunTimeout> {
        while self.live > 0 {
            if self.ticks >= cap {
                return Err(RunTimeout {
                    work: self.work(),
                    ticks: self.ticks,
                });
            }
            self.run_block(cap - self.ticks, true);
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
            ticks: self.ticks,
            per_proc: self.per_proc_work.clone(),
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
            .field("ticks", &self.ticks)
            .field("batch", &self.batch)
            .field("live", &self.live)
            .field("schedule", &self.schedule.describe())
            .finish()
    }
}
