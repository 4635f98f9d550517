//! Processor banks: what the machine's dispatch loop drives.
//!
//! A [`Bank`] owns all `n` processors of a machine. The machine hands it
//! each prefetched decision block in one call ([`Bank::run_block`]); the
//! bank borrows whatever its processors share once for the block, and
//! passes a per-block view of them (a [`Processors`]) to [`Block::run`].
//! That loop is the only dispatch loop: run coalescing, prepaid
//! settlement and work/tick/poll accounting are written once, here, and
//! instantiated per bank.
//!
//! Two banks exist:
//!
//! * async protocols written against [`Ctx`], one boxed future per
//!   processor (the tree walker, the agreement protocol, every test
//!   protocol), built by [`MachineBuilder::build`](super::MachineBuilder::build):
//!   a resume is one poll, and credits, op counters and the private RNG
//!   live behind the processor's `Ctx`;
//! * the bytecode VM (`apex-bc`), which holds its register files, one
//!   [`Account`] and one private RNG per processor as plain fields, and
//!   borrows the shared memory and the work counter once per block
//!   ([`Wiring::with_port`]).
//!
//! [`Spawn`] is what populates a machine with either
//! ([`MachineBuilder::spawn`](super::MachineBuilder::spawn)).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use rand::rngs::SmallRng;

use crate::memory::SharedMemory;
use crate::rng::proc_rng;
use crate::word::{ProcId, Stamped};

use super::ctx::{Ctx, ProcState};

/// How a resumed processor handed control back to the dispatch loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resumed {
    /// It waits for its next granted tick. A processor yields only once
    /// its run of credits is spent: yielding with credit left panics.
    Yielded {
        /// Credits of the run not spent (must be zero).
        credit_left: u64,
    },
    /// Its protocol finished, with `credit_left` of the run unused.
    Completed {
        /// Credits of the run not spent.
        credit_left: u64,
    },
}

/// A bank's processors as the dispatch loop sees them for one block.
pub trait Processors {
    /// Private ops processor `p` ran ahead whose ticks the dispatch loop
    /// has not settled yet (see the machine docs on run-ahead). Banks that
    /// never run ahead keep the default.
    #[inline]
    fn prepaid(&self, p: usize) -> u64 {
        let _ = p;
        0
    }

    /// Settle `k <= prepaid(p)` of them on ticks the schedule just
    /// granted `p`.
    fn settle(&mut self, p: usize, k: u64) {
        unreachable!("processor {p} settled {k} ops it never prepaid");
    }

    /// Resume processor `p` with a run of `credit` op credits. Each credit
    /// it spends is one atomic operation and one work unit, charged at
    /// the instant of the op ([`Port::take_credit`], or the `await` of a
    /// [`Ctx`] operation).
    fn resume(&mut self, p: usize, credit: u64) -> Resumed;
}

/// All `n` processors of a machine.
pub trait Bank {
    /// Execute one decision block: borrow what the processors share, once,
    /// and call [`Block::run`] on them exactly once.
    fn run_block(&mut self, block: &mut Block<'_>);
}

/// What populates a machine's [`Bank`]. Every `FnMut(Ctx) -> impl Future`
/// is one (one boxed future per processor); the bytecode VM is another.
pub trait Spawn {
    /// Build the bank of `wiring.n()` processors.
    fn spawn(self, wiring: Wiring) -> Box<dyn Bank>;
}

/// What a bank's processors share with their machine: the shared memory,
/// the global work counter, and the master seed of the private random
/// sources.
pub struct Wiring {
    n: usize,
    seed: u64,
    mem: Rc<RefCell<SharedMemory>>,
    work: Rc<Cell<u64>>,
}

impl Wiring {
    pub(crate) fn new(
        n: usize,
        seed: u64,
        mem: Rc<RefCell<SharedMemory>>,
        work: Rc<Cell<u64>>,
    ) -> Self {
        Wiring { n, seed, mem, work }
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Processor `p`'s private random source: the stream its [`Ctx`]
    /// would draw from ([`proc_rng`]).
    pub fn rng(&self, p: usize) -> SmallRng {
        proc_rng(self.seed, p)
    }

    /// Borrow the shared memory and the work counter for one block, and
    /// run `f` on them.
    ///
    /// # Panics
    /// If the memory is already borrowed (an observer holding a borrow
    /// across a dispatch).
    #[inline]
    pub fn with_port<R>(&self, f: impl FnOnce(Port<'_>) -> R) -> R {
        let mut mem = self.mem.borrow_mut();
        f(Port {
            mem: &mut mem,
            work: &self.work,
        })
    }

    fn ctx(&self, p: usize, state: Rc<ProcState>) -> Ctx {
        Ctx::new(
            ProcId(p),
            self.mem.clone(),
            state,
            self.rng(p),
            self.work.clone(),
        )
    }
}

/// One processor's op accounting as plain fields, for banks that hold
/// their processors' state themselves: the run of credits the dispatch
/// loop granted, the ops executed, and the ops run ahead of their ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Account {
    credit: u64,
    ops: u64,
    prepaid: u64,
}

impl Account {
    /// Open a run of `credit` granted op credits (the argument of
    /// [`Processors::resume`]).
    #[inline]
    pub fn grant(&mut self, credit: u64) {
        self.credit = credit;
    }

    /// Credits of the current run not yet spent.
    #[inline]
    pub fn credit(&self) -> u64 {
        self.credit
    }

    /// Atomic operations executed so far, prepaid ones included (free to
    /// query, like [`Ctx::ops`]).
    #[inline]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Ops run ahead whose ticks are not settled yet
    /// ([`Processors::prepaid`]).
    #[inline]
    pub fn prepaid(&self) -> u64 {
        self.prepaid
    }

    /// Settle `k` prepaid ops ([`Processors::settle`]).
    #[inline]
    pub fn settle(&mut self, k: u64) {
        debug_assert!(k <= self.prepaid, "settled {k} > prepaid {}", self.prepaid);
        self.prepaid -= k;
    }
}

/// One block's access to the shared memory and the work counter, borrowed
/// once ([`Wiring::with_port`]).
///
/// The contract is the machine's credit protocol, plus run-ahead:
///
/// * A shared-memory operation ([`load`](Port::load),
///   [`store`](Port::store), [`cas`](Port::cas)) needs a credit: call
///   [`take_credit`](Port::take_credit) first; when it returns `false`,
///   yield without further effects and resume at the same operation.
/// * A *private* operation (a draw from the private RNG, a local
///   computation, a no-op) may instead be charged with
///   [`prepay`](Port::prepay): it runs now, and the dispatch loop settles
///   its tick when the schedule grants it, without resuming the
///   processor. A prepaid op may change only the processor's registers
///   and its private RNG: a run can stop before the op's tick ever comes,
///   so nothing it does may be observable outside the processor.
pub struct Port<'a> {
    mem: &'a mut SharedMemory,
    work: &'a Cell<u64>,
}

impl Port<'_> {
    /// The same port for a shorter borrow (one processor's resume).
    #[inline]
    pub fn reborrow(&mut self) -> Port<'_> {
        Port {
            mem: self.mem,
            work: self.work,
        }
    }

    /// Spend one credit of `a`'s run, advancing its op count and the work
    /// counter exactly as a [`Ctx`] await does. Returns `false` when the
    /// run is spent.
    #[inline]
    pub fn take_credit(&self, a: &mut Account) -> bool {
        if a.credit > 0 {
            a.credit -= 1;
            a.ops += 1;
            self.work.set(self.work.get() + 1);
            true
        } else {
            false
        }
    }

    /// Charge `k` consecutive *private* operations to `a`. As many as the
    /// current run covers are spent now, exactly like `k` calls to
    /// [`take_credit`](Port::take_credit); the rest are prepaid and settled
    /// against the processor's next granted ticks (saturating:
    /// `prepay(a, u64::MAX)` busy-waits forever without another resume).
    ///
    /// Within one granted run no other processor executes, and a prepaid
    /// op touches nothing another processor can see, so charging its tick
    /// later is observably identical to executing it then.
    #[inline]
    pub fn prepay(&self, a: &mut Account, k: u64) {
        let now = a.credit.min(k);
        if now > 0 {
            a.credit -= now;
            self.work.set(self.work.get() + now);
        }
        a.ops = a.ops.saturating_add(k);
        a.prepaid = a.prepaid.saturating_add(k - now);
    }

    /// The shared-memory effect of [`Ctx::read`] by `who`. Call after
    /// [`take_credit`](Port::take_credit).
    #[inline]
    pub fn load(&mut self, addr: usize, who: ProcId) -> Stamped {
        self.mem.load(addr, who)
    }

    /// The shared-memory effect of [`Ctx::write`] by `who`. Call after
    /// [`take_credit`](Port::take_credit).
    #[inline]
    pub fn store(&mut self, addr: usize, w: Stamped, who: ProcId) {
        self.mem.store(addr, w, who);
    }

    /// The shared-memory effect of [`Ctx::cas`] by `who`. Call after
    /// [`take_credit`](Port::take_credit).
    #[inline]
    pub fn cas(&mut self, addr: usize, expect: Stamped, new: Stamped, who: ProcId) -> Stamped {
        self.mem.cas(addr, expect, new, who)
    }
}

/// The machine's accounting, which only the dispatch loop advances.
pub(crate) struct Core {
    pub(crate) work: Rc<Cell<u64>>,
    pub(crate) per_proc_work: Vec<u64>,
    pub(crate) ticks: u64,
    /// Processors whose protocol has completed.
    pub(crate) done: Vec<bool>,
    /// Processors whose protocol has not completed.
    pub(crate) live: usize,
    pub(crate) polls: u64,
}

impl Core {
    /// Execute `run` consecutive decisions for processor `p` with at most
    /// one resume (run coalescing). The innermost hot path — everything
    /// tick-invariant lives in the caller.
    ///
    /// Ticks owed to prepaid ops are settled first, without a resume (see
    /// the machine docs); the rest of the run is granted as credits.
    /// Credits are charged op by op as the processor spends them (which
    /// also advances the work counter), so granting a run of `k` credits
    /// and resuming once is observably identical to `k` per-tick resumes:
    /// the code between two ops runs at the same work instant either way,
    /// and no other processor can run during the run because the schedule
    /// granted it wholesale.
    ///
    /// Returns the ticks actually executed (the caller adds them to
    /// `ticks`): always `run`, except when
    /// `truncate_on_done` and this run completed the *last* live
    /// processor — then the run is cut at the completion tick (exactly
    /// where the per-tick reference loop of `run_to_completion` stops) and
    /// the unused decisions stay queued.
    #[inline(always)]
    fn step_run<P: Processors + ?Sized>(
        &mut self,
        procs: &mut P,
        pid: ProcId,
        run: u64,
        truncate_on_done: bool,
    ) -> u64 {
        let p = pid.0;
        let work = &*self.work;
        // Prepaid fast path: each tick settles one op the processor already
        // ran ahead, in O(1) and exactly as a spent credit would. (A
        // completed processor holds no prepaid ops.)
        let settled = procs.prepaid(p).min(run);
        if settled > 0 {
            procs.settle(p, settled);
            work.set(work.get() + settled);
            self.per_proc_work[p] += settled;
            if settled == run {
                return run;
            }
        }
        let run = run - settled;
        if self.done[p] {
            // Completed-processor fast path: busy-wait accounting for the
            // whole run in O(1), no resume.
            work.set(work.get() + run);
            self.per_proc_work[p] += run;
            return run;
        }
        self.polls += 1;
        match procs.resume(p, run) {
            Resumed::Completed { credit_left } => {
                assert_eq!(
                    procs.prepaid(p),
                    0,
                    "protocol on {pid} completed while holding prepaid ops"
                );
                // The protocol completed mid-run after spending
                // `run - credit_left` ops; completion happens on the last
                // spending tick, and the rest of the run is busy-waiting.
                // Exception: an await-free protocol completes on its first
                // granted tick without spending — the per-tick reference
                // charges that live tick.
                self.done[p] = true;
                self.live -= 1;
                let consumed = run - credit_left;
                let first_poll_tick = u64::from(consumed == 0);
                if truncate_on_done && self.live == 0 {
                    let used = consumed + first_poll_tick;
                    work.set(work.get() + first_poll_tick);
                    self.per_proc_work[p] += used;
                    return settled + used;
                }
                work.set(work.get() + credit_left);
                self.per_proc_work[p] += run;
                settled + run
            }
            Resumed::Yielded { credit_left } => {
                assert_eq!(
                    credit_left, 0,
                    "protocol on {pid} yielded holding op credits without performing \
                     an atomic operation (protocols must only await Ctx operations)"
                );
                // All `run` credits were spent, and charged to the work
                // counter as they were.
                self.per_proc_work[p] += run;
                settled + run
            }
        }
    }
}

/// One prefetched block of schedule decisions, handed to a [`Bank`].
pub struct Block<'a> {
    core: &'a mut Core,
    decisions: &'a [ProcId],
    stop_when_done: bool,
    executed: usize,
}

impl<'a> Block<'a> {
    pub(crate) fn new(core: &'a mut Core, decisions: &'a [ProcId], stop_when_done: bool) -> Self {
        Block {
            core,
            decisions,
            stop_when_done,
            executed: 0,
        }
    }

    /// Decisions executed so far.
    pub(crate) fn executed(&self) -> usize {
        self.executed
    }

    /// Execute the block's decisions on `procs`: coalesce each run of
    /// consecutive decisions for one processor (runs never cross the block,
    /// so exact tick consumption is preserved), settle its prepaid ops, and
    /// resume it for the rest. Stops early when the machine runs to
    /// completion and the last processor completes.
    #[inline]
    pub fn run<P: Processors + ?Sized>(&mut self, procs: &mut P) {
        let q = self.decisions;
        let stop = self.stop_when_done;
        let mut i = self.executed;
        while i < q.len() {
            let pid = q[i];
            let mut run = 1usize;
            while i + run < q.len() && q[i + run] == pid {
                run += 1;
            }
            i += self.core.step_run(procs, pid, run as u64, stop) as usize;
            if stop && self.core.live == 0 {
                break;
            }
        }
        self.core.ticks += (i - self.executed) as u64;
        self.executed = i;
    }
}

type ProcFuture = Pin<Box<dyn Future<Output = ()>>>;

/// The bank of async protocols: one boxed future per processor, polled
/// once per resume.
struct FutureBank {
    futs: Vec<Option<ProcFuture>>,
    states: Vec<Rc<ProcState>>,
}

impl<F, Fut> Spawn for F
where
    F: FnMut(Ctx) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    fn spawn(mut self, wiring: Wiring) -> Box<dyn Bank> {
        let states: Vec<Rc<ProcState>> = (0..wiring.n()).map(|_| Rc::default()).collect();
        let futs = states
            .iter()
            .enumerate()
            .map(|(p, state)| Some(Box::pin(self(wiring.ctx(p, state.clone()))) as ProcFuture))
            .collect();
        Box::new(FutureBank { futs, states })
    }
}

impl Bank for FutureBank {
    fn run_block(&mut self, block: &mut Block<'_>) {
        block.run(&mut Polling {
            futs: &mut self.futs,
            states: &self.states,
            cx: Context::from_waker(Waker::noop()),
        });
    }
}

/// A [`FutureBank`] for one block: the poll `Context` is built once.
struct Polling<'a, 'w> {
    futs: &'a mut [Option<ProcFuture>],
    states: &'a [Rc<ProcState>],
    cx: Context<'w>,
}

impl Processors for Polling<'_, '_> {
    #[inline]
    fn resume(&mut self, p: usize, credit: u64) -> Resumed {
        let state = &*self.states[p];
        state.credit.set(credit);
        let slot = &mut self.futs[p];
        let fut = slot
            .as_mut()
            .expect("dispatch resumed a completed processor");
        match fut.as_mut().poll(&mut self.cx) {
            Poll::Ready(()) => {
                *slot = None;
                Resumed::Completed {
                    credit_left: state.credit.replace(0),
                }
            }
            Poll::Pending => Resumed::Yielded {
                credit_left: state.credit.get(),
            },
        }
    }
}
