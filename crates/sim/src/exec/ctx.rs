//! Processor context: the only gateway from protocol code to the machine.
//!
//! Protocol code is written as ordinary `async` Rust against a [`Ctx`]. Every
//! atomic operation of the model — shared-memory read, shared-memory write,
//! one basic computation, a draw from the private random source, or an
//! explicit no-op — is one `await` that consumes exactly one *op credit*.
//! The machine grants one credit per schedule tick, so
//!
//! > one schedule tick ⇔ one atomic operation ⇔ one work unit,
//!
//! which is precisely the paper's accounting ("total work … including steps
//! from busy waiting").
//!
//! Local control flow between `await`s (register moves, branches) is free, as
//! in the model, where a step is one atomic operation and processors have a
//! small set of internal registers.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use rand::prelude::*;
use rand::rngs::SmallRng;

use crate::memory::SharedMemory;
use crate::word::{ProcId, Stamped};

/// Per-processor executor state shared between the machine and the
/// processor's [`Ctx`].
///
/// `Cell` fields instead of a `RefCell` wrapper: the credit handshake is
/// on the machine's innermost loop (touched twice per live tick), and a
/// plain `Cell` store/load compiles to a move with no borrow-flag
/// bookkeeping. Single-threaded by construction — the machine and all of
/// its processors live on one thread.
#[derive(Debug, Default)]
pub(crate) struct ProcState {
    /// Op credits remaining for the current poll. Usually 1; the machine
    /// grants a whole *run* of credits when the schedule hands this
    /// processor several consecutive ticks, and the protocol then executes
    /// the entire run inside one poll (run coalescing — see the machine
    /// module docs).
    pub(crate) credit: Cell<u64>,
    /// Atomic operations executed by this processor whose ticks have been
    /// granted.
    pub(crate) ops: Cell<u64>,
    /// Private operations an engine ran ahead of their ticks
    /// ([`GateSession::prepay`]); the machine settles them against the
    /// processor's next granted ticks before it polls again. Nonzero only
    /// while `credit` is zero.
    pub(crate) prepaid: Cell<u64>,
}

impl ProcState {
    /// Atomic operations executed so far, prepaid ones included.
    #[inline]
    pub(crate) fn executed(&self) -> u64 {
        self.ops.get().saturating_add(self.prepaid.get())
    }
}

/// Handle through which a protocol performs its atomic operations.
///
/// Cloning is cheap (reference-counted); a protocol typically moves one clone
/// into its `async` body.
#[derive(Clone)]
pub struct Ctx {
    id: ProcId,
    mem: Rc<RefCell<SharedMemory>>,
    state: Rc<ProcState>,
    rng: Rc<RefCell<SmallRng>>,
    work: Rc<Cell<u64>>,
}

impl Ctx {
    pub(crate) fn new(
        id: ProcId,
        mem: Rc<RefCell<SharedMemory>>,
        state: Rc<ProcState>,
        rng: SmallRng,
        work: Rc<Cell<u64>>,
    ) -> Self {
        Ctx {
            id,
            mem,
            state,
            rng: Rc::new(RefCell::new(rng)),
            work,
        }
    }

    /// This processor's identity.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Number of processors… is not known to a `Ctx`; protocols receive it as
    /// a parameter, mirroring the model where `n` is a program constant.
    ///
    /// Atomic operations executed so far by this processor (free to query —
    /// a processor may keep a step counter in a register).
    #[inline]
    pub fn ops(&self) -> u64 {
        self.state.executed()
    }

    /// Global work counter (instrumentation only: protocols must not branch
    /// on it; experiments use it to timestamp events).
    #[inline]
    pub fn work_now(&self) -> u64 {
        self.work.get()
    }

    /// Await one op credit (one schedule tick granted to this processor).
    #[inline]
    fn tick(&self) -> OpTick<'_> {
        OpTick {
            state: &self.state,
            work: &self.work,
        }
    }

    /// Atomic operation: read the stamped word at `addr`.
    pub async fn read(&self, addr: usize) -> Stamped {
        self.tick().await;
        self.mem.borrow_mut().load(addr, self.id)
    }

    /// Atomic operation: write the stamped word `w` to `addr`.
    pub async fn write(&self, addr: usize, w: Stamped) {
        self.tick().await;
        self.mem.borrow_mut().store(addr, w, self.id);
    }

    /// Atomic operation: one basic computation on local registers (add,
    /// multiply, compare, …). The computation itself is performed by the
    /// surrounding Rust code; this op accounts for its cost.
    pub async fn compute(&self) {
        self.tick().await;
    }

    /// `k` consecutive basic computations.
    pub async fn charge(&self, k: u64) {
        for _ in 0..k {
            self.tick().await;
        }
    }

    /// Atomic operation: an explicit no-op (busy waiting / padding). The
    /// agreement protocol pads every cycle to exactly ω steps with these.
    pub async fn nop(&self) {
        self.tick().await;
    }

    /// Atomic operation: draw a uniform value in `[0, bound)` from this
    /// processor's private random source.
    ///
    /// # Panics
    /// If `bound == 0`.
    pub async fn rand_below(&self, bound: u64) -> u64 {
        assert!(bound > 0, "rand_below(0)");
        self.tick().await;
        self.rng.borrow_mut().gen_range(0..bound)
    }

    /// Atomic operation: draw a uniform 64-bit word from the private random
    /// source.
    pub async fn rand_u64(&self) -> u64 {
        self.tick().await;
        self.rng.borrow_mut().gen()
    }

    /// **Model-violating** compound atomic compare-and-swap. The paper's
    /// model explicitly has *no* operation that both reads and writes shared
    /// memory ("no compound operation such as test∧set or compare∧swap is
    /// atomic"). Provided solely for the `ideal-cas` *cheating baseline*
    /// (DESIGN.md §6) that lower-bounds what hardware RMW would give.
    /// Costs one work unit. Returns the previous cell content.
    pub async fn cas(&self, addr: usize, expect: Stamped, new: Stamped) -> Stamped {
        self.tick().await;
        self.mem.borrow_mut().cas(addr, expect, new, self.id)
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("id", &self.id)
            .field("ops", &self.ops())
            .finish()
    }
}

/// Synchronous gateway to the same per-processor machinery a [`Ctx`] wraps,
/// for engines that execute many atomic operations per poll without the
/// `async` state machine (the bytecode VM).
///
/// An `EngineGate` shares the processor's credit cell, op counter, shared
/// memory, private random source, and the global work counter with the `Ctx`
/// it was derived from. Every atomic operation goes through a
/// [`GateSession`] opened with [`EngineGate::session`], so an engine performs
/// the *identical* sequence of (credit, op-count, work, memory, RNG)
/// transitions as `async` protocol code awaiting `Ctx` operations —
/// read/write counters, write-event stamps, and the random stream all match
/// op for op.
#[derive(Clone)]
pub struct EngineGate {
    id: ProcId,
    mem: Rc<RefCell<SharedMemory>>,
    state: Rc<ProcState>,
    rng: Rc<RefCell<SmallRng>>,
    work: Rc<Cell<u64>>,
}

impl EngineGate {
    /// Derive a gate from a processor's context. The gate aliases the
    /// context's state; interleaving gated operations with `Ctx` awaits on
    /// the same processor is well-defined (both consume the same credits).
    pub fn new(ctx: &Ctx) -> Self {
        EngineGate {
            id: ctx.id,
            mem: ctx.mem.clone(),
            state: ctx.state.clone(),
            rng: ctx.rng.clone(),
            work: ctx.work.clone(),
        }
    }

    /// This processor's identity.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Borrow the shared memory and RNG for the duration of one poll. See
    /// [`GateSession`].
    ///
    /// # Panics
    /// If the memory or RNG is already borrowed (a session is still live,
    /// or protocol code is mid-operation — neither can happen from the
    /// machine's poll loop).
    #[inline]
    pub fn session(&self) -> GateSession<'_> {
        GateSession {
            id: self.id,
            mem: self.mem.borrow_mut(),
            rng: self.rng.borrow_mut(),
            state: &self.state,
            work: &self.work,
        }
    }
}

impl std::fmt::Debug for EngineGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineGate").field("id", &self.id).finish()
    }
}

/// One poll's access to an [`EngineGate`]: the shared memory and the
/// private RNG are borrowed **once per poll** instead of once per
/// operation.
///
/// Acquire with [`EngineGate::session`] at poll entry and drop before
/// returning — the machine (and any instrumentation hooks outside the
/// poll) must be able to reborrow.
///
/// The contract is the machine's credit protocol, plus run-ahead:
///
/// * A shared-memory operation ([`load`](GateSession::load),
///   [`store`](GateSession::store), [`cas`](GateSession::cas)) needs a
///   credit: call [`take_credit`](GateSession::take_credit) first; when it
///   returns `false`, return `Poll::Pending` without performing further
///   effects and resume at the same operation on the next poll.
/// * A *private* operation (a draw from the private RNG, a local
///   computation, a no-op) may instead be charged with
///   [`prepay`](GateSession::prepay): it runs now, and its tick is settled
///   by the machine when the schedule grants it, without a poll. A
///   prepaid op may change only the engine's registers and the private
///   RNG — a run can stop before the op's tick ever comes, so nothing it
///   does may be observable outside the processor.
pub struct GateSession<'a> {
    id: ProcId,
    mem: std::cell::RefMut<'a, SharedMemory>,
    rng: std::cell::RefMut<'a, SmallRng>,
    state: &'a ProcState,
    work: &'a Cell<u64>,
}

impl GateSession<'_> {
    /// Atomic operations executed so far by this processor, prepaid ones
    /// included (free to query, like [`Ctx::ops`]).
    #[inline]
    pub fn ops(&self) -> u64 {
        self.state.executed()
    }

    /// Private operations run ahead whose ticks the machine has not yet
    /// settled.
    #[inline]
    pub fn prepaid(&self) -> u64 {
        self.state.prepaid.get()
    }

    /// Consume one op credit if available, advancing the op and work
    /// counters exactly as a `Ctx` await does. Returns `false` when the
    /// current run of credits is exhausted.
    #[inline]
    pub fn take_credit(&mut self) -> bool {
        let credit = self.state.credit.get();
        if credit > 0 {
            self.state.credit.set(credit - 1);
            self.state.ops.set(self.state.ops.get() + 1);
            self.work.set(self.work.get() + 1);
            true
        } else {
            false
        }
    }

    /// Charge `k` consecutive *private* operations. As many as the current
    /// credit run covers are consumed now, exactly like `k` calls to
    /// [`take_credit`](GateSession::take_credit); the rest are prepaid and
    /// settled against this processor's next granted ticks (saturating:
    /// `prepay(u64::MAX)` busy-waits forever without another poll).
    ///
    /// Within one granted run no other processor executes, and a prepaid
    /// op touches nothing another processor can see, so charging its tick
    /// later is observably identical to executing it then.
    #[inline]
    pub fn prepay(&mut self, k: u64) {
        let st = self.state;
        let now = st.credit.get().min(k);
        if now > 0 {
            st.credit.set(st.credit.get() - now);
            st.ops.set(st.ops.get() + now);
            self.work.set(self.work.get() + now);
        }
        st.prepaid.set(st.prepaid.get().saturating_add(k - now));
    }

    /// The shared-memory effect of [`Ctx::read`]. Call after
    /// [`take_credit`](GateSession::take_credit).
    #[inline]
    pub fn load(&mut self, addr: usize) -> Stamped {
        self.mem.load(addr, self.id)
    }

    /// The shared-memory effect of [`Ctx::write`]. Call after
    /// [`take_credit`](GateSession::take_credit).
    #[inline]
    pub fn store(&mut self, addr: usize, w: Stamped) {
        self.mem.store(addr, w, self.id);
    }

    /// The shared-memory effect of [`Ctx::cas`]. Call after
    /// [`take_credit`](GateSession::take_credit).
    #[inline]
    pub fn cas(&mut self, addr: usize, expect: Stamped, new: Stamped) -> Stamped {
        self.mem.cas(addr, expect, new, self.id)
    }

    /// The RNG effect of [`Ctx::rand_below`]: a private operation.
    ///
    /// # Panics
    /// If `bound == 0`.
    #[inline]
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "rand_below(0)");
        self.rng.gen_range(0..bound)
    }
}

/// Leaf future implementing the credit protocol: completes exactly when an
/// op credit is available, consuming it; otherwise yields to the executor.
///
/// Consuming a credit advances the global work counter — the op *is* the
/// work unit, and charging it here (instead of once per tick in the
/// machine) is what lets the machine grant a multi-tick run of credits in
/// a single poll while `work_now()` and write-event stamps still advance
/// op by op, exactly as under per-tick polling.
struct OpTick<'a> {
    state: &'a ProcState,
    work: &'a Cell<u64>,
}

impl Future for OpTick<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let st = self.state;
        let credit = st.credit.get();
        if credit > 0 {
            st.credit.set(credit - 1);
            st.ops.set(st.ops.get() + 1);
            self.work.set(self.work.get() + 1);
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}
