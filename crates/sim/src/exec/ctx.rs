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

/// Per-processor executor state shared between the future bank and the
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
    /// Atomic operations executed by this processor.
    pub(crate) ops: Cell<u64>,
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
        self.state.ops.get()
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
