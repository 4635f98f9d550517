//! The bytecode VM: a processor bank of flat, resumable register files.
//!
//! Determinism contract: for every processor the VM performs the *identical*
//! sequence of atomic operations — same kinds, same addresses, same RNG
//! draws — as the tree-walking [`SchemeProcessor`](apex_scheme::SchemeProcessor)
//! under the same schedule and seed. Since work/tick accounting, memory
//! stamps, read/write counters, and event counters are all functions of
//! that sequence, every observable report is byte-identical; the tree
//! walker remains the oracle and `tests/bytecode_determinism.rs` enforces
//! the equivalence.
//!
//! Mechanically the VM is one [`Bank`] for all `n` processors, not `n`
//! futures: each processor is a hand-rolled state machine — one
//! micro-state ([`St`]) per atomic operation, a dense `match` dispatch,
//! and all protocol registers held as plain integers — next to its
//! [`Account`] (credit, op and prepaid counters) and its private RNG
//! (`proc_rng(seed, i)`), all plain fields. The machine hands the bank
//! each decision block in one call; the bank borrows the shared memory,
//! the work counter and the event counters once for the block
//! ([`Wiring::with_port`]) and runs the block through apex-sim's dispatch loop
//! ([`Block::run`]), which resumes a processor with a direct call: no
//! vtable, no `Context`, no `RefCell` borrow per resume. Control flow
//! between atomic operations is free, exactly as in the model.
//!
//! What this removes from the hot loop compared to the tree walker: nested
//! `async` poll chains, per-evaluation boxed `dyn` futures, last-write
//! binary searches, asserted address recomputation, cycle-log pushes, and
//! two `RefCell` borrows per operation.
//!
//! # Run-ahead
//!
//! Only shared-memory operations order one processor against another. When
//! a resume's credit run is spent, the VM does not yield at a *private*
//! state: it executes the op anyway and charges it with [`Port::prepay`],
//! and the dispatch loop settles the tick when the schedule grants it,
//! without resuming (see `apex_sim`'s machine docs). The VM yields only at
//! the next load, store or CAS, so it is resumed about once per
//! shared-memory op instead of once per tick.
//!
//! The run-ahead invariant: a prepaid op may change only the VM's
//! registers and the processor's private RNG, because a run may stop
//! before the op's tick ever comes. A state is private when neither its
//! handler nor the free transition after it loads, stores, CASes or
//! touches the [`SchemeEvents`] counters:
//!
//! * Read-Clock: `ClockRand` (cell draw), `ClockIncorp`, `ClockDivide`;
//! * Update-Clock: `UpdRandJ`, `UpdRandK`;
//! * cycle: `CycRandBin` — unless bins are empty, when the draw falls
//!   through to an evaluation that counts an event;
//! * evaluation: `EvIdle`, `EvOp` (the compute or the program's draw);
//! * copy: `CopyRandI`, `CopyRandR`, `CopyRandStart`;
//! * task draws: `DetRandI`, `ScanRandI`, `CasRandI`;
//! * ω-padding: charged in one `prepay` of the whole pad;
//! * `Drain`: a finished processor prepays every future tick
//!   (`prepay(u64::MAX)`) and is never resumed again.
//!
//! Async `Ctx` operations never run ahead, so the tree walker remains the
//! per-tick reference, and the tree-vs-VM byte identity checks that
//! run-ahead is transparent.

use std::cell::RefMut;
use std::rc::Rc;

use apex_pram::Op;
use apex_scheme::tasks::{EventsHandle, SchemeEvents};
use apex_scheme::SchemeKind;
use apex_sim::{Account, Bank, Block, Port, ProcId, Processors, Resumed, Stamped, Wiring};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::compile::{COperand, CompiledScheme, Slot};

/// One micro-state of the dispatch loop. Every variant except
/// [`St::Drain`] executes exactly one atomic operation when dispatched;
/// `Drain` prepays every future tick in O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum St {
    // Read-Clock: 3 ops per sample (draw, load, incorporate) + 1 (divide).
    ClockRand,
    ClockLoad,
    ClockIncorp,
    ClockDivide,
    // Update-Clock: 5 ops.
    UpdRandJ,
    UpdRandK,
    UpdLoadJ,
    UpdLoadK,
    UpdStore,
    // Nondet agreement cycle: random bin, bisection, store, ω-pad.
    CycRandBin,
    CycSearch,
    CycLoadPrev,
    CycStoreCopy,
    CycStoreEval,
    // Shared instruction evaluation: ≤K validated reads per variable
    // operand, then one compute/draw (or a single idle nop).
    EvLoadA,
    EvLoadB,
    EvIdle,
    EvOp,
    // Copy subphase: random (thread, replica), fetch, one replica write.
    CopyRandI,
    CopyRandR,
    CopyRandStart,
    CopyScan,
    CopyLoadDecision,
    CopyStore,
    // Deterministic-baseline Compute task.
    DetRandI,
    DetLoadNew,
    DetStore,
    // Scan-consensus Compute task (Θ(n) double scan).
    ScanRandI,
    ScanLoadNew,
    ScanStoreProp,
    ScanScan,
    ScanDecide,
    // Ideal-CAS Compute task.
    CasRandI,
    CasLoadCur,
    CasOp,
    // Program complete: busy-wait forever.
    Drain,
}

impl St {
    #[inline]
    fn bit(self) -> u64 {
        1 << self as u8
    }
}

/// The states whose op is processor-private *including* the free
/// transition after it: no load, store or CAS, no [`EventsHandle`]
/// update. These may run ahead of their ticks (see the module docs).
fn private_states(p: &CompiledScheme) -> u64 {
    let mut mask = [
        St::ClockRand,
        St::ClockIncorp,
        St::ClockDivide,
        St::UpdRandJ,
        St::UpdRandK,
        St::EvIdle,
        St::EvOp,
        St::CopyRandI,
        St::CopyRandR,
        St::CopyRandStart,
        St::DetRandI,
        St::ScanRandI,
        St::CasRandI,
    ]
    .iter()
    .fold(0, |m, st| m | st.bit());
    // With an empty bin the draw falls straight through to the
    // evaluation, whose operand bookkeeping counts an event.
    if p.cells_per_bin > 0 {
        mask |= St::CycRandBin.bit();
    }
    mask
}

/// Longest run-ahead one poll may accumulate. Only a degenerate run
/// (every drawn slot idle, huge clock read and update periods) keeps a
/// processor private for long; the cap keeps such a poll finite.
const RUN_AHEAD_MAX: u64 = 1 << 16;

/// Where a Read-Clock returns to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CkCont {
    /// The initial read that seeds `clockv`.
    Init,
    /// A periodic re-read (`clockv = max(clockv, result)`).
    Periodic,
}

/// Which task an instruction evaluation reports back to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EvCont {
    Cycle,
    Det,
    Scan,
    Cas,
}

/// Protocol registers: everything the flat loop needs between resumes,
/// all plain data.
struct Regs {
    st: St,
    me: usize,
    // Driver.
    clockv: u64,
    step: u64,
    since_read: u64,
    since_update: u64,
    upd_left: u64,
    // Read-Clock.
    ck_cont: CkCont,
    ck_sample: u64,
    ck_best: u64,
    ck_idx: usize,
    // Update-Clock.
    upd_j: usize,
    upd_k: usize,
    upd_vj: u64,
    upd_vk: u64,
    // Current task: thread index, stamp, slot.
    ti: usize,
    stamp: u64,
    slot: Slot,
    // Cycle.
    cyc_start_ops: u64,
    bin_base: usize,
    lo: usize,
    hi: usize,
    // Evaluation.
    ev_cont: EvCont,
    opnd_r: usize,
    x: u64,
    y: u64,
    v: u64,
    // Copy.
    cp_r: usize,
    cp_start: usize,
    cp_t: usize,
    cp_span: usize,
    // Scan.
    sc_pass: u8,
    sc_q: usize,
    sc_count: u64,
    sc_minp: usize,
    sc_minv: u64,
    sc_d0: (u64, usize, u64),
    // CAS.
    cas_cur: Stamped,
}

/// One processor of the bank: its registers, its op accounting and its
/// private random source.
struct Proc {
    regs: Regs,
    acct: Account,
    rng: SmallRng,
}

/// The bytecode execution of all `n` processors over one compiled scheme.
pub(crate) struct VmBank {
    prog: Rc<CompiledScheme>,
    events: EventsHandle,
    /// [`private_states`] of `prog`, one bit per [`St`].
    private: u64,
    wiring: Wiring,
    procs: Vec<Proc>,
}

impl VmBank {
    pub(crate) fn new(prog: Rc<CompiledScheme>, events: EventsHandle, wiring: Wiring) -> Self {
        let start = if prog.clock_samples == 0 {
            St::ClockDivide
        } else {
            St::ClockRand
        };
        let procs = (0..wiring.n())
            .map(|me| Proc {
                regs: Regs::new(start, me),
                acct: Account::default(),
                rng: wiring.rng(me),
            })
            .collect();
        VmBank {
            private: private_states(&prog),
            prog,
            events,
            wiring,
            procs,
        }
    }
}

impl Bank for VmBank {
    fn run_block(&mut self, block: &mut Block<'_>) {
        self.wiring.with_port(|port| {
            block.run(&mut Cpu {
                prog: &self.prog,
                private: self.private,
                port,
                events: self.events.borrow_mut(),
                procs: &mut self.procs,
            })
        });
    }
}

/// The bank for one block: memory, work counter and event counters
/// borrowed once.
struct Cpu<'a> {
    prog: &'a CompiledScheme,
    private: u64,
    port: Port<'a>,
    events: RefMut<'a, SchemeEvents>,
    procs: &'a mut [Proc],
}

impl Processors for Cpu<'_> {
    #[inline]
    fn prepaid(&self, p: usize) -> u64 {
        self.procs[p].acct.prepaid()
    }

    #[inline]
    fn settle(&mut self, p: usize, k: u64) {
        self.procs[p].acct.settle(k);
    }

    fn resume(&mut self, p: usize, credit: u64) -> Resumed {
        let proc = &mut self.procs[p];
        proc.acct.grant(credit);
        let mut sess = Sess {
            port: self.port.reborrow(),
            acct: &mut proc.acct,
            rng: &mut proc.rng,
            me: ProcId(p),
        };
        let r = &mut proc.regs;
        loop {
            let st = r.st;
            if st == St::Drain {
                // Busy-wait forever (still counted as work): every future
                // tick is prepaid, so the dispatch loop never resumes it.
                sess.prepay(u64::MAX);
                break;
            }
            if !sess.take_credit() {
                // The credit run is spent: a private op runs ahead, a
                // shared one waits for its tick.
                if self.private & st.bit() == 0 || sess.acct.prepaid() >= RUN_AHEAD_MAX {
                    break;
                }
                sess.prepay(1);
            }
            r.exec(st, self.prog, &mut sess, &mut self.events);
        }
        Resumed::Yielded {
            credit_left: sess.acct.credit(),
        }
    }
}

/// One processor's access to the block's [`Port`] while it runs.
struct Sess<'a, 'p> {
    port: Port<'p>,
    acct: &'a mut Account,
    rng: &'a mut SmallRng,
    me: ProcId,
}

impl Sess<'_, '_> {
    #[inline]
    fn take_credit(&mut self) -> bool {
        self.port.take_credit(self.acct)
    }

    #[inline]
    fn prepay(&mut self, k: u64) {
        self.port.prepay(self.acct, k);
    }

    #[inline]
    fn ops(&self) -> u64 {
        self.acct.ops()
    }

    #[inline]
    fn load(&mut self, addr: usize) -> Stamped {
        self.port.load(addr, self.me)
    }

    #[inline]
    fn store(&mut self, addr: usize, w: Stamped) {
        self.port.store(addr, w, self.me);
    }

    #[inline]
    fn cas(&mut self, addr: usize, expect: Stamped, new: Stamped) -> Stamped {
        self.port.cas(addr, expect, new, self.me)
    }

    /// The draw `Ctx::rand_below` makes.
    #[inline]
    fn rand_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "rand_below(0)");
        self.rng.gen_range(0..bound)
    }
}

impl Regs {
    fn new(st: St, me: usize) -> Self {
        Regs {
            st,
            me,
            clockv: 0,
            step: 0,
            since_read: 0,
            since_update: 0,
            upd_left: 0,
            ck_cont: CkCont::Init,
            ck_sample: 0,
            ck_best: 0,
            ck_idx: 0,
            upd_j: 0,
            upd_k: 0,
            upd_vj: 0,
            upd_vk: 0,
            ti: 0,
            stamp: 0,
            slot: Slot {
                live: false,
                op: Op::Mov,
                dst_base: 0,
                a: COperand::Const(0),
                b: COperand::Const(0),
            },
            cyc_start_ops: 0,
            bin_base: 0,
            lo: 0,
            hi: 0,
            ev_cont: EvCont::Cycle,
            opnd_r: 0,
            x: 0,
            y: 0,
            v: 0,
            cp_r: 0,
            cp_start: 0,
            cp_t: 0,
            cp_span: 0,
            sc_pass: 0,
            sc_q: 0,
            sc_count: 0,
            sc_minp: usize::MAX,
            sc_minv: 0,
            sc_d0: (0, usize::MAX, 0),
            cas_cur: Stamped::ZERO,
        }
    }

    /// Execute the single atomic operation `st` stands for (its credit is
    /// already consumed) and advance to the next state.
    #[inline(always)]
    fn exec(&mut self, st: St, p: &CompiledScheme, sess: &mut Sess<'_, '_>, ev: &mut SchemeEvents) {
        match st {
            // ---- Read-Clock -------------------------------------------
            St::ClockRand => {
                self.ck_idx = sess.rand_below(p.clock_cells) as usize;
                self.st = St::ClockLoad;
            }
            St::ClockLoad => {
                let cell = sess.load(p.clock_base + self.ck_idx);
                self.ck_best = self.ck_best.max(cell.value);
                self.st = St::ClockIncorp;
            }
            St::ClockIncorp => {
                self.ck_sample += 1;
                self.st = if self.ck_sample < p.clock_samples {
                    St::ClockRand
                } else {
                    St::ClockDivide
                };
            }
            St::ClockDivide => {
                let result = self.ck_best / p.clock_threshold;
                match self.ck_cont {
                    CkCont::Init => self.clockv = result,
                    CkCont::Periodic => {
                        self.clockv = self.clockv.max(result);
                        self.since_read = 0;
                    }
                }
                self.top(p);
            }

            // ---- Update-Clock -----------------------------------------
            St::UpdRandJ => {
                self.upd_j = sess.rand_below(p.clock_cells) as usize;
                self.st = St::UpdRandK;
            }
            St::UpdRandK => {
                self.upd_k = sess.rand_below(p.clock_cells) as usize;
                self.st = St::UpdLoadJ;
            }
            St::UpdLoadJ => {
                self.upd_vj = sess.load(p.clock_base + self.upd_j).value;
                self.st = St::UpdLoadK;
            }
            St::UpdLoadK => {
                self.upd_vk = sess.load(p.clock_base + self.upd_k).value;
                self.st = St::UpdStore;
            }
            St::UpdStore => {
                let (j, vj, k, vk) = (self.upd_j, self.upd_vj, self.upd_k, self.upd_vk);
                let (target, lo, hi) = if vj <= vk { (j, vj, vk) } else { (k, vk, vj) };
                let new = if hi - lo > p.clock_threshold {
                    hi
                } else {
                    lo + 1
                };
                sess.store(p.clock_base + target, Stamped::new(new, 0));
                self.upd_left -= 1;
                if self.upd_left > 0 {
                    self.st = St::UpdRandJ;
                } else {
                    self.maybe_read(p);
                }
            }

            // ---- Nondet agreement cycle -------------------------------
            St::CycRandBin => {
                // The cycle's op budget starts at this op (already taken).
                self.cyc_start_ops = sess.ops() - 1;
                self.ti = sess.rand_below(p.n as u64) as usize;
                self.bin_base = p.bins_base + self.ti * p.cells_per_bin;
                self.stamp = self.clockv + 1;
                self.lo = 0;
                self.hi = p.cells_per_bin;
                if self.lo < self.hi {
                    self.st = St::CycSearch;
                } else {
                    self.search_done(p, sess, ev);
                }
            }
            St::CycSearch => {
                let mid = self.lo + (self.hi - self.lo) / 2;
                if sess.load(self.bin_base + mid).stamp == self.stamp {
                    self.lo = mid + 1;
                } else {
                    self.hi = mid;
                }
                if self.lo >= self.hi {
                    self.search_done(p, sess, ev);
                }
            }
            St::CycStoreEval => {
                sess.store(self.bin_base, Stamped::new(self.v, self.stamp));
                self.enter_pad(p, sess);
            }
            St::CycLoadPrev => {
                let prev = sess.load(self.bin_base + self.lo - 1);
                if prev.stamp == self.stamp {
                    self.v = prev.value;
                    self.st = St::CycStoreCopy;
                } else {
                    self.enter_pad(p, sess);
                }
            }
            St::CycStoreCopy => {
                sess.store(self.bin_base + self.lo, Stamped::new(self.v, self.stamp));
                self.enter_pad(p, sess);
            }

            // ---- Instruction evaluation -------------------------------
            St::EvLoadA => {
                let COperand::Var { base, expect } = self.slot.a else {
                    unreachable!("EvLoadA entered with a constant operand");
                };
                let cell = sess.load(base as usize + self.opnd_r);
                self.x = cell.value;
                if cell.stamp == expect {
                    self.eval_b(ev);
                } else {
                    self.opnd_r += 1;
                    if self.opnd_r >= p.k {
                        ev.operand_read_failures += 1;
                        self.eval_b(ev);
                    }
                }
            }
            St::EvLoadB => {
                let COperand::Var { base, expect } = self.slot.b else {
                    unreachable!("EvLoadB entered with a constant operand");
                };
                let cell = sess.load(base as usize + self.opnd_r);
                self.y = cell.value;
                if cell.stamp == expect {
                    self.operands_done(ev);
                } else {
                    self.opnd_r += 1;
                    if self.opnd_r >= p.k {
                        ev.operand_read_failures += 1;
                        self.operands_done(ev);
                    }
                }
            }
            St::EvIdle => {
                // Idle thread: one compute charge, value 0.
                self.v = 0;
                self.eval_done();
            }
            St::EvOp => {
                self.v = match self.slot.op {
                    Op::RandBit => sess.rand_below(2),
                    Op::RandBelow => sess.rand_below(self.x.max(1)),
                    op => {
                        // Deterministic ops ignore the RNG; a throwaway
                        // suffices.
                        let mut dummy = rand::rngs::mock::StepRng::new(0, 0);
                        op.eval(self.x, self.y, &mut dummy)
                    }
                };
                self.eval_done();
            }

            // ---- Copy subphase ----------------------------------------
            St::CopyRandI => {
                self.ti = sess.rand_below(p.n as u64) as usize;
                self.st = St::CopyRandR;
            }
            St::CopyRandR => {
                self.cp_r = sess.rand_below(p.k as u64) as usize;
                self.slot = p.slot(self.step, self.ti);
                if !self.slot.live {
                    self.post_task(p); // idle thread: nothing to copy
                } else {
                    self.stamp = 2 * self.step + 1;
                    if p.kind == SchemeKind::Nondet {
                        self.cp_span = p.cells_per_bin - p.upper_half;
                        self.bin_base = p.bins_base + self.ti * p.cells_per_bin;
                        self.st = St::CopyRandStart;
                    } else {
                        self.st = St::CopyLoadDecision;
                    }
                }
            }
            St::CopyRandStart => {
                self.cp_start = sess.rand_below(self.cp_span as u64) as usize;
                self.cp_t = 0;
                self.st = St::CopyScan;
            }
            St::CopyScan => {
                let j = p.upper_half + (self.cp_start + self.cp_t) % self.cp_span;
                let cell = sess.load(self.bin_base + j);
                if cell.stamp == self.stamp {
                    self.v = cell.value;
                    self.st = St::CopyStore;
                } else {
                    self.cp_t += 1;
                    if self.cp_t >= self.cp_span {
                        ev.aborted_copies += 1;
                        self.post_task(p);
                    }
                }
            }
            St::CopyLoadDecision => {
                let cell = sess.load(p.newval_base + self.ti);
                if cell.stamp == self.stamp {
                    self.v = cell.value;
                    self.st = St::CopyStore;
                } else {
                    ev.aborted_copies += 1;
                    self.post_task(p);
                }
            }
            St::CopyStore => {
                sess.store(
                    self.slot.dst_base as usize + self.cp_r,
                    Stamped::new(self.v, self.step + 1),
                );
                ev.copy_writes += 1;
                self.post_task(p);
            }

            // ---- Deterministic baseline -------------------------------
            St::DetRandI => {
                self.ti = sess.rand_below(p.n as u64) as usize;
                self.slot = p.slot(self.step, self.ti);
                if !self.slot.live {
                    self.post_task(p);
                } else {
                    self.stamp = 2 * self.step + 1;
                    self.st = St::DetLoadNew;
                }
            }
            St::DetLoadNew => {
                if sess.load(p.newval_base + self.ti).stamp == self.stamp {
                    self.post_task(p); // already computed
                } else {
                    self.ev_cont = EvCont::Det;
                    self.eval_a(ev);
                }
            }
            St::DetStore => {
                sess.store(p.newval_base + self.ti, Stamped::new(self.v, self.stamp));
                self.post_task(p);
            }

            // ---- Scan consensus ---------------------------------------
            St::ScanRandI => {
                self.ti = sess.rand_below(p.n as u64) as usize;
                self.stamp = 2 * self.step + 1;
                self.st = St::ScanLoadNew;
            }
            St::ScanLoadNew => {
                if sess.load(p.newval_base + self.ti).stamp == self.stamp {
                    self.post_task(p); // already decided
                } else {
                    self.slot = p.slot(self.step, self.ti);
                    if !self.slot.live {
                        self.post_task(p);
                    } else {
                        self.ev_cont = EvCont::Scan;
                        self.eval_a(ev);
                    }
                }
            }
            St::ScanStoreProp => {
                let row = p.proposals_base + self.ti * p.n;
                sess.store(row + self.me, Stamped::new(self.v, self.stamp));
                self.sc_pass = 0;
                self.sc_q = 0;
                self.sc_count = 0;
                self.sc_minp = usize::MAX;
                self.sc_minv = 0;
                self.st = St::ScanScan;
            }
            St::ScanScan => {
                let row = p.proposals_base + self.ti * p.n;
                let c = sess.load(row + self.sc_q);
                if c.stamp == self.stamp {
                    self.sc_count += 1;
                    if self.sc_q < self.sc_minp {
                        self.sc_minp = self.sc_q;
                        self.sc_minv = c.value;
                    }
                }
                self.sc_q += 1;
                if self.sc_q >= p.n {
                    let digest = (self.sc_count, self.sc_minp, self.sc_minv);
                    if self.sc_pass == 0 {
                        self.sc_d0 = digest;
                        self.sc_pass = 1;
                        self.sc_q = 0;
                        self.sc_count = 0;
                        self.sc_minp = usize::MAX;
                        self.sc_minv = 0;
                    } else if digest == self.sc_d0 && digest.0 > 0 {
                        self.st = St::ScanDecide;
                    } else {
                        self.post_task(p);
                    }
                }
            }
            St::ScanDecide => {
                sess.store(
                    p.newval_base + self.ti,
                    Stamped::new(self.sc_d0.2, self.stamp),
                );
                self.post_task(p);
            }

            // ---- Ideal CAS --------------------------------------------
            St::CasRandI => {
                self.ti = sess.rand_below(p.n as u64) as usize;
                self.stamp = 2 * self.step + 1;
                self.st = St::CasLoadCur;
            }
            St::CasLoadCur => {
                let cur = sess.load(p.newval_base + self.ti);
                if cur.stamp == self.stamp {
                    self.post_task(p);
                } else {
                    self.slot = p.slot(self.step, self.ti);
                    if !self.slot.live {
                        self.post_task(p);
                    } else {
                        self.cas_cur = cur;
                        self.ev_cont = EvCont::Cas;
                        self.eval_a(ev);
                    }
                }
            }
            St::CasOp => {
                let _ = sess.cas(
                    p.newval_base + self.ti,
                    self.cas_cur,
                    Stamped::new(self.v, self.stamp),
                );
                self.post_task(p);
            }

            St::Drain => unreachable!("Drain is dispatched before exec"),
        }
    }

    // ---- Control flow (free, as in the model) -------------------------

    /// Loop top: stop-check, then dispatch the subphase the clock names.
    fn top(&mut self, p: &CompiledScheme) {
        if self.clockv >= p.done {
            self.st = St::Drain;
            return;
        }
        self.step = self.clockv >> 1;
        if self.clockv & 1 == 0 {
            self.st = match p.kind {
                SchemeKind::Nondet => St::CycRandBin,
                SchemeKind::DetBaseline => St::DetRandI,
                SchemeKind::ScanConsensus => St::ScanRandI,
                SchemeKind::IdealCas => St::CasRandI,
            };
        } else {
            self.st = St::CopyRandI;
        }
    }

    /// After one task: cadence bookkeeping, then clock updates and/or a
    /// periodic re-read exactly as the tree walker interleaves them.
    fn post_task(&mut self, p: &CompiledScheme) {
        self.since_read += 1;
        self.since_update += 1;
        if self.since_update >= p.light_update_period {
            self.since_update = 0;
            self.upd_left = p.updates_per_item;
            self.st = St::UpdRandJ;
        } else {
            self.maybe_read(p);
        }
    }

    fn maybe_read(&mut self, p: &CompiledScheme) {
        if self.since_read >= p.read_period {
            self.ck_cont = CkCont::Periodic;
            self.ck_sample = 0;
            self.ck_best = 0;
            self.st = if p.clock_samples == 0 {
                St::ClockDivide
            } else {
                St::ClockRand
            };
        } else {
            self.top(p);
        }
    }

    /// Bisection finished: evaluate into an empty bin, help-copy, or pad.
    fn search_done(&mut self, p: &CompiledScheme, sess: &mut Sess<'_, '_>, ev: &mut SchemeEvents) {
        if self.lo == 0 {
            self.slot = p.slot(self.step, self.ti);
            self.ev_cont = EvCont::Cycle;
            if self.slot.live {
                self.eval_a(ev);
            } else {
                self.st = St::EvIdle;
            }
        } else if self.lo < p.cells_per_bin {
            self.st = St::CycLoadPrev;
        } else {
            self.enter_pad(p, sess);
        }
    }

    /// Begin reading operand `a` (constants cost no ops).
    fn eval_a(&mut self, ev: &mut SchemeEvents) {
        match self.slot.a {
            COperand::Const(c) => {
                self.x = c;
                self.eval_b(ev);
            }
            COperand::Var { .. } => {
                self.opnd_r = 0;
                self.st = St::EvLoadA;
            }
        }
    }

    fn eval_b(&mut self, ev: &mut SchemeEvents) {
        match self.slot.b {
            COperand::Const(c) => {
                self.y = c;
                self.operands_done(ev);
            }
            COperand::Var { .. } => {
                self.opnd_r = 0;
                self.st = St::EvLoadB;
            }
        }
    }

    fn operands_done(&mut self, ev: &mut SchemeEvents) {
        ev.evals += 1;
        self.st = St::EvOp;
    }

    /// Route the evaluated value back to the owning task.
    fn eval_done(&mut self) {
        self.st = match self.ev_cont {
            EvCont::Cycle => St::CycStoreEval,
            EvCont::Det => St::DetStore,
            EvCont::Scan => St::ScanStoreProp,
            EvCont::Cas => St::CasOp,
        };
    }

    /// Pad the cycle to exactly ω ops: the no-ops are private, so they
    /// are charged in one [`Port::prepay`].
    fn enter_pad(&mut self, p: &CompiledScheme, sess: &mut Sess<'_, '_>) {
        let used = sess.ops() - self.cyc_start_ops;
        debug_assert!(used <= p.omega, "cycle used {used} ops > ω = {}", p.omega);
        sess.prepay(p.omega - used);
        self.post_task(p);
    }
}
