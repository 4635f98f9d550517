//! The cooperative executor: a bank of processors, one op credit per
//! atomic op.

mod bank;
mod ctx;
mod machine;

pub use bank::{Account, Bank, Block, Port, Processors, Resumed, Spawn, Wiring};
pub use ctx::Ctx;
pub use machine::{BlockHook, Machine, MachineBuilder, DEFAULT_BATCH};

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use rand::rngs::SmallRng;
    use rand::Rng;

    use super::*;
    use crate::sched::{RoundRobin, ScheduleKind, Script};
    use crate::word::{ProcId, Stamped};

    /// Protocol that writes its id to cell `id`, then reads it back, then
    /// stops: exactly 2 ops.
    fn two_op_machine(n: usize) -> Machine {
        MachineBuilder::new(n, n)
            .schedule(Box::new(RoundRobin::new(n)))
            .build(|ctx| async move {
                let me = ctx.id().0 as u64;
                ctx.write(me as usize, Stamped::new(me, 1)).await;
                let r = ctx.read(me as usize).await;
                assert_eq!(r.value, me);
            })
    }

    #[test]
    fn one_tick_is_one_op() {
        let mut m = two_op_machine(4);
        // After 4 ticks (one round), each processor has performed its write.
        m.run_ticks(4);
        for i in 0..4 {
            assert_eq!(m.peek(i), Stamped::new(i as u64, 1));
        }
        assert_eq!(m.work(), 4);
        // After another round everyone has read and completed.
        m.run_ticks(4);
        assert!(m.all_done());
        assert_eq!(m.work(), 8);
        assert_eq!(m.per_proc_work(), &[2, 2, 2, 2]);
    }

    #[test]
    fn idle_policy_counts_busy_waiting() {
        let mut m = two_op_machine(2);
        m.run_ticks(10);
        assert!(m.all_done());
        // 4 live ops + 6 busy-wait ticks, all counted as work.
        assert_eq!(m.work(), 10);
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let mut m = MachineBuilder::new(1, 1)
            .schedule(Box::new(RoundRobin::new(1)))
            .build(|ctx| async move {
                for i in 0..100u64 {
                    ctx.write(0, Stamped::new(i, 0)).await;
                }
            });
        let work = m
            .run_until(10_000, 1, |mem| mem.peek(0).value >= 5)
            .expect("predicate reachable");
        assert_eq!(work, 6, "writes 0..=5 take 6 ops");
    }

    #[test]
    fn run_until_times_out() {
        let mut m = MachineBuilder::new(1, 1)
            .schedule(Box::new(RoundRobin::new(1)))
            .build(|ctx| async move {
                loop {
                    ctx.nop().await;
                }
            });
        let err = m.run_until(100, 10, |_| false).unwrap_err();
        assert_eq!(err.ticks, 100);
    }

    #[test]
    fn per_proc_rng_streams_differ_but_are_reproducible() {
        let build = || {
            MachineBuilder::new(2, 2)
                .seed(77)
                .schedule(Box::new(RoundRobin::new(2)))
                .build(|ctx| async move {
                    let v = ctx.rand_u64().await;
                    ctx.write(ctx.id().0, Stamped::new(v, 0)).await;
                })
        };
        let mut a = build();
        a.run_ticks(4);
        let mut b = build();
        b.run_ticks(4);
        assert_eq!(a.peek(0), b.peek(0));
        assert_eq!(a.peek(1), b.peek(1));
        assert_ne!(a.peek(0).value, a.peek(1).value, "private sources differ");
    }

    #[test]
    fn charge_consumes_k_ticks() {
        let mut m = MachineBuilder::new(1, 1)
            .schedule(Box::new(RoundRobin::new(1)))
            .build(|ctx| async move {
                ctx.charge(5).await;
                ctx.write(0, Stamped::new(1, 1)).await;
            });
        m.run_ticks(5);
        assert_eq!(m.peek(0), Stamped::ZERO, "write happens on the 6th op");
        m.run_ticks(1);
        assert_eq!(m.peek(0), Stamped::new(1, 1));
    }

    #[test]
    fn scripted_schedule_controls_interleaving_exactly() {
        // P1 writes 11 then P0 writes 10; last write wins.
        let script = Script::new().step(1).step(0);
        let mut m = MachineBuilder::new(2, 1)
            .schedule(Box::new(script.then(Box::new(RoundRobin::new(2)))))
            .build(|ctx| async move {
                let me = ctx.id().0 as u64;
                ctx.write(0, Stamped::new(10 + me, 0)).await;
            });
        m.run_ticks(2);
        assert_eq!(m.peek(0).value, 10);
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let mut m = MachineBuilder::new(8, 64)
                .seed(123)
                .schedule_kind(&ScheduleKind::Bursty { mean_burst: 7 })
                .build(|ctx| async move {
                    loop {
                        let a = ctx.rand_below(64).await;
                        let v = ctx.read(a as usize).await;
                        ctx.write(a as usize, Stamped::new(v.value + 1, v.stamp + 1))
                            .await;
                    }
                });
            m.run_ticks(10_000);
            (
                m.work(),
                m.with_mem(|mem| (0..64).map(|a| mem.peek(a).value).sum::<u64>()),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cas_is_atomic_and_counts_one_op() {
        let mut m = MachineBuilder::new(2, 1)
            .schedule(Box::new(RoundRobin::new(2)))
            .build(|ctx| async move {
                ctx.cas(0, Stamped::ZERO, Stamped::new(ctx.id().0 as u64 + 1, 1))
                    .await;
            });
        m.run_ticks(2);
        // P0 wins the cas; P1's cas fails.
        assert_eq!(m.peek(0).value, 1);
        assert_eq!(m.work(), 2);
    }

    #[test]
    fn report_accounts_reads_and_writes() {
        let mut m = two_op_machine(2);
        m.run_ticks(4);
        let r = m.report();
        assert_eq!(r.total_work, 4);
        assert_eq!(r.mem_reads + r.mem_writes, 4);
    }

    /// Per round: two private draws around a compute, then one write of
    /// the draws, stamped with the processor's op count — written with
    /// `Ctx` awaits, one poll per op.
    fn per_op_machine(n: usize, rounds: u64, batch: usize) -> Machine {
        MachineBuilder::new(n, n)
            .seed(9)
            .schedule_kind(&ScheduleKind::Uniform)
            .batch(batch)
            .build(move |ctx| async move {
                let me = ctx.id().0;
                for _ in 0..rounds {
                    let a = ctx.rand_below(8).await;
                    ctx.compute().await;
                    let b = ctx.rand_below(8).await;
                    let ops = ctx.ops() + 1;
                    ctx.write(me, Stamped::new(a * 8 + b, ops)).await;
                }
            })
    }

    /// A test bank: per-processor registers `S` with an [`Account`], and
    /// one resume function over the block's [`Port`].
    type Step<S> = fn(&mut Port<'_>, ProcId, &mut Account, &mut S) -> Resumed;

    struct TestBank<S> {
        wiring: Wiring,
        procs: Vec<(Account, S)>,
        step: Step<S>,
    }

    /// [`Spawn`] for a [`TestBank`]: `init` builds each processor's
    /// registers from the wiring.
    struct TestSpawn<I, S> {
        init: I,
        step: Step<S>,
    }

    impl<I: Fn(&Wiring, usize) -> S, S: 'static> Spawn for TestSpawn<I, S> {
        fn spawn(self, wiring: Wiring) -> Box<dyn Bank> {
            let procs = (0..wiring.n())
                .map(|p| (Account::default(), (self.init)(&wiring, p)))
                .collect();
            Box::new(TestBank {
                wiring,
                procs,
                step: self.step,
            })
        }
    }

    impl<S> Bank for TestBank<S> {
        fn run_block(&mut self, block: &mut Block<'_>) {
            self.wiring.with_port(|port| {
                block.run(&mut TestBlock {
                    port,
                    procs: &mut self.procs,
                    step: self.step,
                })
            });
        }
    }

    struct TestBlock<'a, S> {
        port: Port<'a>,
        procs: &'a mut [(Account, S)],
        step: Step<S>,
    }

    impl<S> Processors for TestBlock<'_, S> {
        fn prepaid(&self, p: usize) -> u64 {
            self.procs[p].0.prepaid()
        }

        fn settle(&mut self, p: usize, k: u64) {
            self.procs[p].0.settle(k);
        }

        fn resume(&mut self, p: usize, credit: u64) -> Resumed {
            let (acct, regs) = &mut self.procs[p];
            acct.grant(credit);
            (self.step)(&mut self.port, ProcId(p), acct, regs)
        }
    }

    /// [`per_op_machine`]'s protocol as a bank that runs its private ops
    /// ahead: resumed only at the write.
    struct RunAhead {
        rng: SmallRng,
        rounds: u64,
        round: u64,
        pc: u8,
        a: u64,
        b: u64,
    }

    fn run_ahead_step(
        port: &mut Port<'_>,
        me: ProcId,
        acct: &mut Account,
        r: &mut RunAhead,
    ) -> Resumed {
        loop {
            if r.pc < 3 {
                port.prepay(acct, 1);
                match r.pc {
                    0 => r.a = r.rng.gen_range(0..8),
                    1 => {}
                    _ => r.b = r.rng.gen_range(0..8),
                }
                r.pc += 1;
            } else {
                if !port.take_credit(acct) {
                    return Resumed::Yielded {
                        credit_left: acct.credit(),
                    };
                }
                port.store(me.0, Stamped::new(r.a * 8 + r.b, acct.ops()), me);
                r.pc = 0;
                r.round += 1;
                if r.round == r.rounds {
                    return Resumed::Completed {
                        credit_left: acct.credit(),
                    };
                }
            }
        }
    }

    fn run_ahead_machine(n: usize, rounds: u64, batch: usize) -> Machine {
        MachineBuilder::new(n, n)
            .seed(9)
            .schedule_kind(&ScheduleKind::Uniform)
            .batch(batch)
            .spawn(TestSpawn {
                init: move |w: &Wiring, p| RunAhead::new(w, p, rounds),
                step: run_ahead_step,
            })
    }

    impl RunAhead {
        fn new(w: &Wiring, p: usize, rounds: u64) -> Self {
            RunAhead {
                rng: w.rng(p),
                rounds,
                round: 0,
                pc: 0,
                a: 0,
                b: 0,
            }
        }
    }

    type Log = Rc<RefCell<Vec<(usize, Stamped, usize, u64)>>>;

    fn logged(m: Machine) -> (Machine, Log) {
        let log: Log = Default::default();
        let sink = log.clone();
        m.add_write_hook(Box::new(move |ev| {
            sink.borrow_mut()
                .push((ev.addr, ev.new, ev.writer.0, ev.work));
        }));
        (m, log)
    }

    fn assert_same_run(a: &Machine, la: &Log, b: &Machine, lb: &Log) {
        assert_eq!(a.report(), b.report(), "work report");
        assert_eq!(*la.borrow(), *lb.borrow(), "write log incl. work stamps");
        assert_eq!(a.all_done(), b.all_done(), "completion");
    }

    #[test]
    fn prepaid_ticks_settle_under_per_tick_stepping() {
        let (mut reference, lr) = logged(per_op_machine(4, 30, 1));
        let (mut stepped, ls) = logged(run_ahead_machine(4, 30, 1));
        let (mut batched, lb) = logged(run_ahead_machine(4, 30, DEFAULT_BATCH));
        for t in 1..=700u64 {
            assert_eq!(reference.tick(), stepped.tick());
            if t % 50 == 0 {
                assert_same_run(&reference, &lr, &stepped, &ls);
            }
        }
        batched.run_ticks(700);
        assert!(reference.all_done(), "700 ticks cover 4 × 30 rounds");
        assert_same_run(&reference, &lr, &stepped, &ls);
        assert_same_run(&reference, &lr, &batched, &lb);
        // One poll per write (plus the first), not one per op.
        assert!(stepped.polls() <= 4 * 31, "{} polls", stepped.polls());
        assert!(reference.polls() >= 4 * 30 * 4);
    }

    #[test]
    fn prepaid_ticks_settle_across_ragged_chunks() {
        for batch in [1, 7, DEFAULT_BATCH] {
            let (mut reference, lr) = logged(per_op_machine(5, 20, batch));
            let (mut ahead, la) = logged(run_ahead_machine(5, 20, batch));
            for chunk in [1u64, 13, 64, 3, 500] {
                reference.run_ticks(chunk);
                ahead.run_ticks(chunk);
                assert_same_run(&reference, &lr, &ahead, &la);
            }
            assert!(reference.all_done());
        }
    }

    #[test]
    fn prepaid_ticks_settle_across_a_run_to_completion_cut() {
        for batch in [1, 7, DEFAULT_BATCH] {
            let (mut reference, lr) = logged(per_op_machine(3, 25, batch));
            let (mut ahead, la) = logged(run_ahead_machine(3, 25, batch));
            // Caps that cut mid-run, while processors hold prepaid ops.
            for cap in [5u64, 6, 41, 202] {
                let a = reference.run_to_completion(cap).unwrap_err();
                let b = ahead.run_to_completion(cap).unwrap_err();
                assert_eq!((a.work, a.ticks), (b.work, b.ticks), "cut at {cap}");
                assert_same_run(&reference, &lr, &ahead, &la);
            }
            let wa = reference.run_to_completion(1_000_000).unwrap();
            let wb = ahead.run_to_completion(1_000_000).unwrap();
            assert_eq!(wa, wb, "completion work");
            assert_eq!(reference.ticks(), ahead.ticks(), "completion tick");
            assert_same_run(&reference, &lr, &ahead, &la);
        }
    }

    /// A one-processor machine whose only processor resumes with `step`.
    fn contract_machine(step: Step<()>) -> Machine {
        MachineBuilder::new(1, 1)
            .schedule(Box::new(RoundRobin::new(1)))
            .spawn(TestSpawn {
                init: |_: &Wiring, _| (),
                step,
            })
    }

    #[test]
    #[should_panic(expected = "completed while holding prepaid ops")]
    fn completing_with_prepaid_ops_is_rejected() {
        let mut m = contract_machine(|port, _, acct, _| {
            port.prepay(acct, 2);
            Resumed::Completed {
                credit_left: acct.credit(),
            }
        });
        m.tick();
    }

    #[test]
    #[should_panic(expected = "yielded holding op credits")]
    fn yielding_with_credit_is_rejected() {
        let mut m = contract_machine(|_, _, acct, _| Resumed::Yielded {
            credit_left: acct.credit(),
        });
        m.tick();
    }

    /// A processor that prepays every future tick is resumed once: the
    /// dispatch loop settles the rest, charging work and ticks as spent
    /// credits would.
    #[test]
    fn prepaid_ticks_settle_without_a_resume() {
        let drain: Step<()> = |port, _, acct, _| {
            port.prepay(acct, u64::MAX);
            Resumed::Yielded {
                credit_left: acct.credit(),
            }
        };
        for batch in [1, 7, DEFAULT_BATCH] {
            let mut m = MachineBuilder::new(4, 1)
                .seed(5)
                .schedule_kind(&ScheduleKind::Bursty { mean_burst: 3 })
                .batch(batch)
                .spawn(TestSpawn {
                    init: |_: &Wiring, _| (),
                    step: drain,
                });
            m.run_ticks(10_000);
            for _ in 0..50 {
                m.tick();
            }
            assert_eq!(m.polls(), 4, "one resume per processor at batch {batch}");
            assert_eq!((m.ticks(), m.work()), (10_050, 10_050));
            assert_eq!(m.per_proc_work().iter().sum::<u64>(), 10_050);
            assert_eq!(m.live_procs(), 4, "a draining processor never completes");
        }
    }
}
