//! The cooperative executor: processors as futures, one op credit per
//! atomic op.

mod ctx;
mod machine;

pub use ctx::{Ctx, EngineGate, GateSession};
pub use machine::{BlockHook, IdlePolicy, Machine, MachineBuilder, DEFAULT_BATCH};

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::task::{Context, Poll};

    use super::*;
    use crate::sched::{RoundRobin, ScheduleKind, Script};
    use crate::word::Stamped;

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
    fn idle_policy_skip_counts_only_live_ops() {
        let mut m = MachineBuilder::new(2, 2)
            .schedule(Box::new(RoundRobin::new(2)))
            .idle_policy(IdlePolicy::Skip)
            .build(|ctx| async move {
                ctx.nop().await;
            });
        m.run_ticks(10);
        assert_eq!(m.work(), 2);
        assert_eq!(m.ticks(), 10);
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
    fn per_op_machine(n: usize, rounds: u64, batch: usize, idle: IdlePolicy) -> Machine {
        MachineBuilder::new(n, n)
            .seed(9)
            .schedule_kind(&ScheduleKind::Uniform)
            .batch(batch)
            .idle_policy(idle)
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

    /// The same protocol over an [`EngineGate`] that runs its private ops
    /// ahead: polled only at the write.
    struct RunAhead {
        gate: EngineGate,
        rounds: u64,
        round: u64,
        pc: u8,
        a: u64,
        b: u64,
    }

    impl Future for RunAhead {
        type Output = ();

        fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
            let this = self.get_mut();
            let mut s = this.gate.session();
            loop {
                if this.pc < 3 {
                    s.prepay(1);
                    match this.pc {
                        0 => this.a = s.rand_below(8),
                        1 => {}
                        _ => this.b = s.rand_below(8),
                    }
                    this.pc += 1;
                } else {
                    if !s.take_credit() {
                        return Poll::Pending;
                    }
                    let w = Stamped::new(this.a * 8 + this.b, s.ops());
                    s.store(this.gate.id().0, w);
                    this.pc = 0;
                    this.round += 1;
                    if this.round == this.rounds {
                        return Poll::Ready(());
                    }
                }
            }
        }
    }

    fn run_ahead_machine(n: usize, rounds: u64, batch: usize, idle: IdlePolicy) -> Machine {
        MachineBuilder::new(n, n)
            .seed(9)
            .schedule_kind(&ScheduleKind::Uniform)
            .batch(batch)
            .idle_policy(idle)
            .build(move |ctx| RunAhead {
                gate: EngineGate::new(&ctx),
                rounds,
                round: 0,
                pc: 0,
                a: 0,
                b: 0,
            })
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
        let (mut reference, lr) = logged(per_op_machine(4, 30, 1, IdlePolicy::CountAsWork));
        let (mut stepped, ls) = logged(run_ahead_machine(4, 30, 1, IdlePolicy::CountAsWork));
        let (mut batched, lb) = logged(run_ahead_machine(
            4,
            30,
            DEFAULT_BATCH,
            IdlePolicy::CountAsWork,
        ));
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
    fn prepaid_ticks_settle_under_idle_skip() {
        for batch in [1, 7, DEFAULT_BATCH] {
            let (mut reference, lr) = logged(per_op_machine(5, 20, batch, IdlePolicy::Skip));
            let (mut ahead, la) = logged(run_ahead_machine(5, 20, batch, IdlePolicy::Skip));
            for chunk in [1u64, 13, 64, 3, 500] {
                reference.run_ticks(chunk);
                ahead.run_ticks(chunk);
                assert_same_run(&reference, &lr, &ahead, &la);
            }
            assert!(reference.all_done());
            assert_eq!(reference.work(), 5 * 20 * 4, "only live ops count");
        }
    }

    #[test]
    fn prepaid_ticks_settle_across_a_run_to_completion_cut() {
        for batch in [1, 7, DEFAULT_BATCH] {
            let (mut reference, lr) = logged(per_op_machine(3, 25, batch, IdlePolicy::CountAsWork));
            let (mut ahead, la) = logged(run_ahead_machine(3, 25, batch, IdlePolicy::CountAsWork));
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

    #[test]
    #[should_panic(expected = "completed while holding prepaid ops")]
    fn completing_with_prepaid_ops_is_rejected() {
        struct Cheat(EngineGate);
        impl Future for Cheat {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                let mut s = self.0.session();
                s.prepay(2);
                Poll::Ready(())
            }
        }
        let mut m = MachineBuilder::new(1, 1)
            .schedule(Box::new(RoundRobin::new(1)))
            .build(|ctx| Cheat(EngineGate::new(&ctx)));
        m.tick();
    }
}
