//! Property tests for the A-PRAM simulator's invariants.

use apex::sim::{MachineBuilder, ScheduleKind, Stamped};
use proptest::prelude::*;

fn any_schedule() -> impl Strategy<Value = ScheduleKind> {
    prop_oneof![
        Just(ScheduleKind::RoundRobin),
        Just(ScheduleKind::Uniform),
        (1u64..64).prop_map(|m| ScheduleKind::Bursty { mean_burst: m }),
        (0.1f64..0.9).prop_map(|f| ScheduleKind::TwoClass {
            slow_frac: f,
            ratio: 8.0
        }),
        Just(ScheduleKind::Sleepy {
            sleepy_frac: 0.25,
            awake: 200,
            asleep: 800
        }),
        (0.1f64..0.6, 100u64..5000).prop_map(|(f, h)| ScheduleKind::Crash {
            crash_frac: f,
            horizon: h
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Work conservation: total work equals the sum of per-processor work,
    /// equals ticks.
    #[test]
    fn work_conservation(
        seed in any::<u64>(),
        n in 1usize..24,
        ticks in 1u64..5000,
        kind in any_schedule(),
    ) {
        let mut m = MachineBuilder::new(n, n)
            .seed(seed)
            .schedule_kind(&kind)
            .build(|ctx| async move {
                loop {
                    ctx.nop().await;
                }
            });
        m.run_ticks(ticks);
        prop_assert_eq!(m.work(), ticks);
        prop_assert_eq!(m.per_proc_work().iter().sum::<u64>(), ticks);
        prop_assert_eq!(m.ticks(), ticks);
    }

    /// The adversary is oblivious: the schedule's choices are identical
    /// whatever the protocol does with its randomness.
    #[test]
    fn schedule_is_oblivious_to_protocol_behavior(
        seed in any::<u64>(),
        n in 2usize..16,
        kind in any_schedule(),
    ) {
        let run = |weird: bool| {
            let mut m = MachineBuilder::new(n, n)
                .seed(seed)
                .schedule_kind(&kind)
                .build(move |ctx| async move {
                    loop {
                        if weird {
                            // Consume lots of private randomness and write.
                            let a = ctx.rand_below(n as u64).await as usize;
                            let v = ctx.rand_u64().await;
                            ctx.write(a, Stamped::new(v, 0)).await;
                        } else {
                            ctx.nop().await;
                        }
                    }
                });
            (0..500).map(|_| m.tick().0).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// Memory access accounting never exceeds work, and reads/writes
    /// round-trip.
    #[test]
    fn memory_accounting_bounded_by_work(
        seed in any::<u64>(),
        n in 1usize..8,
        ticks in 1u64..2000,
    ) {
        let mut m = MachineBuilder::new(n, n.max(1))
            .seed(seed)
            .build(|ctx| async move {
                let me = ctx.id().0;
                loop {
                    let v = ctx.read(me).await;
                    ctx.write(me, Stamped::new(v.value + 1, v.stamp)).await;
                }
            });
        m.run_ticks(ticks);
        let r = m.report();
        prop_assert!(r.mem_reads + r.mem_writes <= r.total_work);
        // Each cell's value equals the number of completed write ops on it.
        let total: u64 = m.with_mem(|mem| (0..n).map(|a| mem.peek(a).value).sum());
        prop_assert_eq!(total, r.mem_writes);
    }

    /// A halted processor's granted steps busy-wait and count as work, so
    /// work equals ticks after every protocol has completed.
    #[test]
    fn halted_processors_busy_wait_as_work(
        seed in any::<u64>(),
        n in 1usize..8,
        ticks in 10u64..2000,
    ) {
        // Round-robin makes the reachable-processor set deterministic: in
        // t ticks exactly min(n, t) distinct processors run. (A uniform
        // random schedule may miss processors in few ticks — a proptest
        // counterexample caught exactly that.)
        let mut m = MachineBuilder::new(n, n)
            .seed(seed)
            .schedule_kind(&ScheduleKind::RoundRobin)
            .build(|ctx| async move {
                ctx.nop().await; // one op then halt
            });
        m.run_ticks(ticks);
        prop_assert!(m.all_done());
        prop_assert_eq!(m.work(), ticks);
    }
}
