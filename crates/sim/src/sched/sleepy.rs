//! Sleepy schedule: the paper's *tardy processors*.
//!
//! "In the asynchronous system processors may go to sleep in one subphase and
//! wake up much later" (§2.1). Sleepers are the sole source of *clobbers*
//! (writes carrying an old phase stamp, §4 Lemma 1), so this adversary is the
//! stress test for the bin array's timestamp machinery.

use super::availability::{AvailableUniform, OverlayPattern};
use super::Schedule;
use crate::word::ProcId;
use rand::prelude::*;
use rand::rngs::SmallRng;

/// A designated fraction of processors alternates between `awake` ticks of
/// normal operation and `asleep` ticks of silence, each with a random phase
/// offset; the remaining processors are always awake. Within the awake set at
/// each tick, the processor is chosen uniformly.
///
/// The awake/asleep pattern is a pure function of the tick counter and the
/// seed, so the schedule is oblivious. The pick among the awake is
/// `AvailableUniform`'s rule, read through the same `OverlayPattern`
/// the algebra's sleepy overlay uses.
pub struct Sleepy {
    awake: u64,
    asleep: u64,
    picks: AvailableUniform,
}

impl Sleepy {
    /// `sleepy_frac` of the processors (the highest-indexed ones) follow the
    /// awake/asleep pattern. Processor 0 never sleeps, guaranteeing progress.
    pub fn new(n: usize, sleepy_frac: f64, awake: u64, asleep: u64, mut rng: SmallRng) -> Self {
        assert!(n > 0);
        assert!(awake >= 1);
        let offsets = sleep_offsets(n, sleepy_frac, awake, asleep, &mut rng);
        Sleepy {
            awake,
            asleep,
            picks: AvailableUniform::new(
                OverlayPattern::sleep_offsets(awake, asleep, offsets),
                rng,
            ),
        }
    }
}

/// The tardy-processor pattern derivation shared by [`Sleepy`] and the
/// algebra's sleepy overlay: the `sleepy_frac` highest-indexed processors
/// get a random phase offset in `[0, awake + asleep)`; `u64::MAX` marks
/// an always-awake processor (processor 0 is always exempt).
pub(crate) fn sleep_offsets(
    n: usize,
    sleepy_frac: f64,
    awake: u64,
    asleep: u64,
    rng: &mut SmallRng,
) -> Vec<u64> {
    assert!((0.0..=1.0).contains(&sleepy_frac));
    let sleepy_count = ((sleepy_frac * n as f64).round() as usize).min(n.saturating_sub(1));
    let period = awake + asleep;
    (0..n)
        .map(|i| {
            if i >= n - sleepy_count {
                rng.gen_range(0..period.max(1))
            } else {
                u64::MAX
            }
        })
        .collect()
}

impl Schedule for Sleepy {
    fn next(&mut self) -> ProcId {
        self.picks.next()
    }

    fn next_batch(&mut self, out: &mut [ProcId]) {
        self.picks.next_batch(out);
    }

    fn n(&self) -> usize {
        self.picks.n()
    }

    fn describe(&self) -> String {
        format!(
            "sleepy(n={},sleepers={},awake={},asleep={})",
            self.picks.n(),
            self.picks.pattern().victims(),
            self.awake,
            self.asleep
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::schedule_rng;

    #[test]
    fn sleepers_get_no_ticks_while_asleep() {
        let mut s = Sleepy::new(8, 0.5, 100, 400, schedule_rng(11));
        let OverlayPattern::Sleepy { offsets, .. } = s.picks.pattern() else {
            unreachable!("a sleepy schedule has a sleepy pattern")
        };
        let offsets = offsets.clone();
        for _ in 0..20_000u64 {
            let t = s.picks.tick();
            let p = s.next();
            let off = offsets[p.0];
            if off != u64::MAX {
                assert!(
                    (t + off) % 500 < 100,
                    "proc {p} scheduled while asleep at tick {t}"
                );
            }
        }
    }

    #[test]
    fn processor_zero_never_sleeps() {
        let s = Sleepy::new(4, 1.0, 10, 1000, schedule_rng(2));
        for t in 0..5000 {
            assert!(s.picks.pattern().is_active(0, t));
        }
    }

    #[test]
    fn always_awake_without_sleepers() {
        let mut s = Sleepy::new(6, 0.0, 1, 1_000_000, schedule_rng(8));
        let mut h = vec![0u64; 6];
        for _ in 0..6000 {
            h[s.next().0] += 1;
        }
        assert!(h.iter().all(|&c| c > 600), "histogram {h:?}");
    }

    #[test]
    fn sleepers_eventually_wake_and_run() {
        let mut s = Sleepy::new(8, 0.25, 200, 800, schedule_rng(13));
        let mut h = vec![0u64; 8];
        for _ in 0..100_000 {
            h[s.next().0] += 1;
        }
        assert!(
            h.iter().all(|&c| c > 0),
            "every processor runs eventually: {h:?}"
        );
    }
}
