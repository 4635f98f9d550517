//! Fail-stop schedule: the paper's `S_i(k) = ∞` faulty processors.

use super::availability::{AvailableUniform, OverlayPattern};
use super::Schedule;
use crate::word::ProcId;
use rand::prelude::*;
use rand::rngs::SmallRng;

/// Wraps a uniform pick with per-processor crash times: once a processor's
/// crash tick has passed it is never scheduled again (it has failed, and an
/// `∞` value in its schedule function marks it faulty). Processor 0 never
/// crashes, so the schedule stays total and the computation can always make
/// progress — the execution scheme must then shoulder the dead processors'
/// tasks.
///
/// The pick among the survivors is `AvailableUniform`'s rule, read
/// through the same `OverlayPattern` the algebra's crash overlay uses.
pub struct CrashSchedule {
    picks: AvailableUniform,
}

impl CrashSchedule {
    /// Explicit crash times (`None` = never crashes). Processor 0 must be
    /// `None`.
    pub fn new(crash_at: Vec<Option<u64>>, rng: SmallRng) -> Self {
        assert!(!crash_at.is_empty());
        CrashSchedule {
            picks: AvailableUniform::new(OverlayPattern::crash_times(crash_at), rng),
        }
    }

    /// `crash_frac` of processors 1..n crash at uniform times in
    /// `[0, horizon)`.
    pub fn uniform_crashes(n: usize, crash_frac: f64, horizon: u64, mut rng: SmallRng) -> Self {
        assert!(n > 0);
        let crash_at = uniform_crash_times(n, crash_frac, horizon, &mut rng);
        Self::new(crash_at, rng)
    }
}

/// The fail-stop pattern derivation shared by [`CrashSchedule`] and the
/// algebra's crash overlay: `crash_frac` of processors 1..n (processor 0
/// is always exempt) crash at uniform times in `[0, max(horizon, 1))`.
/// `None` marks a survivor.
pub(crate) fn uniform_crash_times(
    n: usize,
    crash_frac: f64,
    horizon: u64,
    rng: &mut SmallRng,
) -> Vec<Option<u64>> {
    assert!((0.0..=1.0).contains(&crash_frac));
    let mut crash_at = vec![None; n];
    let k = ((crash_frac * n as f64).round() as usize).min(n.saturating_sub(1));
    // Choose k distinct victims among 1..n.
    let mut victims: Vec<usize> = (1..n).collect();
    victims.shuffle(rng);
    for &v in victims.iter().take(k) {
        crash_at[v] = Some(rng.gen_range(0..horizon.max(1)));
    }
    crash_at
}

impl Schedule for CrashSchedule {
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
            "crash(n={},victims={})",
            self.picks.n(),
            self.picks.pattern().victims()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::schedule_rng;

    #[test]
    fn crashed_processors_never_run_again() {
        let mut s = CrashSchedule::new(vec![None, Some(100), Some(500), None], schedule_rng(17));
        for _ in 0..10_000u64 {
            let t = s.picks.tick();
            let p = s.next();
            if p.0 == 1 {
                assert!(t < 100, "P1 ran at tick {t} after crashing");
            }
            if p.0 == 2 {
                assert!(t < 500, "P2 ran at tick {t} after crashing");
            }
        }
    }

    #[test]
    fn survivors_share_all_later_work() {
        let mut s = CrashSchedule::new(vec![None, Some(0), Some(0)], schedule_rng(18));
        let mut h = [0u64; 3];
        for _ in 0..3000 {
            h[s.next().0] += 1;
        }
        assert_eq!(h[1], 0);
        assert_eq!(h[2], 0);
        assert_eq!(h[0], 3000);
    }

    #[test]
    #[should_panic(expected = "survive")]
    fn processor_zero_cannot_crash() {
        CrashSchedule::new(vec![Some(5), None], schedule_rng(19));
    }

    #[test]
    fn uniform_crashes_respects_fraction() {
        let s = CrashSchedule::uniform_crashes(16, 0.5, 1000, schedule_rng(20));
        assert_eq!(s.picks.pattern().victims(), 8);
        assert!((0..2000).all(|t| s.picks.pattern().is_active(0, t)));
    }
}
