//! Bursty schedule: coarse context switches.

use super::Schedule;
use crate::word::ProcId;
use rand::prelude::*;
use rand::rngs::SmallRng;

/// One processor runs an entire burst of consecutive steps before the
/// scheduler switches to another (uniformly random) processor. Burst lengths
/// are geometric with the configured mean, so the schedule is memoryless and
/// oblivious. Models multitasking hosts where a process keeps the CPU for a
/// quantum — a major asynchrony source named in the paper's introduction
/// (interrupts, context switches).
pub struct Bursty {
    n: usize,
    mean_burst: u64,
    /// `ln(1 − 1/mean_burst)`, the geometric law's log-survival per step.
    log_stay: f64,
    current: ProcId,
    remaining: u64,
    rng: SmallRng,
}

/// `ln(1 − 1/mean)` for a geometric burst law of the given mean: the
/// constant every burst draw divides by. It is negative for every mean
/// of at least 1 whose `1 − 1/mean` rounds below 1, that is, up to about
/// 2^53; past that it is 0 and every burst would have length 1.
pub(crate) fn log_stay(mean_burst: u64) -> f64 {
    let p = 1.0 / mean_burst as f64;
    (1.0 - p).max(f64::MIN_POSITIVE).ln()
}

impl Bursty {
    /// Bursty schedule over `n` processors with geometric bursts of the given
    /// mean length (≥ 1, and small enough that `ln(1 − 1/mean)` is
    /// negative).
    pub fn new(n: usize, mean_burst: u64, rng: SmallRng) -> Self {
        assert!(n > 0);
        assert!(mean_burst >= 1);
        let log_stay = log_stay(mean_burst);
        assert!(
            log_stay < 0.0,
            "bursty mean_burst {mean_burst} is too large"
        );
        Bursty {
            n,
            mean_burst,
            log_stay,
            current: ProcId(0),
            remaining: 0,
            rng,
        }
    }

    fn draw_burst(&mut self) -> u64 {
        // Geometric(p) with p = 1/mean via inversion; at least 1.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let len = (u.ln() / self.log_stay).ceil();
        if len < 1.0 {
            1
        } else {
            len as u64
        }
    }
}

impl Schedule for Bursty {
    fn next(&mut self) -> ProcId {
        if self.remaining == 0 {
            self.current = ProcId(self.rng.gen_range(0..self.n));
            self.remaining = self.draw_burst();
        }
        self.remaining -= 1;
        self.current
    }

    fn next_batch(&mut self, out: &mut [ProcId]) {
        // Bursts are runs of one ProcId, so a batch is a handful of
        // `fill`s rather than out.len() individual decisions.
        let mut i = 0;
        while i < out.len() {
            if self.remaining == 0 {
                self.current = ProcId(self.rng.gen_range(0..self.n));
                self.remaining = self.draw_burst();
            }
            let run = self.remaining.min((out.len() - i) as u64) as usize;
            out[i..i + run].fill(self.current);
            self.remaining -= run as u64;
            i += run;
        }
    }

    fn n(&self) -> usize {
        self.n
    }

    fn describe(&self) -> String {
        format!("bursty(n={},mean={})", self.n, self.mean_burst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::schedule_rng;

    #[test]
    fn bursts_have_roughly_the_configured_mean() {
        let mut s = Bursty::new(16, 32, schedule_rng(3));
        let mut switches = 0u64;
        let mut last = s.next();
        let ticks = 200_000u64;
        for _ in 1..ticks {
            let p = s.next();
            if p != last {
                switches += 1;
            }
            last = p;
        }
        let mean = ticks as f64 / (switches + 1) as f64;
        // A uniform re-draw can pick the same processor again, so observed
        // runs are slightly longer than one geometric burst.
        assert!((24.0..48.0).contains(&mean), "observed mean burst {mean}");
    }

    #[test]
    fn mean_one_degenerates_to_uniform_switching() {
        let mut s = Bursty::new(4, 1, schedule_rng(4));
        let mut h = vec![0u64; 4];
        for _ in 0..4000 {
            h[s.next().0] += 1;
        }
        for &c in &h {
            assert!((700..1300).contains(&(c as usize)), "histogram {h:?}");
        }
    }
}
