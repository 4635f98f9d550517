//! Baseline schedules: round-robin, uniform, and weighted processor speeds.

use super::Schedule;
use crate::word::ProcId;
use rand::distributions::WeightedIndex;
use rand::prelude::*;
use rand::rngs::SmallRng;

/// Perfectly fair rotation `P_0, P_1, …, P_{n-1}, P_0, …` — the closest an
/// asynchronous schedule comes to lock-step synchrony.
#[derive(Debug)]
pub struct RoundRobin {
    n: usize,
    next: usize,
}

impl RoundRobin {
    /// A round-robin schedule over `n` processors.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        RoundRobin { n, next: 0 }
    }
}

impl Schedule for RoundRobin {
    fn next(&mut self) -> ProcId {
        let p = self.next;
        self.next = (self.next + 1) % self.n;
        ProcId(p)
    }

    fn next_batch(&mut self, out: &mut [ProcId]) {
        let mut p = self.next;
        for slot in out.iter_mut() {
            *slot = ProcId(p);
            p += 1;
            if p == self.n {
                p = 0;
            }
        }
        self.next = p;
    }

    fn n(&self) -> usize {
        self.n
    }

    fn describe(&self) -> String {
        format!("round-robin(n={})", self.n)
    }
}

/// Each atomic step is performed by a uniformly random processor — the
/// canonical "random asynchrony" model.
pub struct UniformRandom {
    n: usize,
    rng: SmallRng,
}

impl UniformRandom {
    /// A uniform schedule over `n` processors driven by `rng` (which must be
    /// the dedicated schedule stream).
    pub fn new(n: usize, rng: SmallRng) -> Self {
        assert!(n > 0);
        UniformRandom { n, rng }
    }
}

impl Schedule for UniformRandom {
    fn next(&mut self) -> ProcId {
        ProcId(self.rng.gen_range(0..self.n))
    }

    fn next_batch(&mut self, out: &mut [ProcId]) {
        // Monomorphized draw loop: one virtual call per block, and the RNG
        // state stays in registers across the whole batch.
        let n = self.n;
        for slot in out.iter_mut() {
            *slot = ProcId(self.rng.gen_range(0..n));
        }
    }

    fn n(&self) -> usize {
        self.n
    }

    fn describe(&self) -> String {
        format!("uniform(n={})", self.n)
    }
}

/// Processors advance at unequal relative speeds: step `t` is given to
/// processor `i` with probability proportional to `w_i`. Models
/// heterogeneous load (the paper's "heavily loaded processor may dedicate
/// considerably less CPU time").
pub struct WeightedSpeeds {
    n: usize,
    dist: WeightedIndex<f64>,
    rng: SmallRng,
    label: String,
}

impl WeightedSpeeds {
    /// Arbitrary positive weights, one per processor.
    pub fn new(weights: &[f64], rng: SmallRng, label: impl Into<String>) -> Self {
        assert!(!weights.is_empty());
        assert!(weights.iter().all(|w| *w > 0.0), "weights must be positive");
        WeightedSpeeds {
            n: weights.len(),
            dist: WeightedIndex::new(weights).expect("valid weights"),
            rng,
            label: label.into(),
        }
    }

    /// Zipf-skewed speeds: `w_i = 1/(i+1)^s`.
    pub fn zipf(n: usize, s: f64, rng: SmallRng) -> Self {
        let weights: Vec<f64> = (0..n).map(|i| zipf_weight(i, s)).collect();
        Self::new(&weights, rng, format!("zipf(n={n},s={s})"))
    }

    /// Two speed classes: the first `⌈slow_frac·n⌉` processors have weight 1,
    /// the rest weight `ratio`.
    pub fn two_class(n: usize, slow_frac: f64, ratio: f64, rng: SmallRng) -> Self {
        assert!((0.0..=1.0).contains(&slow_frac));
        assert!(ratio >= 1.0);
        let (slow, weights) = two_class_weights(n, slow_frac, ratio);
        Self::new(
            &weights,
            rng,
            format!("two-class(n={n},slow={slow},ratio={ratio})"),
        )
    }
}

/// The zipf speed weight `1/(i+1)^s` of processor `i`.
pub(crate) fn zipf_weight(i: usize, s: f64) -> f64 {
    1.0 / ((i + 1) as f64).powf(s)
}

/// The two-class speed weights of processors `0..n`, with the number of
/// slow processors.
pub(crate) fn two_class_weights(n: usize, slow_frac: f64, ratio: f64) -> (usize, Vec<f64>) {
    let slow = ((slow_frac * n as f64).ceil() as usize).min(n);
    let weights = (0..n).map(|i| if i < slow { 1.0 } else { ratio }).collect();
    (slow, weights)
}

impl Schedule for WeightedSpeeds {
    fn next(&mut self) -> ProcId {
        ProcId(self.dist.sample(&mut self.rng))
    }

    fn next_batch(&mut self, out: &mut [ProcId]) {
        for slot in out.iter_mut() {
            *slot = ProcId(self.dist.sample(&mut self.rng));
        }
    }

    fn n(&self) -> usize {
        self.n
    }

    fn describe(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::schedule_rng;

    #[test]
    fn round_robin_cycles_in_order() {
        let mut s = RoundRobin::new(3);
        let picks: Vec<usize> = (0..7).map(|_| s.next().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn uniform_covers_all_processors() {
        let mut s = UniformRandom::new(10, schedule_rng(5));
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[s.next().0] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn two_class_ratio_is_respected() {
        let mut s = WeightedSpeeds::two_class(8, 0.5, 8.0, schedule_rng(5));
        let mut h = [0u64; 8];
        for _ in 0..80_000 {
            h[s.next().0] += 1;
        }
        let slow: u64 = h[..4].iter().sum();
        let fast: u64 = h[4..].iter().sum();
        let ratio = fast as f64 / slow as f64;
        assert!((6.0..10.0).contains(&ratio), "observed ratio {ratio}");
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let mut s = WeightedSpeeds::zipf(6, 1.2, schedule_rng(6));
        let mut h = vec![0u64; 6];
        for _ in 0..60_000 {
            h[s.next().0] += 1;
        }
        assert!(h[0] > h[2] && h[2] > h[5], "histogram {h:?}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        WeightedSpeeds::new(&[1.0, 0.0], schedule_rng(0), "bad");
    }
}
