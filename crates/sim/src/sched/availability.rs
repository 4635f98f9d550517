//! Processor availability: the one predicate behind the fail-stop and
//! tardy adversaries.
//!
//! An [`OverlayPattern`] says which processors may run at which tick. The
//! base [`Sleepy`](super::Sleepy) and [`CrashSchedule`](super::CrashSchedule)
//! pick uniformly among the available processors; the algebra's
//! [overlay](super::OverlaySchedule) redirects another adversary's picks
//! to them. All three read availability here, per tick through
//! [`OverlayPattern::is_active`] and per window through [`Window`].

use crate::word::ProcId;
use rand::prelude::*;
use rand::rngs::SmallRng;

/// Precomputed per-processor availability pattern: a pure function of
/// `(processor, tick)`, fixed before the run (oblivious by construction).
/// Processor 0 is always available, so redirection always terminates and
/// a schedule built on the pattern stays total.
pub(crate) enum OverlayPattern {
    /// Fail-stop: each victim has a crash tick after which it is never
    /// available.
    Crash {
        /// Per-processor crash tick (`None` = never crashes).
        crash_at: Vec<Option<u64>>,
        /// The distinct positive crash ticks, ascending: the ticks at
        /// which some processor's availability flips. A crash at tick 0
        /// is no flip; that processor is never available.
        flips: Vec<u64>,
    },
    /// Tardy: sleepers alternate awake/asleep windows with per-processor
    /// phase offsets (`u64::MAX` marks always-awake).
    Sleepy {
        /// Ticks awake per period.
        awake: u64,
        /// Ticks asleep per period.
        asleep: u64,
        /// Per-processor phase offsets.
        offsets: Vec<u64>,
        /// The distinct residues of a tick modulo the period at which
        /// some sleeper wakes or falls asleep, ascending (empty when no
        /// one ever sleeps).
        phases: Vec<u64>,
    },
}

impl OverlayPattern {
    /// Fail-stop pattern from explicit crash ticks (`None` = survivor).
    pub(crate) fn crash_times(crash_at: Vec<Option<u64>>) -> Self {
        assert!(crash_at[0].is_none(), "processor 0 must survive");
        let mut flips: Vec<u64> = crash_at
            .iter()
            .flatten()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        flips.sort_unstable();
        flips.dedup();
        OverlayPattern::Crash { crash_at, flips }
    }

    /// Fail-stop pattern: the exact derivation of
    /// [`CrashSchedule::uniform_crashes`](super::CrashSchedule::uniform_crashes)
    /// (shared helper, so the two can never drift apart).
    pub(crate) fn crash(n: usize, crash_frac: f64, horizon: u64, mut rng: SmallRng) -> Self {
        Self::crash_times(super::crash::uniform_crash_times(
            n, crash_frac, horizon, &mut rng,
        ))
    }

    /// Tardy pattern from explicit phase offsets (`u64::MAX` = never
    /// sleeps). The period `awake + asleep` must fit in a `u64`.
    pub(crate) fn sleep_offsets(awake: u64, asleep: u64, offsets: Vec<u64>) -> Self {
        assert!(awake >= 1, "awake window must be ≥ 1");
        assert!(offsets[0] == u64::MAX, "processor 0 must never sleep");
        let period = awake.checked_add(asleep).expect("sleepy period fits a u64");
        let mut phases = Vec::new();
        if asleep > 0 {
            // A sleeper wakes where (t + off) mod period = 0 and falls
            // asleep where it is `awake`; solve each for t mod period.
            let p = period as u128;
            for &off in offsets.iter().filter(|&&o| o != u64::MAX) {
                let back = p - off as u128 % p;
                phases.push((back % p) as u64);
                phases.push(((awake as u128 + back) % p) as u64);
            }
        }
        phases.sort_unstable();
        phases.dedup();
        OverlayPattern::Sleepy {
            awake,
            asleep,
            offsets,
            phases,
        }
    }

    /// Tardy pattern: the exact derivation of
    /// [`Sleepy::new`](super::Sleepy::new) (shared helper).
    pub(crate) fn sleepy(
        n: usize,
        sleepy_frac: f64,
        awake: u64,
        asleep: u64,
        mut rng: SmallRng,
    ) -> Self {
        let offsets = super::sleepy::sleep_offsets(n, sleepy_frac, awake, asleep, &mut rng);
        Self::sleep_offsets(awake, asleep, offsets)
    }

    /// Number of processors.
    pub(crate) fn n(&self) -> usize {
        match self {
            OverlayPattern::Crash { crash_at, .. } => crash_at.len(),
            OverlayPattern::Sleepy { offsets, .. } => offsets.len(),
        }
    }

    /// Whether processor `p` is available at tick `t`.
    #[inline]
    pub(crate) fn is_active(&self, p: usize, t: u64) -> bool {
        match self {
            OverlayPattern::Crash { crash_at, .. } => match crash_at[p] {
                None => true,
                Some(c) => t < c,
            },
            OverlayPattern::Sleepy {
                awake,
                asleep,
                offsets,
                ..
            } => {
                let off = offsets[p];
                if off == u64::MAX {
                    return true;
                }
                (t + off) % (awake + asleep) < *awake
            }
        }
    }

    /// The first tick after `t` at which some processor's availability
    /// differs from the tick before: every processor's availability is
    /// constant on `[t, next_change(t))`. `u64::MAX` when none ever flips
    /// again. O(log n).
    pub(crate) fn next_change(&self, t: u64) -> u64 {
        match self {
            OverlayPattern::Crash { flips, .. } => {
                let i = flips.partition_point(|&c| c <= t);
                flips.get(i).copied().unwrap_or(u64::MAX)
            }
            OverlayPattern::Sleepy {
                awake,
                asleep,
                phases,
                ..
            } => {
                let (Some(&first), Some(u)) = (phases.first(), t.checked_add(1)) else {
                    return u64::MAX;
                };
                let period = awake + asleep;
                let r = u % period;
                let ahead = match phases.get(phases.partition_point(|&ph| ph < r)) {
                    Some(&ph) => ph - r,
                    None => (period - r).saturating_add(first),
                };
                u.saturating_add(ahead)
            }
        }
    }

    /// Number of processors the pattern ever makes unavailable.
    pub(crate) fn victims(&self) -> usize {
        match self {
            OverlayPattern::Crash { crash_at, .. } => {
                crash_at.iter().filter(|c| c.is_some()).count()
            }
            OverlayPattern::Sleepy { offsets, .. } => {
                offsets.iter().filter(|&&o| o != u64::MAX).count()
            }
        }
    }

    pub(crate) fn label(&self) -> &'static str {
        match self {
            OverlayPattern::Crash { .. } => "crash",
            OverlayPattern::Sleepy { .. } => "sleepy",
        }
    }
}

/// How a batched draw treats the ticks of the current [`Window`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WindowKind {
    /// Every processor is available.
    AllActive,
    /// Some processor is not; [`Window::redirect`] holds the window's
    /// redirect table.
    Table,
    /// The window is shorter than `n` ticks, so its table would cost more
    /// to build than it saves: ask the pattern tick by tick.
    PerTick,
}

/// A pattern with the availability of its current window cached for
/// batched draws: a window is a run of ticks on which no processor's
/// availability changes. Building the cache costs O(n) and is done only
/// for windows of at least `n` ticks, so a batched draw pays O(1)
/// amortized per decision for it whatever `n` is.
pub(crate) struct Window {
    pattern: OverlayPattern,
    /// First tick past the current window.
    end: u64,
    kind: WindowKind,
    /// `redirect[p]`: the first available processor in cyclic order from
    /// `p` (`p` itself exactly when `p` is available). Valid for
    /// [`WindowKind::Table`] windows.
    redirect: Vec<ProcId>,
}

impl Window {
    /// The window cache of `pattern`; the first [`Window::span`] enters
    /// the window holding its tick.
    pub(crate) fn new(pattern: OverlayPattern) -> Self {
        let n = pattern.n();
        Window {
            pattern,
            end: 0,
            kind: WindowKind::PerTick,
            redirect: vec![ProcId(0); n],
        }
    }

    pub(crate) fn pattern(&self) -> &OverlayPattern {
        &self.pattern
    }

    /// The kind of the window holding tick `t`, and how many of the `want`
    /// ticks from `t` on lie in it (at least one). Ticks must be asked in
    /// increasing order.
    #[inline]
    pub(crate) fn span(&mut self, t: u64, want: usize) -> (WindowKind, usize) {
        if t >= self.end {
            self.enter(t);
        }
        (self.kind, (self.end - t).min(want as u64) as usize)
    }

    /// The redirect table of the current [`WindowKind::Table`] window.
    #[inline]
    pub(crate) fn redirect(&self) -> &[ProcId] {
        &self.redirect
    }

    fn enter(&mut self, t: u64) {
        let n = self.redirect.len();
        self.end = self.pattern.next_change(t);
        if self.end - t < n as u64 {
            self.kind = WindowKind::PerTick;
            return;
        }
        // Right to left: each processor redirects to itself when
        // available, else to its successor's target. Processor 0 is
        // always available, so the wrap-around target is 0.
        let mut target = 0;
        let mut all = true;
        for p in (0..n).rev() {
            if self.pattern.is_active(p, t) {
                target = p;
            } else {
                all = false;
            }
            self.redirect[p] = ProcId(target);
        }
        self.kind = if all {
            WindowKind::AllActive
        } else {
            WindowKind::Table
        };
    }
}

/// Uniform choice among the processors a pattern makes available: the
/// pick rule of the base [`Sleepy`](super::Sleepy) and
/// [`CrashSchedule`](super::CrashSchedule) adversaries. Each tick draws up
/// to 16 uniform candidates and takes the first available one; if all 16
/// are unavailable it draws a start and scans cyclically from it.
///
/// **Batch transparency:** `next` applies the rule through
/// [`OverlayPattern::is_active`]. `next_batch` applies it per window.
/// Where every processor is available the first candidate is always
/// taken, so the rule is one uniform draw. Where the window has a table,
/// a candidate is available exactly when the table maps it to itself,
/// and the cyclic scan from a start ends at the start's table entry.
/// Both consume the RNG exactly as `next` does, draw for draw.
pub(crate) struct AvailableUniform {
    window: Window,
    tick: u64,
    rng: SmallRng,
}

impl AvailableUniform {
    pub(crate) fn new(pattern: OverlayPattern, rng: SmallRng) -> Self {
        AvailableUniform {
            window: Window::new(pattern),
            tick: 0,
            rng,
        }
    }

    pub(crate) fn pattern(&self) -> &OverlayPattern {
        self.window.pattern()
    }

    pub(crate) fn n(&self) -> usize {
        self.pattern().n()
    }

    /// The tick of the next decision.
    #[cfg(test)]
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }

    /// The next decision, asking the pattern directly: the reference.
    pub(crate) fn next(&mut self) -> ProcId {
        let t = self.tick;
        self.tick += 1;
        self.pick_at(t)
    }

    /// The next `out.len()` decisions, window by window.
    pub(crate) fn next_batch(&mut self, out: &mut [ProcId]) {
        let n = self.n();
        let mut t = self.tick;
        let mut i = 0;
        while i < out.len() {
            let (kind, run) = self.window.span(t, out.len() - i);
            let chunk = &mut out[i..i + run];
            match kind {
                WindowKind::AllActive => {
                    for slot in chunk {
                        *slot = ProcId(self.rng.gen_range(0..n));
                    }
                }
                WindowKind::Table => {
                    for slot in chunk {
                        *slot = pick_in(self.window.redirect(), &mut self.rng);
                    }
                }
                WindowKind::PerTick => {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        *slot = self.pick_at(t + k as u64);
                    }
                }
            }
            i += run;
            t += run as u64;
        }
        self.tick = t;
    }

    /// One decision at tick `t`, asking the pattern directly.
    #[inline]
    fn pick_at(&mut self, t: u64) -> ProcId {
        let pattern = self.window.pattern();
        let n = pattern.n();
        for _ in 0..16 {
            let p = self.rng.gen_range(0..n);
            if pattern.is_active(p, t) {
                return ProcId(p);
            }
        }
        let start = self.rng.gen_range(0..n);
        for d in 0..n {
            let p = (start + d) % n;
            if pattern.is_active(p, t) {
                return ProcId(p);
            }
        }
        // Processor 0 is always available, so this is unreachable; kept total.
        ProcId(0)
    }
}

/// One decision through a window's redirect table.
#[inline]
fn pick_in(redirect: &[ProcId], rng: &mut SmallRng) -> ProcId {
    let n = redirect.len();
    for _ in 0..16 {
        let p = rng.gen_range(0..n);
        if redirect[p].0 == p {
            return ProcId(p);
        }
    }
    redirect[rng.gen_range(0..n)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::small_rng;

    /// Availability of every processor at tick `t`.
    fn row(pattern: &OverlayPattern, t: u64) -> Vec<bool> {
        (0..pattern.n()).map(|p| pattern.is_active(p, t)).collect()
    }

    /// `next_change` against a brute-force scan of the first `horizon`
    /// ticks: constant availability up to the change, a flip at it, and
    /// no flip at all within the horizon after `u64::MAX`.
    fn check_next_change(pattern: &OverlayPattern, horizon: u64, what: &str) {
        let mut t = 0;
        while t < horizon {
            let change = pattern.next_change(t);
            assert!(change > t, "{what}: next_change({t}) = {change}");
            let at_t = row(pattern, t);
            let end = change.min(horizon);
            for u in t..end {
                assert_eq!(
                    row(pattern, u),
                    at_t,
                    "{what}: flip at {u} inside [{t}, {change})"
                );
            }
            if change == u64::MAX {
                break;
            }
            if change < horizon {
                assert_ne!(row(pattern, change), at_t, "{what}: no flip at {change}");
            }
            // Also ask from every tick inside the window, not just its start.
            for u in (t + 1)..end.min(t + 5) {
                assert_eq!(pattern.next_change(u), change, "{what}: next_change({u})");
            }
            t = change;
        }
    }

    #[test]
    fn next_change_bounds_constant_windows_of_random_crash_patterns() {
        for seed in 0..60u64 {
            let mut rng = small_rng(seed);
            let n = rng.gen_range(1..12usize);
            let horizon = rng.gen_range(0..200u64);
            let mut crash_at: Vec<Option<u64>> = (0..n)
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => None,
                    1 => Some(0),
                    2 => Some(horizon.saturating_sub(1)),
                    _ => Some(rng.gen_range(0..horizon.max(1))),
                })
                .collect();
            crash_at[0] = None;
            let pattern = OverlayPattern::crash_times(crash_at.clone());
            check_next_change(&pattern, horizon + 50, &format!("crash {crash_at:?}"));
            let flips = crash_at.iter().flatten().filter(|&&c| c > 0).count();
            if flips == 0 {
                assert_eq!(pattern.next_change(0), u64::MAX, "{crash_at:?}");
            }
        }
        // The derivation used by the schedules, at its horizon edges.
        for (frac, horizon) in [(1.0, 0), (1.0, 1), (0.5, 3), (0.25, 100)] {
            let pattern = OverlayPattern::crash(9, frac, horizon, small_rng(horizon));
            check_next_change(&pattern, horizon + 20, &format!("crash({frac}, {horizon})"));
        }
    }

    #[test]
    fn next_change_bounds_constant_windows_of_random_sleepy_patterns() {
        for seed in 0..60u64 {
            let mut rng = small_rng(1000 + seed);
            let n = rng.gen_range(1..10usize);
            let awake = rng.gen_range(1..9u64);
            let asleep = rng.gen_range(0..9u64);
            let period = awake + asleep;
            let offsets: Vec<u64> = (0..n)
                .map(|p| match (p, rng.gen_range(0..5u32)) {
                    (0, _) | (_, 0) => u64::MAX,
                    // Offsets on the period's boundaries.
                    (_, 1) => 0,
                    (_, 2) => awake,
                    (_, 3) => period - 1,
                    _ => rng.gen_range(0..period),
                })
                .collect();
            let pattern = OverlayPattern::sleep_offsets(awake, asleep, offsets.clone());
            let what = format!("sleepy {awake}/{asleep} {offsets:?}");
            check_next_change(&pattern, 4 * period + 10, &what);
            let sleepers = offsets.iter().filter(|&&o| o != u64::MAX).count();
            if asleep == 0 || sleepers == 0 {
                assert_eq!(pattern.next_change(0), u64::MAX, "{what}");
            }
        }
    }

    #[test]
    fn next_change_saturates_at_the_end_of_time() {
        let crash = OverlayPattern::crash_times(vec![None, Some(5)]);
        assert_eq!(crash.next_change(4), 5);
        assert_eq!(crash.next_change(5), u64::MAX);
        let sleepy = OverlayPattern::sleep_offsets(3, 2, vec![u64::MAX, 0]);
        assert_eq!(sleepy.next_change(u64::MAX - 1), u64::MAX);
        assert_eq!(sleepy.next_change(u64::MAX), u64::MAX);
    }

    #[test]
    fn window_tables_redirect_like_the_cyclic_scan() {
        let pattern = OverlayPattern::crash_times(vec![None, Some(0), Some(0), None, Some(0)]);
        let mut window = Window::new(pattern);
        let (kind, run) = window.span(0, 100);
        assert_eq!((kind, run), (WindowKind::Table, 100));
        let table: Vec<usize> = window.redirect().iter().map(|p| p.0).collect();
        assert_eq!(table, vec![0, 3, 3, 3, 0]);
        // A window shorter than n is left to per-tick decisions.
        let pattern = OverlayPattern::crash_times(vec![None, Some(2), Some(4), None]);
        let mut window = Window::new(pattern);
        assert_eq!(window.span(0, 100), (WindowKind::PerTick, 2));
        assert_eq!(window.span(2, 100), (WindowKind::PerTick, 2));
        assert_eq!(window.span(4, 100), (WindowKind::Table, 100));
    }
}
