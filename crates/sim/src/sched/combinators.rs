//! Live schedules for the adversary-algebra combinators.
//!
//! Each type here is the compiled form of one [`AdversarySpec`] node
//! (see [`super::algebra`]): it wraps already-built sub-schedules and
//! transforms their decision streams. Every implementation upholds the
//! batch-transparency invariant of [`Schedule`] by construction — the
//! per-type rustdoc states the argument — so compositions remain safe to
//! drive through the machine's prefetch queue at any batch size.
//!
//! [`AdversarySpec`]: super::AdversarySpec

use super::availability::{OverlayPattern, Window, WindowKind};
use super::Schedule;
use crate::word::ProcId;

/// `Overlay`: a fault pattern layered onto any inner adversary. The inner
/// schedule proposes a processor for each tick; if the overlay marks that
/// processor unavailable at that tick, the step is redirected to the next
/// available processor in cyclic order (processor 0 is always available).
///
/// **Batch transparency:** the redirection is a pure function of the
/// proposed processor and the tick index. `next_batch` delegates the
/// whole window to the inner schedule (itself batch-transparent), then
/// cuts the ticks at the pattern's `next_change` points. On each piece
/// every processor's availability is constant, so the per-tick remap
/// `next` performs is one fixed map for the whole piece. A piece where
/// all processors are available is left as drawn; a piece of at least
/// `n` ticks is remapped through an `n`-entry table built once for it,
/// whose entry for `p` is what the per-tick cyclic search returns for
/// `p`; a shorter piece is remapped slot by slot with that search.
pub struct OverlaySchedule {
    inner: Box<dyn Schedule>,
    window: Window,
    tick: u64,
}

impl OverlaySchedule {
    pub(crate) fn new(inner: Box<dyn Schedule>, pattern: OverlayPattern) -> Self {
        assert_eq!(pattern.n(), inner.n(), "overlay built for wrong size");
        OverlaySchedule {
            inner,
            window: Window::new(pattern),
            tick: 0,
        }
    }

    #[inline]
    fn redirect(&self, p: ProcId, t: u64) -> ProcId {
        let pattern = self.window.pattern();
        if pattern.is_active(p.0, t) {
            return p;
        }
        let n = self.inner.n();
        for d in 1..n {
            let q = (p.0 + d) % n;
            if pattern.is_active(q, t) {
                return ProcId(q);
            }
        }
        // Processor 0 is always active, so this is unreachable; kept total.
        ProcId(0)
    }
}

impl Schedule for OverlaySchedule {
    fn next(&mut self) -> ProcId {
        let t = self.tick;
        self.tick += 1;
        let p = self.inner.next();
        self.redirect(p, t)
    }

    fn next_batch(&mut self, out: &mut [ProcId]) {
        self.inner.next_batch(out);
        let mut t = self.tick;
        let mut i = 0;
        while i < out.len() {
            let (kind, run) = self.window.span(t, out.len() - i);
            let piece = &mut out[i..i + run];
            match kind {
                WindowKind::AllActive => {}
                WindowKind::Table => {
                    let table = self.window.redirect();
                    for slot in piece {
                        *slot = table[slot.0];
                    }
                }
                WindowKind::PerTick => {
                    // Availability is constant on the piece, so its first
                    // tick stands for all of them.
                    for slot in piece {
                        *slot = self.redirect(*slot, t);
                    }
                }
            }
            i += run;
            t += run as u64;
        }
        self.tick = t;
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn describe(&self) -> String {
        let pattern = self.window.pattern();
        format!(
            "overlay({}:{} over {})",
            pattern.label(),
            pattern.victims(),
            self.inner.describe()
        )
    }
}

/// `PhaseSwitch`: play each sub-schedule for a fixed tick window, in
/// order, then the tail forever. The switch points are fixed before the
/// run, so the composition is oblivious whenever its parts are.
///
/// **Batch transparency:** the span boundaries partition the global tick
/// sequence; `next_batch` carves the window at exactly those boundaries
/// and forwards each piece to the sub-schedule that `next` would have
/// consulted tick by tick, so each sub-schedule sees the identical call
/// sequence either way.
pub struct PhaseSwitchSchedule {
    spans: Vec<(u64, Box<dyn Schedule>)>,
    tail: Box<dyn Schedule>,
    /// Index of the current span (`spans.len()` once in the tail).
    idx: usize,
    /// Ticks already consumed from the current span.
    used: u64,
}

impl PhaseSwitchSchedule {
    pub(crate) fn new(spans: Vec<(u64, Box<dyn Schedule>)>, tail: Box<dyn Schedule>) -> Self {
        PhaseSwitchSchedule {
            spans,
            tail,
            idx: 0,
            used: 0,
        }
    }
}

impl Schedule for PhaseSwitchSchedule {
    fn next(&mut self) -> ProcId {
        while self.idx < self.spans.len() && self.used == self.spans[self.idx].0 {
            self.idx += 1;
            self.used = 0;
        }
        match self.spans.get_mut(self.idx) {
            Some((_, sched)) => {
                self.used += 1;
                sched.next()
            }
            None => self.tail.next(),
        }
    }

    fn next_batch(&mut self, out: &mut [ProcId]) {
        let mut i = 0;
        while i < out.len() {
            if self.idx < self.spans.len() {
                let (ticks, sched) = &mut self.spans[self.idx];
                let left = *ticks - self.used;
                if left == 0 {
                    self.idx += 1;
                    self.used = 0;
                    continue;
                }
                let run = (left.min((out.len() - i) as u64)) as usize;
                sched.next_batch(&mut out[i..i + run]);
                self.used += run as u64;
                i += run;
            } else {
                self.tail.next_batch(&mut out[i..]);
                i = out.len();
            }
        }
    }

    fn n(&self) -> usize {
        self.tail.n()
    }

    fn describe(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(t, s)| format!("{t}:{}", s.describe()))
            .collect();
        format!(
            "phase-switch([{}] then {})",
            spans.join(", "),
            self.tail.describe()
        )
    }
}

/// `Partition`: disjoint processor groups, each driven by its own
/// sub-adversary built over the group's *local* machine size. Tick `t`
/// belongs to the group that owns processor `t mod n`, so each round of
/// `n` ticks grants every group exactly as many steps as it has members;
/// within its ticks a group's sub-schedule picks the member (local ids
/// mapped through the sorted member list).
///
/// **Batch transparency:** the tick-to-group assignment is a pure
/// function of the tick index, and a window's ticks reach each group in
/// increasing order — the same order `next` would poll that group's
/// sub-schedule. Within a window starting at slot `c`, a group's ticks
/// are its members at or after `c` (offset `p − c`), then those before
/// `c` (offset `p + n − c`), repeating every `n` ticks: that list is
/// ascending. `next_batch` counts each group's share of the window, draws
/// it with one sub-batch, and writes draw `i` to the group's `i`-th tick
/// of that list: exactly the draw `next` would have made on that tick.
/// The count takes two binary searches per group and the scatter no
/// division, so a batch costs O(1) per decision plus O(log n) per group.
pub struct PartitionSchedule {
    /// `(sorted global member ids, local sub-schedule)` per group.
    groups: Vec<(Vec<usize>, Box<dyn Schedule>)>,
    /// `owner[slot]` = index of the group that owns processor `slot`.
    owner: Vec<usize>,
    /// `tick mod n`.
    cursor: usize,
    /// One group's draws of a batch (kept here so the prefetch hot path
    /// stays allocation-free in steady state).
    scratch: Vec<ProcId>,
}

impl PartitionSchedule {
    /// `groups` must exactly partition `0..n` (validated by the spec).
    pub(crate) fn new(n: usize, groups: Vec<(Vec<usize>, Box<dyn Schedule>)>) -> Self {
        let mut owner = vec![usize::MAX; n];
        for (g, (procs, sched)) in groups.iter().enumerate() {
            assert_eq!(
                sched.n(),
                procs.len(),
                "group schedule built for wrong size"
            );
            assert!(
                procs.windows(2).all(|w| w[0] < w[1]),
                "group members must be strictly increasing"
            );
            for &p in procs {
                assert!(owner[p] == usize::MAX, "processor {p} in two groups");
                owner[p] = g;
            }
        }
        assert!(
            owner.iter().all(|&g| g != usize::MAX),
            "groups must cover all processors"
        );
        PartitionSchedule {
            groups,
            owner,
            cursor: 0,
            scratch: Vec::new(),
        }
    }
}

impl Schedule for PartitionSchedule {
    fn next(&mut self) -> ProcId {
        let g = self.owner[self.cursor];
        self.cursor += 1;
        if self.cursor == self.owner.len() {
            self.cursor = 0;
        }
        let (procs, sched) = &mut self.groups[g];
        let local = sched.next();
        ProcId(procs[local.0])
    }

    fn next_batch(&mut self, out: &mut [ProcId]) {
        let n = self.owner.len();
        let c = self.cursor;
        let (full, rem) = (out.len() / n, out.len() % n);
        for (procs, sched) in &mut self.groups {
            // Members from `split` on come at or after the cursor.
            let split = procs.partition_point(|&p| p < c);
            let after = procs.partition_point(|&p| p < c + rem) - split;
            let before = if c + rem > n {
                procs.partition_point(|&p| p < c + rem - n)
            } else {
                0
            };
            let count = full * procs.len() + after + before;
            if count == 0 {
                continue;
            }
            self.scratch.resize(count, ProcId(0));
            sched.next_batch(&mut self.scratch);
            let mut drawn = self.scratch.iter();
            // `round` is the window tick of slot `c` in the current round.
            let mut round = 0;
            'scatter: loop {
                for &p in &procs[split..] {
                    let Some(local) = drawn.next() else {
                        break 'scatter;
                    };
                    out[round + p - c] = ProcId(procs[local.0]);
                }
                for &p in &procs[..split] {
                    let Some(local) = drawn.next() else {
                        break 'scatter;
                    };
                    out[round + n - c + p] = ProcId(procs[local.0]);
                }
                round += n;
            }
        }
        self.cursor = if c + rem >= n { c + rem - n } else { c + rem };
    }

    fn n(&self) -> usize {
        self.owner.len()
    }

    fn describe(&self) -> String {
        let groups: Vec<String> = self
            .groups
            .iter()
            .map(|(procs, s)| format!("{}p:{}", procs.len(), s.describe()))
            .collect();
        format!("partition({})", groups.join(" | "))
    }
}

/// `Scale`: a per-processor speed warp. Every decision of the inner
/// schedule is stretched into `factors[p]` consecutive steps by processor
/// `p`, so a factor-`k` processor advances `k` work units for every one
/// the inner adversary granted it (relative speeds multiply).
///
/// **Batch transparency:** the expansion is a run-length state machine
/// exactly like [`Bursty`](super::Bursty)'s — `(current, remaining)` —
/// and `next_batch` fills whole runs with the identical draws from the
/// inner schedule that `next` would make one tick at a time.
pub struct ScaleSchedule {
    inner: Box<dyn Schedule>,
    factors: Vec<u64>,
    current: ProcId,
    remaining: u64,
}

impl ScaleSchedule {
    /// `factors` must have one entry ≥ 1 per processor (validated by the
    /// spec).
    pub(crate) fn new(inner: Box<dyn Schedule>, factors: Vec<u64>) -> Self {
        assert_eq!(factors.len(), inner.n(), "one factor per processor");
        assert!(factors.iter().all(|&f| f >= 1), "factors must be >= 1");
        ScaleSchedule {
            inner,
            factors,
            current: ProcId(0),
            remaining: 0,
        }
    }
}

impl Schedule for ScaleSchedule {
    fn next(&mut self) -> ProcId {
        if self.remaining == 0 {
            self.current = self.inner.next();
            self.remaining = self.factors[self.current.0];
        }
        self.remaining -= 1;
        self.current
    }

    fn next_batch(&mut self, out: &mut [ProcId]) {
        let mut i = 0;
        while i < out.len() {
            if self.remaining == 0 {
                self.current = self.inner.next();
                self.remaining = self.factors[self.current.0];
            }
            let run = self.remaining.min((out.len() - i) as u64) as usize;
            out[i..i + run].fill(self.current);
            self.remaining -= run as u64;
            i += run;
        }
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn describe(&self) -> String {
        let max = self.factors.iter().max().copied().unwrap_or(1);
        format!("scale(max={max} over {})", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::small_rng;
    use crate::sched::{RoundRobin, UniformRandom};

    fn round_robin(n: usize) -> Box<dyn Schedule> {
        Box::new(RoundRobin::new(n))
    }

    #[test]
    fn overlay_redirects_only_inactive_ticks() {
        // Processor 2 crashes at tick 3; before that the stream is
        // untouched, after it every proposed 2 lands on 3 (next cyclic).
        let pattern = OverlayPattern::crash_times(vec![None, None, Some(3), None]);
        let mut s = OverlaySchedule::new(round_robin(4), pattern);
        let picks: Vec<usize> = (0..8).map(|_| s.next().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 3, 3]);
    }

    #[test]
    fn overlay_sleepy_pattern_matches_sleepy_semantics() {
        let pattern = OverlayPattern::sleepy(8, 0.5, 10, 30, small_rng(3));
        for t in 0..200 {
            assert!(pattern.is_active(0, t), "processor 0 never sleeps");
        }
    }

    #[test]
    fn phase_switch_changes_streams_at_exact_boundaries() {
        let spans: Vec<(u64, Box<dyn Schedule>)> = vec![(3, round_robin(4))];
        let mut s = PhaseSwitchSchedule::new(spans, Box::new(UniformRandom::new(4, small_rng(1))));
        let mut t = UniformRandom::new(4, small_rng(1));
        let picks: Vec<usize> = (0..7).map(|_| s.next().0).collect();
        let tail: Vec<usize> = (0..4).map(|_| t.next().0).collect();
        assert_eq!(&picks[..3], &[0, 1, 2]);
        assert_eq!(&picks[3..], &tail[..]);
    }

    #[test]
    fn partition_maps_local_ids_through_member_lists() {
        // Group 0 owns {0, 2}, group 1 owns {1, 3}; both run round-robin
        // locally. Ticks go 0,1,2,3 → owners 0,1,0,1.
        let groups: Vec<(Vec<usize>, Box<dyn Schedule>)> =
            vec![(vec![0, 2], round_robin(2)), (vec![1, 3], round_robin(2))];
        let mut s = PartitionSchedule::new(4, groups);
        let picks: Vec<usize> = (0..8).map(|_| s.next().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn scale_stretches_decisions_by_their_factor() {
        let mut s = ScaleSchedule::new(round_robin(3), vec![1, 2, 3]);
        let picks: Vec<usize> = (0..12).map(|_| s.next().0).collect();
        assert_eq!(picks, vec![0, 1, 1, 2, 2, 2, 0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn combinators_are_batch_transparent() {
        let builders: Vec<fn() -> Box<dyn Schedule>> = vec![
            || {
                Box::new(OverlaySchedule::new(
                    Box::new(UniformRandom::new(6, small_rng(7))),
                    OverlayPattern::crash(6, 0.5, 100, small_rng(8)),
                ))
            },
            || {
                let spans: Vec<(u64, Box<dyn Schedule>)> = vec![
                    (5, Box::new(RoundRobin::new(6))),
                    (17, Box::new(UniformRandom::new(6, small_rng(9)))),
                ];
                Box::new(PhaseSwitchSchedule::new(
                    spans,
                    Box::new(UniformRandom::new(6, small_rng(10))),
                ))
            },
            || {
                let groups: Vec<(Vec<usize>, Box<dyn Schedule>)> = vec![
                    (
                        vec![0, 3, 4],
                        Box::new(UniformRandom::new(3, small_rng(11))),
                    ),
                    (vec![1, 2, 5], Box::new(RoundRobin::new(3))),
                ];
                Box::new(PartitionSchedule::new(6, groups))
            },
            || {
                Box::new(ScaleSchedule::new(
                    Box::new(UniformRandom::new(6, small_rng(12))),
                    vec![1, 2, 3, 1, 5, 1],
                ))
            },
        ];
        for mk in builders {
            let mut reference = mk();
            let mut batched = mk();
            let serial: Vec<ProcId> = (0..500).map(|_| reference.next()).collect();
            let mut got = Vec::new();
            let mut buf = [ProcId(0); 128];
            // Ragged batch sizes, including 1, crossing every boundary kind.
            let sizes = [1usize, 7, 64, 3, 128, 31, 2, 64];
            let mut k = 0;
            while got.len() < serial.len() {
                let take = sizes[k % sizes.len()].min(serial.len() - got.len());
                batched.next_batch(&mut buf[..take]);
                got.extend_from_slice(&buf[..take]);
                k += 1;
            }
            assert_eq!(got, serial, "{}", reference.describe());
        }
    }
}
