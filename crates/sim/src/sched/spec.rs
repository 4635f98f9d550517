//! Declarative, serializable scripted-schedule specifications.
//!
//! A [`ScriptedSchedule`](super::ScriptedSchedule) built by hand out of
//! [`Script`] calls is a black box: it cannot be cloned, compared, or
//! written to disk. The synthesis subsystem needs all three — a fuzz
//! campaign's shrunk reproducers must be *self-contained artifacts* that
//! rebuild the exact adversary from a JSON file. A [`ScriptSpec`] is the
//! declarative form: an explicit segment list plus a fallback
//! [`ScheduleKind`], round-tripping through the workspace's JSON codec
//! ([`crate::json`]) and buildable into a live schedule at any time.
//!
//! [`ScheduleKind::Scripted`] lifts the spec into the ordinary schedule
//! family, so scripted adversaries flow through every harness that accepts
//! a `ScheduleKind` (scheme runs, the parallel trial runner, experiments)
//! with no special plumbing.

use super::{ScheduleKind, Script, ScriptedSchedule};
use crate::json::{Json, JsonError, JsonVal, JsonWriter, WriteJson};

/// One segment of a scripted prefix (mirrors the [`Script`] builder verbs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScriptSegment {
    /// Processor `proc` performs `ticks` consecutive steps (everyone else
    /// is starved for the window — the tardy-writer/loaded-gun shape).
    Run {
        /// The favored processor.
        proc: usize,
        /// Window length in atomic steps.
        ticks: u64,
    },
    /// `rounds` round-robin rounds over an explicit processor subset.
    RoundRobin {
        /// The scheduled processors, in rotation order.
        procs: Vec<usize>,
        /// Number of full rotations.
        rounds: u64,
    },
    /// `rounds` round-robin rounds over all processors *except* the
    /// excluded ones (phase-aligned starvation windows).
    AllExcept {
        /// The starved processors.
        excluded: Vec<usize>,
        /// Number of full rotations.
        rounds: u64,
    },
}

impl ScriptSegment {
    /// Scheduled ticks this segment contributes for `n` processors.
    pub fn ticks(&self, n: usize) -> u64 {
        match self {
            ScriptSegment::Run { ticks, .. } => *ticks,
            ScriptSegment::RoundRobin { procs, rounds } => procs.len() as u64 * rounds,
            ScriptSegment::AllExcept { excluded, rounds } => {
                let active = (0..n).filter(|p| !excluded.contains(p)).count() as u64;
                active * rounds
            }
        }
    }

    fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        let usize_arr = |v: JsonVal<'_>| -> Result<Vec<usize>, JsonError> {
            v.as_arr()?.map(JsonVal::as_usize).collect()
        };
        match v.get("seg")?.as_str()? {
            "run" => Ok(ScriptSegment::Run {
                proc: v.get("proc")?.as_usize()?,
                ticks: v.get("ticks")?.as_u64()?,
            }),
            "round-robin" => Ok(ScriptSegment::RoundRobin {
                procs: usize_arr(v.get("procs")?)?,
                rounds: v.get("rounds")?.as_u64()?,
            }),
            "all-except" => Ok(ScriptSegment::AllExcept {
                excluded: usize_arr(v.get("excluded")?)?,
                rounds: v.get("rounds")?.as_u64()?,
            }),
            other => Err(JsonError {
                msg: format!("unknown script segment kind {other:?}"),
                at: 0,
            }),
        }
    }
}

impl WriteJson for ScriptSegment {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| match self {
            ScriptSegment::Run { proc, ticks } => {
                w.field("seg", "run");
                w.field("proc", proc);
                w.field("ticks", ticks);
            }
            ScriptSegment::RoundRobin { procs, rounds } => {
                w.field("seg", "round-robin");
                w.field("procs", procs);
                w.field("rounds", rounds);
            }
            ScriptSegment::AllExcept { excluded, rounds } => {
                w.field("seg", "all-except");
                w.field("excluded", excluded);
                w.field("rounds", rounds);
            }
        });
    }
}

/// A complete scripted-adversary description: processor count, segment
/// prefix, and the fallback family played after the prefix is exhausted.
#[derive(Clone, Debug, PartialEq)]
pub struct ScriptSpec {
    /// Processor count the script is written for.
    pub n: usize,
    /// The scripted prefix, played in order.
    pub segments: Vec<ScriptSegment>,
    /// Schedule family that takes over after the prefix (must not itself
    /// be [`ScheduleKind::Scripted`]).
    pub fallback: Box<ScheduleKind>,
}

impl ScriptSpec {
    /// A spec with a uniform fallback.
    pub fn new(n: usize, segments: Vec<ScriptSegment>) -> Self {
        ScriptSpec {
            n,
            segments,
            fallback: Box::new(ScheduleKind::Uniform),
        }
    }

    /// Replace the fallback family.
    pub fn fallback(mut self, kind: ScheduleKind) -> Self {
        assert!(
            !matches!(kind, ScheduleKind::Scripted(_)),
            "scripted fallback would nest scripts"
        );
        self.fallback = Box::new(kind);
        self
    }

    /// Total scripted ticks before the fallback takes over.
    pub fn prefix_ticks(&self) -> u64 {
        self.segments.iter().map(|s| s.ticks(self.n)).sum()
    }

    /// Check every referenced processor is in range and the fallback is not
    /// itself scripted.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("script for zero processors".into());
        }
        if matches!(*self.fallback, ScheduleKind::Scripted(_)) {
            return Err("scripted fallback would nest scripts".into());
        }
        for (i, seg) in self.segments.iter().enumerate() {
            let bad = match seg {
                ScriptSegment::Run { proc, .. } => (*proc >= self.n).then_some(*proc),
                ScriptSegment::RoundRobin { procs, .. } => {
                    procs.iter().copied().find(|p| *p >= self.n)
                }
                ScriptSegment::AllExcept { excluded, rounds } => {
                    // Excluding everyone would make the segment silently
                    // empty; treat out-of-range exclusions as fine (they
                    // exclude nobody) but all-excluded as an error when the
                    // segment claims rounds.
                    if *rounds > 0 && (0..self.n).all(|p| excluded.contains(&p)) {
                        return Err(format!("segment {i} excludes all {} processors", self.n));
                    }
                    None
                }
            };
            if let Some(p) = bad {
                return Err(format!(
                    "segment {i} references processor {p} (n={})",
                    self.n
                ));
            }
        }
        Ok(())
    }

    /// Build the live schedule: the scripted prefix, then the fallback
    /// seeded from `master_seed`.
    ///
    /// # Panics
    /// If [`ScriptSpec::validate`] fails — specs from untrusted JSON should
    /// be validated first.
    pub fn build(&self, master_seed: u64) -> ScriptedSchedule {
        if let Err(e) = self.validate() {
            panic!("invalid script spec: {e}");
        }
        let mut script = Script::new();
        for seg in &self.segments {
            script = match seg {
                ScriptSegment::Run { proc, ticks } => script.run(*proc, *ticks),
                ScriptSegment::RoundRobin { procs, rounds } => script.round_robin(procs, *rounds),
                ScriptSegment::AllExcept { excluded, rounds } => {
                    script.all_except(self.n, excluded, *rounds)
                }
            };
        }
        script.then(self.fallback.build(self.n, master_seed))
    }

    /// Serialize to a JSON value.
    pub fn to_json(&self) -> Json {
        self.to_tree()
    }

    /// The document's members, without its braces: a scripted schedule
    /// writes them after its own `kind` tag.
    fn write_fields(&self, w: &mut dyn JsonWriter) {
        w.field("n", self.n);
        w.field("segments", &self.segments);
        w.field("fallback", &*self.fallback);
    }

    /// Deserialize from a JSON value (validates processor bounds).
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        let spec = ScriptSpec {
            n: v.get("n")?.as_usize()?,
            segments: v
                .get("segments")?
                .as_arr()?
                .map(ScriptSegment::decode)
                .collect::<Result<_, _>>()?,
            fallback: Box::new(ScheduleKind::decode(v.get("fallback")?)?),
        };
        spec.validate().map_err(|msg| JsonError { msg, at: 0 })?;
        Ok(spec)
    }
}

impl ScheduleKind {
    /// Serialize any schedule family (including scripted) to JSON.
    pub fn to_json(&self) -> Json {
        self.to_tree()
    }

    /// Deserialize a schedule family from JSON.
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        match v.get("kind")?.as_str()? {
            "round-robin" => Ok(ScheduleKind::RoundRobin),
            "uniform" => Ok(ScheduleKind::Uniform),
            "zipf" => Ok(ScheduleKind::Zipf {
                s: v.get("s")?.as_f64()?,
            }),
            "two-class" => Ok(ScheduleKind::TwoClass {
                slow_frac: v.get("slow_frac")?.as_f64()?,
                ratio: v.get("ratio")?.as_f64()?,
            }),
            "bursty" => Ok(ScheduleKind::Bursty {
                mean_burst: v.get("mean_burst")?.as_u64()?,
            }),
            "sleepy" => Ok(ScheduleKind::Sleepy {
                sleepy_frac: v.get("sleepy_frac")?.as_f64()?,
                awake: v.get("awake")?.as_u64()?,
                asleep: v.get("asleep")?.as_u64()?,
            }),
            "crash" => Ok(ScheduleKind::Crash {
                crash_frac: v.get("crash_frac")?.as_f64()?,
                horizon: v.get("horizon")?.as_u64()?,
            }),
            "scripted" => Ok(ScheduleKind::Scripted(ScriptSpec::decode(v)?)),
            other => Err(JsonError {
                msg: format!("unknown schedule kind {other:?}"),
                at: 0,
            }),
        }
    }

    /// [`ScheduleKind::decode`] of a tree.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.decode(Self::decode)
    }
}

impl WriteJson for ScriptSpec {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| self.write_fields(w));
    }
}

impl WriteJson for ScheduleKind {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| match self {
            ScheduleKind::RoundRobin => w.field("kind", "round-robin"),
            ScheduleKind::Uniform => w.field("kind", "uniform"),
            ScheduleKind::Zipf { s } => {
                w.field("kind", "zipf");
                w.field("s", s);
            }
            ScheduleKind::TwoClass { slow_frac, ratio } => {
                w.field("kind", "two-class");
                w.field("slow_frac", slow_frac);
                w.field("ratio", ratio);
            }
            ScheduleKind::Bursty { mean_burst } => {
                w.field("kind", "bursty");
                w.field("mean_burst", mean_burst);
            }
            ScheduleKind::Sleepy {
                sleepy_frac,
                awake,
                asleep,
            } => {
                w.field("kind", "sleepy");
                w.field("sleepy_frac", sleepy_frac);
                w.field("awake", awake);
                w.field("asleep", asleep);
            }
            ScheduleKind::Crash {
                crash_frac,
                horizon,
            } => {
                w.field("kind", "crash");
                w.field("crash_frac", crash_frac);
                w.field("horizon", horizon);
            }
            ScheduleKind::Scripted(spec) => {
                w.field("kind", "scripted");
                spec.write_fields(w);
            }
        });
    }
}

/// Build a scripted schedule from a spec and a master seed (used by
/// [`ScheduleKind::build`]; kept here so the `Scripted` arm stays one
/// line).
pub(super) fn build_scripted(spec: &ScriptSpec, n: usize, master_seed: u64) -> ScriptedSchedule {
    assert_eq!(
        spec.n, n,
        "scripted spec written for {} processors, machine has {n}",
        spec.n
    );
    spec.build(master_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonDoc;
    use crate::sched::Schedule;

    fn spec() -> ScriptSpec {
        ScriptSpec::new(
            4,
            vec![
                ScriptSegment::Run { proc: 2, ticks: 5 },
                ScriptSegment::RoundRobin {
                    procs: vec![0, 1],
                    rounds: 3,
                },
                ScriptSegment::AllExcept {
                    excluded: vec![3],
                    rounds: 2,
                },
            ],
        )
        .fallback(ScheduleKind::Bursty { mean_burst: 16 })
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec();
        let text = s.to_json().render_pretty();
        let back = JsonDoc::decode(&text, ScriptSpec::decode).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn every_schedule_kind_round_trips_through_json() {
        let kinds = ScheduleKind::gallery()
            .into_iter()
            .chain([
                ScheduleKind::Zipf { s: 1.25 },
                ScheduleKind::Crash {
                    crash_frac: 0.375,
                    horizon: 10_000,
                },
                ScheduleKind::Scripted(spec()),
            ])
            .collect::<Vec<_>>();
        for kind in kinds {
            let text = kind.to_json().render();
            let back = JsonDoc::decode(&text, ScheduleKind::decode).unwrap();
            assert_eq!(back, kind, "{text}");
        }
    }

    #[test]
    fn rebuilt_spec_plays_identically_to_original() {
        let s = spec();
        let text = s.to_json().render();
        let back = JsonDoc::decode(&text, ScriptSpec::decode).unwrap();
        let mut a = s.build(7);
        let mut b = back.build(7);
        for _ in 0..200 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn spec_matches_hand_built_script() {
        let s = spec();
        let mut from_spec = s.build(9);
        let mut by_hand = Script::new()
            .run(2, 5)
            .round_robin(&[0, 1], 3)
            .all_except(4, &[3], 2)
            .then(ScheduleKind::Bursty { mean_burst: 16 }.build(4, 9));
        assert_eq!(s.prefix_ticks(), 17);
        for _ in 0..100 {
            assert_eq!(from_spec.next(), by_hand.next());
        }
    }

    #[test]
    fn scripted_kind_builds_and_is_total() {
        let kind = ScheduleKind::Scripted(spec());
        let mut sched = kind.build(4, 11);
        assert_eq!(sched.n(), 4);
        assert_eq!(kind.label(), "scripted");
        let mut hist = [0u64; 4];
        for _ in 0..500 {
            hist[sched.next().0] += 1;
        }
        assert_eq!(hist.iter().sum::<u64>(), 500);
        assert!(sched.describe().contains("scripted"));
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let out_of_range = ScriptSpec::new(2, vec![ScriptSegment::Run { proc: 5, ticks: 1 }]);
        assert!(out_of_range.validate().is_err());
        let starve_all = ScriptSpec::new(
            2,
            vec![ScriptSegment::AllExcept {
                excluded: vec![0, 1],
                rounds: 3,
            }],
        );
        assert!(starve_all.validate().is_err());
        assert!(spec().validate().is_ok());
        // from_json validates too.
        let bad = out_of_range.to_json().render();
        assert!(JsonDoc::decode(&bad, ScriptSpec::decode).is_err());
    }

    #[test]
    #[should_panic(expected = "nest scripts")]
    fn scripted_fallback_is_rejected() {
        let inner = ScheduleKind::Scripted(ScriptSpec::new(2, vec![]));
        let _ = ScriptSpec::new(2, vec![]).fallback(inner);
    }
}
