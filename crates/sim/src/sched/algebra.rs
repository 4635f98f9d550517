//! The composable adversary algebra: [`AdversarySpec`].
//!
//! [`ScheduleKind`] is a closed family of hand-written adversaries. The
//! paper's results, however, hold against an *arbitrary* oblivious
//! adversary (tardy processors, fail-stop, skewed speeds — every clobber
//! source of Lemma 1), so the interesting schedule space is open-ended.
//! `AdversarySpec` makes it compositional: a small set of base schedules
//! (every `ScheduleKind`, including `Scripted`) closed under four
//! combinators —
//!
//! * [`AdversarySpec::Overlay`] — a crash or sleepy fault pattern layered
//!   onto any adversary (unavailable processors' steps are redirected);
//! * [`AdversarySpec::PhaseSwitch`] — switch adversaries at fixed tick
//!   boundaries (windows scaled to subphase estimates give phase-aligned
//!   switching; the boundaries are fixed up front, hence oblivious);
//! * [`AdversarySpec::Partition`] — disjoint processor groups, each
//!   driven by its own sub-adversary over the group's local machine;
//! * [`AdversarySpec::Scale`] — a per-processor speed warp stretching
//!   each granted step into a run.
//!
//! A spec is a serializable JSON tree ([`AdversarySpec::to_json`], exact
//! round-trip) that compiles to a live [`Schedule`]
//! ([`AdversarySpec::build`]) preserving the batch-transparency invariant
//! for every composition (each combinator's rustdoc in
//! [`super::combinators`] states the argument). Every legacy
//! `ScheduleKind` lowers into the algebra as [`AdversarySpec::Base`] with
//! a bit-identical decision stream, so existing scenarios, suites, and
//! corpus artifacts keep their meaning — and their digests.
//!
//! Obliviousness is preserved by construction: combinators transform
//! decision streams as pure functions of their spec, their derived seed,
//! and the tick index — never of protocol state.

use super::availability::OverlayPattern;
use super::basic::{two_class_weights, zipf_weight};
use super::bursty::log_stay;
use super::combinators::{OverlaySchedule, PartitionSchedule, PhaseSwitchSchedule, ScaleSchedule};
use super::{BoxedSchedule, ScheduleKind};
use crate::json::{Json, JsonError, JsonVal, JsonWriter, WriteJson};
use crate::rng::{derive_seed, small_rng};

/// Domain tag for deriving per-node seeds inside a composed adversary
/// (child subtrees must draw from independent streams).
const STREAM_COMBINATOR: u64 = 0xC0_4B1A;

/// Maximum combinator nesting depth a spec may have (a leaf has depth 1).
/// Keeps untrusted JSON trees from recursing without bound.
pub const MAX_ADVERSARY_DEPTH: usize = 12;

/// A fault pattern an [`AdversarySpec::Overlay`] layers onto its base
/// adversary. Parameters mirror the standalone [`ScheduleKind::Crash`]
/// and [`ScheduleKind::Sleepy`] families; processor 0 is always exempt,
/// which keeps every composition total.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OverlayKind {
    /// Fail-stop: a fraction of processors (excluding 0) halts forever at
    /// a random tick within `horizon`.
    Crash {
        /// Fraction of processors that crash, in `[0, 1]`.
        crash_frac: f64,
        /// Crash times are uniform in `[0, max(horizon, 1))`.
        horizon: u64,
    },
    /// Tardy processors: a fraction periodically sleeps for long windows.
    Sleepy {
        /// Fraction of processors that alternate awake/asleep, in `[0, 1]`.
        sleepy_frac: f64,
        /// Ticks awake per period (≥ 1).
        awake: u64,
        /// Ticks asleep per period.
        asleep: u64,
    },
}

/// A sleepy pattern's period, `awake + asleep`, must fit in a `u64`: a
/// wrapped period is a zero divisor when the pattern is sampled.
fn sleepy_period(awake: u64, asleep: u64, what: &str) -> Result<(), String> {
    awake
        .checked_add(asleep)
        .map(|_| ())
        .ok_or_else(|| format!("{what} period awake + asleep = {awake} + {asleep} overflows a u64"))
}

impl OverlayKind {
    fn validate(&self) -> Result<(), String> {
        let frac = |x: f64, what: &str| {
            if (0.0..=1.0).contains(&x) {
                Ok(())
            } else {
                Err(format!("{what} must be in [0, 1], got {x}"))
            }
        };
        match *self {
            OverlayKind::Crash { crash_frac, .. } => frac(crash_frac, "overlay crash_frac"),
            OverlayKind::Sleepy {
                sleepy_frac,
                awake,
                asleep,
            } => {
                frac(sleepy_frac, "overlay sleepy_frac")?;
                if awake < 1 {
                    return Err("overlay awake window must be ≥ 1".into());
                }
                sleepy_period(awake, asleep, "overlay")
            }
        }
    }

    fn pattern(&self, n: usize, seed: u64) -> OverlayPattern {
        let rng = small_rng(seed);
        match *self {
            OverlayKind::Crash {
                crash_frac,
                horizon,
            } => OverlayPattern::crash(n, crash_frac, horizon, rng),
            OverlayKind::Sleepy {
                sleepy_frac,
                awake,
                asleep,
            } => OverlayPattern::sleepy(n, sleepy_frac, awake, asleep, rng),
        }
    }

    /// The layer's members, written into its overlay's object.
    fn write_fields(self, w: &mut dyn JsonWriter) {
        match self {
            OverlayKind::Crash {
                crash_frac,
                horizon,
            } => {
                w.field("layer", "crash");
                w.field("crash_frac", crash_frac);
                w.field("horizon", horizon);
            }
            OverlayKind::Sleepy {
                sleepy_frac,
                awake,
                asleep,
            } => {
                w.field("layer", "sleepy");
                w.field("sleepy_frac", sleepy_frac);
                w.field("awake", awake);
                w.field("asleep", asleep);
            }
        }
    }

    fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        match v.get("layer")?.as_str()? {
            "crash" => Ok(OverlayKind::Crash {
                crash_frac: v.get("crash_frac")?.as_f64()?,
                horizon: v.get("horizon")?.as_u64()?,
            }),
            "sleepy" => Ok(OverlayKind::Sleepy {
                sleepy_frac: v.get("sleepy_frac")?.as_f64()?,
                awake: v.get("awake")?.as_u64()?,
                asleep: v.get("asleep")?.as_u64()?,
            }),
            other => Err(JsonError {
                msg: format!("unknown overlay layer {other:?}"),
                at: 0,
            }),
        }
    }
}

/// One window of an [`AdversarySpec::PhaseSwitch`]: `spec` drives the
/// machine for exactly `ticks` atomic steps.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Window length in atomic steps (≥ 1).
    pub ticks: u64,
    /// The adversary in force during the window.
    pub spec: AdversarySpec,
}

/// One group of an [`AdversarySpec::Partition`]: `spec` drives the
/// members as its own machine of `procs.len()` processors.
#[derive(Clone, Debug, PartialEq)]
pub struct Group {
    /// Global processor ids of the members, strictly increasing.
    pub procs: Vec<usize>,
    /// The group's sub-adversary (built for `procs.len()` processors).
    pub spec: AdversarySpec,
}

/// A serializable, composable description of an oblivious adversary: the
/// [`ScheduleKind`] bases closed under `Overlay`, `PhaseSwitch`,
/// `Partition`, and `Scale` (see the crate docs on the adversary
/// algebra for the full contract).
#[derive(Clone, Debug, PartialEq)]
pub enum AdversarySpec {
    /// A leaf: any legacy schedule family. `Base(kind)` builds the exact
    /// schedule `kind` builds — the lowering is bit-identical.
    Base(ScheduleKind),
    /// A fault pattern layered onto `base`: steps granted to a processor
    /// the overlay marks unavailable are redirected to the next available
    /// one in cyclic order (processor 0 is always available).
    Overlay {
        /// The fault pattern.
        layer: OverlayKind,
        /// The adversary being overlaid.
        base: Box<AdversarySpec>,
    },
    /// Play each span's adversary for its tick window, in order, then
    /// `tail` forever. Boundaries are fixed in advance (oblivious); spans
    /// scaled to estimated subphase work give phase-aligned switching.
    PhaseSwitch {
        /// The switching windows, played in order (each ≥ 1 tick).
        spans: Vec<Span>,
        /// The adversary in force after the last span.
        tail: Box<AdversarySpec>,
    },
    /// Disjoint processor groups, each driven by its own sub-adversary.
    /// Tick `t` belongs to the group owning processor `t mod n`, so each
    /// round of `n` ticks grants every group `|group|` steps.
    Partition {
        /// The groups; their `procs` must exactly partition `0..n`.
        groups: Vec<Group>,
    },
    /// Per-processor speed warp: each step the inner adversary grants to
    /// processor `p` becomes `factors[p]` consecutive steps.
    Scale {
        /// Per-processor stretch factors (one per processor, each ≥ 1).
        factors: Vec<u64>,
        /// The adversary being warped.
        base: Box<AdversarySpec>,
    },
}

impl WriteJson for AdversarySpec {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        match self {
            AdversarySpec::Base(kind) => kind.write_json(w),
            AdversarySpec::Overlay { layer, base } => w.obj(|w| {
                w.field("kind", "overlay");
                layer.write_fields(w);
                w.field("base", &**base);
            }),
            AdversarySpec::PhaseSwitch { spans, tail } => w.obj(|w| {
                w.field("kind", "phase-switch");
                w.field("spans", spans);
                w.field("tail", &**tail);
            }),
            AdversarySpec::Partition { groups } => w.obj(|w| {
                w.field("kind", "partition");
                w.field("groups", groups);
            }),
            AdversarySpec::Scale { factors, base } => w.obj(|w| {
                w.field("kind", "scale");
                w.field("factors", factors);
                w.field("base", &**base);
            }),
        }
    }
}

impl WriteJson for Span {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.field("ticks", self.ticks);
            w.field("spec", &self.spec);
        });
    }
}

impl WriteJson for Group {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.field("procs", &self.procs);
            w.field("spec", &self.spec);
        });
    }
}

impl From<ScheduleKind> for AdversarySpec {
    fn from(kind: ScheduleKind) -> Self {
        AdversarySpec::Base(kind)
    }
}

impl AdversarySpec {
    /// Nesting depth (a [`AdversarySpec::Base`] leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            AdversarySpec::Base(_) => 1,
            AdversarySpec::Overlay { base, .. } | AdversarySpec::Scale { base, .. } => {
                1 + base.depth()
            }
            AdversarySpec::PhaseSwitch { spans, tail } => {
                1 + spans
                    .iter()
                    .map(|s| s.spec.depth())
                    .chain([tail.depth()])
                    .max()
                    .unwrap_or(1)
            }
            AdversarySpec::Partition { groups } => {
                1 + groups.iter().map(|g| g.spec.depth()).max().unwrap_or(0)
            }
        }
    }

    /// Short label for table columns (combinator tag, or the base
    /// family's label for leaves).
    pub fn label(&self) -> &'static str {
        match self {
            AdversarySpec::Base(kind) => kind.label(),
            AdversarySpec::Overlay { .. } => "overlay",
            AdversarySpec::PhaseSwitch { .. } => "phase-switch",
            AdversarySpec::Partition { .. } => "partition",
            AdversarySpec::Scale { .. } => "scale",
        }
    }

    /// Check the spec describes a well-formed adversary for an
    /// `n`-processor machine: every base's parameters in range (including
    /// scripted processor bounds), every partition an exact partition,
    /// factor vectors sized to their machine, spans non-empty, and the
    /// tree within [`MAX_ADVERSARY_DEPTH`].
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if n == 0 {
            return Err("adversary for zero processors".into());
        }
        if self.depth() > MAX_ADVERSARY_DEPTH {
            return Err(format!(
                "adversary tree depth {} exceeds the maximum {MAX_ADVERSARY_DEPTH}",
                self.depth()
            ));
        }
        match self {
            AdversarySpec::Base(kind) => kind.validate(n),
            AdversarySpec::Overlay { layer, base } => {
                layer.validate()?;
                base.validate(n)
            }
            AdversarySpec::PhaseSwitch { spans, tail } => {
                if spans.is_empty() {
                    return Err("phase-switch with no spans (use the tail directly)".into());
                }
                for (i, span) in spans.iter().enumerate() {
                    if span.ticks == 0 {
                        return Err(format!("phase-switch span {i} has a zero-tick window"));
                    }
                    span.spec
                        .validate(n)
                        .map_err(|e| format!("phase-switch span {i}: {e}"))?;
                }
                tail.validate(n)
                    .map_err(|e| format!("phase-switch tail: {e}"))
            }
            AdversarySpec::Partition { groups } => {
                if groups.is_empty() {
                    return Err("partition with no groups".into());
                }
                let mut owner = vec![false; n];
                for (i, group) in groups.iter().enumerate() {
                    if group.procs.is_empty() {
                        return Err(format!("partition group {i} is empty"));
                    }
                    if !group.procs.windows(2).all(|w| w[0] < w[1]) {
                        return Err(format!(
                            "partition group {i} members must be strictly increasing"
                        ));
                    }
                    for &p in &group.procs {
                        if p >= n {
                            return Err(format!(
                                "partition group {i} references processor {p} (n={n})"
                            ));
                        }
                        if owner[p] {
                            return Err(format!("processor {p} appears in two partition groups"));
                        }
                        owner[p] = true;
                    }
                    group
                        .spec
                        .validate(group.procs.len())
                        .map_err(|e| format!("partition group {i}: {e}"))?;
                }
                if let Some(p) = owner.iter().position(|covered| !covered) {
                    return Err(format!(
                        "partition leaves processor {p} unowned (groups must cover 0..{n})"
                    ));
                }
                Ok(())
            }
            AdversarySpec::Scale { factors, base } => {
                if factors.len() != n {
                    return Err(format!(
                        "scale has {} factors for {n} processors",
                        factors.len()
                    ));
                }
                if let Some(i) = factors.iter().position(|&f| f == 0) {
                    return Err(format!("scale factor for processor {i} must be ≥ 1"));
                }
                base.validate(n)
            }
        }
    }

    /// Compile the spec into a live schedule for `n` processors.
    ///
    /// A top-level [`AdversarySpec::Base`] builds exactly
    /// [`ScheduleKind::build`]`(n, master_seed)`; combinator children
    /// draw from seeds derived per node, so sibling subtrees see
    /// independent streams.
    ///
    /// # Panics
    /// If [`AdversarySpec::validate`] fails — specs from untrusted JSON
    /// should be validated first.
    pub fn build(&self, n: usize, master_seed: u64) -> BoxedSchedule {
        if let Err(e) = self.validate(n) {
            panic!("invalid adversary spec: {e}");
        }
        self.build_node(n, master_seed)
    }

    fn build_node(&self, n: usize, seed: u64) -> BoxedSchedule {
        let child = |salt: u64| derive_seed(seed, STREAM_COMBINATOR, salt);
        match self {
            AdversarySpec::Base(kind) => kind.build(n, seed),
            AdversarySpec::Overlay { layer, base } => Box::new(OverlaySchedule::new(
                base.build_node(n, child(1)),
                layer.pattern(n, child(0)),
            )),
            AdversarySpec::PhaseSwitch { spans, tail } => {
                let built: Vec<(u64, BoxedSchedule)> = spans
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.ticks, s.spec.build_node(n, child(1 + i as u64))))
                    .collect();
                Box::new(PhaseSwitchSchedule::new(
                    built,
                    tail.build_node(n, child(0)),
                ))
            }
            AdversarySpec::Partition { groups } => {
                let built: Vec<(Vec<usize>, BoxedSchedule)> = groups
                    .iter()
                    .enumerate()
                    .map(|(i, g)| {
                        (
                            g.procs.clone(),
                            g.spec.build_node(g.procs.len(), child(1 + i as u64)),
                        )
                    })
                    .collect();
                Box::new(PartitionSchedule::new(n, built))
            }
            AdversarySpec::Scale { factors, base } => Box::new(ScaleSchedule::new(
                base.build_node(n, child(1)),
                factors.clone(),
            )),
        }
    }

    /// Serialize to the canonical JSON tree. Leaves serialize exactly as
    /// their [`ScheduleKind::to_json`] form, so a document written before
    /// the algebra existed parses to `Base` of the same kind — and keeps
    /// its content digest.
    pub fn to_json(&self) -> Json {
        self.to_tree()
    }

    /// Deserialize a spec tree. The `kind` tag dispatches: the four
    /// combinator tags parse structurally; any other tag is handed to
    /// [`ScheduleKind::decode`] and becomes a [`AdversarySpec::Base`]
    /// leaf (which is how every pre-algebra document reads). A tree
    /// deeper than [`MAX_ADVERSARY_DEPTH`] is an error naming the depth,
    /// raised before anything below the cap is decoded.
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        Self::decode_at(v, 1)
    }

    /// [`AdversarySpec::decode`] of a tree.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.decode(Self::decode)
    }

    /// [`AdversarySpec::decode`] for a node `depth` levels down (the
    /// root is at depth 1).
    fn decode_at(v: JsonVal<'_>, depth: usize) -> Result<Self, JsonError> {
        if depth > MAX_ADVERSARY_DEPTH {
            return Err(JsonError {
                msg: format!(
                    "adversary tree depth {depth} exceeds the maximum {MAX_ADVERSARY_DEPTH}"
                ),
                at: 0,
            });
        }
        let child = |v: JsonVal<'_>| Self::decode_at(v, depth + 1);
        match v.get("kind")?.as_str()? {
            "overlay" => Ok(AdversarySpec::Overlay {
                layer: OverlayKind::decode(v)?,
                base: Box::new(child(v.get("base")?)?),
            }),
            "phase-switch" => Ok(AdversarySpec::PhaseSwitch {
                spans: v
                    .get("spans")?
                    .as_arr()?
                    .map(|s| {
                        Ok(Span {
                            ticks: s.get("ticks")?.as_u64()?,
                            spec: child(s.get("spec")?)?,
                        })
                    })
                    .collect::<Result<_, JsonError>>()?,
                tail: Box::new(child(v.get("tail")?)?),
            }),
            "partition" => Ok(AdversarySpec::Partition {
                groups: v
                    .get("groups")?
                    .as_arr()?
                    .map(|g| {
                        Ok(Group {
                            procs: g
                                .get("procs")?
                                .as_arr()?
                                .map(JsonVal::as_usize)
                                .collect::<Result<_, _>>()?,
                            spec: child(g.get("spec")?)?,
                        })
                    })
                    .collect::<Result<_, JsonError>>()?,
            }),
            "scale" => Ok(AdversarySpec::Scale {
                factors: v
                    .get("factors")?
                    .as_arr()?
                    .map(JsonVal::as_u64)
                    .collect::<Result<_, _>>()?,
                base: Box::new(child(v.get("base")?)?),
            }),
            _ => Ok(AdversarySpec::Base(ScheduleKind::decode(v)?)),
        }
    }

    /// A standard gallery of composed adversaries for an `n`-processor
    /// machine (the algebra counterpart of [`ScheduleKind::gallery`]),
    /// including a three-deep composition; used by the examples and as
    /// the synthesis smoke set.
    pub fn composed_gallery(n: usize) -> Vec<AdversarySpec> {
        let half = n / 2;
        vec![
            // Crash layered onto skewed speeds.
            AdversarySpec::Overlay {
                layer: OverlayKind::Crash {
                    crash_frac: 0.25,
                    horizon: 8192,
                },
                base: Box::new(AdversarySpec::Base(ScheduleKind::Zipf { s: 1.0 })),
            },
            // Bursty opening, then a sleepy regime.
            AdversarySpec::PhaseSwitch {
                spans: vec![Span {
                    ticks: 4096,
                    spec: AdversarySpec::Base(ScheduleKind::Bursty { mean_burst: 64 }),
                }],
                tail: Box::new(AdversarySpec::Base(ScheduleKind::Sleepy {
                    sleepy_frac: 0.25,
                    awake: 256,
                    asleep: 1024,
                })),
            },
            // Two machine halves under different regimes.
            AdversarySpec::Partition {
                groups: vec![
                    Group {
                        procs: (0..half).collect(),
                        spec: AdversarySpec::Base(ScheduleKind::Bursty { mean_burst: 32 }),
                    },
                    Group {
                        procs: (half..n).collect(),
                        spec: AdversarySpec::Base(ScheduleKind::Uniform),
                    },
                ],
            },
            // A speed warp over round-robin (deterministic two-class).
            AdversarySpec::Scale {
                factors: (0..n).map(|i| if i < half { 1 } else { 4 }).collect(),
                base: Box::new(AdversarySpec::Base(ScheduleKind::RoundRobin)),
            },
            // Three deep: crash-over-zipf opening, then a partitioned
            // machine of bursty and sleepy halves.
            AdversarySpec::PhaseSwitch {
                spans: vec![Span {
                    ticks: 8192,
                    spec: AdversarySpec::Overlay {
                        layer: OverlayKind::Crash {
                            crash_frac: 0.25,
                            horizon: 4096,
                        },
                        base: Box::new(AdversarySpec::Base(ScheduleKind::Zipf { s: 1.0 })),
                    },
                }],
                tail: Box::new(AdversarySpec::Partition {
                    groups: vec![
                        Group {
                            procs: (0..half).collect(),
                            spec: AdversarySpec::Base(ScheduleKind::Bursty { mean_burst: 16 }),
                        },
                        Group {
                            procs: (half..n).collect(),
                            spec: AdversarySpec::Base(ScheduleKind::Sleepy {
                                sleepy_frac: 0.5,
                                awake: 128,
                                asleep: 512,
                            }),
                        },
                    ],
                }),
            },
        ]
    }
}

impl ScheduleKind {
    /// Lower the legacy family into the adversary algebra. The lowered
    /// spec builds a bit-identical schedule: [`AdversarySpec::Base`] is
    /// compiled by calling [`ScheduleKind::build`] with the same seed.
    pub fn lower(&self) -> AdversarySpec {
        AdversarySpec::Base(self.clone())
    }

    /// Check this family's parameters are in range for an `n`-processor
    /// machine (the checks `Scenario::validate` applied before the
    /// algebra; hoisted here so every algebra leaf is validated the same
    /// way).
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let frac = |x: f64, what: &str| {
            if (0.0..=1.0).contains(&x) {
                Ok(())
            } else {
                Err(format!("{what} must be in [0, 1], got {x}"))
            }
        };
        match self {
            ScheduleKind::RoundRobin | ScheduleKind::Uniform => Ok(()),
            ScheduleKind::Zipf { s } => {
                // The sampler needs every weight positive, and a subnormal
                // one has lost its precision on the way to 0. The slowest
                // processor, the last, has the least weight.
                let least = zipf_weight(n.saturating_sub(1), *s);
                if s.is_nan() || *s <= 0.0 {
                    Err(format!("zipf exponent must be > 0, got {s}"))
                } else if !least.is_normal() {
                    Err(format!(
                        "zipf exponent {s} gives the slowest of {n} processors the weight \
                         {least:e}, not a normal positive number"
                    ))
                } else {
                    Ok(())
                }
            }
            ScheduleKind::TwoClass { slow_frac, ratio } => {
                frac(*slow_frac, "two-class slow_frac")?;
                let total: f64 = two_class_weights(n, *slow_frac, *ratio).1.iter().sum();
                if ratio.is_nan() || *ratio < 1.0 {
                    Err(format!("two-class ratio must be ≥ 1, got {ratio}"))
                } else if !total.is_finite() {
                    Err(format!(
                        "two-class ratio {ratio:e} makes the total weight of {n} processors \
                         overflow"
                    ))
                } else {
                    Ok(())
                }
            }
            ScheduleKind::Bursty { mean_burst } => {
                if *mean_burst < 1 {
                    return Err("bursty mean_burst must be ≥ 1".into());
                }
                if log_stay(*mean_burst) < 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "bursty mean_burst {mean_burst} is too large: 1 − 1/mean rounds to 1, \
                         so every burst would have length 1"
                    ))
                }
            }
            ScheduleKind::Sleepy {
                sleepy_frac,
                awake,
                asleep,
            } => {
                frac(*sleepy_frac, "sleepy sleepy_frac")?;
                if *awake < 1 {
                    return Err("sleepy awake window must be ≥ 1".into());
                }
                sleepy_period(*awake, *asleep, "sleepy")
            }
            ScheduleKind::Crash { crash_frac, .. } => frac(*crash_frac, "crash crash_frac"),
            ScheduleKind::Scripted(spec) => {
                spec.validate()?;
                if spec.n != n {
                    return Err(format!(
                        "scripted schedule written for {} processors, machine has {n}",
                        spec.n
                    ));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonDoc;

    fn three_deep(n: usize) -> AdversarySpec {
        AdversarySpec::composed_gallery(n).pop().unwrap()
    }

    #[test]
    fn base_lowering_is_bit_identical() {
        for kind in ScheduleKind::gallery().into_iter().chain([
            ScheduleKind::Zipf { s: 1.25 },
            ScheduleKind::Crash {
                crash_frac: 0.25,
                horizon: 1000,
            },
        ]) {
            let mut legacy = kind.build(8, 41);
            let mut lowered = kind.lower().build(8, 41);
            for _ in 0..2000 {
                assert_eq!(legacy.next(), lowered.next(), "{}", kind.label());
            }
        }
    }

    #[test]
    fn composed_gallery_builds_and_is_total() {
        for spec in AdversarySpec::composed_gallery(8) {
            spec.validate(8).unwrap_or_else(|e| panic!("{e}"));
            let mut s = spec.build(8, 7);
            assert_eq!(s.n(), 8);
            let mut h = [0u64; 8];
            for _ in 0..20_000 {
                h[s.next().0] += 1;
            }
            assert_eq!(h.iter().sum::<u64>(), 20_000, "{}", spec.label());
            assert!(!s.describe().is_empty());
        }
    }

    #[test]
    fn composed_schedules_are_reproducible_from_seed() {
        for spec in AdversarySpec::composed_gallery(8) {
            let mut a = spec.build(8, 99);
            let mut b = spec.build(8, 99);
            for _ in 0..2000 {
                assert_eq!(a.next(), b.next(), "{}", spec.label());
            }
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        for spec in AdversarySpec::composed_gallery(8)
            .into_iter()
            .chain(ScheduleKind::gallery().into_iter().map(AdversarySpec::Base))
        {
            let text = spec.to_json().render();
            let back = JsonDoc::decode(&text, AdversarySpec::decode).unwrap();
            assert_eq!(back, spec, "{text}");
            let pretty = spec.to_json().render_pretty();
            let back = JsonDoc::decode(&pretty, AdversarySpec::decode).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn legacy_documents_parse_as_base_leaves() {
        let text = ScheduleKind::Bursty { mean_burst: 8 }.to_json().render();
        let spec = JsonDoc::decode(&text, AdversarySpec::decode).unwrap();
        assert_eq!(
            spec,
            AdversarySpec::Base(ScheduleKind::Bursty { mean_burst: 8 })
        );
        // And Base serializes back to the identical bytes.
        assert_eq!(spec.to_json().render(), text);
    }

    #[test]
    fn validation_rejects_ill_formed_specs() {
        // Bad partition: gap.
        let gap = AdversarySpec::Partition {
            groups: vec![Group {
                procs: vec![0, 1],
                spec: AdversarySpec::Base(ScheduleKind::Uniform),
            }],
        };
        assert!(gap.validate(4).unwrap_err().contains("unowned"));

        // Bad partition: overlap.
        let overlap = AdversarySpec::Partition {
            groups: vec![
                Group {
                    procs: vec![0, 1],
                    spec: AdversarySpec::Base(ScheduleKind::Uniform),
                },
                Group {
                    procs: vec![1],
                    spec: AdversarySpec::Base(ScheduleKind::Uniform),
                },
            ],
        };
        assert!(overlap.validate(2).unwrap_err().contains("two partition"));

        // Unsorted members.
        let unsorted = AdversarySpec::Partition {
            groups: vec![Group {
                procs: vec![1, 0],
                spec: AdversarySpec::Base(ScheduleKind::Uniform),
            }],
        };
        assert!(unsorted.validate(2).unwrap_err().contains("increasing"));

        // Wrong factor count, zero factor.
        let short = AdversarySpec::Scale {
            factors: vec![1, 2],
            base: Box::new(AdversarySpec::Base(ScheduleKind::Uniform)),
        };
        assert!(short.validate(4).unwrap_err().contains("factors"));
        let zero = AdversarySpec::Scale {
            factors: vec![1, 0],
            base: Box::new(AdversarySpec::Base(ScheduleKind::Uniform)),
        };
        assert!(zero.validate(2).unwrap_err().contains("≥ 1"));

        // Zero-tick span and empty span list.
        let zero_span = AdversarySpec::PhaseSwitch {
            spans: vec![Span {
                ticks: 0,
                spec: AdversarySpec::Base(ScheduleKind::Uniform),
            }],
            tail: Box::new(AdversarySpec::Base(ScheduleKind::Uniform)),
        };
        assert!(zero_span.validate(2).unwrap_err().contains("zero-tick"));
        let no_spans = AdversarySpec::PhaseSwitch {
            spans: vec![],
            tail: Box::new(AdversarySpec::Base(ScheduleKind::Uniform)),
        };
        assert!(no_spans.validate(2).is_err());

        // Overlay parameter ranges.
        let bad_frac = AdversarySpec::Overlay {
            layer: OverlayKind::Crash {
                crash_frac: 1.5,
                horizon: 10,
            },
            base: Box::new(AdversarySpec::Base(ScheduleKind::Uniform)),
        };
        assert!(bad_frac.validate(4).is_err());

        // Base leaves get the per-kind parameter checks.
        let bad_zipf = AdversarySpec::Base(ScheduleKind::Zipf { s: -1.0 });
        assert!(bad_zipf.validate(4).is_err());

        // A scripted leaf inside a partition group validates against the
        // group size, not the machine size.
        let scripted_group = AdversarySpec::Partition {
            groups: vec![
                Group {
                    procs: vec![0, 1],
                    spec: AdversarySpec::Base(ScheduleKind::Scripted(
                        crate::sched::ScriptSpec::new(2, vec![]),
                    )),
                },
                Group {
                    procs: vec![2, 3],
                    spec: AdversarySpec::Base(ScheduleKind::Uniform),
                },
            ],
        };
        assert!(scripted_group.validate(4).is_ok());
        assert!(scripted_group.validate(6).is_err());

        // Depth cap.
        let mut deep = AdversarySpec::Base(ScheduleKind::Uniform);
        for _ in 0..MAX_ADVERSARY_DEPTH {
            deep = AdversarySpec::Scale {
                factors: vec![1, 1],
                base: Box::new(deep),
            };
        }
        assert!(deep.validate(2).unwrap_err().contains("depth"));
    }

    #[test]
    fn three_deep_composition_is_three_deep_and_runs() {
        let spec = three_deep(8);
        assert!(spec.depth() >= 3, "depth {}", spec.depth());
        let mut s = spec.build(8, 5);
        let mut h = [0u64; 8];
        for _ in 0..30_000 {
            h[s.next().0] += 1;
        }
        assert_eq!(h.iter().sum::<u64>(), 30_000);
    }

    #[test]
    fn sibling_subtrees_draw_independent_streams() {
        // Two identical uniform groups must not mirror each other.
        let spec = AdversarySpec::Partition {
            groups: vec![
                Group {
                    procs: vec![0, 1, 2, 3],
                    spec: AdversarySpec::Base(ScheduleKind::Uniform),
                },
                Group {
                    procs: vec![4, 5, 6, 7],
                    spec: AdversarySpec::Base(ScheduleKind::Uniform),
                },
            ],
        };
        // Owner pattern: ticks 0..4 of each round go to group 0, 4..8 to
        // group 1; mirrored rounds pick the same local sequence in both.
        let mut s = spec.build(8, 3);
        let mut mirrored = 0;
        for _ in 0..200 {
            let g0: Vec<usize> = (0..4).map(|_| s.next().0).collect();
            let g1: Vec<usize> = (0..4).map(|_| s.next().0 - 4).collect();
            if g0 == g1 {
                mirrored += 1;
            }
        }
        assert!(mirrored < 50, "groups mirrored {mirrored}/200 rounds");
    }
}
