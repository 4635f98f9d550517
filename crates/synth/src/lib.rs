//! # apex-synth — scenario synthesis & differential fuzzing
//!
//! The paper's central claim is universal: the nondeterministic execution
//! scheme produces a consistent execution of *any* EREW PRAM program under
//! *any* oblivious adversary. The rest of the workspace spot-checks that
//! claim on a hand-written gallery of workloads and adversaries; this
//! crate sweeps it over an open-ended synthesized space:
//!
//! * [`gen`] — seeded synthesis of arbitrary strict-EREW programs
//!   (straight-line streams over random dataflow graphs; EREW by
//!   construction *and* re-proved by the checker on every emission);
//! * [`sched_gen`] — seeded synthesis of adversarial scripted schedules
//!   (phase-aligned starvation, tardy-writer windows, crash fallbacks)
//!   beyond the built-in gallery;
//! * [`oracle`] — the differential oracle: lift a (program, schedule,
//!   seed) triple plus a scheme into a full
//!   [`Scenario`](apex_scenario::Scenario), run it on the batched engine,
//!   replay the agreed choices through the ideal executor, and fail on any
//!   memory / output / work-accounting divergence — the legs of a
//!   comparison are scenarios differing in exactly one field;
//! * [`campaign`] — seeded sweeps on the workspace's thread fan-out:
//!   [`SchemeKind::Nondet`](apex_scheme::SchemeKind) must stay clean,
//!   while the DetBaseline leg *finds* divergences (E10 generalized);
//! * [`shrink`](mod@shrink) — greedy minimization of failing triples (drop steps /
//!   instructions / threads / schedule segments, re-validating EREW);
//! * [`repro`] — self-contained JSON reproducers in `corpus/` (format v2:
//!   an embedded scenario document plus the expected outcome; v1 still
//!   reads), replayed by `cargo test` forever after.
//!
//! The command set lives in [`cli`]; the top-level `apex` binary fronts
//! it: `apex synth gen|fuzz|shrink|replay|run|corpus-dedup …`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod cli;
pub mod gen;
pub mod oracle;
pub mod repro;
pub mod sched_gen;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignOutcome, Finding};
pub use gen::{conflicting_mutation, generate_nondet_program, generate_program, GenConfig};
pub use oracle::{check_scenario, check_triple, judge, run_scenario, run_triple, Triple, Verdict};
pub use repro::{dedup_corpus, DedupOutcome, Expectation, Reproducer};
pub use sched_gen::{generate_adversary, generate_schedule, SchedGenConfig};
pub use shrink::{shrink, ShrinkStats};
