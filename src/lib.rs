//! # apex — Asynchronous Parallel EXecution
//!
//! A full reproduction of Aumann, Bender & Zhang, *Efficient Execution of
//! Nondeterministic Parallel Programs on Asynchronous Systems* (SPAA 1996;
//! Information and Computation 139, 1997).
//!
//! The workspace is re-exported here as one facade:
//!
//! * [`sim`] — the A-PRAM host machine: asynchronous processors, stamped
//!   shared memory, oblivious adversary schedules, exact total-work
//!   accounting (substrate, paper §1);
//! * [`clock`] — the Phase Clock: O(1) updates, Θ(log n) reads, Θ(n)
//!   updates per tick (substrate, §2.1);
//! * [`core`] — **the paper's contribution**: the bin-array agreement
//!   protocol, Theorem 1 validators, stage analysis (§3–4);
//! * [`pram`] — synchronous EREW PRAM programs: model, reference executor,
//!   workload library (§2.1);
//! * [`scheme`] — the execution schemes: the paper's nondeterministic
//!   scheme, the deterministic prior-work baseline, and the scan-consensus /
//!   ideal-CAS comparators, plus the end-to-end verifier (§2);
//! * [`scenario`] — the single declarative entry point: a serializable
//!   [`Scenario`] describing any run in the workspace, with a versioned
//!   JSON round-trip and a one-call executor;
//! * [`baselines`] — ablations (linear search, stampless bins) and crafted
//!   oblivious adversaries.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured results; `cargo bench`
//! regenerates every experiment.

pub use apex_baselines as baselines;
pub use apex_clock as clock;
pub use apex_core as core;
pub use apex_pram as pram;
pub use apex_scenario as scenario;
pub use apex_scheme as scheme;
pub use apex_sim as sim;

pub use apex_scenario::{ProgramSource, RunOpts, Scenario, ScenarioReport};
