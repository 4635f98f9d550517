//! [`RunOutcome`] — the typed result of *attempting* a scenario run.
//!
//! [`Scenario::run`] panics when a run trips its liveness budget and, like
//! any code, can panic on a genuine engine bug. Campaign infrastructure
//! (the lab's suite runner, long-lived services) must survive both: one
//! bad cell may not tear down a million-cell campaign. `RunOutcome`
//! captures a run under [`std::panic::catch_unwind`] and classifies the
//! result into three *typed* cases — completed, budget-exhausted
//! (a partial outcome: the run is live data, not an inconsistency), and
//! poisoned (a panic) — each with an exact JSON codec so journals,
//! manifests, and reports stay serializable like everything else here.

use apex_sim::{Json, JsonError, JsonWriter, WriteJson};

use crate::record::{atomic_write, ReportRecord};
use crate::scenario::{RunOpts, Scenario};

/// Major version of the outcome JSON format (mismatches are rejected).
pub const OUTCOME_FORMAT_MAJOR: u64 = 1;
/// Minor version of the outcome JSON format (additive extensions only).
pub const OUTCOME_FORMAT_MINOR: u64 = 0;

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// What one attempted scenario run produced.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The run completed; the full content-addressed record (boxed — a
    /// record dwarfs the other variants).
    Complete(Box<ReportRecord>),
    /// The run exhausted a tick/stall budget before completing — a typed
    /// *partial* outcome (the adversary starved the machine past the
    /// liveness bar), not an error string and not a crash.
    Exhausted {
        /// The scenario that ran out of budget.
        scenario: Scenario,
        /// The budget trip message (deterministic for a fixed scenario).
        message: String,
    },
    /// The run panicked: an engine or scheme bug. The cell is poisoned —
    /// recorded, isolated, and reported, never silently retried.
    Poisoned {
        /// The scenario that panicked.
        scenario: Scenario,
        /// The panic message (deterministic for a fixed scenario).
        message: String,
    },
}

/// Run `f` under `catch_unwind`, turning a panic into its message: the
/// payload when it is a string, else a fixed placeholder. Every panic
/// the workspace isolates — a captured run, a runner trial — is turned
/// into text here.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

impl WriteJson for RunOutcome {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.key("version");
            w.obj(|w| {
                w.field("major", OUTCOME_FORMAT_MAJOR);
                w.field("minor", OUTCOME_FORMAT_MINOR);
            });
            w.field("status", self.status());
            match self {
                RunOutcome::Complete(r) => w.field("record", &**r),
                RunOutcome::Exhausted { scenario, message }
                | RunOutcome::Poisoned { scenario, message } => {
                    w.field("digest", scenario.digest());
                    w.field("scenario", scenario);
                    w.field("message", message);
                }
            }
        });
    }
}

impl RunOutcome {
    /// Execute `scenario` under `catch_unwind`, classifying a budget trip
    /// (the harnesses' `clock stalled …` asserts) as [`Exhausted`] and any
    /// other panic as [`Poisoned`].
    ///
    /// [`Exhausted`]: RunOutcome::Exhausted
    /// [`Poisoned`]: RunOutcome::Poisoned
    pub fn capture(scenario: &Scenario) -> Self {
        Self::capture_with(scenario, ReportRecord::run)
    }

    /// [`RunOutcome::capture`] under runtime [`RunOpts`] (see
    /// [`Scenario::run_opts`]); the outcome is byte-identical to
    /// `capture`'s — the options choose an engine and observe the run,
    /// they never steer it.
    pub fn capture_opts(scenario: &Scenario, opts: &RunOpts) -> Self {
        Self::capture_with(scenario, |s| ReportRecord::run_opts(s, opts))
    }

    /// [`RunOutcome::capture`] with an explicit runner — the seam the
    /// lab's fault-injection harness uses to panic a chosen cell.
    pub fn capture_with(scenario: &Scenario, run: impl FnOnce(&Scenario) -> ReportRecord) -> Self {
        match catch_panic(|| run(scenario)) {
            Ok(record) => RunOutcome::Complete(Box::new(record)),
            Err(message) if message.contains("clock stalled") => RunOutcome::Exhausted {
                scenario: scenario.clone(),
                message,
            },
            Err(message) => RunOutcome::Poisoned {
                scenario: scenario.clone(),
                message,
            },
        }
    }

    /// The scenario this outcome is about.
    pub fn scenario(&self) -> &Scenario {
        match self {
            RunOutcome::Complete(r) => &r.scenario,
            RunOutcome::Exhausted { scenario, .. } | RunOutcome::Poisoned { scenario, .. } => {
                scenario
            }
        }
    }

    /// The outcome's content address ([`Scenario::digest`]).
    pub fn digest(&self) -> String {
        self.scenario().digest()
    }

    /// The completed record, when there is one.
    pub fn record(&self) -> Option<&ReportRecord> {
        match self {
            RunOutcome::Complete(r) => Some(r.as_ref()),
            _ => None,
        }
    }

    /// Whether the run completed *and* met its mode's correctness bar.
    pub fn ok(&self) -> bool {
        matches!(self, RunOutcome::Complete(r) if r.ok())
    }

    /// Stable status label: `complete`, `exhausted`, or `poisoned` (what
    /// journals and store manifests record).
    pub fn status(&self) -> &'static str {
        match self {
            RunOutcome::Complete(_) => "complete",
            RunOutcome::Exhausted { .. } => "exhausted",
            RunOutcome::Poisoned { .. } => "poisoned",
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        match self {
            RunOutcome::Complete(r) => r.report.summary(),
            RunOutcome::Exhausted { message, .. } => format!("exhausted: {message}"),
            RunOutcome::Poisoned { message, .. } => format!("poisoned: {message}"),
        }
    }

    /// Serialize to the versioned outcome document (canonical field
    /// order). Complete outcomes embed the full record document.
    pub fn to_json(&self) -> Json {
        self.to_tree()
    }

    /// Deserialize an outcome document (rejects unknown major versions
    /// and unknown status tags).
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let version = v
            .get("version")
            .map_err(|_| jerr("outcome document has no version field"))?;
        let major = version.get("major")?.as_u64()?;
        if major != OUTCOME_FORMAT_MAJOR {
            return Err(jerr(format!(
                "unsupported outcome format major version {major} (this build reads \
                 {OUTCOME_FORMAT_MAJOR})"
            )));
        }
        match v.get("status")?.as_str()? {
            "complete" => Ok(RunOutcome::Complete(Box::new(ReportRecord::from_json(
                v.get("record")?,
            )?))),
            status @ ("exhausted" | "poisoned") => {
                let scenario = Scenario::from_json(v.get("scenario")?)?;
                let stored = v.get("digest")?.as_str()?;
                let actual = scenario.digest();
                if stored != actual {
                    return Err(jerr(format!(
                        "outcome digest {stored:?} does not match its scenario (expected \
                         {actual:?})"
                    )));
                }
                let message = v.get("message")?.as_str()?.to_string();
                Ok(if status == "exhausted" {
                    RunOutcome::Exhausted { scenario, message }
                } else {
                    RunOutcome::Poisoned { scenario, message }
                })
            }
            other => Err(jerr(format!("unknown outcome status {other:?}"))),
        }
    }

    /// Parse a complete outcome document.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// The canonical pretty-printed document.
    pub fn render_pretty(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Write the canonical document to `path` atomically
    /// (temp + fsync + rename).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        atomic_write(path, &self.render_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramSource;
    use crate::scenario::SourceSpec;
    use apex_scheme::SchemeKind;

    fn base() -> Scenario {
        Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("tree-reduce-max", 8, vec![3]),
            7,
        )
    }

    #[test]
    fn capture_completes_healthy_runs() {
        let outcome = RunOutcome::capture(&base());
        assert!(outcome.ok());
        assert_eq!(outcome.status(), "complete");
        assert_eq!(outcome.digest(), base().digest());
        assert!(outcome.record().is_some());
    }

    #[test]
    fn capture_classifies_stalls_and_panics() {
        let poisoned = RunOutcome::capture_with(&base(), |_| panic!("injected fault: boom"));
        assert!(!poisoned.ok());
        assert_eq!(poisoned.status(), "poisoned");
        assert!(
            poisoned.summary().contains("injected fault"),
            "{poisoned:?}"
        );

        let exhausted =
            RunOutcome::capture_with(&base(), |_| panic!("clock stalled before value 3"));
        assert_eq!(exhausted.status(), "exhausted");
        assert!(!exhausted.ok());
        assert!(exhausted.summary().starts_with("exhausted:"));
    }

    #[test]
    fn a_real_budget_trip_degrades_to_exhausted() {
        // An absurdly small stall budget makes the scheme harness trip its
        // liveness assert; capture must type it, not crash.
        let outcome = RunOutcome::capture(&base().tick_budget(1));
        assert_eq!(outcome.status(), "exhausted", "{}", outcome.summary());
        // Deterministic: the same scenario exhausts with the same message.
        let again = RunOutcome::capture(&base().tick_budget(1));
        assert_eq!(outcome.summary(), again.summary());
    }

    #[test]
    fn outcome_documents_round_trip_byte_identically() {
        let outcomes = [
            RunOutcome::capture(&base()),
            RunOutcome::capture(&Scenario::agreement(8, SourceSpec::Keyed, 1, 3)),
            RunOutcome::capture_with(&base(), |_| panic!("injected fault: boom")),
            RunOutcome::capture_with(&base(), |_| panic!("clock stalled before value 1")),
        ];
        for outcome in outcomes {
            let text = outcome.render_pretty();
            let back = RunOutcome::parse(&text).unwrap();
            assert_eq!(back.render_pretty(), text);
            assert_eq!(back.status(), outcome.status());
            assert_eq!(back.digest(), outcome.digest());
        }
    }

    #[test]
    fn tampered_digest_and_unknown_status_are_rejected() {
        let outcome = RunOutcome::capture_with(&base(), |_| panic!("boom"));
        let mut json = outcome.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[2].1 = Json::Str("0000000000000000".into());
        }
        assert!(RunOutcome::from_json(&json)
            .unwrap_err()
            .msg
            .contains("digest"));

        let mut json = outcome.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[1].1 = Json::Str("vaporized".into());
        }
        assert!(RunOutcome::from_json(&json)
            .unwrap_err()
            .msg
            .contains("status"));
    }
}
