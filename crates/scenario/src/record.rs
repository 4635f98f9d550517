//! [`ReportRecord`] — one run's evidence as a content-addressed artifact.
//!
//! A record binds the *question* (the canonical [`Scenario`] document) to
//! the *answer* (the exact [`ScenarioReport`], plus the named output
//! values when the workload declares them) in one versioned JSON file.
//! Records are keyed by [`Scenario::digest`] — the FNV-1a hash of the
//! canonical scenario document — so a store of records is a results cache:
//! the same scenario always lands at the same address, and a re-run that
//! produces different bytes at that address *is* drift.

use std::path::Path;

use apex_sim::{Json, JsonError};

use crate::report::ScenarioReport;
use crate::scenario::{RunOpts, Scenario};

/// Major version of the record JSON format (major mismatches are
/// rejected on read).
pub const RECORD_FORMAT_MAJOR: u64 = 1;
/// Minor version of the record JSON format (additive extensions only).
pub const RECORD_FORMAT_MINOR: u64 = 0;

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// Write `text` to `path` atomically: write a `.tmp` sibling, fsync it,
/// rename it over `path`, then fsync the parent directory. A crash at any
/// point leaves either the old bytes, the new bytes, or a stale `.tmp`
/// sibling — never a torn file at the final path. This is the one write
/// primitive every store/artifact writer in the workspace goes through.
pub fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other(format!("{}: no file name", path.display())))?;
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; best-effort on filesystems that do
        // not support opening directories for sync.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A recorded scenario run: scenario, named outputs (when the program
/// source declares I/O blocks), and the full report.
#[derive(Clone, Debug)]
pub struct ReportRecord {
    /// The scenario that ran (its digest is the record's address).
    pub scenario: Scenario,
    /// Final values of the program's declared output block — library
    /// workloads only; `None` for explicit programs and agreement mode.
    pub outputs: Option<Vec<u64>>,
    /// The full run report.
    pub report: ScenarioReport,
}

impl ReportRecord {
    /// Wrap an already-obtained report, deriving the named outputs from
    /// the scenario's I/O blocks (satellite of the suite subsystem: suites
    /// can assert program *results*, not just verifier cleanliness).
    pub fn from_run(scenario: Scenario, report: ScenarioReport) -> Self {
        let outputs = match (&report, scenario.io_blocks()) {
            (ScenarioReport::Scheme(r), Some((_, out))) => r
                .final_memory
                .get(out.base..out.base + out.len)
                .map(|s| s.to_vec()),
            _ => None,
        };
        ReportRecord {
            scenario,
            outputs,
            report,
        }
    }

    /// Validate, execute, and record `scenario` in one step.
    ///
    /// # Panics
    /// If the scenario is invalid or the run trips a stall budget (see
    /// [`Scenario::run`]).
    pub fn run(scenario: &Scenario) -> Self {
        Self::run_opts(scenario, &RunOpts::default())
    }

    /// [`ReportRecord::run`] under runtime [`RunOpts`] (see
    /// [`Scenario::run_opts`]): the recorded scenario, its digest, and
    /// every report byte are exactly as with the defaults.
    pub fn run_opts(scenario: &Scenario, opts: &RunOpts) -> Self {
        Self::from_run(scenario.clone(), scenario.run_opts(opts))
    }

    /// The record's content address: [`Scenario::digest`] of its scenario.
    pub fn digest(&self) -> String {
        self.scenario.digest()
    }

    /// Whether the recorded run met its mode's correctness bar.
    pub fn ok(&self) -> bool {
        self.report.ok()
    }

    /// Serialize to the versioned record document (canonical field order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "version".into(),
                Json::Obj(vec![
                    ("major".into(), Json::UInt(RECORD_FORMAT_MAJOR)),
                    ("minor".into(), Json::UInt(RECORD_FORMAT_MINOR)),
                ]),
            ),
            ("digest".into(), Json::Str(self.digest())),
            ("scenario".into(), self.scenario.to_json()),
            (
                "outputs".into(),
                self.outputs.as_ref().map_or(Json::Null, |o| {
                    Json::Arr(o.iter().map(|x| Json::UInt(*x)).collect())
                }),
            ),
            ("report".into(), self.report.to_json()),
        ])
    }

    /// Deserialize a record document. Rejects unknown major versions and
    /// records whose stored digest does not match the embedded scenario
    /// (a hand-edited or corrupted artifact).
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let version = v
            .get("version")
            .map_err(|_| jerr("record document has no version field"))?;
        let major = version.get("major")?.as_u64()?;
        if major != RECORD_FORMAT_MAJOR {
            return Err(jerr(format!(
                "unsupported record format major version {major} (this build reads \
                 {RECORD_FORMAT_MAJOR})"
            )));
        }
        let record = ReportRecord {
            scenario: Scenario::from_json(v.get("scenario")?)?,
            outputs: match v.get("outputs")? {
                Json::Null => None,
                arr => Some(
                    arr.as_arr()?
                        .iter()
                        .map(Json::as_u64)
                        .collect::<Result<_, _>>()?,
                ),
            },
            report: ScenarioReport::from_json(v.get("report")?)?,
        };
        let stored = v.get("digest")?.as_str()?;
        let actual = record.digest();
        if stored != actual {
            return Err(jerr(format!(
                "record digest {stored:?} does not match its scenario (expected {actual:?})"
            )));
        }
        Ok(record)
    }

    /// Parse a complete record document.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// The canonical pretty-printed document — what the lab store writes,
    /// and what drift detection compares byte-for-byte.
    pub fn render_pretty(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Write the canonical document to `path` atomically
    /// (temp + fsync + rename; see [`atomic_write`]).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, &self.render_pretty())
    }

    /// Load and parse a record file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramSource;
    use crate::scenario::SourceSpec;
    use apex_scheme::SchemeKind;

    fn scheme_record() -> ReportRecord {
        ReportRecord::run(&Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("tree-reduce-max", 8, vec![3]),
            7,
        ))
    }

    #[test]
    fn record_round_trips_byte_identically() {
        for record in [
            scheme_record(),
            ReportRecord::run(&Scenario::agreement(8, SourceSpec::Random(100), 1, 3)),
        ] {
            let text = record.render_pretty();
            let back = ReportRecord::parse(&text).unwrap();
            assert_eq!(back.render_pretty(), text);
            assert_eq!(back.digest(), record.digest());
            assert_eq!(back.ok(), record.ok());
            assert_eq!(back.outputs, record.outputs);
        }
    }

    #[test]
    fn library_runs_carry_named_outputs() {
        use apex_pram::library::gen_values;
        let record = scheme_record();
        let outputs = record.outputs.as_ref().expect("library source declares IO");
        // tree-reduce-max writes the reduction into its (length-1) output
        // block; the scheme's final memory must contain the true maximum.
        let expect = gen_values(8, 3).iter().copied().fold(0, u64::max);
        assert_eq!(outputs, &vec![expect]);
        assert!(record.ok());
    }

    #[test]
    fn explicit_and_agreement_runs_have_no_outputs() {
        use apex_pram::library::coin_sum;
        let explicit = ReportRecord::run(&Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::Explicit(coin_sum(4, 8).program),
            1,
        ));
        assert_eq!(explicit.outputs, None);
        let agreement = ReportRecord::run(&Scenario::agreement(8, SourceSpec::Keyed, 1, 1));
        assert_eq!(agreement.outputs, None);
    }

    #[test]
    fn tampered_digest_and_unknown_major_are_rejected() {
        let record = scheme_record();
        let mut json = record.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[1].1 = Json::Str("0000000000000000".into());
        }
        let e = ReportRecord::from_json(&json).unwrap_err();
        assert!(e.msg.contains("digest"), "{e}");

        let mut json = record.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::Obj(vec![
                ("major".into(), Json::UInt(RECORD_FORMAT_MAJOR + 1)),
                ("minor".into(), Json::UInt(0)),
            ]);
        }
        let e = ReportRecord::from_json(&json).unwrap_err();
        assert!(e.msg.contains("major version"), "{e}");
    }

    #[test]
    fn scenario_digest_is_stable_and_content_sensitive() {
        let a = Scenario::agreement(8, SourceSpec::Random(100), 1, 3);
        let b = Scenario::agreement(8, SourceSpec::Random(100), 1, 4);
        assert_eq!(a.digest(), a.clone().digest());
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest().len(), 16);
    }
}
