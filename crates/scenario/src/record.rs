//! [`ReportRecord`] — one run's evidence as a content-addressed artifact.
//!
//! A record binds the *question* (the canonical [`Scenario`] document) to
//! the *answer* (the exact [`ScenarioReport`], plus the named output
//! values when the workload declares them) in one versioned JSON file.
//! Records are keyed by [`Scenario::digest`] — the FNV-1a hash of the
//! canonical scenario document — so a store of records is a results cache:
//! the same scenario always lands at the same address, and a re-run that
//! produces different bytes at that address *is* drift.

use std::path::{Path, PathBuf};

use apex_pram::VarBlock;
use apex_sim::{Json, JsonDoc, JsonError, JsonVal, JsonWriter, WriteJson};

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

/// The `.tmp` sibling an atomic write stages its bytes in
/// (`<name>.tmp` next to `path`). A leftover one is the only debris a
/// crash mid-write can leave.
pub fn temp_path(path: &Path) -> std::io::Result<PathBuf> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other(format!("{}: no file name", path.display())))?;
    Ok(path.with_file_name(format!("{file_name}.tmp")))
}

/// Write `text` to `path` atomically: write a `.tmp` sibling, fsync it,
/// rename it over `path`, then fsync the parent directory. A crash at any
/// point leaves either the old bytes, the new bytes, or a stale `.tmp`
/// sibling — never a torn file at the final path. Every one-off
/// store/artifact write in the workspace goes through it (the lab's
/// group commit stages, syncs and renames record batches itself).
pub fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    atomic_write_bytes(path, text.as_bytes())
}

/// Byte-level [`atomic_write`] (fault injection can produce non-UTF-8
/// content, which must still be written with full temp + fsync + rename
/// discipline).
pub fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = temp_path(path)?;
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
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

/// Why stored bytes are not a trustworthy record for their address
/// ([`ReportRecord::verify_stored`]), in the order the checks run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoredRecordError {
    /// The bytes are not a JSON document.
    Json(JsonError),
    /// JSON, but not a record: a missing or mistyped field, an unknown
    /// major version, or a stored digest that disagrees with the
    /// embedded scenario.
    Record(JsonError),
    /// A well-formed record of another scenario, whose digest it names.
    Misaddressed {
        /// The digest the record's own scenario hashes to.
        claims: String,
    },
    /// The record's content, but not its canonical rendering.
    NotCanonical,
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
        let io = scenario.io_blocks();
        Self::from_run_io(scenario, report, io)
    }

    /// [`ReportRecord::from_run`] with the scenario's I/O blocks already
    /// in hand.
    fn from_run_io(
        scenario: Scenario,
        report: ScenarioReport,
        io: Option<(VarBlock, VarBlock)>,
    ) -> Self {
        let outputs = match (&report, io) {
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
        let (report, io) = scenario.run_with_io(opts);
        Self::from_run_io(scenario.clone(), report, io)
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
        self.to_tree()
    }

    /// The record's one serializer, with its digest already in hand.
    fn write_as(&self, digest: &str, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.key("version");
            w.obj(|w| {
                w.field("major", RECORD_FORMAT_MAJOR);
                w.field("minor", RECORD_FORMAT_MINOR);
            });
            w.field("digest", digest);
            w.field("scenario", &self.scenario);
            w.field("outputs", &self.outputs);
            w.field("report", &self.report);
        });
    }

    /// The canonical pretty-printed document of the record whose
    /// [`ReportRecord::digest`] is `digest`: what [`Self::render_pretty`]
    /// returns, without computing the digest again.
    pub fn render_pretty_as(&self, digest: &str) -> String {
        let mut out = String::new();
        Addressed(self, digest).render_pretty_to(&mut out);
        out
    }

    /// Deserialize a record document. Rejects unknown major versions and
    /// records whose stored digest does not match the embedded scenario
    /// (a hand-edited or corrupted artifact).
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        Self::decode_digest(v).map(|(record, _)| record)
    }

    /// [`ReportRecord::decode`], also returning the digest it verified.
    fn decode_digest(v: JsonVal<'_>) -> Result<(Self, String), JsonError> {
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
            scenario: Scenario::decode(v.get("scenario")?)?,
            outputs: v
                .get("outputs")?
                .non_null()
                .map(|arr| arr.as_arr()?.map(JsonVal::as_u64).collect())
                .transpose()?,
            report: ScenarioReport::decode(v.get("report")?)?,
        };
        let stored = v.get("digest")?.as_str()?;
        let actual = record.digest();
        if stored != actual {
            return Err(jerr(format!(
                "record digest {stored:?} does not match its scenario (expected {actual:?})"
            )));
        }
        Ok((record, actual))
    }

    /// Decode the stored bytes of the record filed at content address
    /// `address`, trusting only verified bytes: `text` must parse as a
    /// record (which checks its digest against its scenario), that
    /// digest must be `address`, and `text` must be the record's
    /// canonical rendering. The scenario digest is computed once and
    /// serves all three checks, and the canonical check compares the
    /// rendering with `text` as it is produced and hashes it on the way
    /// ([`WriteJson::pretty_checksum`]), building no tree. Returns the
    /// record and the FNV-1a of `text`. The lab store's cache lookup and
    /// `apex lab fsck` both verify records through here.
    pub fn verify_stored(text: &str, address: &str) -> Result<(Self, u64), StoredRecordError> {
        let doc = JsonDoc::parse(text).map_err(StoredRecordError::Json)?;
        let (record, digest) =
            Self::decode_digest(doc.root()).map_err(StoredRecordError::Record)?;
        if digest != address {
            return Err(StoredRecordError::Misaddressed { claims: digest });
        }
        match Addressed(&record, &digest).pretty_checksum(text) {
            Some(checksum) => Ok((record, checksum)),
            None => Err(StoredRecordError::NotCanonical),
        }
    }

    /// Parse a complete record document.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        JsonDoc::decode(text, Self::decode)
    }

    /// The canonical pretty-printed document — what the lab store writes,
    /// and what drift detection compares byte-for-byte.
    pub fn render_pretty(&self) -> String {
        self.render_pretty_as(&self.digest())
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

impl WriteJson for ReportRecord {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        self.write_as(&self.digest(), w);
    }
}

/// A record with its digest already computed.
struct Addressed<'r>(&'r ReportRecord, &'r str);

impl WriteJson for Addressed<'_> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        self.0.write_as(self.1, w);
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
        let e = json.decode(ReportRecord::decode).unwrap_err();
        assert!(e.msg.contains("digest"), "{e}");

        let mut json = record.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::Obj(vec![
                ("major".into(), Json::UInt(RECORD_FORMAT_MAJOR + 1)),
                ("minor".into(), Json::UInt(0)),
            ]);
        }
        let e = json.decode(ReportRecord::decode).unwrap_err();
        assert!(e.msg.contains("major version"), "{e}");
    }

    #[test]
    fn verify_stored_checks_json_record_address_and_canonical_bytes() {
        let record = scheme_record();
        let (text, digest) = (record.render_pretty(), record.digest());
        let (back, checksum) = ReportRecord::verify_stored(&text, &digest).unwrap();
        assert_eq!(back.render_pretty(), text);
        assert_eq!(checksum, crate::fnv1a64(text.as_bytes()));

        let e = ReportRecord::verify_stored(&text[..text.len() / 2], &digest);
        assert!(matches!(e, Err(StoredRecordError::Json(_))), "{e:?}");
        let retagged = text.replacen(&digest, "0000000000000000", 1);
        match ReportRecord::verify_stored(&retagged, &digest) {
            Err(StoredRecordError::Record(e)) => assert!(e.msg.contains("digest"), "{e}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            ReportRecord::verify_stored(&text, "0000000000000000").unwrap_err(),
            StoredRecordError::Misaddressed {
                claims: digest.clone()
            }
        );
        let padded = text.replacen("\n  ", "\n   ", 1);
        assert_eq!(
            ReportRecord::verify_stored(&padded, &digest).unwrap_err(),
            StoredRecordError::NotCanonical
        );
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
