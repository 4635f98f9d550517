//! The content-addressed lab results store.
//!
//! Layout (filesystem-backed, no database, diffable by hand):
//!
//! ```text
//! .apex/lab/
//!   <suite-digest>/                 one directory per suite document
//!     manifest.json                 name, digest, per-cell index
//!     journal.jsonl                 write-ahead execution journal
//!     <cell-digest>.json            one ReportRecord per completed cell
//!     <name>.tmp                    a write in flight, or crash debris
//!   quarantine/                     fsck's holding pen (never run over)
//!     <suite-digest>/<file>         corrupt files, moved — not deleted
//! ```
//!
//! What a name in a suite directory means is decided in one place,
//! [`SuiteFile::of`], for every reader of a suite directory.
//!
//! Every path component is a content digest: the suite directory is the
//! FNV-1a digest of the canonical suite document, each record file the
//! digest of its canonical scenario document. Re-running the same suite
//! therefore rewrites the same files with the same bytes — anything else
//! is drift. The manifest carries no timestamps for exactly that reason:
//! two runs of one suite must be byte-identical, end to end.
//!
//! **Trust.** Stored bytes are judged by one rule per document:
//! [`verify_record`] for a record, [`verify_manifest`] for a manifest.
//! Each returns a typed [`StoreFault`] — the class `apex lab fsck`
//! reports and a detail — so the cache ([`LabStore::lookup_record`],
//! which turns a fault into [`CacheLookup::Rejected`]),
//! [`LabStore::read_manifest`] and fsck cannot disagree on which bytes
//! are trusted.
//!
//! **Crash safety.** Every write goes through temp + fsync + rename, so
//! a kill at any instant leaves old bytes, new bytes, or a stale `.tmp`
//! sibling — never a torn file at a final path. One-off writes
//! (manifests, metrics) do all three steps themselves
//! ([`LabStore::write_text`]). Cell records are group-committed instead:
//! [`LabStore::stage_text`] writes a batch's temp files unsynced and the
//! [`Committer`](crate::Committer) syncs, renames and syncs again — see
//! [`crate::journal`]. Transient I/O errors are retried a bounded number
//! of times with *attempt-indexed* backoff (never wall-clock), so a run's
//! fault handling is as reproducible as its results. All of it goes
//! through one [`Disk`]: the filesystem (`FsDisk`), or a
//! [`FaultInjector`] installed with [`LabStore::with_faults`] — see
//! `tests/lab_faults.rs`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use apex_obs::Metrics;
use apex_scenario::{ReportRecord, StoredRecordError};
use apex_sim::{Json, JsonDoc, JsonError, JsonVal, JsonWriter, WriteJson};

use crate::disk::{Disk, FsDisk};
use crate::fault::{is_kill, FaultInjector};
use crate::fsck::FsckIssueKind;
use crate::journal::Journal;
use crate::runner::SuiteRun;
use crate::{digest_hex, rendered_digest_hex};

/// Default store root, relative to the working directory.
pub const DEFAULT_STORE_ROOT: &str = ".apex/lab";

/// Name of the quarantine directory under the store root. fsck moves
/// corrupt files here; runs, drift checks, and gc never touch it.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Bounded retry: total attempts per store write (1 initial + 3 retries).
pub const MAX_WRITE_ATTEMPTS: u32 = 4;

/// Every telemetry sidecar filename a suite directory may carry — the
/// *single* source of truth for byte-identity exclusion lists (CI's
/// `diff -r --exclude=…` flags are generated from this set; tests assert
/// they stay in sync). Telemetry is per-run evidence about *how* a run
/// went, never part of the store's content-addressed identity.
pub const TELEMETRY_FILES: &[&str] = &[
    crate::journal::JOURNAL_FILE,
    apex_obs::METRICS_FILE,
    apex_obs::TRACE_FILE,
];

/// What a file in a suite directory is, by its name — the one reading
/// of suite-directory names that fsck, drift's record listing, the
/// farm's temp sweep and the metrics merge share ([`SuiteFile::of`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteFile<'a> {
    /// `<cell>.json`: one cell's record, named by its cell digest.
    Record(&'a str),
    /// `manifest.json`.
    Manifest,
    /// `journal.jsonl` ([`JOURNAL_FILE`](crate::JOURNAL_FILE)).
    Journal,
    /// `metrics.json`, or a farm worker's `metrics-<worker>.json` shard:
    /// both carry the unified metrics document.
    Metrics,
    /// `trace.jsonl`, or a farm worker's `trace-<worker>.jsonl`.
    Trace,
    /// Any `*.tmp`: what an atomic write stages before its rename,
    /// with the name up to its first `.` — the cell digest of a record
    /// temp (`<cell>.json.tmp`, a farm worker's
    /// `<cell>.json.<worker>.tmp`). A leftover one is crash debris.
    Temp(&'a str),
    /// Anything else.
    Other,
}

impl<'a> SuiteFile<'a> {
    /// Classify the file name `name`.
    pub fn of(name: &'a str) -> Self {
        if name.ends_with(".tmp") {
            return SuiteFile::Temp(name.split_once('.').map_or(name, |(stem, _)| stem));
        }
        if name == crate::journal::JOURNAL_FILE {
            return SuiteFile::Journal;
        }
        if name.starts_with("trace") && name.ends_with(".jsonl") {
            return SuiteFile::Trace;
        }
        match name.strip_suffix(".json") {
            Some("manifest") => SuiteFile::Manifest,
            Some(stem) if stem.starts_with("metrics") => SuiteFile::Metrics,
            Some(stem) => SuiteFile::Record(stem),
            None => SuiteFile::Other,
        }
    }
}

/// The answer a store gives when asked for one cell's record by digest.
///
/// The cache trusts *only verified bytes*: a file at the right path that
/// fails any verification step is [`Rejected`](CacheLookup::Rejected),
/// never a hit — exactly the resume-verification path, plus the
/// manifest-row checksum when a manifest is supplied.
#[derive(Debug)]
pub enum CacheLookup {
    /// Verified bytes found: the exact file text and the parsed record.
    Hit(String, Box<ReportRecord>),
    /// No file at the cell's content address.
    Miss,
    /// Bytes present but untrustworthy; the reason they failed
    /// verification.
    Rejected(String),
}

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// Merge every metrics sidecar (`metrics.json`, `metrics-<worker>.json`;
/// [`SuiteFile::Metrics`]) under `root`, recursively — a store keeps one
/// per suite directory, plus per-worker shards — skipping the
/// [`QUARANTINE_DIR`], whose files fsck set aside as unreadable.
/// Returns the merged document and how many files contributed.
pub fn merge_metrics(root: &Path) -> Result<(Metrics, usize), String> {
    let mut merged = Metrics::new();
    let mut files = 0usize;
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for path in paths {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != QUARANTINE_DIR {
                    stack.push(path);
                }
            } else if SuiteFile::of(name) == SuiteFile::Metrics {
                merged
                    .merge(&Metrics::load(&path)?)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                files += 1;
            }
        }
    }
    Ok((merged, files))
}

/// One manifest row: where a cell's record lives and how the run went.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestCell {
    /// Position in the suite's expansion order.
    pub index: usize,
    /// The cell's scenario digest (also the record file stem).
    pub digest: String,
    /// Terminal state: `complete`, `exhausted`, or `poisoned`.
    pub status: String,
    /// Whether the run met its mode's correctness bar (always false for
    /// non-complete cells).
    pub ok: bool,
    /// One-line human summary of the report.
    pub summary: String,
    /// FNV-1a digest of the record file's exact bytes (`None` for cells
    /// with no record — exhausted/poisoned). Computed from the *intended*
    /// bytes at write time, so any later corruption of the file is
    /// detectable by `apex lab fsck`.
    pub checksum: Option<String>,
}

/// The per-suite index the store writes next to the records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Suite name (from the document).
    pub name: String,
    /// Digest of the canonical suite document.
    pub suite_digest: String,
    /// One row per cell, in expansion order.
    pub cells: Vec<ManifestCell>,
}

impl Manifest {
    /// Build the manifest for a completed run: one row per outcome in
    /// expansion order. Each row's cell digest is the one expansion
    /// computed, and each record's checksum — the digest of its
    /// canonical bytes — comes from [`SuiteRun::checksums`] when the run
    /// carries them (bytes already verified or staged); either is
    /// computed from the outcome when the run lacks it.
    pub fn from_run(run: &SuiteRun) -> Self {
        Manifest {
            name: run.name.clone(),
            suite_digest: run.suite_digest.clone(),
            cells: run
                .outcomes
                .iter()
                .enumerate()
                .map(|(index, outcome)| ManifestCell {
                    index,
                    digest: known_or(run.digests.get(index), || outcome.digest()),
                    status: outcome.status().to_string(),
                    ok: outcome.ok(),
                    summary: outcome.summary(),
                    checksum: known_or(run.checksums.get(index), || {
                        outcome.record().map(|r| rendered_digest_hex(r, true))
                    }),
                })
                .collect(),
        }
    }

    /// The pinned checksum of every row, keyed by cell digest (the first
    /// row wins, as a scan would find it): built once, so checking a
    /// whole suite's records against the manifest is linear, not
    /// quadratic.
    pub(crate) fn pins(&self) -> std::collections::HashMap<&str, Option<&str>> {
        let mut pins = std::collections::HashMap::with_capacity(self.cells.len());
        for c in &self.cells {
            pins.entry(c.digest.as_str())
                .or_insert(c.checksum.as_deref());
        }
        pins
    }

    /// The manifest's one serializer, with its self-checksum in hand
    /// (`None` writes the core document the checksum covers).
    fn write_as(&self, checksum: Option<&str>, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.field("name", &self.name);
            w.field("suite_digest", &self.suite_digest);
            w.field("cells", &self.cells);
            if let Some(checksum) = checksum {
                w.field("checksum", checksum);
            }
        });
    }

    /// The manifest's self-checksum: FNV-1a over the compact rendering
    /// of the core document. Emitted as the final `checksum` field and
    /// verified on read, so a bit flip anywhere in a stored manifest —
    /// including one that keeps the JSON well-formed — is detected.
    pub fn self_checksum(&self) -> String {
        rendered_digest_hex(&Signed(self, None), false)
    }

    /// Serialize (canonical field order, no timestamps — deterministic).
    pub fn to_json(&self) -> Json {
        self.to_tree()
    }

    /// The canonical pretty-printed document: what the store writes.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_to(&mut out);
        out
    }

    /// Decode, without judging: the self-checksum and the canonical
    /// rendering are checked by [`verify_manifest`], the trusted read.
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        Ok(Manifest {
            name: v.get("name")?.as_str()?.to_string(),
            suite_digest: v.get("suite_digest")?.as_str()?.to_string(),
            cells: v
                .get("cells")?
                .as_arr()?
                .map(|c| {
                    Ok(ManifestCell {
                        index: c.get("index")?.as_usize()?,
                        digest: c.get("digest")?.as_str()?.to_string(),
                        status: match c.get_opt("status") {
                            Some(s) => s.as_str()?.to_string(),
                            None => "complete".to_string(),
                        },
                        ok: {
                            let ok = c.get("ok")?;
                            ok.as_bool()
                                .ok_or_else(|| jerr(format!("expected bool ok, got {ok:?}")))?
                        },
                        summary: c.get("summary")?.as_str()?.to_string(),
                        checksum: c
                            .get_opt("checksum")
                            .and_then(JsonVal::non_null)
                            .map(|s| s.as_str().map(str::to_string))
                            .transpose()?,
                    })
                })
                .collect::<Result<_, JsonError>>()?,
        })
    }

    /// [`Manifest::decode`] of a tree.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.decode(Self::decode)
    }
}

impl WriteJson for Manifest {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        self.write_as(Some(&self.self_checksum()), w);
    }
}

/// A manifest written with the given self-checksum, or as its bare
/// core document (`None`).
struct Signed<'m>(&'m Manifest, Option<&'m str>);

impl WriteJson for Signed<'_> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        self.0.write_as(self.1, w);
    }
}

impl WriteJson for ManifestCell {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.field("index", self.index);
            w.field("digest", &self.digest);
            w.field("status", &self.status);
            w.field("ok", self.ok);
            w.field("summary", &self.summary);
            w.field("checksum", &self.checksum);
        });
    }
}

/// Why stored bytes are not trusted: the fsck class and what failed.
/// [`verify_record`] and [`verify_manifest`] return it; the cache turns
/// it into [`CacheLookup::Rejected`], `apex lab fsck` into an issue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreFault {
    /// The class fsck reports.
    pub kind: FsckIssueKind,
    /// What failed, for a human.
    pub detail: String,
}

impl std::fmt::Display for StoreFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

fn fault(kind: FsckIssueKind, detail: impl Into<String>) -> StoreFault {
    StoreFault {
        kind,
        detail: detail.into(),
    }
}

const NOT_CANONICAL: &str = "bytes are not the canonical rendering";

/// The one verdict on a stored record's bytes, for the cache
/// ([`LabStore::lookup_record`]) and `apex lab fsck` alike. The bytes
/// must be UTF-8 and parse ([`ReportRecord::verify_stored`], which
/// digest-verifies the embedded scenario), the record must sit at its
/// own `address`, the bytes must be its canonical rendering, and, when
/// its manifest row pins a checksum, they must hash to `pinned`. Returns
/// the text, the parsed record and the text's checksum
/// ([`digest_hex`]), hashed by the canonical check as it compared.
pub fn verify_record(
    bytes: Vec<u8>,
    address: &str,
    pinned: Option<&str>,
) -> Result<(String, ReportRecord, String), StoreFault> {
    use FsckIssueKind::*;
    let text = String::from_utf8(bytes).map_err(|e| {
        let at = e.utf8_error().valid_up_to();
        fault(TornOrTruncated, format!("not UTF-8 at byte {at}"))
    })?;
    let (record, checksum) = ReportRecord::verify_stored(&text, address).map_err(|e| match e {
        StoredRecordError::Json(e) => fault(TornOrTruncated, format!("not JSON: {e}")),
        StoredRecordError::Record(e) if e.msg.contains("digest") => fault(DigestMismatch, e.msg),
        StoredRecordError::Record(e) => fault(TornOrTruncated, e.msg),
        StoredRecordError::Misaddressed { claims } => fault(
            DigestMismatch,
            format!("record {claims} filed at address {address}"),
        ),
        StoredRecordError::NotCanonical => fault(NotCanonical, NOT_CANONICAL),
    })?;
    let checksum = format!("{checksum:016x}");
    if let Some(pinned) = pinned {
        if checksum != pinned {
            let detail = format!("file checksum {checksum} != pinned {pinned}");
            return Err(fault(ChecksumMismatch, detail));
        }
    }
    Ok((text, record, checksum))
}

/// The one verdict on a manifest's bytes, for
/// [`LabStore::read_manifest`] and `apex lab fsck` alike: UTF-8 JSON
/// that decodes as a manifest ([`Manifest::decode`]), passes its
/// self-checksum, and is its own canonical rendering (so no two byte
/// strings pass for one manifest).
pub fn verify_manifest(bytes: &[u8]) -> Result<Manifest, StoreFault> {
    use FsckIssueKind::*;
    let text = std::str::from_utf8(bytes).map_err(|e| {
        let at = e.valid_up_to();
        fault(ManifestUnreadable, format!("not UTF-8 at byte {at}"))
    })?;
    let doc = JsonDoc::parse(text)
        .map_err(|e| fault(ManifestUnreadable, format!("not parseable JSON: {e}")))?;
    let unreadable = |e: JsonError| fault(ManifestUnreadable, e.msg);
    let manifest = Manifest::decode(doc.root()).map_err(unreadable)?;
    let actual = manifest.self_checksum();
    // Manifests written before the self-checksum existed carry none.
    if let Some(stored) = doc.root().get_opt("checksum") {
        let stored = stored.as_str().map_err(unreadable)?;
        if stored != actual {
            return Err(fault(
                ManifestChecksum,
                format!(
                    "manifest checksum {stored:?} does not match its contents (expected \
                     {actual:?}) — the file was corrupted after it was written"
                ),
            ));
        }
    }
    if !Signed(&manifest, Some(&actual)).renders_pretty_as(text) {
        return Err(fault(NotCanonical, NOT_CANONICAL));
    }
    Ok(manifest)
}

/// The value a run already carries, else `compute()` — which, in debug
/// builds, must agree with the carried value.
fn known_or<T: Clone + PartialEq + std::fmt::Debug>(
    known: Option<&T>,
    compute: impl Fn() -> T,
) -> T {
    match known {
        Some(known) => {
            debug_assert_eq!(*known, compute(), "a run carries a stale value");
            known.clone()
        }
        None => compute(),
    }
}

/// A filesystem-backed store of suite runs.
#[derive(Clone, Debug)]
pub struct LabStore {
    root: PathBuf,
    disk: Arc<dyn Disk>,
    faults: Option<Arc<FaultInjector>>,
}

impl LabStore {
    /// A store rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LabStore {
            root: root.into(),
            disk: Arc::new(FsDisk::default()),
            faults: None,
        }
    }

    /// The store at the default location, [`DEFAULT_STORE_ROOT`].
    pub fn default_location() -> Self {
        Self::new(DEFAULT_STORE_ROOT)
    }

    /// Make `faults` this store's disk (the test-only seam for
    /// deterministic kill / torn-write / bit-flip injection).
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.disk = faults.clone();
        self.faults = Some(faults);
        self
    }

    /// The disk every write of this store goes through.
    pub fn disk(&self) -> &dyn Disk {
        &*self.disk
    }

    /// One suite's journal, written through this store's disk.
    pub(crate) fn journal(&self, suite_digest: &str) -> Journal {
        Journal {
            path: self.journal_path(suite_digest),
            disk: self.disk.clone(),
        }
    }

    /// The installed fault injector, if any.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The quarantine root ([`QUARANTINE_DIR`]) under this store.
    pub fn quarantine_root(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    /// The directory holding one suite's records.
    pub fn suite_dir(&self, suite_digest: &str) -> PathBuf {
        self.root.join(suite_digest)
    }

    /// The record path for one cell of one suite.
    pub fn record_path(&self, suite_digest: &str, cell_digest: &str) -> PathBuf {
        self.suite_dir(suite_digest)
            .join(format!("{cell_digest}.json"))
    }

    /// Where a group commit stages one cell's record: `<cell>.json.tmp`
    /// for a single runner (`by` empty), which a resumed run overwrites;
    /// `<cell>.json.<by>.tmp` for farm worker `by`, so workers committing
    /// one record at once never share a temp.
    pub(crate) fn record_temp_path(
        &self,
        suite_digest: &str,
        cell_digest: &str,
        by: &str,
    ) -> PathBuf {
        let name = match by {
            "" => format!("{cell_digest}.json.tmp"),
            by => format!("{cell_digest}.json.{by}.tmp"),
        };
        self.suite_dir(suite_digest).join(name)
    }

    /// The manifest path of one suite.
    pub fn manifest_path(&self, suite_digest: &str) -> PathBuf {
        self.suite_dir(suite_digest).join("manifest.json")
    }

    /// The journal path of one suite.
    pub fn journal_path(&self, suite_digest: &str) -> PathBuf {
        self.suite_dir(suite_digest)
            .join(crate::journal::JOURNAL_FILE)
    }

    /// The unified metrics sidecar path of one suite
    /// ([`apex_obs::METRICS_FILE`]).
    pub fn metrics_path(&self, suite_digest: &str) -> PathBuf {
        self.suite_dir(suite_digest).join(apex_obs::METRICS_FILE)
    }

    /// The trace sidecar path of one suite ([`apex_obs::TRACE_FILE`]).
    pub fn trace_path(&self, suite_digest: &str) -> PathBuf {
        self.suite_dir(suite_digest).join(apex_obs::TRACE_FILE)
    }

    /// Write one suite's unified metrics sidecar durably.
    pub fn write_metrics(
        &self,
        suite_digest: &str,
        metrics: &apex_obs::Metrics,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(self.suite_dir(suite_digest))?;
        self.write_text(&self.metrics_path(suite_digest), &metrics.render_pretty())
    }

    /// Load one suite's unified metrics sidecar (absent for runs that
    /// never requested telemetry).
    pub fn read_metrics(&self, suite_digest: &str) -> Result<apex_obs::Metrics, String> {
        apex_obs::Metrics::load(&self.metrics_path(suite_digest))
    }

    /// Look up one cell's record by digest, trusting only verified bytes:
    /// those that pass [`verify_record`] against the cell's address and,
    /// when `manifest` is supplied, the checksum its matching row pins —
    /// exactly what `apex lab fsck` checks.
    pub fn lookup_record(
        &self,
        suite_digest: &str,
        cell_digest: &str,
        manifest: Option<&Manifest>,
    ) -> CacheLookup {
        let pinned = manifest
            .and_then(|m| m.cells.iter().find(|c| c.digest == cell_digest))
            .and_then(|row| row.checksum.as_deref());
        match self.read_pinned(suite_digest, cell_digest, pinned) {
            Ok(Some((text, record, _))) => CacheLookup::Hit(text, Box::new(record)),
            Ok(None) => CacheLookup::Miss,
            Err(why) => CacheLookup::Rejected(why),
        }
    }

    /// [`LabStore::lookup_record`] with the manifest row's pinned
    /// checksum, if any, already found: the [`verify_record`] verdict
    /// on the record's bytes (text, record, checksum), `Ok(None)` when
    /// there is no file, `Err` with the reason the bytes were rejected.
    pub(crate) fn read_pinned(
        &self,
        suite_digest: &str,
        cell_digest: &str,
        pinned: Option<&str>,
    ) -> Result<Option<(String, ReportRecord, String)>, String> {
        let bytes = match std::fs::read(self.record_path(suite_digest, cell_digest)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable: {e}")),
        };
        verify_record(bytes, cell_digest, pinned)
            .map(Some)
            .map_err(|fault| fault.to_string())
    }

    /// Cross-suite cache lookup: find a verified record for
    /// `cell_digest` under *any* suite in the store (sorted suite order,
    /// first verified hit wins). Each candidate is checked against its
    /// suite's manifest when that manifest loads. This is what
    /// `apex farm query` and `apex run --cached` answer from.
    pub fn find_record(&self, cell_digest: &str) -> Option<(String, String, Box<ReportRecord>)> {
        for suite in self.suite_digests().ok()? {
            let manifest = self.read_manifest(&suite).ok();
            if let CacheLookup::Hit(text, record) =
                self.lookup_record(&suite, cell_digest, manifest.as_ref())
            {
                return Some((suite, text, record));
            }
        }
        None
    }

    /// Write `text` to `path` atomically, retrying transient I/O errors
    /// up to [`MAX_WRITE_ATTEMPTS`] times with attempt-indexed backoff
    /// (attempt *a* sleeps *a²* ms — a pure function of the attempt
    /// number, so retry behavior is deterministic). Errors carrying
    /// [`KILL_MARKER`](crate::KILL_MARKER) are fatal and never retried: a
    /// dead process cannot try again.
    pub fn write_text(&self, path: &Path, text: &str) -> std::io::Result<()> {
        retrying(|attempt| self.disk.write(path, None, text.as_bytes(), attempt))
    }

    /// Stage `text` for a group commit: write it to the temp file `tmp`
    /// with no fsync; the committer syncs and then renames `tmp` over
    /// `path`. Retries are exactly [`LabStore::write_text`]'s.
    pub fn stage_text(&self, path: &Path, tmp: &Path, text: &str) -> std::io::Result<()> {
        retrying(|attempt| self.disk.write(path, Some(tmp), text.as_bytes(), attempt))
    }

    /// Write one cell record durably, returning the checksum of the
    /// intended bytes (what the manifest rows pin).
    pub fn write_record(
        &self,
        suite_digest: &str,
        record: &ReportRecord,
    ) -> std::io::Result<String> {
        let text = record.render_pretty();
        let checksum = digest_hex(text.as_bytes());
        self.write_text(&self.record_path(suite_digest, &record.digest()), &text)?;
        Ok(checksum)
    }

    /// Write one suite manifest durably.
    pub fn write_manifest(&self, manifest: &Manifest) -> std::io::Result<()> {
        std::fs::create_dir_all(self.suite_dir(&manifest.suite_digest))?;
        self.write_text(
            &self.manifest_path(&manifest.suite_digest),
            &manifest.render_pretty(),
        )
    }

    /// Load one suite's manifest, trusting it only if it passes
    /// [`verify_manifest`].
    pub fn read_manifest(&self, suite_digest: &str) -> Result<Manifest, String> {
        let path = self.manifest_path(suite_digest);
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        verify_manifest(&bytes).map_err(|fault| format!("{}: {fault}", path.display()))
    }

    /// The suite digests present in this store (sorted, for deterministic
    /// iteration). The quarantine directory is not a suite and is never
    /// listed.
    pub fn suite_digests(&self) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        let entries =
            std::fs::read_dir(&self.root).map_err(|e| format!("{}: {e}", self.root.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", self.root.display()))?;
            if entry.path().is_dir() {
                if let Some(name) = entry.file_name().to_str() {
                    if name != QUARANTINE_DIR {
                        out.push(name.to_string());
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// The record digests present under one suite directory (sorted;
    /// every file [`SuiteFile::of`] reads as a record). Used to detect
    /// records a suite no longer names.
    pub fn record_digests(&self, suite_digest: &str) -> Result<Vec<String>, String> {
        let dir = self.suite_dir(suite_digest);
        let err = |e: std::io::Error| format!("{}: {e}", dir.display());
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(err)? {
            let path = entry.map_err(err)?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let (false, SuiteFile::Record(stem)) = (path.is_dir(), SuiteFile::of(name)) {
                out.push(stem.to_string());
            }
        }
        out.sort();
        Ok(out)
    }
}

/// Run attempts `0, 1, …` of one logical write: the bounded,
/// attempt-indexed retry of [`LabStore::write_text`].
fn retrying(write: impl Fn(u32) -> std::io::Result<()>) -> std::io::Result<()> {
    let mut attempt = 0;
    loop {
        match write(attempt) {
            Err(e) if attempt + 1 < MAX_WRITE_ATTEMPTS && !is_kill(&e.to_string()) => {
                attempt += 1;
                let ms = u64::from(attempt * attempt);
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            done => return done,
        }
    }
}
