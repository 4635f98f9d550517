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
//!   quarantine/                     fsck's holding pen (never run over)
//!     <suite-digest>/<file>         corrupt files, moved — not deleted
//! ```
//!
//! Every path component is a content digest: the suite directory is the
//! FNV-1a digest of the canonical suite document, each record file the
//! digest of its canonical scenario document. Re-running the same suite
//! therefore rewrites the same files with the same bytes — anything else
//! is drift. The manifest carries no timestamps for exactly that reason:
//! two runs of one suite must be byte-identical, end to end.
//!
//! **Crash safety.** Every write goes through temp + fsync + rename, so
//! a kill at any instant leaves old bytes, new bytes, or a stale `.tmp`
//! sibling — never a torn file at a final path. One-off writes
//! (manifests, metrics) do all three steps themselves
//! ([`LabStore::write_text`]). Cell records are group-committed instead:
//! [`LabStore::stage_text`] writes a batch's temp files unsynced,
//! [`LabStore::sync_staged`] makes them durable with one barrier, the
//! committer renames them, and [`LabStore::sync_suite_dir`] makes the
//! renames durable with a second — see the protocol and its invariants
//! in [`crate::journal`]. Transient I/O errors are retried a bounded
//! number of times with *attempt-indexed* backoff (the delay is a pure
//! function of the attempt number, never of wall-clock readings), so a
//! run's fault-handling behavior is as reproducible as its results. A
//! [`FaultInjector`] can be installed to exercise all of this
//! deterministically — see `tests/lab_faults.rs`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use apex_scenario::{ReportRecord, StoredRecordError};
use apex_sim::{Json, JsonError};

use crate::digest_hex;
use crate::fault::{FaultInjector, WriteDirective, KILL_MARKER};
use crate::runner::SuiteRun;

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
                        outcome
                            .record()
                            .map(|r| digest_hex(r.render_pretty().as_bytes()))
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

    /// The manifest's core document, without the self-checksum field.
    fn core_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("suite_digest".into(), Json::Str(self.suite_digest.clone())),
            (
                "cells".into(),
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("index".into(), Json::UInt(c.index as u64)),
                                ("digest".into(), Json::Str(c.digest.clone())),
                                ("status".into(), Json::Str(c.status.clone())),
                                ("ok".into(), Json::Bool(c.ok)),
                                ("summary".into(), Json::Str(c.summary.clone())),
                                (
                                    "checksum".into(),
                                    c.checksum
                                        .as_ref()
                                        .map_or(Json::Null, |s| Json::Str(s.clone())),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The manifest's self-checksum: FNV-1a over the compact rendering
    /// of the core document. Emitted as the final `checksum` field and
    /// verified on read, so a bit flip anywhere in a stored manifest —
    /// including one that keeps the JSON well-formed — is detected.
    pub fn self_checksum(&self) -> String {
        digest_hex(self.core_json().render().as_bytes())
    }

    /// Serialize (canonical field order, no timestamps — deterministic).
    pub fn to_json(&self) -> Json {
        let core = self.core_json();
        let checksum = digest_hex(core.render().as_bytes());
        let Json::Obj(mut fields) = core else {
            unreachable!("core_json renders an object");
        };
        fields.push(("checksum".into(), Json::Str(checksum)));
        Json::Obj(fields)
    }

    /// Deserialize, verifying the self-checksum when present (manifests
    /// written before the checksum existed are tolerated).
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let manifest = Manifest {
            name: v.get("name")?.as_str()?.to_string(),
            suite_digest: v.get("suite_digest")?.as_str()?.to_string(),
            cells: v
                .get("cells")?
                .as_arr()?
                .iter()
                .map(|c| {
                    Ok(ManifestCell {
                        index: c.get("index")?.as_usize()?,
                        digest: c.get("digest")?.as_str()?.to_string(),
                        status: match c.get_opt("status") {
                            Some(s) => s.as_str()?.to_string(),
                            None => "complete".to_string(),
                        },
                        ok: match c.get("ok")? {
                            Json::Bool(b) => *b,
                            other => return Err(jerr(format!("expected bool ok, got {other:?}"))),
                        },
                        summary: c.get("summary")?.as_str()?.to_string(),
                        checksum: match c.get_opt("checksum") {
                            None | Some(Json::Null) => None,
                            Some(s) => Some(s.as_str()?.to_string()),
                        },
                    })
                })
                .collect::<Result<_, JsonError>>()?,
        };
        if let Some(stored) = v.get_opt("checksum") {
            let stored = stored.as_str()?;
            let actual = manifest.self_checksum();
            if stored != actual {
                return Err(jerr(format!(
                    "manifest checksum {stored:?} does not match its contents (expected \
                     {actual:?}) — the file was corrupted after it was written"
                )));
            }
        }
        Ok(manifest)
    }
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
    faults: Option<Arc<FaultInjector>>,
}

impl LabStore {
    /// A store rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LabStore {
            root: root.into(),
            faults: None,
        }
    }

    /// The store at the default location, [`DEFAULT_STORE_ROOT`].
    pub fn default_location() -> Self {
        Self::new(DEFAULT_STORE_ROOT)
    }

    /// Route every write of this store through `faults` (the test-only
    /// seam for deterministic kill / torn-write / bit-flip injection).
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
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

    /// Look up one cell's record by digest, trusting only verified bytes.
    ///
    /// Verification is the resume path from the journal runner
    /// ([`ReportRecord::verify_stored`]): the file must parse (which
    /// digest-verifies the embedded scenario), the record digest must
    /// equal `cell_digest`, and the file text must be the record's
    /// canonical rendering. When `manifest` is supplied, the matching
    /// row's pinned checksum must also match the file bytes — the same
    /// invariant `apex lab fsck` enforces.
    pub fn lookup_record(
        &self,
        suite_digest: &str,
        cell_digest: &str,
        manifest: Option<&Manifest>,
    ) -> CacheLookup {
        let pinned = manifest
            .and_then(|m| m.cells.iter().find(|c| c.digest == cell_digest))
            .and_then(|row| row.checksum.as_deref());
        self.lookup_pinned(suite_digest, cell_digest, pinned)
    }

    /// [`LabStore::lookup_record`] with the manifest row's pinned
    /// checksum, if any, already found.
    pub(crate) fn lookup_pinned(
        &self,
        suite_digest: &str,
        cell_digest: &str,
        pinned: Option<&str>,
    ) -> CacheLookup {
        let path = self.record_path(suite_digest, cell_digest);
        if !path.exists() {
            return CacheLookup::Miss;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return CacheLookup::Rejected(format!("unreadable: {e}")),
        };
        let record = match ReportRecord::verify_stored(&text, cell_digest) {
            Ok(r) => r,
            Err(StoredRecordError::Json(e) | StoredRecordError::Record(e)) => {
                return CacheLookup::Rejected(format!("unparseable: {e}"))
            }
            Err(StoredRecordError::Misaddressed { claims }) => {
                return CacheLookup::Rejected(format!(
                    "digest mismatch: file claims scenario {claims}, address says {cell_digest}"
                ))
            }
            Err(StoredRecordError::NotCanonical) => {
                return CacheLookup::Rejected("not the canonical rendering of its contents".into())
            }
        };
        if let Some(pinned) = pinned {
            let actual = digest_hex(text.as_bytes());
            if actual != pinned {
                return CacheLookup::Rejected(format!(
                    "manifest pins checksum {pinned}, file bytes hash to {actual}"
                ));
            }
        }
        CacheLookup::Hit(text, Box::new(record))
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
    /// [`KILL_MARKER`] are fatal and never retried: a dead process
    /// cannot try again.
    pub fn write_text(&self, path: &Path, text: &str) -> std::io::Result<()> {
        self.write_with_faults(path, text, |bytes| {
            apex_scenario::atomic_write_bytes(path, bytes)
        })
    }

    /// Stage `text` for a group commit: write it to the temp file `tmp`
    /// with no fsync; the caller syncs ([`LabStore::sync_staged`]) and
    /// then renames `tmp` over `path`. Retries and fault directives are
    /// exactly [`LabStore::write_text`]'s, under one store-write index
    /// per call — a planned torn write lands its prefix at `path`.
    pub fn stage_text(&self, path: &Path, tmp: &Path, text: &str) -> std::io::Result<()> {
        self.write_with_faults(path, text, |bytes| std::fs::write(tmp, bytes))
    }

    /// Barrier 1 of a group commit: make the staged temp files `temps`
    /// and every journal line written so far in `suite_digest` durable.
    /// On Linux this is one `syncfs(2)` of the store's filesystem;
    /// elsewhere each file is synced in turn. Returns the barriers issued
    /// (1).
    pub fn sync_staged(&self, suite_digest: &str, temps: &[PathBuf]) -> std::io::Result<u64> {
        #[cfg(target_os = "linux")]
        {
            let _ = temps;
            syncfs(&self.suite_dir(suite_digest)).map(|()| 1)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let sync = |path: &Path| {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .sync_all()
            };
            for tmp in temps {
                match sync(tmp) {
                    // Swept by a farm worker that found the suite
                    // finished (see `Committer::commit`).
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    synced => synced?,
                }
            }
            let journal = self.journal_path(suite_digest);
            if journal.exists() {
                sync(&journal)?;
            }
            Ok(1)
        }
    }

    /// Barrier 2 of a group commit: fsync one suite's directory so the
    /// renames into it are durable (best-effort on filesystems that do
    /// not support opening directories for sync, like
    /// [`apex_scenario::atomic_write`]). Returns the barriers issued: 1,
    /// or 0 when the directory could not be opened.
    pub fn sync_suite_dir(&self, suite_digest: &str) -> u64 {
        match std::fs::File::open(self.suite_dir(suite_digest)) {
            Ok(d) => {
                let _ = d.sync_all();
                1
            }
            Err(_) => 0,
        }
    }

    /// One logical store write of `text` toward `path` under the fault
    /// plan: claim its store-write index, then per attempt ask the
    /// injector what to do — `write` the bytes (flipped, for a planned
    /// bit flip), fail transiently and back off, or tear a prefix onto
    /// `path` and die.
    fn write_with_faults(
        &self,
        path: &Path,
        text: &str,
        write: impl Fn(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let write_idx = self.faults.as_ref().map(|f| f.next_store_write());
        let mut last_err = None;
        for attempt in 0..MAX_WRITE_ATTEMPTS {
            let directive = match (&self.faults, write_idx) {
                (Some(f), Some(i)) => {
                    if f.killed() {
                        return Err(std::io::Error::other(format!(
                            "{KILL_MARKER} (process already dead)"
                        )));
                    }
                    f.directive(i, attempt)
                }
                _ => WriteDirective::Proceed,
            };
            let result = match directive {
                WriteDirective::Proceed => write(text.as_bytes()),
                WriteDirective::Flip { byte, mask } => {
                    // Silent corruption: the write "succeeds" with one
                    // byte XORed — only integrity checking can tell.
                    let mut bytes = text.as_bytes().to_vec();
                    if !bytes.is_empty() {
                        let i = byte.min(bytes.len() - 1);
                        bytes[i] ^= mask;
                    }
                    write(&bytes)
                }
                WriteDirective::Torn(keep) => {
                    // A torn write lands a prefix at the *final* path
                    // (simulating a crash without atomic-write
                    // discipline), then the process dies.
                    let keep = keep.min(text.len());
                    std::fs::write(path, &text.as_bytes()[..keep])?;
                    if let Some(f) = &self.faults {
                        f.kill();
                    }
                    return Err(std::io::Error::other(format!(
                        "{KILL_MARKER} after torn write of {}",
                        path.display()
                    )));
                }
                WriteDirective::Transient => Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!("injected fault: transient write error (attempt {attempt})"),
                )),
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) if e.to_string().contains(KILL_MARKER) => return Err(e),
                Err(e) => {
                    last_err = Some(e);
                    if attempt + 1 < MAX_WRITE_ATTEMPTS {
                        // Attempt-indexed, bounded, wall-clock-free
                        // backoff: 1 ms, 4 ms, 9 ms.
                        let ms = u64::from(attempt + 1) * u64::from(attempt + 1);
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                }
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("write failed with no error")))
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
            &manifest.to_json().render_pretty(),
        )
    }

    /// Write a completed run: every completed cell's record,
    /// content-addressed, plus the manifest. Returns the manifest.
    /// Idempotent — re-running the same suite rewrites the same files
    /// with the same bytes.
    pub fn write_run(&self, run: &SuiteRun) -> std::io::Result<Manifest> {
        let dir = self.suite_dir(&run.suite_digest);
        std::fs::create_dir_all(&dir)?;
        for outcome in &run.outcomes {
            if let Some(record) = outcome.record() {
                self.write_record(&run.suite_digest, record)?;
            }
        }
        let manifest = Manifest::from_run(run);
        self.write_manifest(&manifest)?;
        Ok(manifest)
    }

    /// Load one suite's manifest, verifying its self-checksum and that
    /// the file is the manifest's canonical rendering (so no two byte
    /// strings pass for one manifest).
    pub fn read_manifest(&self, suite_digest: &str) -> Result<Manifest, String> {
        let path = self.manifest_path(suite_digest);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let manifest =
            Manifest::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))?;
        if text != manifest.to_json().render_pretty() {
            return Err(format!(
                "{}: not the canonical rendering of its contents",
                path.display()
            ));
        }
        Ok(manifest)
    }

    /// Load one record, returning both the raw file text (what drift
    /// compares byte-for-byte) and the parsed record.
    pub fn read_record(
        &self,
        suite_digest: &str,
        cell_digest: &str,
    ) -> Result<(String, ReportRecord), String> {
        let path = self.record_path(suite_digest, cell_digest);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = ReportRecord::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((text, record))
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

    /// The record digests present under one suite directory (sorted; the
    /// manifest and the metrics sidecars are excluded, and the `.jsonl`
    /// journal and trace never match). Used to detect records a suite no
    /// longer names.
    pub fn record_digests(&self, suite_digest: &str) -> Result<Vec<String>, String> {
        let dir = self.suite_dir(suite_digest);
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            if path.is_dir() {
                continue;
            }
            if path.extension().is_some_and(|e| e == "json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if stem != "manifest" && !stem.starts_with("metrics") {
                        out.push(stem.to_string());
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

/// `syncfs(2)` on the filesystem holding `dir`: one barrier that makes
/// every dirty file on it durable — a whole batch of temp files and the
/// journal's pending lines at once.
#[cfg(target_os = "linux")]
fn syncfs(dir: &Path) -> std::io::Result<()> {
    use std::os::fd::AsRawFd as _;
    extern "C" {
        fn syncfs(fd: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    let d = std::fs::File::open(dir)?;
    // SAFETY: `syncfs` reads no memory of ours; it takes one descriptor,
    // which `d` keeps open for the duration of the call.
    if unsafe { syncfs(d.as_raw_fd()) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}
