//! Store integrity checking (`apex lab fsck`).
//!
//! Scans every suite directory of a [`LabStore`] and classifies each
//! file against the store's own invariants. Records and manifests are
//! judged by the store's own verifiers, the ones the cache and
//! [`LabStore::read_manifest`] use ([`verify_record`],
//! [`verify_manifest`]), and each [`StoreFault`](crate::StoreFault)
//! becomes one issue of its class: a record must parse, sit at its
//! content address, be byte-identical to its canonical rendering, and
//! match the checksum its manifest row pinned at write time; a manifest
//! must parse, pass its self-checksum and be byte-identical to its
//! canonical rendering. Journals must replay (a
//! torn final line is legal — that is what a crash looks like); nothing
//! may be left at a `.tmp` path. Each file is told apart by the store's
//! one classifier of suite-directory names, [`SuiteFile`]. With
//! `repair`, bad
//! files are **moved** to `quarantine/<suite-digest>/` — fsck never
//! deletes data, so a false positive costs a `mv` back, not evidence.
//! Farm leases are `leased` journal lines, so a journal that replays
//! has no lease to check.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::journal::{read_journal, JOURNAL_FILE};
use crate::store::{verify_manifest, verify_record, LabStore, Manifest, SuiteFile};

/// What is wrong with one file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsckIssueKind {
    /// The file is not parseable JSON — a torn or truncated write (or
    /// arbitrary corruption severe enough to break the syntax).
    TornOrTruncated,
    /// The record parses but fails digest verification: the stored
    /// digest disagrees with the embedded scenario, or the file sits at
    /// an address that is not its own digest.
    DigestMismatch,
    /// The record (or manifest) parses and verifies, but its bytes are
    /// not its canonical rendering (whitespace/field-order tampering).
    NotCanonical,
    /// The record's bytes do not match the checksum its manifest row
    /// pinned at write time — a silent post-write corruption (bit flip)
    /// that left the JSON well-formed.
    ChecksumMismatch,
    /// A record file its manifest does not name.
    Orphan,
    /// A manifest row claims a completed record whose file is missing.
    MissingRecord,
    /// The manifest is unreadable (not valid JSON / not a manifest).
    ManifestUnreadable,
    /// The manifest fails its self-checksum.
    ManifestChecksum,
    /// No manifest, and no journal explaining why (an in-flight run has
    /// a journal; a finished one has a manifest; neither is neither).
    ManifestMissing,
    /// The journal has a corrupt line before its final one.
    JournalCorrupt,
    /// A stale `.tmp` sibling left by an interrupted atomic write.
    StaleTemp,
}

impl std::fmt::Display for FsckIssueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsckIssueKind::TornOrTruncated => "torn/truncated",
            FsckIssueKind::DigestMismatch => "digest mismatch",
            FsckIssueKind::NotCanonical => "not canonical",
            FsckIssueKind::ChecksumMismatch => "checksum mismatch",
            FsckIssueKind::Orphan => "orphan",
            FsckIssueKind::MissingRecord => "missing record",
            FsckIssueKind::ManifestUnreadable => "manifest unreadable",
            FsckIssueKind::ManifestChecksum => "manifest checksum",
            FsckIssueKind::ManifestMissing => "manifest missing",
            FsckIssueKind::JournalCorrupt => "journal corrupt",
            FsckIssueKind::StaleTemp => "stale temp file",
        })
    }
}

/// One problematic file.
#[derive(Clone, Debug)]
pub struct FsckIssue {
    /// Suite digest the file belongs to.
    pub suite: String,
    /// File name within the suite directory (empty for suite-level
    /// issues such as a missing manifest).
    pub file: String,
    /// Classification.
    pub kind: FsckIssueKind,
    /// Human-readable detail.
    pub detail: String,
    /// Whether repair moved the file to quarantine.
    pub quarantined: bool,
}

impl std::fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: {} — {}{}",
            self.suite,
            if self.file.is_empty() {
                "."
            } else {
                &self.file
            },
            self.kind,
            self.detail,
            if self.quarantined {
                " [quarantined]"
            } else {
                ""
            }
        )
    }
}

/// The typed result of one fsck pass.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Suite directories scanned.
    pub suites: usize,
    /// Files examined.
    pub files_checked: usize,
    /// Every issue found, sorted by (suite, file).
    pub issues: Vec<FsckIssue>,
}

impl FsckReport {
    /// No issues anywhere.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Multi-line human summary (deterministic order).
    pub fn summary(&self) -> String {
        if self.clean() {
            format!(
                "fsck: {} suites, {} files — clean",
                self.suites, self.files_checked
            )
        } else {
            let mut out = format!(
                "fsck: {} suites, {} files — {} ISSUES\n",
                self.suites,
                self.files_checked,
                self.issues.len()
            );
            for issue in &self.issues {
                out.push_str(&format!("  {issue}\n"));
            }
            out.pop();
            out
        }
    }
}

/// Scan `store` for integrity violations. With `repair`, every bad
/// *file* is moved (never deleted) to `quarantine/<suite-digest>/`;
/// issues without a file to move (e.g. [`FsckIssueKind::MissingRecord`])
/// are reported only. Idempotent: a second repair pass finds nothing
/// new and moves nothing.
pub fn fsck(store: &LabStore, repair: bool) -> Result<FsckReport, String> {
    let mut report = FsckReport::default();
    if !store.root().exists() {
        return Ok(report); // an empty store is a clean store
    }
    for suite in store.suite_digests()? {
        report.suites += 1;
        scan_suite(store, &suite, repair, &mut report)?;
    }
    report
        .issues
        .sort_by(|a, b| (&a.suite, &a.file).cmp(&(&b.suite, &b.file)));
    Ok(report)
}

fn scan_suite(
    store: &LabStore,
    suite: &str,
    repair: bool,
    report: &mut FsckReport,
) -> Result<(), String> {
    let dir = store.suite_dir(suite);
    let mut issue = |file: &str, kind: FsckIssueKind, detail: String, quarantined: bool| {
        report.issues.push(FsckIssue {
            suite: suite.to_string(),
            file: file.to_string(),
            kind,
            detail,
            quarantined,
        });
    };

    // Journal: replay; only inner corruption is an issue.
    let journal_path = store.journal_path(suite);
    let has_journal = journal_path.exists();
    if has_journal {
        report.files_checked += 1;
        if let Err(e) = read_journal(&journal_path) {
            let quarantined = repair && quarantine(store, suite, &journal_path)?;
            issue(JOURNAL_FILE, FsckIssueKind::JournalCorrupt, e, quarantined);
        }
    }

    // Manifest: judged by the store's own rule. An in-flight run
    // (journal, no manifest) is legal; a directory with neither is not.
    let manifest_path = store.manifest_path(suite);
    let manifest = if manifest_path.exists() {
        report.files_checked += 1;
        let bytes = std::fs::read(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        match verify_manifest(&bytes) {
            Ok(m) => Some(m),
            Err(fault) => {
                let quarantined = repair && quarantine(store, suite, &manifest_path)?;
                issue("manifest.json", fault.kind, fault.detail, quarantined);
                None
            }
        }
    } else {
        if !has_journal {
            issue(
                "",
                FsckIssueKind::ManifestMissing,
                "no manifest and no journal — not a suite run".to_string(),
                false,
            );
        }
        None
    };

    // Record files.
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    files.sort();
    let pins = manifest.as_ref().map(Manifest::pins);
    let mut present: BTreeSet<String> = BTreeSet::new();
    let mut corrupt: BTreeSet<String> = BTreeSet::new();
    for path in files {
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let stem = match SuiteFile::of(&name) {
            SuiteFile::Record(stem) => stem.to_string(),
            SuiteFile::Temp(_) => {
                report.files_checked += 1;
                let quarantined = repair && quarantine(store, suite, &path)?;
                issue(
                    &name,
                    FsckIssueKind::StaleTemp,
                    "leftover from an interrupted atomic write".to_string(),
                    quarantined,
                );
                continue;
            }
            SuiteFile::Metrics => {
                // Telemetry sidecars: not store identity, but they
                // should still parse — an unreadable one is debris
                // worth quarantining.
                report.files_checked += 1;
                let parse = std::fs::read_to_string(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| {
                        apex_obs::Metrics::parse(&text)
                            .map(drop)
                            .map_err(|e| e.to_string())
                    });
                if let Err(e) = parse {
                    let quarantined = repair && quarantine(store, suite, &path)?;
                    issue(
                        &name,
                        FsckIssueKind::TornOrTruncated,
                        format!("{name} sidecar unreadable: {e}"),
                        quarantined,
                    );
                }
                continue;
            }
            // Judged above (manifest, journal) or not store content.
            _ => continue,
        };
        report.files_checked += 1;
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let pinned = pins
            .as_ref()
            .and_then(|p| p.get(stem.as_str()).copied().flatten());
        if let Err(fault) = verify_record(bytes, &stem, pinned) {
            corrupt.insert(stem);
            let quarantined = repair && quarantine(store, suite, &path)?;
            issue(&name, fault.kind, fault.detail, quarantined);
        } else {
            present.insert(stem);
        }
    }

    // Manifest rows whose completed record is gone (no file to move —
    // report only; the fix is a re-run, which resume makes cheap). A
    // record already reported corrupt this pass is one issue, not two.
    if let (Some(m), Some(pins)) = (&manifest, &pins) {
        for cell in &m.cells {
            if cell.status == "complete"
                && !present.contains(&cell.digest)
                && !corrupt.contains(&cell.digest)
            {
                issue(
                    &format!("{}.json", cell.digest),
                    FsckIssueKind::MissingRecord,
                    format!(
                        "manifest cell {} claims a completed record that is absent",
                        cell.index
                    ),
                    false,
                );
            }
        }
        // Records the manifest does not name.
        for stem in &present {
            if !pins.contains_key(stem.as_str()) {
                let path = store.record_path(suite, stem);
                let quarantined = repair && quarantine(store, suite, &path)?;
                report.issues.push(FsckIssue {
                    suite: suite.to_string(),
                    file: format!("{stem}.json"),
                    kind: FsckIssueKind::Orphan,
                    detail: "record not named by the manifest".to_string(),
                    quarantined,
                });
            }
        }
    }

    Ok(())
}

/// Move `path` into `quarantine/<suite>/`, never deleting content: if an
/// identical copy is already quarantined the source is simply removed
/// (the bytes are preserved), and a *different* file with the same name
/// gets a numeric suffix. Returns whether the file is gone from the
/// suite directory.
fn quarantine(store: &LabStore, suite: &str, path: &Path) -> Result<bool, String> {
    let qdir = store.quarantine_root().join(suite);
    std::fs::create_dir_all(&qdir).map_err(|e| format!("{}: {e}", qdir.display()))?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("{}: no file name", path.display()))?;
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut dest = qdir.join(name);
    let mut n = 0u32;
    loop {
        if !dest.exists() {
            break;
        }
        if std::fs::read(&dest).map_err(|e| format!("{}: {e}", dest.display()))? == bytes {
            // Identical bytes already preserved — dropping the source
            // loses nothing.
            std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
            return Ok(true);
        }
        n += 1;
        dest = qdir.join(format!("{name}.{n}"));
    }
    std::fs::rename(path, &dest)
        .map_err(|e| format!("quarantine {} -> {}: {e}", path.display(), dest.display()))?;
    Ok(true)
}
