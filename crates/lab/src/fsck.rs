//! Store integrity checking (`apex lab fsck`).
//!
//! Scans every suite directory of a [`LabStore`] and classifies each
//! file against the store's own invariants: records must parse, sit at
//! their content address, be byte-identical to their canonical
//! rendering, and match the checksum their manifest row pinned at write
//! time; manifests must parse and pass their self-checksum; journals
//! must replay (a torn final line is legal — that is what a crash looks
//! like); nothing may be left at a `.tmp` path. With `repair`, bad
//! files are **moved** to `quarantine/<suite-digest>/` — fsck never
//! deletes data, so a false positive costs a `mv` back, not evidence.
//!
//! **Leases are the one exception to quarantine.** Farm shard leases
//! (`leases/shard-<k>.json`) are disposable coordination hints — record
//! writes are idempotent, so no lease ever guards data. Torn leases,
//! stale leases (run finished, or expired on the journal's operation
//! clock), and orphaned claims (no usable journal, wrong suite, or a
//! cell range the suite does not have) are therefore **reclaimed**
//! (deleted) on repair, never quarantined. A live, unexpired lease in an
//! in-flight suite is healthy and untouched.

use std::path::{Path, PathBuf};

use apex_scenario::ReportRecord;
use apex_sim::Json;

use crate::digest_hex;
use crate::journal::{read_journal, JournalEntry, JournalState, JOURNAL_FILE};
use crate::store::LabStore;

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
    /// The record parses and digest-verifies, but its bytes are not the
    /// canonical rendering (whitespace/field-order tampering).
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
    /// A lease file that does not parse — a crashed worker's torn claim
    /// write. Reclaimed, never quarantined.
    LeaseTorn,
    /// A parseable lease whose claim has lapsed: the run finished, or
    /// the journal's operation clock passed `issued_at + ttl`. Reclaimed.
    LeaseStale,
    /// A lease that cannot belong to its suite: no usable journal, a
    /// `suite` field naming a different digest, or a cell range outside
    /// the suite's expansion. Reclaimed.
    LeaseOrphan,
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
            FsckIssueKind::LeaseTorn => "torn lease",
            FsckIssueKind::LeaseStale => "stale lease",
            FsckIssueKind::LeaseOrphan => "orphaned lease",
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
    /// Whether repair reclaimed (deleted) the file — lease issues only;
    /// leases are disposable and never quarantined.
    pub reclaimed: bool,
}

impl std::fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: {} — {}{}{}",
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
            },
            if self.reclaimed { " [reclaimed]" } else { "" }
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
            reclaimed: false,
        });
    };

    // Journal: replay; only inner corruption is an issue. The replayed
    // state doubles as the operation clock the lease scan judges expiry
    // against.
    let journal_path = store.journal_path(suite);
    let has_journal = journal_path.exists();
    let mut journal_state: Option<JournalState> = None;
    if has_journal {
        report.files_checked += 1;
        match read_journal(&journal_path) {
            Ok(state) => journal_state = Some(state),
            Err(e) => {
                let quarantined = repair && quarantine(store, suite, &journal_path)?;
                issue(JOURNAL_FILE, FsckIssueKind::JournalCorrupt, e, quarantined);
            }
        }
    }

    // Manifest: parse + self-checksum. An in-flight run (journal, no
    // manifest) is legal; a directory with neither is not.
    let manifest_path = store.manifest_path(suite);
    let manifest = if manifest_path.exists() {
        report.files_checked += 1;
        let text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        match Json::parse(&text) {
            Err(e) => {
                let quarantined = repair && quarantine(store, suite, &manifest_path)?;
                issue(
                    "manifest.json",
                    FsckIssueKind::ManifestUnreadable,
                    format!("not parseable JSON: {e}"),
                    quarantined,
                );
                None
            }
            Ok(json) => match crate::store::Manifest::from_json(&json) {
                Ok(m) => Some(m),
                Err(e) => {
                    let kind = if e.msg.contains("checksum") {
                        FsckIssueKind::ManifestChecksum
                    } else {
                        FsckIssueKind::ManifestUnreadable
                    };
                    let quarantined = repair && quarantine(store, suite, &manifest_path)?;
                    issue("manifest.json", kind, e.msg, quarantined);
                    None
                }
            },
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
    let mut present: Vec<String> = Vec::new();
    let mut corrupt: Vec<String> = Vec::new();
    for path in files {
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        if name.ends_with(".tmp") {
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
        // `metrics.json` plus the farm's per-worker `metrics-<id>.json`
        // shards all carry the same unified document.
        if name.starts_with("metrics") && name.ends_with(".json") {
            // Telemetry sidecars: not store identity, but they should
            // still parse — an unreadable one is debris worth
            // quarantining.
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
        if name == "manifest.json" || name == JOURNAL_FILE || !name.ends_with(".json") {
            continue;
        }
        report.files_checked += 1;
        let stem = name.trim_end_matches(".json").to_string();
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (kind, detail) = match check_record(&stem, &bytes, manifest.as_ref()) {
            Ok(()) => {
                present.push(stem);
                continue;
            }
            Err(pair) => pair,
        };
        corrupt.push(stem);
        let quarantined = repair && quarantine(store, suite, &path)?;
        issue(&name, kind, detail, quarantined);
    }

    // Manifest rows whose completed record is gone (no file to move —
    // report only; the fix is a re-run, which resume makes cheap). A
    // record already reported corrupt this pass is one issue, not two.
    if let Some(m) = &manifest {
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
            if !m.cells.iter().any(|c| &c.digest == stem) {
                let path = store.record_path(suite, stem);
                let quarantined = repair && quarantine(store, suite, &path)?;
                report.issues.push(FsckIssue {
                    suite: suite.to_string(),
                    file: format!("{stem}.json"),
                    kind: FsckIssueKind::Orphan,
                    detail: "record not named by the manifest".to_string(),
                    quarantined,
                    reclaimed: false,
                });
            }
        }
    }

    scan_leases(store, suite, journal_state.as_ref(), repair, report)?;
    Ok(())
}

/// Classify every lease file of one suite. Bad leases are *reclaimed*
/// (deleted) on repair — they are coordination hints, not data. The
/// expiry judgment uses the journal's parsed entry count as the
/// operation clock, exactly as workers do.
fn scan_leases(
    store: &LabStore,
    suite: &str,
    journal: Option<&JournalState>,
    repair: bool,
    report: &mut FsckReport,
) -> Result<(), String> {
    let leases = crate::lease::read_leases(store, suite)?;
    if leases.is_empty() {
        if repair {
            crate::lease::remove_lease_dir_if_empty(store, suite);
        }
        return Ok(());
    }
    let journal_len = journal.map(|s| s.entries.len() as u64);
    let suite_cells = journal.and_then(|s| {
        s.entries.iter().find_map(|e| match e {
            JournalEntry::Started { cells, .. } => Some(*cells),
            _ => None,
        })
    });
    for (path, parsed) in leases {
        report.files_checked += 1;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("lease")
            .to_string();
        let file = format!("{}/{name}", crate::lease::LEASE_DIR);
        let (kind, detail) = match &parsed {
            Err(e) => (FsckIssueKind::LeaseTorn, format!("unparseable claim: {e}")),
            Ok(lease) if lease.suite != suite => (
                FsckIssueKind::LeaseOrphan,
                format!("claims suite {}, filed under {suite}", lease.suite),
            ),
            Ok(lease) => match (journal_len, suite_cells) {
                (None, _) => (
                    FsckIssueKind::LeaseOrphan,
                    "no usable journal — nothing was ever claimed here".to_string(),
                ),
                (Some(_), Some(cells)) if lease.start.saturating_add(lease.count) > cells => (
                    FsckIssueKind::LeaseOrphan,
                    format!(
                        "shard covers cells {}..{} but the suite has {cells}",
                        lease.start,
                        lease.start + lease.count
                    ),
                ),
                (Some(len), _) if journal.is_some_and(|s| s.finished) => (
                    FsckIssueKind::LeaseStale,
                    format!("the run already finished (journal length {len})"),
                ),
                (Some(len), _) if lease.expired(len) => (
                    FsckIssueKind::LeaseStale,
                    format!(
                        "expired on the operation clock: issued at {} + ttl {} <= {len}",
                        lease.issued_at, lease.ttl
                    ),
                ),
                _ => continue, // live, unexpired claim in an in-flight run
            },
        };
        let reclaimed = if repair {
            std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            true
        } else {
            false
        };
        report.issues.push(FsckIssue {
            suite: suite.to_string(),
            file,
            kind,
            detail,
            quarantined: false,
            reclaimed,
        });
    }
    if repair {
        crate::lease::remove_lease_dir_if_empty(store, suite);
    }
    Ok(())
}

/// Check one record file's full invariant stack. `Ok(())` means healthy.
fn check_record(
    stem: &str,
    bytes: &[u8],
    manifest: Option<&crate::store::Manifest>,
) -> Result<(), (FsckIssueKind, String)> {
    let text = std::str::from_utf8(bytes).map_err(|e| {
        (
            FsckIssueKind::TornOrTruncated,
            format!("not UTF-8 at byte {}", e.valid_up_to()),
        )
    })?;
    let json = Json::parse(text)
        .map_err(|e| (FsckIssueKind::TornOrTruncated, format!("not JSON: {e}")))?;
    let record = ReportRecord::from_json(&json).map_err(|e| {
        let kind = if e.msg.contains("digest") {
            FsckIssueKind::DigestMismatch
        } else {
            FsckIssueKind::TornOrTruncated
        };
        (kind, e.msg)
    })?;
    if record.digest() != stem {
        return Err((
            FsckIssueKind::DigestMismatch,
            format!("record {} filed at address {stem}", record.digest()),
        ));
    }
    if text != record.render_pretty() {
        return Err((
            FsckIssueKind::NotCanonical,
            "bytes are not the canonical rendering".to_string(),
        ));
    }
    if let Some(m) = manifest {
        if let Some(cell) = m.cells.iter().find(|c| c.digest == stem) {
            if let Some(expect) = &cell.checksum {
                let actual = digest_hex(bytes);
                if &actual != expect {
                    return Err((
                        FsckIssueKind::ChecksumMismatch,
                        format!("file checksum {actual} != pinned {expect}"),
                    ));
                }
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
