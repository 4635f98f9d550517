//! Drift detection: a stored suite run is ground truth, and any
//! byte-level difference on re-execution is a real regression.
//!
//! The whole pipeline below the store is deterministic — seeded sources,
//! oblivious schedules, canonical JSON — so the strongest possible check
//! is also the simplest: render the fresh record and `==` the stored
//! bytes. When bytes differ, the parsed JSON trees are diffed to name the
//! paths that moved (verdict, work counters, final memory, …) so a drift
//! report reads like a regression report, not a checksum mismatch.

use apex_sim::Json;

use crate::runner::run_cells;
use crate::store::LabStore;
use crate::suite::Suite;

/// What kind of divergence a cell showed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftKind {
    /// The store has no record at the cell's address (deleted, or the
    /// scenario changed and now hashes elsewhere).
    MissingRecord,
    /// The store holds a record the suite no longer names.
    ExtraRecord,
    /// Stored and fresh record bytes differ.
    RecordDiffers,
    /// The manifest disagrees with the records next to it.
    ManifestMismatch,
}

impl std::fmt::Display for DriftKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DriftKind::MissingRecord => "missing record",
            DriftKind::ExtraRecord => "extra record",
            DriftKind::RecordDiffers => "record differs",
            DriftKind::ManifestMismatch => "manifest mismatch",
        })
    }
}

/// One divergent cell, record or manifest.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The suite it belongs to.
    pub suite: String,
    /// The cell's scenario digest (record address), or the suite digest
    /// for a suite-level divergence.
    pub cell: String,
    /// Position in the suite's expansion order, when the cell is named by
    /// the suite (extra records are not).
    pub index: Option<usize>,
    /// Divergence class.
    pub kind: DriftKind,
    /// Human-readable detail (differing JSON paths, file errors).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.index {
            Some(i) => write!(f, "cell {i} ({})", self.cell)?,
            None if self.cell == self.suite => write!(f, "suite {}", self.suite)?,
            None => write!(f, "record {}/{}", self.suite, self.cell)?,
        }
        write!(f, ": {} — {}", self.kind, self.detail)
    }
}

/// Outcome of a drift check.
#[derive(Clone, Debug)]
pub struct DriftReport {
    /// Digest of the suite that was checked.
    pub suite_digest: String,
    /// Cells compared (suite cells plus extra stored records).
    pub checked: usize,
    /// Every divergence found, in cell order.
    pub divergences: Vec<Divergence>,
}

impl DriftReport {
    /// No divergence anywhere.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Multi-line human summary.
    pub fn summary(&self) -> String {
        if self.clean() {
            format!(
                "drift: {} cells checked vs {} — no divergence",
                self.checked, self.suite_digest
            )
        } else {
            let mut out = format!(
                "drift: {} cells checked vs {} — {} DIVERGENCES\n",
                self.checked,
                self.suite_digest,
                self.divergences.len()
            );
            for d in &self.divergences {
                out.push_str(&format!("  {d}\n"));
            }
            out.pop();
            out
        }
    }
}

/// Re-run `suite` and compare every fresh record against `store`,
/// byte-for-byte. Also cross-checks the stored manifest and flags stored
/// records the suite no longer names.
pub fn check_against_store(suite: &Suite, store: &LabStore) -> Result<DriftReport, String> {
    let cells = suite.expand()?;
    let suite_digest = suite.digest();
    let manifest = store.read_manifest(&suite_digest).map_err(|e| {
        format!("no stored run for suite {suite_digest} (run `apex suite run` first): {e}")
    })?;
    let fresh = run_cells(suite, &cells);

    let mut divergences = Vec::new();
    for (cell, outcome) in cells.iter().zip(&fresh.outcomes) {
        let path = store.record_path(&suite_digest, &cell.digest);
        let Some(record) = outcome.record() else {
            // The fresh run did not complete this cell (exhausted or
            // poisoned). A stored record at its address then *is* drift
            // — the stored run completed where this one cannot. No
            // stored record is the consistent state.
            if path.exists() {
                divergences.push(Divergence {
                    suite: suite_digest.clone(),
                    cell: cell.digest.clone(),
                    index: Some(cell.index),
                    kind: DriftKind::RecordDiffers,
                    detail: format!(
                        "stored record exists but the fresh run did not complete ({})",
                        outcome.summary()
                    ),
                });
            }
            continue;
        };
        let fresh_text = record.render_pretty();
        // Compare raw bytes, not parsed records: a present-but-corrupt
        // file is drift of the "differs" kind, and only a genuinely
        // absent file is "missing".
        match std::fs::read_to_string(&path) {
            Err(e) => divergences.push(Divergence {
                suite: suite_digest.clone(),
                cell: cell.digest.clone(),
                index: Some(cell.index),
                kind: DriftKind::MissingRecord,
                detail: format!("{}: {e}", path.display()),
            }),
            Ok(stored_text) if stored_text == fresh_text => {}
            Ok(stored_text) => divergences.push(Divergence {
                suite: suite_digest.clone(),
                cell: cell.digest.clone(),
                index: Some(cell.index),
                kind: DriftKind::RecordDiffers,
                detail: diff_detail(&stored_text, &fresh_text),
            }),
        }
    }

    // Stored records the suite no longer names.
    let named: std::collections::HashSet<&str> = cells.iter().map(|c| c.digest.as_str()).collect();
    let mut extra = 0;
    for stored in store.record_digests(&suite_digest)? {
        if !named.contains(stored.as_str()) {
            extra += 1;
            divergences.push(Divergence {
                suite: suite_digest.clone(),
                cell: stored,
                index: None,
                kind: DriftKind::ExtraRecord,
                detail: "present in the store but not in the suite expansion".to_string(),
            });
        }
    }

    // Manifest cross-check: same cells, same order, same verdicts.
    let expect: Vec<(usize, String, bool)> = fresh
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| (i, o.digest(), o.ok()))
        .collect();
    let got: Vec<(usize, String, bool)> = manifest
        .cells
        .iter()
        .map(|c| (c.index, c.digest.clone(), c.ok))
        .collect();
    if expect != got {
        divergences.push(Divergence {
            suite: suite_digest.clone(),
            cell: suite_digest.clone(),
            index: None,
            kind: DriftKind::ManifestMismatch,
            detail: format!(
                "manifest lists {} cells, fresh run produced {} (or order/verdicts differ)",
                got.len(),
                expect.len()
            ),
        });
    }

    divergences.sort_by_key(|d| (d.index.unwrap_or(usize::MAX), d.cell.clone()));
    Ok(DriftReport {
        suite_digest,
        checked: cells.len() + extra,
        divergences,
    })
}

/// Compare two stores (e.g. runs of the same suites under two builds),
/// suite by suite: every suite either store holds must be in both, with
/// byte-identical `manifest.json` files and byte-identical records.
/// Each divergence names its suite, so a caller can tabulate them per
/// suite.
pub fn compare_stores(baseline: &LabStore, candidate: &LabStore) -> Result<DriftReport, String> {
    let mut divergences = Vec::new();
    let mut checked = 0;
    let base_suites = baseline.suite_digests()?;
    for suite in &base_suites {
        let mut flag = |cell: &str, kind, detail| {
            divergences.push(Divergence {
                suite: suite.clone(),
                cell: cell.to_string(),
                index: None,
                kind,
                detail,
            })
        };
        let manifest = |s: &LabStore| std::fs::read_to_string(s.manifest_path(suite)).ok();
        match (manifest(baseline), manifest(candidate)) {
            (base, cand) if base == cand => {}
            (Some(base), Some(cand)) => flag(
                suite,
                DriftKind::ManifestMismatch,
                diff_detail(&base, &cand),
            ),
            (_, cand) => flag(
                suite,
                DriftKind::ManifestMismatch,
                format!(
                    "manifest.json only in the {} store",
                    if cand.is_some() {
                        "candidate"
                    } else {
                        "baseline"
                    }
                ),
            ),
        }
        let base_records = baseline.record_digests(suite)?;
        for cell in &base_records {
            checked += 1;
            let base_path = baseline.record_path(suite, cell);
            let base_text = std::fs::read_to_string(&base_path)
                .map_err(|e| format!("{}: {e}", base_path.display()))?;
            let cand_path = candidate.record_path(suite, cell);
            match std::fs::read_to_string(&cand_path) {
                Err(e) => flag(
                    cell,
                    DriftKind::MissingRecord,
                    format!("{}: {e}", cand_path.display()),
                ),
                Ok(cand_text) if cand_text == base_text => {}
                Ok(cand_text) => flag(
                    cell,
                    DriftKind::RecordDiffers,
                    diff_detail(&base_text, &cand_text),
                ),
            }
        }
        // Records only the candidate has.
        for cell in candidate.record_digests(suite).unwrap_or_default() {
            if !base_records.contains(&cell) {
                checked += 1;
                flag(
                    &cell,
                    DriftKind::ExtraRecord,
                    "present in candidate store only".to_string(),
                );
            }
        }
    }
    for suite in candidate.suite_digests()? {
        if !base_suites.contains(&suite) {
            checked += 1;
            divergences.push(Divergence {
                cell: suite.clone(),
                suite,
                index: None,
                kind: DriftKind::ExtraRecord,
                detail: "suite present in candidate store only".to_string(),
            });
        }
    }
    Ok(DriftReport {
        suite_digest: format!(
            "baseline store {} (candidate {})",
            baseline.root().display(),
            candidate.root().display()
        ),
        checked,
        divergences,
    })
}

/// What differs between two stored documents: the JSON paths that moved,
/// or why none can be named.
fn diff_detail(stored: &str, fresh: &str) -> String {
    match (Json::parse(stored), Json::parse(fresh)) {
        (Ok(stored), Ok(fresh)) => {
            let diffs = json_diff(&stored, &fresh, 4);
            if diffs.is_empty() {
                // Same tree, different bytes: whitespace or field-order
                // tampering.
                "stored bytes are not the canonical rendering".to_string()
            } else {
                diffs.join("; ")
            }
        }
        _ => "stored document is not parseable JSON".to_string(),
    }
}

/// Paths at which two JSON trees differ, depth-first, capped at `max`
/// entries (the cap keeps a wildly-divergent record's report readable).
pub fn json_diff(a: &Json, b: &Json, max: usize) -> Vec<String> {
    let mut out = Vec::new();
    diff_into(a, b, "", max, &mut out);
    out
}

fn render_short(v: &Json) -> String {
    let text = v.render();
    if text.chars().count() > 40 {
        let head: String = text.chars().take(39).collect();
        format!("{head}…")
    } else {
        text
    }
}

fn diff_into(a: &Json, b: &Json, path: &str, max: usize, out: &mut Vec<String>) {
    if out.len() >= max || a == b {
        return;
    }
    let here = |p: &str| {
        if p.is_empty() {
            "$".to_string()
        } else {
            p.to_string()
        }
    };
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            for (k, va) in fa {
                let sub = format!("{path}.{k}");
                match fb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => diff_into(va, vb, &sub, max, out),
                    None => {
                        if out.len() < max {
                            out.push(format!("{} removed", here(&sub)));
                        }
                    }
                }
            }
            for (k, _) in fb {
                if !fa.iter().any(|(ka, _)| ka == k) && out.len() < max {
                    out.push(format!("{}.{k} added", here(path)));
                }
            }
        }
        (Json::Arr(xa), Json::Arr(xb)) => {
            if xa.len() != xb.len() && out.len() < max {
                out.push(format!(
                    "{} length {} != {}",
                    here(path),
                    xa.len(),
                    xb.len()
                ));
            }
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                diff_into(va, vb, &format!("{path}[{i}]"), max, out);
            }
        }
        _ => out.push(format!(
            "{}: {} != {}",
            here(path),
            render_short(a),
            render_short(b)
        )),
    }
}
