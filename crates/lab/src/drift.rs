//! Drift detection: a stored suite run is ground truth, and any
//! byte-level difference on re-execution is a real regression.
//!
//! The whole pipeline below the store is deterministic — seeded sources,
//! oblivious schedules, canonical JSON — so the strongest possible check
//! is also the simplest: render the fresh record and `==` the stored
//! bytes. When bytes differ, the parsed JSON trees are diffed to name the
//! paths that moved (verdict, work counters, final memory, …) so a drift
//! report reads like a regression report, not a checksum mismatch.
//!
//! Both verbs go through one comparator, `compare_suite`, over one
//! suite's manifest bytes and record bytes by cell digest, the expected
//! side first. [`check_against_store`] feeds it a fresh run (its
//! rendered records and the manifest it would write) against the store;
//! [`compare_stores`] a baseline store against a candidate. The farm
//! reports two workers' disagreeing bytes as the same [`Divergence`],
//! with the same [`diff_detail`].

use std::collections::BTreeMap;
use std::path::PathBuf;

use apex_sim::Json;

use crate::runner::{run_cells, SuiteRun};
use crate::store::{LabStore, Manifest};
use crate::suite::{Cell, Suite};

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

/// Re-run `suite` and compare it with its stored run in `store`: the
/// fresh records and the manifest the fresh run would write are the
/// expected side of `compare_suite`, the store the actual side.
pub fn check_against_store(suite: &Suite, store: &LabStore) -> Result<DriftReport, String> {
    let cells = suite.expand()?;
    let suite_digest = suite.digest();
    let stored = SuiteBytes::read(store, &suite_digest)?;
    if stored.manifest.is_none() {
        return Err(format!(
            "no stored run for suite {suite_digest} (run `apex suite run` first)"
        ));
    }
    let fresh = SuiteBytes::fresh(&run_cells(suite, &cells), &cells);
    let mut divergences = Vec::new();
    let checked = compare_suite(&suite_digest, &fresh, &stored, &mut divergences);
    Ok(DriftReport {
        suite_digest,
        checked,
        divergences,
    })
}

/// Compare two stores (e.g. runs of the same suites under two builds),
/// suite by suite through `compare_suite`, the baseline as the
/// expected side: every suite either store holds must be in both, with
/// byte-identical `manifest.json` files and byte-identical records.
/// Each divergence names its suite, so a caller can tabulate them per
/// suite.
pub fn compare_stores(baseline: &LabStore, candidate: &LabStore) -> Result<DriftReport, String> {
    let mut divergences = Vec::new();
    let mut checked = 0;
    let base_suites = baseline.suite_digests()?;
    for suite in &base_suites {
        let expected = SuiteBytes::read(baseline, suite)?;
        let actual = SuiteBytes::read(candidate, suite)?;
        checked += compare_suite(suite, &expected, &actual, &mut divergences);
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

/// One side of a suite comparison: the manifest's bytes and each
/// record's bytes by cell digest.
#[derive(Default)]
struct SuiteBytes {
    manifest: Option<Vec<u8>>,
    /// Cell digest → the cell's expansion index (when the side knows
    /// it) and its record bytes (`None`: the cell completed no record).
    records: BTreeMap<String, (Option<usize>, Option<Vec<u8>>)>,
}

impl SuiteBytes {
    /// What `store` holds for `suite` (nothing, when it has no such
    /// suite directory).
    fn read(store: &LabStore, suite: &str) -> Result<Self, String> {
        let mut side = SuiteBytes::default();
        if !store.suite_dir(suite).is_dir() {
            return Ok(side);
        }
        let read =
            |path: PathBuf| std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()));
        let manifest = store.manifest_path(suite);
        if manifest.exists() {
            side.manifest = Some(read(manifest)?);
        }
        for cell in store.record_digests(suite)? {
            let bytes = read(store.record_path(suite, &cell))?;
            side.records.insert(cell, (None, Some(bytes)));
        }
        Ok(side)
    }

    /// What a store holding `run` of `cells` would hold: each cell's
    /// canonical record bytes and the manifest the run writes.
    fn fresh(run: &SuiteRun, cells: &[Cell]) -> Self {
        let records = cells.iter().zip(&run.outcomes).map(|(cell, outcome)| {
            let bytes = outcome.record().map(|r| r.render_pretty().into_bytes());
            (cell.digest.clone(), (Some(cell.index), bytes))
        });
        SuiteBytes {
            manifest: Some(Manifest::from_run(run).render_pretty().into_bytes()),
            records: records.collect(),
        }
    }
}

/// The one suite comparator behind both drift verbs: push a
/// [`Divergence`] for every byte difference between what `expected`
/// and `actual` hold for `suite` — the manifest, each record the
/// expected side names (a record where the expected side completed
/// none differs too), and each record only the actual side holds — in
/// cell order. Returns how many cells it compared.
fn compare_suite(
    suite: &str,
    expected: &SuiteBytes,
    actual: &SuiteBytes,
    out: &mut Vec<Divergence>,
) -> usize {
    use DriftKind::*;
    let mut found = Vec::new();
    let mut flag = |cell: &str, index, kind, detail| {
        let (suite, cell) = (suite.to_string(), cell.to_string());
        found.push(Divergence {
            suite,
            cell,
            index,
            kind,
            detail,
        })
    };
    let detail = match (&expected.manifest, &actual.manifest) {
        (want, got) if want == got => None,
        (Some(want), Some(got)) => Some(diff_detail(want, got)),
        (want, _) => Some(format!(
            "manifest.json only on the {} side",
            if want.is_some() { "expected" } else { "actual" }
        )),
    };
    if let Some(detail) = detail {
        flag(suite, None, ManifestMismatch, detail);
    }
    for (cell, (index, want)) in &expected.records {
        let got = actual.records.get(cell).and_then(|(_, got)| got.as_ref());
        let (kind, detail) = match (want, got) {
            (want, got) if want.as_ref() == got => continue,
            (Some(want), Some(got)) => (RecordDiffers, diff_detail(want, got)),
            (Some(_), None) => (MissingRecord, "no record at this address".into()),
            (None, _) => (
                RecordDiffers,
                "stored, but the expected side completed none".into(),
            ),
        };
        flag(cell, *index, kind, detail);
    }
    let mut checked = expected.records.len();
    for cell in actual.records.keys() {
        if !expected.records.contains_key(cell) {
            checked += 1;
            flag(
                cell,
                None,
                ExtraRecord,
                "present only on the actual side".into(),
            );
        }
    }
    found.sort_by_key(|d| (d.index.unwrap_or(usize::MAX), d.cell.clone()));
    out.extend(found);
    checked
}

/// What differs between two stored documents, the expected one first:
/// the JSON paths that moved, or why none can be named. Every
/// [`DriftKind::RecordDiffers`] divergence carries it, the farm's too.
pub fn diff_detail(expected: &[u8], actual: &[u8]) -> String {
    let parse = |bytes| Json::parse(std::str::from_utf8(bytes).ok()?).ok();
    match (parse(expected), parse(actual)) {
        (Some(expected), Some(actual)) => {
            let diffs = json_diff(&expected, &actual, 4);
            if diffs.is_empty() {
                // Same tree, different bytes: whitespace or field-order
                // tampering.
                "the documents differ only in their rendering".to_string()
            } else {
                diffs.join("; ")
            }
        }
        _ => "a document is not parseable JSON".to_string(),
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
