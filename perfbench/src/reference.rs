//! The committed reference for a workload's default seed: every cell's
//! record checksum plus the deterministic counts, so a run on that seed
//! is checked against the bytes this commit produced rather than only
//! against itself.
//!
//! `campaign-cached` runs the `campaign` document, so its suite digest
//! and cell checksums are read from `campaign.json`; its own file holds
//! only its counts.

use std::collections::BTreeMap;
use std::path::PathBuf;

use apex_lab::{Cell, Suite};
use apex_sim::Json;

use crate::traced::{Replays, TracedPass};
use crate::{Counts, Tally};

pub struct Reference {
    workload: String,
    seed: u64,
    suite_digest: String,
    /// Cell digest → record checksum.
    cells: BTreeMap<String, String>,
    counts: BTreeMap<String, u64>,
}

fn traced_counts(p: &TracedPass, r: &Replays) -> [(&'static str, u64); 7] {
    [
        ("sim.sched.draws", r.draws),
        ("sim.blocks", p.blocks),
        ("bc.slots", p.slots),
        ("bc.live_slots", p.live_slots),
        ("lab.journal.appends", p.appends),
        ("lab.store.bytes", p.write_bytes),
        ("scenario.record_bytes", p.record_bytes),
    ]
}

fn untraced_counts(c: &Counts) -> [(&'static str, u64); 3] {
    [
        ("ticks", c.ticks),
        ("work", c.work),
        ("ideal_work", c.ideal_work),
    ]
}

/// The workload whose reference file holds `workload`'s cells.
fn cells_owner(workload: &str) -> &str {
    match workload {
        "campaign-cached" => "campaign",
        w => w,
    }
}

/// The parsed reference file of `workload`, if there is one for `seed`.
fn read_doc(workload: &str, seed: u64) -> Result<Option<Json>, String> {
    let path = Reference::path_of(workload);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let bad = |e: apex_sim::JsonError| format!("{}: {e}", path.display());
    let v = Json::parse(&text).map_err(bad)?;
    if v.get("seed").map_err(bad)?.as_u64().map_err(bad)? != seed {
        return Ok(None);
    }
    Ok(Some(v))
}

/// The object under `key` of a reference document, as name → value.
fn pairs<T>(
    v: &Json,
    key: &str,
    value: impl Fn(&Json) -> Result<T, apex_sim::JsonError>,
) -> Result<BTreeMap<String, T>, String> {
    let bad = |e: apex_sim::JsonError| format!("reference {key}: {e}");
    match v.get(key).map_err(bad)? {
        Json::Obj(fields) => fields
            .iter()
            .map(|(k, j)| Ok((k.clone(), value(j).map_err(bad)?)))
            .collect(),
        _ => Err(format!("reference {key} is not an object")),
    }
}

impl Reference {
    fn path_of(workload: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(format!("{workload}.json"))
    }

    pub fn path(&self) -> PathBuf {
        Self::path_of(&self.workload)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn new(
        workload: &str,
        seed: u64,
        suite: &Suite,
        cells: &[Cell],
        checksums: &[Option<String>],
        counts: &Counts,
        traced: &TracedPass,
        replays: &Replays,
    ) -> Reference {
        Reference {
            workload: workload.to_string(),
            seed,
            suite_digest: suite.digest(),
            cells: cells
                .iter()
                .zip(checksums)
                .filter_map(|(c, s)| Some((c.digest.clone(), s.clone()?)))
                .collect(),
            counts: untraced_counts(counts)
                .into_iter()
                .chain(traced_counts(traced, replays))
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// The reference for `workload`, if one is committed for `seed`.
    pub fn load(workload: &str, seed: u64) -> Result<Option<Reference>, String> {
        let (Some(own), Some(cells)) = (
            read_doc(workload, seed)?,
            read_doc(cells_owner(workload), seed)?,
        ) else {
            return Ok(None);
        };
        let suite_digest = cells
            .get("suite_digest")
            .and_then(Json::as_str)
            .map_err(|e| format!("reference suite_digest: {e}"))?
            .to_string();
        Ok(Some(Reference {
            workload: workload.to_string(),
            seed,
            suite_digest,
            cells: pairs(&cells, "cells", |j| j.as_str().map(str::to_string))?,
            counts: pairs(&own, "counts", Json::as_u64)?,
        }))
    }

    pub fn save(&self) -> Result<(), String> {
        let mut fields = vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::UInt(self.seed)),
        ];
        if cells_owner(&self.workload) == self.workload {
            fields.push(("suite_digest".into(), Json::Str(self.suite_digest.clone())));
            fields.push((
                "cells".into(),
                Json::Obj(
                    self.cells
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        fields.push((
            "counts".into(),
            Json::Obj(
                self.counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                    .collect(),
            ),
        ));
        let doc = Json::Obj(fields);
        let path = self.path();
        std::fs::write(&path, doc.render_pretty() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Expected record checksum per cell, in expansion order.
    pub fn checksums_for(&self, cells: &[Cell]) -> Vec<Option<String>> {
        cells
            .iter()
            .map(|c| self.cells.get(&c.digest).cloned())
            .collect()
    }

    /// Check the suite digest and the deterministic counts (the traced
    /// ones only when a traced pass is given).
    pub fn check_counts(
        &self,
        counts: &Counts,
        traced: Option<(&TracedPass, &Replays)>,
        tally: &mut Tally,
    ) {
        let mut got: Vec<(&str, u64)> = untraced_counts(counts).to_vec();
        if let Some((p, r)) = traced {
            got.extend(traced_counts(p, r));
        }
        for (name, value) in got {
            match self.counts.get(name) {
                Some(&want) => tally.same(&format!("reference {name}"), value, want),
                None => tally.broken.push(format!("reference has no count {name}")),
            }
        }
    }

    pub fn suite_digest(&self) -> &str {
        &self.suite_digest
    }
}
