//! What a scenario run produces, and its stable JSON artifact form.
//!
//! The report codecs here make every run result a *recordable* document:
//! [`ScenarioReport::to_json`] round-trips exactly (all measured
//! quantities are integers, so nothing is squeezed through `f64`), which
//! is what lets the lab store content-address records and detect drift by
//! byte comparison.

use apex_core::validate::{BinCheck, TheoremOneReport};
use apex_core::PhaseOutcome;
use apex_pram::refexec::ReplayError;
use apex_scheme::{SchemeReport, VerifyReport};
use apex_sim::{Items, Json, JsonError, JsonVal, JsonWriter, WriteJson};

use crate::program::scheme_from_label;
use crate::Doc;

/// Result of an agreement-mode scenario: the per-phase outcomes plus the
/// machine totals (the same shape every agreement experiment aggregates).
#[derive(Clone, Debug)]
pub struct AgreementRunReport {
    /// Outcome per phase, in order.
    pub outcomes: Vec<PhaseOutcome>,
    /// Machine ticks consumed by the whole run.
    pub ticks: u64,
    /// Stability violations accumulated across the run's phases.
    pub stability_violations: usize,
}

impl AgreementRunReport {
    /// Whether every phase completed and satisfied Theorem 1, with no
    /// stability violations.
    pub fn ok(&self) -> bool {
        self.stability_violations == 0
            && self
                .outcomes
                .iter()
                .all(|o| o.completion_work.is_some() && o.report.all_hold())
    }

    /// Serialize to the stable artifact form.
    pub fn to_json(&self) -> Json {
        self.to_tree()
    }

    /// Deserialize from the artifact form.
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        Ok(AgreementRunReport {
            outcomes: v
                .get("outcomes")?
                .as_arr()?
                .map(phase_outcome_from_json)
                .collect::<Result<_, _>>()?,
            ticks: v.get("ticks")?.as_u64()?,
            stability_violations: v.get("stability_violations")?.as_usize()?,
        })
    }
}

impl WriteJson for AgreementRunReport {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.key("outcomes");
            w.arr(Items::Containers, |w| {
                for o in &self.outcomes {
                    Doc(o).write_json(w);
                }
            });
            w.field("ticks", self.ticks);
            w.field("stability_violations", self.stability_violations);
        });
    }
}

/// Result of [`Scenario::run`](crate::Scenario::run): one variant per mode.
#[derive(Clone, Debug)]
pub enum ScenarioReport {
    /// A scheme-mode run (program through an execution scheme + verifier).
    Scheme(SchemeReport),
    /// An agreement-mode run (raw protocol phases + Theorem-1 validators).
    Agreement(AgreementRunReport),
}

impl ScenarioReport {
    /// Did the run meet its mode's correctness bar (verifier clean /
    /// Theorem 1 held every phase)?
    pub fn ok(&self) -> bool {
        match self {
            ScenarioReport::Scheme(r) => r.verify.ok(),
            ScenarioReport::Agreement(r) => r.ok(),
        }
    }

    /// The scheme report.
    ///
    /// # Panics
    /// If the scenario ran in another mode.
    pub fn scheme(&self) -> &SchemeReport {
        match self {
            ScenarioReport::Scheme(r) => r,
            _ => panic!("scenario did not run in scheme mode"),
        }
    }

    /// The scheme report, by value.
    ///
    /// # Panics
    /// If the scenario ran in another mode.
    pub fn into_scheme(self) -> SchemeReport {
        match self {
            ScenarioReport::Scheme(r) => r,
            _ => panic!("scenario did not run in scheme mode"),
        }
    }

    /// The agreement report.
    ///
    /// # Panics
    /// If the scenario ran in another mode.
    pub fn agreement(&self) -> &AgreementRunReport {
        match self {
            ScenarioReport::Agreement(r) => r,
            _ => panic!("scenario did not run in agreement mode"),
        }
    }

    /// The agreement report, by value.
    ///
    /// # Panics
    /// If the scenario ran in another mode.
    pub fn into_agreement(self) -> AgreementRunReport {
        match self {
            ScenarioReport::Agreement(r) => r,
            _ => panic!("scenario did not run in agreement mode"),
        }
    }

    /// Machine ticks the run consumed.
    pub fn ticks(&self) -> u64 {
        match self {
            ScenarioReport::Scheme(r) => r.ticks,
            ScenarioReport::Agreement(r) => r.ticks,
        }
    }

    /// Serialize to the stable, mode-tagged artifact form.
    pub fn to_json(&self) -> Json {
        self.to_tree()
    }

    /// Deserialize from the artifact form.
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        match v.get("kind")?.as_str()? {
            "scheme" => Ok(ScenarioReport::Scheme(scheme_report_from_json(
                v.get("scheme")?,
            )?)),
            "agreement" => Ok(ScenarioReport::Agreement(AgreementRunReport::decode(
                v.get("agreement")?,
            )?)),
            other => Err(jerr(format!("unknown report kind {other:?}"))),
        }
    }

    /// One-line human summary (the CLI's `run` output).
    pub fn summary(&self) -> String {
        match self {
            ScenarioReport::Scheme(r) => format!(
                "{} on {} ({} threads, {} steps): work {}, overhead {:.1}x, \
                 violations {} — {}",
                r.kind.label(),
                r.program,
                r.n,
                r.t_steps,
                r.total_work,
                r.overhead(),
                r.verify.violations(),
                if r.verify.ok() {
                    "consistent"
                } else {
                    "BROKEN"
                },
            ),
            ScenarioReport::Agreement(r) => format!(
                "agreement protocol: {} phases, {} ticks, {} stability violations — {}",
                r.outcomes.len(),
                r.ticks,
                r.stability_violations,
                if r.ok() { "Theorem 1 held" } else { "FAILED" },
            ),
        }
    }
}

impl WriteJson for ScenarioReport {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| match self {
            ScenarioReport::Scheme(r) => {
                w.field("kind", "scheme");
                w.field("scheme", Doc(r));
            }
            ScenarioReport::Agreement(r) => {
                w.field("kind", "agreement");
                w.field("agreement", r);
            }
        });
    }
}

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

fn u64_arr_back(v: JsonVal<'_>) -> Result<Vec<u64>, JsonError> {
    v.as_arr()?.map(JsonVal::as_u64).collect()
}

fn opt_u64_back(v: JsonVal<'_>) -> Result<Option<u64>, JsonError> {
    v.non_null().map(JsonVal::as_u64).transpose()
}

fn bool_back(v: JsonVal<'_>, what: &str) -> Result<bool, JsonError> {
    v.as_bool()
        .ok_or_else(|| jerr(format!("expected bool {what}, got {v:?}")))
}

/// Serialize a [`VerifyReport`] (including the typed replay error).
pub fn verify_report_to_json(r: &VerifyReport) -> Json {
    Doc(r).to_tree()
}

impl WriteJson for Doc<'_, VerifyReport> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        let r = self.0;
        w.obj(|w| {
            w.field("replica_divergences", r.replica_divergences);
            w.field("missing_values", r.missing_values);
            w.field("det_mismatches", r.det_mismatches);
            w.field("inadmissible_choices", r.inadmissible_choices);
            w.field("final_mismatches", r.final_mismatches);
            w.key("replay_error");
            match r.replay_error {
                None => w.null(),
                Some(ref e) => {
                    let (kind, step, thread) = match *e {
                        ReplayError::MissingChoice { step, thread } => {
                            ("missing-choice", step, thread)
                        }
                        ReplayError::UnusedChoice { step, thread } => {
                            ("unused-choice", step, thread)
                        }
                    };
                    w.obj(|w| {
                        w.field("kind", kind);
                        w.field("step", step);
                        w.field("thread", thread);
                    });
                }
            }
        });
    }
}

/// Deserialize a [`VerifyReport`].
pub fn verify_report_from_json(v: JsonVal<'_>) -> Result<VerifyReport, JsonError> {
    let replay_error = match v.get("replay_error")?.non_null() {
        None => None,
        Some(e) => {
            let step = e.get("step")?.as_u64()?;
            let thread = e.get("thread")?.as_usize()?;
            Some(match e.get("kind")?.as_str()? {
                "missing-choice" => ReplayError::MissingChoice { step, thread },
                "unused-choice" => ReplayError::UnusedChoice { step, thread },
                other => return Err(jerr(format!("unknown replay error kind {other:?}"))),
            })
        }
    };
    Ok(VerifyReport {
        replica_divergences: v.get("replica_divergences")?.as_usize()?,
        missing_values: v.get("missing_values")?.as_usize()?,
        det_mismatches: v.get("det_mismatches")?.as_usize()?,
        inadmissible_choices: v.get("inadmissible_choices")?.as_usize()?,
        final_mismatches: v.get("final_mismatches")?.as_usize()?,
        replay_error,
    })
}

/// Serialize a [`SchemeReport`] — every measured quantity is an integer,
/// so the round-trip is exact.
pub fn scheme_report_to_json(r: &SchemeReport) -> Json {
    Doc(r).to_tree()
}

impl WriteJson for Doc<'_, SchemeReport> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        let r = self.0;
        w.obj(|w| {
            w.field("scheme", r.kind.label());
            w.field("schedule", &r.schedule);
            w.field("program", &r.program);
            w.field("n", r.n);
            w.field("t_steps", r.t_steps);
            w.field("total_work", r.total_work);
            w.field("ticks", r.ticks);
            w.field("subphase_work", &r.subphase_work);
            w.field("verify", Doc(&r.verify));
            w.field("operand_read_failures", r.operand_read_failures);
            w.field("copy_writes", r.copy_writes);
            w.field("aborted_copies", r.aborted_copies);
            w.field("evals", r.evals);
            w.field("final_memory", &r.final_memory);
        });
    }
}

/// Deserialize a [`SchemeReport`].
pub fn scheme_report_from_json(v: JsonVal<'_>) -> Result<SchemeReport, JsonError> {
    Ok(SchemeReport {
        kind: scheme_from_label(v.get("scheme")?.as_str()?)?,
        schedule: v.get("schedule")?.as_str()?.to_string(),
        program: v.get("program")?.as_str()?.to_string(),
        n: v.get("n")?.as_usize()?,
        t_steps: v.get("t_steps")?.as_usize()?,
        total_work: v.get("total_work")?.as_u64()?,
        ticks: v.get("ticks")?.as_u64()?,
        subphase_work: u64_arr_back(v.get("subphase_work")?)?,
        verify: verify_report_from_json(v.get("verify")?)?,
        operand_read_failures: v.get("operand_read_failures")?.as_u64()?,
        copy_writes: v.get("copy_writes")?.as_u64()?,
        aborted_copies: v.get("aborted_copies")?.as_u64()?,
        evals: v.get("evals")?.as_u64()?,
        final_memory: u64_arr_back(v.get("final_memory")?)?,
    })
}

impl WriteJson for Doc<'_, BinCheck> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        let b = self.0;
        w.obj(|w| {
            w.field("bin", b.bin);
            w.field("value", b.value);
            w.field("filled_upper", b.filled_upper);
            w.field("upper_cells", b.upper_cells);
            w.field("unique", b.unique);
            w.field("accessible", b.accessible);
            w.field("correct", b.correct);
        });
    }
}

fn bin_check_from_json(v: JsonVal<'_>) -> Result<BinCheck, JsonError> {
    Ok(BinCheck {
        bin: v.get("bin")?.as_usize()?,
        value: opt_u64_back(v.get("value")?)?,
        filled_upper: v.get("filled_upper")?.as_usize()?,
        upper_cells: v.get("upper_cells")?.as_usize()?,
        unique: bool_back(v.get("unique")?, "unique")?,
        accessible: bool_back(v.get("accessible")?, "accessible")?,
        correct: v
            .get("correct")?
            .non_null()
            .map(|c| bool_back(c, "correct"))
            .transpose()?,
    })
}

impl WriteJson for Doc<'_, TheoremOneReport> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        let r = self.0;
        w.obj(|w| {
            w.field("phase", r.phase);
            w.key("bins");
            w.arr(Items::Containers, |w| {
                for b in &r.bins {
                    Doc(b).write_json(w);
                }
            });
        });
    }
}

fn theorem_one_from_json(v: JsonVal<'_>) -> Result<TheoremOneReport, JsonError> {
    Ok(TheoremOneReport {
        phase: v.get("phase")?.as_u64()?,
        bins: v
            .get("bins")?
            .as_arr()?
            .map(bin_check_from_json)
            .collect::<Result<_, _>>()?,
    })
}

impl WriteJson for Doc<'_, PhaseOutcome> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        let o = self.0;
        w.obj(|w| {
            w.field("phase", o.phase);
            w.field("start_work", o.start_work);
            w.field("completion_work", o.completion_work);
            w.field("advance_work", o.advance_work);
            w.field("report", Doc(&o.report));
            w.field("clobbers", &o.clobbers);
            w.field("stability_violations", o.stability_violations);
            w.field("agreed", &o.agreed);
        });
    }
}

fn phase_outcome_from_json(v: JsonVal<'_>) -> Result<PhaseOutcome, JsonError> {
    Ok(PhaseOutcome {
        phase: v.get("phase")?.as_u64()?,
        start_work: v.get("start_work")?.as_u64()?,
        completion_work: opt_u64_back(v.get("completion_work")?)?,
        advance_work: v.get("advance_work")?.as_u64()?,
        report: theorem_one_from_json(v.get("report")?)?,
        clobbers: v
            .get("clobbers")?
            .non_null()
            .map(u64_arr_back)
            .transpose()?,
        stability_violations: v.get("stability_violations")?.as_usize()?,
        agreed: v
            .get("agreed")?
            .as_arr()?
            .map(opt_u64_back)
            .collect::<Result<_, _>>()?,
    })
}
