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
use apex_sim::{Json, JsonError};

use crate::program::scheme_from_label;

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
        Json::Obj(vec![
            (
                "outcomes".into(),
                Json::Arr(self.outcomes.iter().map(phase_outcome_to_json).collect()),
            ),
            ("ticks".into(), Json::UInt(self.ticks)),
            (
                "stability_violations".into(),
                Json::UInt(self.stability_violations as u64),
            ),
        ])
    }

    /// Deserialize from the artifact form.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(AgreementRunReport {
            outcomes: v
                .get("outcomes")?
                .as_arr()?
                .iter()
                .map(phase_outcome_from_json)
                .collect::<Result<_, _>>()?,
            ticks: v.get("ticks")?.as_u64()?,
            stability_violations: v.get("stability_violations")?.as_usize()?,
        })
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

    /// Machine ticks the run consumed.
    pub fn ticks(&self) -> u64 {
        match self {
            ScenarioReport::Scheme(r) => r.ticks,
            ScenarioReport::Agreement(r) => r.ticks,
        }
    }

    /// Serialize to the stable, mode-tagged artifact form.
    pub fn to_json(&self) -> Json {
        match self {
            ScenarioReport::Scheme(r) => Json::Obj(vec![
                ("kind".into(), Json::Str("scheme".into())),
                ("scheme".into(), scheme_report_to_json(r)),
            ]),
            ScenarioReport::Agreement(r) => Json::Obj(vec![
                ("kind".into(), Json::Str("agreement".into())),
                ("agreement".into(), r.to_json()),
            ]),
        }
    }

    /// Deserialize from the artifact form.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.get("kind")?.as_str()? {
            "scheme" => Ok(ScenarioReport::Scheme(scheme_report_from_json(
                v.get("scheme")?,
            )?)),
            "agreement" => Ok(ScenarioReport::Agreement(AgreementRunReport::from_json(
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

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

fn u64_arr(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|x| Json::UInt(*x)).collect())
}

fn u64_arr_back(v: &Json) -> Result<Vec<u64>, JsonError> {
    v.as_arr()?.iter().map(Json::as_u64).collect()
}

fn opt_u64(x: Option<u64>) -> Json {
    x.map_or(Json::Null, Json::UInt)
}

fn opt_u64_back(v: &Json) -> Result<Option<u64>, JsonError> {
    match v {
        Json::Null => Ok(None),
        other => other.as_u64().map(Some),
    }
}

fn bool_back(v: &Json, what: &str) -> Result<bool, JsonError> {
    match v {
        Json::Bool(b) => Ok(*b),
        other => Err(jerr(format!("expected bool {what}, got {other:?}"))),
    }
}

/// Serialize a [`VerifyReport`] (including the typed replay error).
pub fn verify_report_to_json(r: &VerifyReport) -> Json {
    let replay_error = match &r.replay_error {
        None => Json::Null,
        Some(e) => {
            let (kind, step, thread) = match e {
                ReplayError::MissingChoice { step, thread } => ("missing-choice", *step, *thread),
                ReplayError::UnusedChoice { step, thread } => ("unused-choice", *step, *thread),
            };
            Json::Obj(vec![
                ("kind".into(), Json::Str(kind.into())),
                ("step".into(), Json::UInt(step)),
                ("thread".into(), Json::UInt(thread as u64)),
            ])
        }
    };
    Json::Obj(vec![
        (
            "replica_divergences".into(),
            Json::UInt(r.replica_divergences as u64),
        ),
        ("missing_values".into(), Json::UInt(r.missing_values as u64)),
        ("det_mismatches".into(), Json::UInt(r.det_mismatches as u64)),
        (
            "inadmissible_choices".into(),
            Json::UInt(r.inadmissible_choices as u64),
        ),
        (
            "final_mismatches".into(),
            Json::UInt(r.final_mismatches as u64),
        ),
        ("replay_error".into(), replay_error),
    ])
}

/// Deserialize a [`VerifyReport`].
pub fn verify_report_from_json(v: &Json) -> Result<VerifyReport, JsonError> {
    let replay_error = match v.get("replay_error")? {
        Json::Null => None,
        e => {
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
    Json::Obj(vec![
        ("scheme".into(), Json::Str(r.kind.label().into())),
        ("schedule".into(), Json::Str(r.schedule.clone())),
        ("program".into(), Json::Str(r.program.clone())),
        ("n".into(), Json::UInt(r.n as u64)),
        ("t_steps".into(), Json::UInt(r.t_steps as u64)),
        ("total_work".into(), Json::UInt(r.total_work)),
        ("ticks".into(), Json::UInt(r.ticks)),
        ("subphase_work".into(), u64_arr(&r.subphase_work)),
        ("verify".into(), verify_report_to_json(&r.verify)),
        (
            "operand_read_failures".into(),
            Json::UInt(r.operand_read_failures),
        ),
        ("copy_writes".into(), Json::UInt(r.copy_writes)),
        ("aborted_copies".into(), Json::UInt(r.aborted_copies)),
        ("evals".into(), Json::UInt(r.evals)),
        ("final_memory".into(), u64_arr(&r.final_memory)),
    ])
}

/// Deserialize a [`SchemeReport`].
pub fn scheme_report_from_json(v: &Json) -> Result<SchemeReport, JsonError> {
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

fn bin_check_to_json(b: &BinCheck) -> Json {
    Json::Obj(vec![
        ("bin".into(), Json::UInt(b.bin as u64)),
        ("value".into(), opt_u64(b.value)),
        ("filled_upper".into(), Json::UInt(b.filled_upper as u64)),
        ("upper_cells".into(), Json::UInt(b.upper_cells as u64)),
        ("unique".into(), Json::Bool(b.unique)),
        ("accessible".into(), Json::Bool(b.accessible)),
        ("correct".into(), b.correct.map_or(Json::Null, Json::Bool)),
    ])
}

fn bin_check_from_json(v: &Json) -> Result<BinCheck, JsonError> {
    Ok(BinCheck {
        bin: v.get("bin")?.as_usize()?,
        value: opt_u64_back(v.get("value")?)?,
        filled_upper: v.get("filled_upper")?.as_usize()?,
        upper_cells: v.get("upper_cells")?.as_usize()?,
        unique: bool_back(v.get("unique")?, "unique")?,
        accessible: bool_back(v.get("accessible")?, "accessible")?,
        correct: match v.get("correct")? {
            Json::Null => None,
            other => Some(bool_back(other, "correct")?),
        },
    })
}

fn theorem_one_to_json(r: &TheoremOneReport) -> Json {
    Json::Obj(vec![
        ("phase".into(), Json::UInt(r.phase)),
        (
            "bins".into(),
            Json::Arr(r.bins.iter().map(bin_check_to_json).collect()),
        ),
    ])
}

fn theorem_one_from_json(v: &Json) -> Result<TheoremOneReport, JsonError> {
    Ok(TheoremOneReport {
        phase: v.get("phase")?.as_u64()?,
        bins: v
            .get("bins")?
            .as_arr()?
            .iter()
            .map(bin_check_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn phase_outcome_to_json(o: &PhaseOutcome) -> Json {
    Json::Obj(vec![
        ("phase".into(), Json::UInt(o.phase)),
        ("start_work".into(), Json::UInt(o.start_work)),
        ("completion_work".into(), opt_u64(o.completion_work)),
        ("advance_work".into(), Json::UInt(o.advance_work)),
        ("report".into(), theorem_one_to_json(&o.report)),
        (
            "clobbers".into(),
            o.clobbers.as_deref().map_or(Json::Null, u64_arr),
        ),
        (
            "stability_violations".into(),
            Json::UInt(o.stability_violations as u64),
        ),
        (
            "agreed".into(),
            Json::Arr(o.agreed.iter().map(|a| opt_u64(*a)).collect()),
        ),
    ])
}

fn phase_outcome_from_json(v: &Json) -> Result<PhaseOutcome, JsonError> {
    Ok(PhaseOutcome {
        phase: v.get("phase")?.as_u64()?,
        start_work: v.get("start_work")?.as_u64()?,
        completion_work: opt_u64_back(v.get("completion_work")?)?,
        advance_work: v.get("advance_work")?.as_u64()?,
        report: theorem_one_from_json(v.get("report")?)?,
        clobbers: match v.get("clobbers")? {
            Json::Null => None,
            other => Some(u64_arr_back(other)?),
        },
        stability_violations: v.get("stability_violations")?.as_usize()?,
        agreed: v
            .get("agreed")?
            .as_arr()?
            .iter()
            .map(opt_u64_back)
            .collect::<Result<_, _>>()?,
    })
}
