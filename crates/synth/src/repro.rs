//! Self-contained JSON reproducer artifacts.
//!
//! A shrunk failing triple is only useful if it survives the campaign that
//! found it: reproducers serialize the *entire* scenario — program text,
//! declarative schedule, master seed, scheme, and the expected outcome —
//! into one JSON file (via the workspace's dependency-free codec,
//! [`apex_sim::json`]). The committed `corpus/` directory is replayed by
//! `cargo test`, so every past divergence of the deterministic baseline
//! stays pinned, and the paper scheme's cleanliness on the same triples is
//! re-asserted forever.
//!
//! **Format v2** (current): the artifact embeds a full
//! [`Scenario`] document — the workspace's single declarative run
//! description — plus the expected outcome and a provenance note. A
//! reproducer is therefore an ordinary scenario file with an assertion
//! attached; `apex synth run` executes the scenario half directly. Any
//! other version, the retired v1 layout included, is a typed
//! "unsupported artifact version" error.

use std::path::{Path, PathBuf};

use apex_scenario::{Mode, Scenario};
use apex_scheme::SchemeKind;
use apex_sim::{Json, JsonError, JsonWriter, WriteJson};

// The stable program/op JSON codec moved to `apex-scenario` with the
// Scenario redesign; re-exported here for the original importers.
pub use apex_scenario::{
    op_from_name, op_name, program_from_json, program_to_json, scheme_from_label,
};

use crate::oracle::{Triple, Verdict};

/// Current artifact format version, the only one the reader accepts.
pub const VERSION: u64 = 2;

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// What a reproducer asserts about its run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// The run verifies clean (zero violations, no stall).
    Clean,
    /// The run diverges (verifier violations or work anomalies).
    Diverges,
}

impl Expectation {
    fn label(&self) -> &'static str {
        match self {
            Expectation::Clean => "clean",
            Expectation::Diverges => "diverges",
        }
    }

    fn from_label(label: &str) -> Result<Self, JsonError> {
        match label {
            "clean" => Ok(Expectation::Clean),
            "diverges" => Ok(Expectation::Diverges),
            other => Err(jerr(format!("unknown expectation {other:?}"))),
        }
    }
}

/// A committed fuzz finding: a scheme-mode [`Scenario`] and the outcome
/// its replay must reproduce.
#[derive(Clone, Debug)]
pub struct Reproducer {
    /// Outcome the replay asserts.
    pub expected: Expectation,
    /// Provenance (campaign seed, shrink stats — free text).
    pub note: String,
    /// The scenario itself (always scheme-mode with an explicit program).
    pub scenario: Scenario,
}

impl WriteJson for Reproducer {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.field("version", VERSION);
            w.field("expected", self.expected.label());
            w.field("note", &self.note);
            w.field("scenario", &self.scenario);
        });
    }
}

impl Reproducer {
    /// A reproducer for `triple` under `scheme`.
    pub fn new(scheme: SchemeKind, expected: Expectation, note: String, triple: &Triple) -> Self {
        Reproducer {
            expected,
            note,
            scenario: triple.scenario(scheme),
        }
    }

    /// The scheme the scenario runs under.
    ///
    /// # Panics
    /// If the scenario is not scheme-mode (impossible for loaded
    /// artifacts — the reader enforces it).
    pub fn scheme(&self) -> SchemeKind {
        match &self.scenario.mode {
            Mode::Scheme { scheme, .. } => *scheme,
            _ => panic!("reproducer scenario is not scheme-mode"),
        }
    }

    /// The (program, schedule, seed) triple of the scenario.
    ///
    /// # Panics
    /// If the scenario is not scheme-mode or its program fails to resolve
    /// (the reader validates both).
    pub fn triple(&self) -> Triple {
        let Mode::Scheme { program, .. } = &self.scenario.mode else {
            panic!("reproducer scenario is not scheme-mode");
        };
        Triple {
            program: program.resolve().expect("validated reproducer program"),
            schedule: self.scenario.schedule.clone(),
            seed: self.scenario.seed,
        }
    }

    /// Serialize to the (v2) artifact JSON.
    pub fn to_json(&self) -> Json {
        self.to_tree()
    }

    /// Deserialize from (v2) artifact JSON, validating the scenario.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let version = v.get("version")?.as_u64()?;
        if version != VERSION {
            return Err(jerr(format!(
                "unsupported artifact version {version} (this build reads {VERSION})"
            )));
        }
        let repro = Reproducer {
            expected: Expectation::from_label(v.get("expected")?.as_str()?)?,
            note: v.get("note")?.as_str()?.to_string(),
            scenario: Scenario::from_json(v.get("scenario")?)?,
        };
        if !matches!(repro.scenario.mode, Mode::Scheme { .. }) {
            return Err(jerr("reproducer scenario must be scheme-mode"));
        }
        repro
            .scenario
            .validate()
            .map_err(|e| jerr(format!("invalid scenario in artifact: {e}")))?;
        Ok(repro)
    }

    /// Stable content-derived file name (FNV-1a over the compact JSON,
    /// note excluded so provenance edits don't rename the artifact).
    pub fn file_name(&self) -> String {
        let mut hashed = self.clone();
        hashed.note = String::new();
        format!("{}-{:016x}.json", self.scheme().label(), hashed.fnv1a64())
    }

    /// Write the pretty-printed artifact into `dir`; returns the path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        apex_scenario::atomic_write(&path, &self.to_json().render_pretty())?;
        Ok(path)
    }

    /// Load one artifact.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Reproducer::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Load every `*.json` artifact in `dir`, sorted by file name.
    pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Self)>, String> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        paths.sort();
        paths
            .into_iter()
            .map(|p| Reproducer::load(&p).map(|r| (p, r)))
            .collect()
    }

    /// Canonical scenario digest — the reproducer's identity for corpus
    /// dedup ([`dedup_corpus`]): two artifacts whose scenarios serialize
    /// identically witness the same finding, whatever their notes say.
    pub fn scenario_digest(&self) -> String {
        self.scenario.digest()
    }

    /// Replay the scenario under `opts` and check the recorded expectation
    /// holds. Corpus findings are engine-independent by the bytecode
    /// determinism contract, so replaying the corpus on the default
    /// engine and again with
    /// [`RunOpts::engine`](apex_scenario::RunOpts::engine) set to the
    /// tree walker is a differential test of the interpreters.
    pub fn check(&self, opts: &apex_scenario::RunOpts) -> Result<Verdict, String> {
        let verdict = crate::oracle::check_scenario(&self.scenario, opts);
        match self.expected {
            Expectation::Clean if verdict.stalled => {
                Err("expected clean run, but the clock stalled".to_string())
            }
            Expectation::Clean if verdict.diverged() => {
                Err(format!("expected clean run, found divergence: {verdict:?}"))
            }
            Expectation::Diverges if !verdict.diverged() => Err(format!(
                "expected divergence, run verified clean (stalled={})",
                verdict.stalled
            )),
            _ => Ok(verdict),
        }
    }
}

/// What a [`dedup_corpus`] pass found (and, unless dry-run, did).
#[derive(Clone, Debug, Default)]
pub struct DedupOutcome {
    /// Artifacts kept: the first file (in sorted path order) of each
    /// distinct canonical scenario digest.
    pub kept: Vec<PathBuf>,
    /// Removed duplicates, paired with the kept artifact they collided
    /// with.
    pub removed: Vec<(PathBuf, PathBuf)>,
}

/// Remove corpus artifacts whose canonical scenario digests collide —
/// the first step of the corpus lifecycle. For each digest the first
/// file in sorted path order is kept (stable across runs); later files
/// are deleted unless `dry_run`. Notes and expectations are deliberately
/// ignored: the scenario *is* the finding.
pub fn dedup_corpus(dir: &Path, dry_run: bool) -> Result<DedupOutcome, String> {
    let entries = Reproducer::load_dir(dir)?;
    let mut first: std::collections::HashMap<String, PathBuf> = Default::default();
    let mut outcome = DedupOutcome::default();
    for (path, repro) in entries {
        match first.entry(repro.scenario_digest()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(path.clone());
                outcome.kept.push(path);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if !dry_run {
                    std::fs::remove_file(&path)
                        .map_err(|err| format!("{}: {err}", path.display()))?;
                }
                outcome.removed.push((path, e.get().clone()));
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_nondet_program, GenConfig};
    use crate::sched_gen::{generate_adversary, SchedGenConfig};
    use apex_pram::Op;

    fn triple(seed: u64) -> Triple {
        let program = generate_nondet_program(&GenConfig::default(), seed);
        let schedule = generate_adversary(&SchedGenConfig::default(), program.n_threads, seed);
        Triple {
            program,
            schedule,
            seed,
        }
    }

    fn reproducer(seed: u64) -> Reproducer {
        Reproducer::new(
            SchemeKind::Nondet,
            Expectation::Clean,
            format!("test artifact seed {seed}"),
            &triple(seed),
        )
    }

    #[test]
    fn program_json_round_trips_exactly() {
        for seed in 0..20 {
            let p = generate_nondet_program(&GenConfig::default(), seed);
            let back = program_from_json(&program_to_json(&p)).unwrap();
            assert_eq!(back.steps, p.steps, "seed {seed}");
            assert_eq!(back.init, p.init);
            assert_eq!(back.name, p.name);
            assert_eq!(back.mem_size, p.mem_size);
            assert_eq!(back.n_threads, p.n_threads);
        }
    }

    #[test]
    fn op_names_round_trip() {
        for op in [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Min,
            Op::Max,
            Op::Xor,
            Op::And,
            Op::Or,
            Op::Shl,
            Op::Shr,
            Op::Lt,
            Op::Eq,
            Op::Mov,
            Op::RandBit,
            Op::RandBelow,
        ] {
            assert_eq!(op_from_name(op_name(op)).unwrap(), op);
        }
        assert!(op_from_name("nope").is_err());
    }

    #[test]
    fn reproducer_round_trips_through_text() {
        let r = reproducer(5);
        let text = r.to_json().render_pretty();
        let back = Reproducer::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.scheme(), r.scheme());
        assert_eq!(back.expected, r.expected);
        assert_eq!(back.note, r.note);
        assert_eq!(back.scenario, r.scenario);
        assert_eq!(back.triple(), r.triple());
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let mut json = reproducer(3).to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::UInt(99);
        }
        let e = Reproducer::from_json(&json).unwrap_err();
        assert!(e.msg.contains("unsupported artifact version"), "{e}");
    }

    #[test]
    fn invalid_programs_are_rejected_on_load() {
        let r = reproducer(6);
        // Corrupt the embedded program's mem_size so bounds checks fail.
        let mut json = r.to_json();
        fn corrupt(v: &mut Json) {
            if let Json::Obj(fields) = v {
                for (k, val) in fields.iter_mut() {
                    if k == "mem_size" {
                        *val = Json::UInt(1);
                    } else {
                        corrupt(val);
                    }
                }
            }
        }
        corrupt(&mut json);
        assert!(Reproducer::from_json(&json).is_err());
    }

    #[test]
    fn agreement_mode_scenarios_are_rejected_as_reproducers() {
        use apex_scenario::SourceSpec;
        let bad = Reproducer {
            expected: Expectation::Clean,
            note: String::new(),
            scenario: Scenario::agreement(8, SourceSpec::Random(10), 1, 1),
        };
        assert!(Reproducer::from_json(&bad.to_json()).is_err());
    }

    #[test]
    fn file_name_is_stable_and_note_independent() {
        let a = reproducer(7);
        let mut b = a.clone();
        b.note = "different provenance".into();
        assert_eq!(a.file_name(), b.file_name());
        assert!(a.file_name().starts_with("nondet-scheme-"));
    }

    #[test]
    fn dedup_removes_digest_collisions_and_keeps_the_first() {
        let dir =
            std::env::temp_dir().join(format!("apex-synth-dedup-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = reproducer(11);
        let b = reproducer(12);
        let a_path = a.save(&dir).unwrap();
        let b_path = b.save(&dir).unwrap();
        // A synthetic duplicate: same scenario as `a` under another name
        // (different note, hand-copied file — the digest ignores both).
        let mut dup = a.clone();
        dup.note = "copied by hand".into();
        let dup_path = dir.join("zzz-manual-copy.json");
        std::fs::write(&dup_path, dup.to_json().render_pretty()).unwrap();

        // Dry run reports but touches nothing.
        let outcome = dedup_corpus(&dir, true).unwrap();
        assert_eq!(outcome.kept.len(), 2);
        assert_eq!(outcome.removed, vec![(dup_path.clone(), a_path.clone())]);
        assert!(dup_path.exists());

        // Real run deletes the duplicate, keeps both originals.
        let outcome = dedup_corpus(&dir, false).unwrap();
        assert_eq!(outcome.removed.len(), 1);
        assert!(!dup_path.exists());
        assert!(a_path.exists() && b_path.exists());

        // Idempotent.
        let outcome = dedup_corpus(&dir, false).unwrap();
        assert!(outcome.removed.is_empty());
        assert_eq!(outcome.kept.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_check_round_trip() {
        let dir = std::env::temp_dir().join("apex-synth-test-corpus");
        let _ = std::fs::remove_dir_all(&dir);
        let r = reproducer(8);
        let path = r.save(&dir).unwrap();
        let loaded = Reproducer::load(&path).unwrap();
        assert_eq!(loaded.scenario, r.scenario);
        let entries = Reproducer::load_dir(&dir).unwrap();
        assert_eq!(entries.len(), 1);
        // The nondet scheme must verify clean, which is what this artifact
        // asserts.
        loaded.check(&Default::default()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
