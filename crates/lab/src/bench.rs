//! Throughput telemetry: the committed `BENCH_*.json` artifact.
//!
//! A [`BenchDoc`] is **telemetry, not store identity**: it carries
//! wall-clock timings, so it is ignored by drift checking and never
//! hashed into a content address. The *result* bytes of a run stay
//! engine- and timing-independent; the artifact records how fast those
//! bytes were produced. Rows accumulate across `apex suite run --bench`
//! invocations (one row per `(exec, workers, engine)` point), and the
//! committed artifact is what CI gates regressions against via
//! [`BenchDoc::gate_against`].

use std::path::Path;

use apex_scenario::{Mode, ProgramEngine, RunOpts, Scenario};
use apex_sim::{Json, JsonError};

/// A `--bench` run whose scheme-mode cells resolved to more than one
/// engine: its throughput measures no single interpreter, so it gets no
/// row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixedEngines {
    /// Cells that ran on the tree walker.
    pub tree: usize,
    /// Cells that ran on the bytecode VM.
    pub bytecode: usize,
}

impl std::fmt::Display for MixedEngines {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a bench row measures one engine, but {} cells ran on the tree walker and {} on \
             the bytecode VM; pass --engine tree|bytecode",
            self.tree, self.bytecode
        )
    }
}

impl std::error::Error for MixedEngines {}

/// The engine a bench row measured: the one engine every scheme-mode
/// scenario in `cells` resolved to under `opts`
/// ([`ProgramEngine::resolve`]). Agreement-mode cells run no interpreter
/// and are not counted; a run with no scheme-mode cell is labelled with
/// what the rule gives an unset knob.
pub fn bench_engine<'a>(
    cells: impl IntoIterator<Item = &'a Scenario>,
    opts: &RunOpts,
) -> Result<ProgramEngine, MixedEngines> {
    let (mut tree, mut bytecode) = (0, 0);
    for scenario in cells {
        if matches!(scenario.mode, Mode::Scheme { .. }) {
            match ProgramEngine::resolve(opts.engine, scenario.engine.program_engine) {
                ProgramEngine::Tree => tree += 1,
                ProgramEngine::Bytecode => bytecode += 1,
            }
        }
    }
    match (tree, bytecode) {
        (0, 0) => Ok(ProgramEngine::resolve(opts.engine, None)),
        (_, 0) => Ok(ProgramEngine::Tree),
        (0, _) => Ok(ProgramEngine::Bytecode),
        _ => Err(MixedEngines { tree, bytecode }),
    }
}

/// One measured point of a [`BenchDoc`]: how fast one
/// `(exec, workers, engine)` configuration pushed the suite's ticks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRun {
    /// Execution label; every run executes cells serially, so fresh rows
    /// say `serial` (kept in the key so committed artifacts stay
    /// byte-stable).
    pub exec: String,
    /// Worker count within one run (1: a run is single-threaded).
    pub workers: u64,
    /// Scheme-interpreter engine label: `tree` or `bytecode`.
    pub engine: String,
    /// Logical cores available on the measuring host (0 when unknown) —
    /// machine context for reading cross-host artifacts, never part of
    /// the row key or the gate.
    pub host_cores: u64,
    /// Cells executed for this measurement.
    pub cells: u64,
    /// Total machine ticks executed.
    pub ticks: u64,
    /// Wall-clock milliseconds.
    pub elapsed_ms: u64,
    /// Throughput in ticks per second.
    pub ticks_per_sec: u64,
}

impl BenchRun {
    /// The row's identity within a [`BenchDoc`].
    fn key(&self) -> (&str, u64, &str) {
        (self.exec.as_str(), self.workers, self.engine.as_str())
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("exec".into(), Json::Str(self.exec.clone())),
            ("workers".into(), Json::UInt(self.workers)),
            ("engine".into(), Json::Str(self.engine.clone())),
            ("host_cores".into(), Json::UInt(self.host_cores)),
            ("cells".into(), Json::UInt(self.cells)),
            ("ticks".into(), Json::UInt(self.ticks)),
            ("elapsed_ms".into(), Json::UInt(self.elapsed_ms)),
            ("ticks_per_sec".into(), Json::UInt(self.ticks_per_sec)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(BenchRun {
            exec: v.get("exec")?.as_str()?.to_string(),
            workers: v.get("workers")?.as_u64()?,
            // Pre-engine artifacts measured the tree walker on an
            // unrecorded host; default both fields accordingly.
            engine: match v.get_opt("engine") {
                None | Some(Json::Null) => "tree".to_string(),
                Some(e) => e.as_str()?.to_string(),
            },
            host_cores: match v.get_opt("host_cores") {
                None | Some(Json::Null) => 0,
                Some(x) => x.as_u64()?,
            },
            cells: v.get("cells")?.as_u64()?,
            ticks: v.get("ticks")?.as_u64()?,
            elapsed_ms: v.get("elapsed_ms")?.as_u64()?,
            ticks_per_sec: v.get("ticks_per_sec")?.as_u64()?,
        })
    }
}

/// A suite's scaling measurements, keyed by `(exec, workers, engine)` —
/// the committed `BENCH_*.json` artifact and the CI regression baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchDoc {
    /// Suite name.
    pub suite: String,
    /// Digest of the canonical suite document the measurements ran.
    pub digest: String,
    /// Measurements, sorted by `(exec, workers, engine)` for a canonical
    /// form.
    pub runs: Vec<BenchRun>,
}

impl BenchDoc {
    /// An empty artifact for one suite.
    pub fn new(suite: impl Into<String>, digest: impl Into<String>) -> Self {
        BenchDoc {
            suite: suite.into(),
            digest: digest.into(),
            runs: Vec::new(),
        }
    }

    /// Insert or replace the measurement for `run`'s
    /// `(exec, workers, engine)` key, keeping the run list sorted.
    pub fn upsert(&mut self, run: BenchRun) {
        self.runs.retain(|r| r.key() != run.key());
        self.runs.push(run);
        self.runs
            .sort_by(|a, b| (&a.exec, a.workers, &a.engine).cmp(&(&b.exec, b.workers, &b.engine)));
    }

    /// The measurement at one `(exec, workers, engine)` key.
    pub fn run(&self, exec: &str, workers: u64, engine: &str) -> Option<&BenchRun> {
        self.runs
            .iter()
            .find(|r| r.key() == (exec, workers, engine))
    }

    /// The bytecode-over-tree interpreter speedup at one
    /// `(exec, workers)` point, when the artifact holds both engine rows
    /// (what the program-compile acceptance gate reads).
    pub fn engine_speedup(&self, exec: &str, workers: u64) -> Option<f64> {
        let tree = self.run(exec, workers, "tree")?;
        let bytecode = self.run(exec, workers, "bytecode")?;
        (tree.ticks_per_sec > 0).then(|| bytecode.ticks_per_sec as f64 / tree.ticks_per_sec as f64)
    }

    /// Gate this (fresh) artifact against a committed `baseline`: every
    /// `(exec, workers)` key present in both must be within `tolerance`
    /// of the baseline throughput (`fresh >= baseline * (1 - tolerance)`).
    /// Keys only one side measured are ignored — machines differ; the
    /// gate is about regressions on comparable points.
    pub fn gate_against(&self, baseline: &BenchDoc, tolerance: f64) -> Result<(), String> {
        let mut failures = Vec::new();
        for fresh in &self.runs {
            let Some(base) = baseline.run(&fresh.exec, fresh.workers, &fresh.engine) else {
                continue;
            };
            let floor = base.ticks_per_sec as f64 * (1.0 - tolerance);
            if (fresh.ticks_per_sec as f64) < floor {
                failures.push(format!(
                    "{} (workers {}, engine {}): {} ticks/s < floor {:.0} (baseline {} - {:.0}% \
                     tolerance)",
                    fresh.exec,
                    fresh.workers,
                    fresh.engine,
                    fresh.ticks_per_sec,
                    floor,
                    base.ticks_per_sec,
                    tolerance * 100.0
                ));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(format!("bench gate failed:\n  {}", failures.join("\n  ")))
        }
    }

    /// Serialize (canonical field order, runs sorted by key).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("suite".into(), Json::Str(self.suite.clone())),
            ("digest".into(), Json::Str(self.digest.clone())),
            (
                "runs".into(),
                Json::Arr(self.runs.iter().map(BenchRun::to_json).collect()),
            ),
        ])
    }

    /// Deserialize a bench artifact.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(BenchDoc {
            suite: v.get("suite")?.as_str()?.to_string(),
            digest: v.get("digest")?.as_str()?.to_string(),
            runs: v
                .get("runs")?
                .as_arr()?
                .iter()
                .map(BenchRun::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Parse a complete artifact.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// The canonical pretty-printed artifact.
    pub fn render_pretty(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Write the artifact to `path` atomically.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        apex_scenario::atomic_write(path, &self.render_pretty())
    }

    /// Load `path` if it exists, else an empty artifact for
    /// `(suite, digest)`. A present file naming a *different* suite
    /// digest is an error — measurements of two different suites must
    /// not be merged into one artifact.
    pub fn load_or_new(path: &Path, suite: &str, digest: &str) -> Result<Self, String> {
        if !path.exists() {
            return Ok(Self::new(suite, digest));
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.digest != digest {
            return Err(format!(
                "{}: artifact measures suite {} but this run is suite {digest}",
                path.display(),
                doc.digest
            ));
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(exec: &str, workers: u64, ticks_per_sec: u64) -> BenchRun {
        engine_measured(exec, workers, "tree", ticks_per_sec)
    }

    fn engine_measured(exec: &str, workers: u64, engine: &str, ticks_per_sec: u64) -> BenchRun {
        BenchRun {
            exec: exec.into(),
            workers,
            engine: engine.into(),
            host_cores: 8,
            cells: 4,
            ticks: ticks_per_sec,
            elapsed_ms: 1000,
            ticks_per_sec,
        }
    }

    #[test]
    fn bench_doc_upserts_by_key_and_round_trips() {
        let mut doc = BenchDoc::new("bench-program", "feedfacefeedface");
        doc.upsert(measured("serial", 4, 100));
        doc.upsert(measured("serial", 1, 50));
        doc.upsert(measured("serial", 4, 120)); // replaces, not appends
        assert_eq!(doc.runs.len(), 2);
        assert_eq!(doc.runs[0].workers, 1); // sorted by key
        assert_eq!(doc.run("serial", 4, "tree").unwrap().ticks_per_sec, 120);
        let back = BenchDoc::parse(&doc.render_pretty()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn engine_rows_key_separately_and_legacy_artifacts_parse() {
        let mut doc = BenchDoc::new("bench-program", "feedfacefeedface");
        doc.upsert(engine_measured("serial", 1, "tree", 100));
        doc.upsert(engine_measured("serial", 1, "bytecode", 250));
        // Same (exec, workers), different engine — two distinct rows.
        assert_eq!(doc.runs.len(), 2);
        assert_eq!(doc.runs[0].engine, "bytecode"); // sorted within key
        assert_eq!(doc.engine_speedup("serial", 1), Some(2.5));
        let back = BenchDoc::parse(&doc.render_pretty()).unwrap();
        assert_eq!(back, doc);

        // Rows written before the engine fields existed parse as tree
        // measurements on an unrecorded host.
        let legacy = r#"{"suite":"b","digest":"d","runs":[{"exec":"serial",
            "workers":1,"cells":2,"ticks":10,"elapsed_ms":1,"ticks_per_sec":10000}]}"#;
        let doc = BenchDoc::parse(legacy).unwrap();
        assert_eq!(doc.runs[0].engine, "tree");
        assert_eq!(doc.runs[0].host_cores, 0);
        assert!(doc.run("serial", 1, "tree").is_some());
    }

    #[test]
    fn bench_rows_are_labelled_with_the_engine_the_cells_resolved_to() {
        use apex_scenario::{ProgramSource, SourceSpec};
        use apex_scheme::SchemeKind;
        let plain = Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("coin-sum", 8, vec![32]),
            1,
        );
        let tree = plain.clone().program_engine(ProgramEngine::Tree);
        let agreement = Scenario::agreement(8, SourceSpec::Random(100), 1, 1)
            .program_engine(ProgramEngine::Tree);
        let over = |engine| RunOpts {
            engine: Some(engine),
            ..RunOpts::default()
        };
        let none = RunOpts::default();
        // Unset knobs run the default, and the row says so.
        assert_eq!(
            bench_engine([&plain, &plain], &none),
            Ok(ProgramEngine::Bytecode)
        );
        // A knob labels the row with the engine it selected …
        assert_eq!(bench_engine([&tree], &none), Ok(ProgramEngine::Tree));
        // … cells resolving to two engines are a typed error, not a guess …
        assert_eq!(
            bench_engine([&plain, &tree, &tree], &none),
            Err(MixedEngines {
                tree: 2,
                bytecode: 1
            })
        );
        // … which an override resolves.
        assert_eq!(
            bench_engine([&plain, &tree], &over(ProgramEngine::Tree)),
            Ok(ProgramEngine::Tree)
        );
        // Agreement cells run no interpreter and never count.
        assert_eq!(
            bench_engine([&plain, &agreement], &none),
            Ok(ProgramEngine::Bytecode)
        );
        assert_eq!(
            bench_engine([&agreement], &none),
            Ok(ProgramEngine::Bytecode)
        );
        assert_eq!(
            bench_engine([&agreement], &over(ProgramEngine::Tree)),
            Ok(ProgramEngine::Tree)
        );
    }

    #[test]
    fn gate_flags_regressions_within_tolerance() {
        let mut baseline = BenchDoc::new("b", "d");
        baseline.upsert(engine_measured("serial", 1, "tree", 1000));
        baseline.upsert(engine_measured("serial", 1, "bytecode", 4000));

        let mut fresh = BenchDoc::new("b", "d");
        fresh.upsert(engine_measured("serial", 1, "tree", 900));
        fresh.upsert(engine_measured("serial", 1, "bytecode", 2300));
        fresh.upsert(measured("serial", 8, 1)); // no baseline key — ignored
                                                // tree within 40%, bytecode is not (2300 < 4000 * 0.6).
        let err = fresh.gate_against(&baseline, 0.4).unwrap_err();
        assert!(err.contains("engine bytecode"), "{err}");
        assert!(!err.contains("engine tree"), "{err}");
        // A looser gate passes.
        fresh.gate_against(&baseline, 0.5).unwrap();
    }

    #[test]
    fn load_or_new_rejects_cross_suite_merges() {
        let dir = std::env::temp_dir().join(format!("apex-bench-doc-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_test.json");
        let mut doc = BenchDoc::new("b", "aaaaaaaaaaaaaaaa");
        doc.upsert(measured("serial", 1, 10));
        doc.save(&path).unwrap();
        let loaded = BenchDoc::load_or_new(&path, "b", "aaaaaaaaaaaaaaaa").unwrap();
        assert_eq!(loaded, doc);
        assert!(BenchDoc::load_or_new(&path, "b", "bbbbbbbbbbbbbbbb").is_err());
        let fresh = BenchDoc::load_or_new(&dir.join("absent.json"), "b", "cc").unwrap();
        assert!(fresh.runs.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
