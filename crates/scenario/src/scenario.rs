//! The [`Scenario`] type: one declarative, serializable run description.

use std::path::Path;
use std::rc::Rc;

use apex_core::{
    AgreementConfig, AgreementRun, CoinSource, InstrumentOpts, KeyedSource, RandomSource,
    ValueSource,
};
use apex_obs::Obs;
use apex_pram::{Program, VarBlock};
use apex_scheme::tasks::eval_cost;
use apex_scheme::{ReplicaK, SchemeKind, SchemeRun, SchemeRunConfig};
use apex_sim::{
    AdversarySpec, Json, JsonDoc, JsonError, JsonVal, JsonWriter, ScheduleKind, WriteJson,
};

use crate::program::{scheme_from_label, ProgramFacts, ProgramMemo, ProgramSource};
use crate::report::{AgreementRunReport, ScenarioReport};
use crate::Doc;

/// Major version of the scenario JSON format. Readers reject documents
/// whose `version.major` differs; `version.minor` only marks additive,
/// ignorable extensions.
pub const FORMAT_MAJOR: u64 = 1;
/// Minor version of the scenario JSON format (see [`FORMAT_MAJOR`]).
///
/// Deliberately *not* bumped for the adversary algebra: digests are FNV
/// over the canonical document, so changing the version stanza would
/// re-address every store record and corpus artifact. The version is a
/// compatibility gate (readers reject major mismatches), not a
/// changelog; a pre-algebra reader meeting a combinator schedule fails
/// with a clear "unknown schedule kind" parse error.
pub const FORMAT_MINOR: u64 = 0;

/// Largest machine size [`Scenario::validate`] accepts. Assembly
/// allocates per-processor state up front, so a larger `n` is rejected
/// before any program is resolved (E8's full-scale point is n = 2048).
pub const MAX_N: usize = 1 << 16;

/// Largest replica factor K [`Scenario::validate`] accepts. Assembly
/// lays out K replicas of every program variable, so an unbounded K
/// would abort on allocation (E11 sweeps K = 1–3).
pub const MAX_REPLICAS: usize = 64;

/// Largest engine batch [`Scenario::validate`] accepts: the machine
/// allocates its schedule-prefetch queue up front (the default is 256).
pub const MAX_BATCH: usize = 1 << 16;

/// Most agreement phases [`Scenario::validate`] accepts: the run collects
/// one outcome per phase up front, so an unbounded count would abort on
/// allocation (the committed suites run 1–2, the experiments 3–4).
pub const MAX_PHASES: usize = 1 << 16;

/// Why a scenario is ill-formed (from [`Scenario::validate`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// Thread-safe, serializable recipe for a [`ValueSource`] (the sources
/// themselves are `Rc`-shared and must be constructed on the running
/// thread).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceSpec {
    /// `RandomSource::new(bound)`.
    Random(u64),
    /// `CoinSource::new(num, den)`.
    Coin(u64, u64),
    /// `KeyedSource` (deterministic per (phase, bin)).
    Keyed,
}

impl SourceSpec {
    /// Check the recipe's parameters satisfy the sources' own
    /// preconditions (what [`SourceSpec::build`] would otherwise assert).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match *self {
            SourceSpec::Random(0) => Err(ScenarioError("random source bound must be ≥ 1".into())),
            SourceSpec::Coin(num, den) if den == 0 || num > den => Err(ScenarioError(format!(
                "coin source needs num ≤ den and den ≥ 1, got {num}/{den}"
            ))),
            _ => Ok(()),
        }
    }

    /// Instantiate on the current thread.
    pub fn build(&self) -> Rc<dyn ValueSource> {
        match *self {
            SourceSpec::Random(bound) => Rc::new(RandomSource::new(bound)),
            SourceSpec::Coin(num, den) => Rc::new(CoinSource::new(num, den)),
            SourceSpec::Keyed => Rc::new(KeyedSource),
        }
    }

    fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        match v.get("kind")?.as_str()? {
            "random" => Ok(SourceSpec::Random(v.get("bound")?.as_u64()?)),
            "coin" => Ok(SourceSpec::Coin(
                v.get("num")?.as_u64()?,
                v.get("den")?.as_u64()?,
            )),
            "keyed" => Ok(SourceSpec::Keyed),
            other => Err(jerr(format!("unknown source kind {other:?}"))),
        }
    }
}

impl WriteJson for SourceSpec {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| match *self {
            SourceSpec::Random(bound) => {
                w.field("kind", "random");
                w.field("bound", bound);
            }
            SourceSpec::Coin(num, den) => {
                w.field("kind", "coin");
                w.field("num", num);
                w.field("den", den);
            }
            SourceSpec::Keyed => w.field("kind", "keyed"),
        });
    }
}

/// Interpreter engine for scheme-mode program execution.
///
/// Both engines perform the identical sequence of atomic operations and
/// RNG draws per processor per tick, so schedules, work accounting, memory
/// stamps, and reports are byte-for-byte the same — this is a pure
/// throughput choice. A run resolves its engine in one place,
/// [`ProgramEngine::resolve`]: the [`RunOpts::engine`] override, then the scenario's
/// [`EngineKnobs::program_engine`] knob, then [`ProgramEngine::Bytecode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramEngine {
    /// The tree-walking scheme processors (`apex-scheme`): the reference
    /// semantics and the oracle the bytecode engine is diffed against.
    /// Runs only when named (`--engine tree` or the scenario knob).
    Tree,
    /// The flat bytecode compiler + VM (`apex-bc`): the program is lowered
    /// once at assembly time into a contiguous slot table with
    /// pre-resolved addresses and stamps, then executed by a flat VM. The
    /// engine of every run that names none.
    Bytecode,
}

impl ProgramEngine {
    /// Stable lower-case label (serialization, report rows, CLI values).
    pub fn label(self) -> &'static str {
        match self {
            ProgramEngine::Tree => "tree",
            ProgramEngine::Bytecode => "bytecode",
        }
    }

    /// The engine a scheme-mode run uses: the `over`ride
    /// ([`RunOpts::engine`]), then the scenario's `knob`
    /// ([`EngineKnobs::program_engine`]), then the bytecode VM.
    pub fn resolve(over: Option<ProgramEngine>, knob: Option<ProgramEngine>) -> Self {
        over.or(knob).unwrap_or(ProgramEngine::Bytecode)
    }

    /// Parse a [`ProgramEngine::label`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tree" => Some(ProgramEngine::Tree),
            "bytecode" => Some(ProgramEngine::Bytecode),
            _ => None,
        }
    }

    fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        let s = v.as_str()?;
        Self::parse(s).ok_or_else(|| jerr(format!("unknown program engine {s:?}")))
    }
}

/// Compares an [`EngineKnobs::program_engine`] knob with an engine: equal
/// only when the knob names that engine. An unset knob equals neither,
/// even though it runs the bytecode VM ([`ProgramEngine::resolve`]).
/// Kept only for perfbench's traced assembly, which compares the knob
/// with a bare engine; it goes when that comparison resolves the knob.
impl PartialEq<ProgramEngine> for Option<ProgramEngine> {
    fn eq(&self, other: &ProgramEngine) -> bool {
        *self == Some(*other)
    }
}

impl std::fmt::Display for ProgramEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Engine knobs: how the machine executes, never what it computes
/// (batching is tick-transparent; the tick budget only moves the
/// stall-detection bar).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineKnobs {
    /// Scheduler prefetch batch size (`None` keeps the machine default).
    pub batch: Option<usize>,
    /// Per-subphase (scheme mode) / per-phase (agreement mode) stall
    /// budget in work units (`None` derives a generous default).
    pub tick_budget: Option<u64>,
    /// Interpreter engine for scheme-mode scenarios (tree walker or
    /// bytecode VM; see [`ProgramEngine`]). `None` leaves the choice to
    /// the run ([`ProgramEngine::resolve`]). Agreement mode ignores this
    /// knob. Reports are byte-identical across engines.
    pub program_engine: Option<ProgramEngine>,
}

impl WriteJson for EngineKnobs {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.field("batch", self.batch);
            w.field("tick_budget", self.tick_budget);
            // Omitted when unset so every pre-existing document — and
            // with it every content digest in every store — is byte-for-
            // byte unchanged.
            if let Some(engine) = self.program_engine {
                w.field("program_engine", engine.label());
            }
        });
    }
}

impl EngineKnobs {
    fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        let opt = |key: &str| -> Result<Option<u64>, JsonError> {
            v.get_opt(key)
                .and_then(JsonVal::non_null)
                .map(JsonVal::as_u64)
                .transpose()
        };
        Ok(EngineKnobs {
            batch: opt("batch")?
                .map(|b| {
                    usize::try_from(b).map_err(|_| jerr(format!("batch {b} does not fit usize")))
                })
                .transpose()?,
            tick_budget: opt("tick_budget")?,
            program_engine: v
                .get_opt("program_engine")
                .and_then(JsonVal::non_null)
                .map(ProgramEngine::decode)
                .transpose()?,
        })
    }
}

/// What a scenario runs: a PRAM program through an execution scheme, or
/// the raw bin-array agreement protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Mode {
    /// Execute a synchronous PRAM program through an execution scheme and
    /// verify it against the ideal replay.
    Scheme {
        /// Execution scheme.
        scheme: SchemeKind,
        /// Workload.
        program: ProgramSource,
        /// Variable replication factor K.
        replicas: ReplicaK,
    },
    /// Run `phases` phases of the agreement protocol itself, with the
    /// Theorem-1 validators watching.
    Agreement {
        /// Participants / values per phase.
        n: usize,
        /// Value-source recipe.
        source: SourceSpec,
        /// Phases to run.
        phases: usize,
        /// Instrumentation switches.
        instrument: InstrumentOpts,
    },
}

impl WriteJson for Mode {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| match self {
            Mode::Scheme {
                scheme,
                program,
                replicas,
            } => {
                w.field("kind", "scheme");
                w.field("scheme", scheme.label());
                w.field("replicas", replicas.0);
                w.field("program", program);
            }
            Mode::Agreement {
                n,
                source,
                phases,
                instrument,
            } => {
                w.field("kind", "agreement");
                w.field("n", n);
                w.field("phases", phases);
                w.field("source", source);
                w.key("instrument");
                w.obj(|w| {
                    w.field("record_events", instrument.record_events);
                    w.field("count_clobbers", instrument.count_clobbers);
                });
            }
        });
    }
}

/// How one execution runs — never what it computes. Every field is a
/// runtime choice that leaves the scenario document (and so its digest)
/// untouched and every report byte identical; [`RunOpts::default`] is
/// exactly [`Scenario::run`].
#[derive(Clone, Debug, Default)]
pub struct RunOpts {
    /// Interpreter-engine override for scheme-mode scenarios: `None` runs
    /// the scenario's own [`EngineKnobs::program_engine`] knob, or the
    /// bytecode VM when the scenario names none
    /// ([`ProgramEngine::resolve`]).
    pub engine: Option<ProgramEngine>,
    /// Trace sink. When enabled, scheme and agreement runs emit
    /// `engine`-scope block events (labelled with the adversary's
    /// self-description, so traces attribute ticks per adversary
    /// combinator), and a scheme run on the bytecode engine emits one
    /// `compile`-scope event with the lowering pass's sizing counters.
    pub obs: Obs,
}

/// One fully-described run: everything the paper's claim is parameterized
/// over — workload, scheme, oblivious adversary, seed, constants — in one
/// declarative, JSON-serializable value.
///
/// A `Scenario` is the workspace's single entry point: benchmarks, the
/// fuzzer's reproducers, the examples, and hand-written experiments all
/// name their runs this way, so any run anyone constructs is a shareable
/// JSON file that reproduces bit-for-bit (`apex run scenario.json`).
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// What runs.
    pub mode: Mode,
    /// The oblivious adversary: any tree of the composable adversary
    /// algebra (legacy [`ScheduleKind`]s are the [`AdversarySpec::Base`]
    /// leaves and serialize to the same bytes they always did).
    pub schedule: AdversarySpec,
    /// Master seed (private random sources + schedule streams).
    pub seed: u64,
    /// Override the protocol constants (`None` derives them from the mode).
    pub agreement: Option<AgreementConfig>,
    /// Engine knobs.
    pub engine: EngineKnobs,
}

impl WriteJson for Scenario {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        w.obj(|w| {
            w.key("version");
            w.obj(|w| {
                w.field("major", FORMAT_MAJOR);
                w.field("minor", FORMAT_MINOR);
            });
            w.field("seed", self.seed);
            w.field("mode", &self.mode);
            w.field("schedule", &self.schedule);
            w.field("agreement", self.agreement.as_ref().map(Doc));
            w.field("engine", self.engine);
        });
    }
}

impl Scenario {
    /// A scheme-mode scenario with the harness defaults (uniform
    /// adversary, K = 2, derived constants).
    pub fn scheme(scheme: SchemeKind, program: ProgramSource, seed: u64) -> Self {
        Scenario {
            mode: Mode::Scheme {
                scheme,
                program,
                replicas: ReplicaK::default(),
            },
            schedule: AdversarySpec::Base(ScheduleKind::Uniform),
            seed,
            agreement: None,
            engine: EngineKnobs::default(),
        }
    }

    /// An agreement-mode scenario with the harness defaults.
    pub fn agreement(n: usize, source: SourceSpec, phases: usize, seed: u64) -> Self {
        Scenario {
            mode: Mode::Agreement {
                n,
                source,
                phases,
                instrument: InstrumentOpts::default(),
            },
            schedule: AdversarySpec::Base(ScheduleKind::Uniform),
            seed,
            agreement: None,
            engine: EngineKnobs::default(),
        }
    }

    /// Set the adversary (accepts a legacy [`ScheduleKind`] or any
    /// [`AdversarySpec`] composition).
    pub fn schedule(mut self, s: impl Into<AdversarySpec>) -> Self {
        self.schedule = s.into();
        self
    }

    /// Set the replication factor (scheme mode only; no-op otherwise).
    pub fn replicas(mut self, k: usize) -> Self {
        if let Mode::Scheme { replicas, .. } = &mut self.mode {
            *replicas = ReplicaK(k);
        }
        self
    }

    /// Set the instrumentation switches (agreement mode only; no-op
    /// otherwise).
    pub fn instrument(mut self, opts: InstrumentOpts) -> Self {
        if let Mode::Agreement { instrument, .. } = &mut self.mode {
            *instrument = opts;
        }
        self
    }

    /// Override the protocol constants.
    pub fn agreement_config(mut self, cfg: AgreementConfig) -> Self {
        self.agreement = Some(cfg);
        self
    }

    /// Set the engine batch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.engine.batch = Some(batch);
        self
    }

    /// Set the stall budget.
    pub fn tick_budget(mut self, budget: u64) -> Self {
        self.engine.tick_budget = Some(budget);
        self
    }

    /// Set the interpreter engine (scheme mode; agreement mode carries
    /// the knob but ignores it).
    pub fn program_engine(mut self, engine: ProgramEngine) -> Self {
        self.engine.program_engine = Some(engine);
        self
    }

    /// Processor count of the described machine.
    pub fn n(&self) -> usize {
        match &self.mode {
            Mode::Scheme { program, .. } => program.n_threads(),
            Mode::Agreement { n, .. } => *n,
        }
    }

    /// Content digest of the canonical compact scenario document: 16 hex
    /// digits of FNV-1a over its compact rendering, hashed as the
    /// serializer writes it ([`WriteJson::fnv1a64`]), no tree built. Two
    /// scenarios share a digest iff they serialize identically, so the
    /// digest is the scenario's *content address* — the lab store keys
    /// every [`ReportRecord`](crate::ReportRecord) by it, and corpus dedup
    /// treats a collision as a duplicate reproducer.
    pub fn digest(&self) -> String {
        format!("{:016x}", self.fnv1a64())
    }

    /// The named input/output [`VarBlock`]s of a scheme-mode scenario
    /// whose program source declares them (library entries do; explicit
    /// programs and agreement-mode scenarios return `None`).
    pub fn io_blocks(&self) -> Option<(VarBlock, VarBlock)> {
        match &self.mode {
            Mode::Scheme { program, .. } => program.resolve_io().ok().flatten(),
            Mode::Agreement { .. } => None,
        }
    }

    /// Check the scenario names a well-formed point of the run space —
    /// resolvable program, in-range schedule and source parameters,
    /// compatible constants — *before* any machine is assembled.
    /// [`Scenario::run`] calls this and panics on failure; untrusted
    /// inputs (files, CLI) should validate first and surface the error.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.validate_resolving(ProgramSource::resolve).map(|_| ())
    }

    /// [`Scenario::validate`] with the program resolved through `memo`,
    /// so a batch of scenarios over a few programs builds each once.
    /// Returns what [`Scenario::io_blocks`] would, from the same build.
    pub fn validate_in<'s>(
        &'s self,
        memo: &mut ProgramMemo<'s>,
    ) -> Result<Option<(VarBlock, VarBlock)>, ScenarioError> {
        let facts = self.validate_resolving(|source| memo.resolve(source))?;
        Ok(facts.and_then(|f| f.io))
    }

    /// [`Scenario::validate`] with the program of a scheme-mode scenario
    /// resolved by `resolve`, which it returns — so `build_scheme`
    /// resolves exactly once.
    fn validate_resolving<'s, P: ProgramShape>(
        &'s self,
        resolve: impl FnOnce(&'s ProgramSource) -> Result<P, ScenarioError>,
    ) -> Result<Option<P>, ScenarioError> {
        let fail = |msg: String| Err(ScenarioError(msg));
        match self.engine.batch {
            Some(0) => return fail("engine batch must be ≥ 1".into()),
            Some(b) if b > MAX_BATCH => {
                return fail(format!("engine batch {b} exceeds the cap of {MAX_BATCH}"))
            }
            _ => {}
        }
        if self.n() > MAX_N {
            return fail(format!(
                "machine size n={} exceeds the cap of {MAX_N}",
                self.n()
            ));
        }
        let resolved = match &self.mode {
            Mode::Scheme {
                program, replicas, ..
            } => {
                if replicas.0 < 1 {
                    return fail("replica factor K must be ≥ 1".into());
                }
                if replicas.0 > MAX_REPLICAS {
                    return fail(format!(
                        "replica factor K={} exceeds the cap of {MAX_REPLICAS}",
                        replicas.0
                    ));
                }
                let p = resolve(program)?;
                let (name, n_steps, n_threads) = p.shape();
                if n_steps < 1 {
                    return fail(format!("program {name:?} has no steps"));
                }
                if n_threads < 2 {
                    return fail(format!(
                        "program {name:?} has {n_threads} threads; the agreement layout needs ≥ 2"
                    ));
                }
                if let Some(cfg) = &self.agreement {
                    if cfg.n != n_threads {
                        return fail(format!(
                            "agreement constants sized for n={}, program has {n_threads} threads",
                            cfg.n
                        ));
                    }
                    if cfg.eval_cost < eval_cost(replicas.0) {
                        return fail(format!(
                            "eval budget {} too small for K={} (needs ≥ {})",
                            cfg.eval_cost,
                            replicas.0,
                            eval_cost(replicas.0)
                        ));
                    }
                }
                Some(p)
            }
            Mode::Agreement {
                n, source, phases, ..
            } => {
                if *n < 2 {
                    return fail(format!("agreement needs ≥ 2 participants, got {n}"));
                }
                if *phases < 1 {
                    return fail("agreement scenario must run ≥ 1 phase".into());
                }
                if *phases > MAX_PHASES {
                    return fail(format!(
                        "agreement phases {phases} exceeds the cap of {MAX_PHASES}"
                    ));
                }
                source.validate()?;
                if let Some(cfg) = &self.agreement {
                    if cfg.n != *n {
                        return fail(format!(
                            "agreement constants sized for n={}, scenario has n={n}",
                            cfg.n
                        ));
                    }
                    // Safe now: the parameters passed `source.validate()`.
                    let cost = source.build().max_cost();
                    if cost > cfg.eval_cost {
                        return fail(format!(
                            "source cost {cost} exceeds configured eval budget {}",
                            cfg.eval_cost
                        ));
                    }
                }
                None
            }
        };
        self.validate_schedule()?;
        Ok(resolved)
    }

    fn validate_schedule(&self) -> Result<(), ScenarioError> {
        // Per-family parameter ranges, partition coverage, factor-vector
        // sizes, scripted-n matching — all delegated to the algebra
        // ([`AdversarySpec::validate`]), which checks every leaf of a
        // composition against the machine size it will drive.
        self.schedule.validate(self.n()).map_err(ScenarioError)
    }

    /// Assemble the scheme-mode run without executing it (the layered
    /// entry point the trial runner's recipes use), on the engine
    /// [`ProgramEngine::resolve`] gives with no override.
    ///
    /// # Panics
    /// If the scenario is invalid or not scheme-mode.
    pub fn build_scheme(&self) -> SchemeRun {
        self.assemble_scheme(&RunOpts::default()).0
    }

    /// [`Scenario::build_scheme`] on the engine [`ProgramEngine::resolve`]
    /// gives `opts.engine` and the knob, with the bytecode lowering pass
    /// reporting its sizing counters ([`apex_bc::CompileStats`]) to
    /// `opts.obs`. Also returns what [`Scenario::io_blocks`] would, from
    /// the same program build.
    fn assemble_scheme(&self, opts: &RunOpts) -> (SchemeRun, Option<(VarBlock, VarBlock)>) {
        let (program, io) = match self.validate_resolving(ProgramSource::resolve_with_io) {
            Ok(Some(p)) => p,
            Ok(None) => panic!("scenario is not scheme-mode"),
            Err(e) => panic!("invalid scenario: {e}"),
        };
        let Mode::Scheme {
            scheme, replicas, ..
        } = &self.mode
        else {
            unreachable!("validate_resolving returned a program");
        };
        let mut cfg = SchemeRunConfig::new(*scheme, self.seed).schedule(self.schedule.clone());
        cfg.k = *replicas;
        cfg.agreement = self.agreement;
        cfg.batch = self.engine.batch;
        cfg.tick_budget = self.engine.tick_budget;
        let run = match ProgramEngine::resolve(opts.engine, self.engine.program_engine) {
            ProgramEngine::Tree => SchemeRun::new(program, cfg),
            ProgramEngine::Bytecode => SchemeRun::new_with_factory(program, cfg, |parts| {
                let compiled = Rc::new(apex_bc::compile(parts));
                let obs = &opts.obs;
                if obs.enabled() {
                    let s = compiled.stats();
                    obs.emit(
                        "compile",
                        "lower",
                        0,
                        &parts.program.name,
                        &[
                            ("steps", s.steps),
                            ("threads", s.threads),
                            ("slots", s.slots),
                            ("live_slots", s.live_slots),
                        ],
                    );
                }
                apex_bc::factory_of(compiled, parts)
            }),
        };
        (run, io)
    }

    /// Assemble the agreement-mode run without executing it.
    ///
    /// # Panics
    /// If the scenario is invalid or not agreement-mode.
    pub fn build_agreement(&self) -> AgreementRun {
        if let Err(e) = self.validate() {
            panic!("invalid scenario: {e}");
        }
        let Mode::Agreement {
            n,
            source,
            instrument,
            ..
        } = &self.mode
        else {
            panic!("scenario is not agreement-mode");
        };
        let source = source.build();
        let cfg = self
            .agreement
            .unwrap_or_else(|| AgreementConfig::for_n(*n, source.max_cost()));
        let mut run = AgreementRun::with_schedule_batched(
            cfg,
            self.seed,
            self.schedule.build(cfg.n, self.seed),
            source,
            *instrument,
            self.engine.batch,
        );
        run.stall_budget = self.engine.tick_budget;
        run
    }

    /// Validate, assemble, and execute the scenario.
    ///
    /// ```
    /// use apex_scenario::{ProgramSource, Scenario};
    /// use apex_scheme::SchemeKind;
    ///
    /// // Run a randomized program on 8 asynchronous processors.
    /// let report = Scenario::scheme(
    ///     SchemeKind::Nondet,
    ///     ProgramSource::library("coin-sum", 8, vec![32]),
    ///     1,
    /// )
    /// .run();
    /// assert!(report.ok());
    /// ```
    ///
    /// # Panics
    /// If [`Scenario::validate`] fails (validate first when the scenario
    /// comes from an untrusted file) or the run trips a stall budget.
    pub fn run(&self) -> ScenarioReport {
        self.run_opts(&RunOpts::default())
    }

    /// [`Scenario::run`] under runtime [`RunOpts`]: an interpreter-engine
    /// override and a trace sink. Neither touches the scenario document
    /// (so its digest) nor a byte of the report — reports are
    /// engine-independent, and telemetry only observes.
    ///
    /// # Panics
    /// As [`Scenario::run`].
    pub fn run_opts(&self, opts: &RunOpts) -> ScenarioReport {
        self.run_with_io(opts).0
    }

    /// [`Scenario::run_opts`], also returning what
    /// [`Scenario::io_blocks`] would, from the program build the run
    /// used (so a record needs no second build).
    pub(crate) fn run_with_io(
        &self,
        opts: &RunOpts,
    ) -> (ScenarioReport, Option<(VarBlock, VarBlock)>) {
        let obs = &opts.obs;
        match &self.mode {
            Mode::Scheme { .. } => {
                let (mut run, io) = self.assemble_scheme(opts);
                if obs.enabled() {
                    install_block_hook(run.machine_mut(), obs);
                }
                (ScenarioReport::Scheme(run.run()), io)
            }
            Mode::Agreement { phases, .. } => {
                let phases = *phases;
                let mut run = self.build_agreement();
                if obs.enabled() {
                    install_block_hook(run.machine_mut(), obs);
                }
                let outcomes = run.run_phases(phases);
                let report = ScenarioReport::Agreement(AgreementRunReport {
                    outcomes,
                    ticks: run.machine().ticks(),
                    stability_violations: run.stability_violations(),
                });
                (report, None)
            }
        }
    }

    /// Serialize to the versioned JSON value (canonical field order).
    pub fn to_json(&self) -> Json {
        self.to_tree()
    }

    /// Deserialize from a JSON value. Rejects unknown major versions;
    /// unknown minor versions are read (the format only grows additively
    /// within a major). Structural validation happens here; semantic
    /// validation is [`Scenario::validate`].
    pub fn decode(v: JsonVal<'_>) -> Result<Self, JsonError> {
        let version = v
            .get("version")
            .map_err(|_| jerr("scenario document has no version field"))?;
        let major = version.get("major")?.as_u64()?;
        if major != FORMAT_MAJOR {
            return Err(jerr(format!(
                "unsupported scenario format major version {major} (this build reads {FORMAT_MAJOR})"
            )));
        }
        let mode_v = v.get("mode")?;
        let mode = match mode_v.get("kind")?.as_str()? {
            "scheme" => Mode::Scheme {
                scheme: scheme_from_label(mode_v.get("scheme")?.as_str()?)?,
                replicas: ReplicaK(mode_v.get("replicas")?.as_usize()?),
                program: ProgramSource::decode(mode_v.get("program")?)?,
            },
            "agreement" => {
                let instr = mode_v.get("instrument")?;
                let flag = |key: &str| -> Result<bool, JsonError> {
                    let v = instr.get(key)?;
                    v.as_bool()
                        .ok_or_else(|| jerr(format!("expected bool {key}, got {v:?}")))
                };
                Mode::Agreement {
                    n: mode_v.get("n")?.as_usize()?,
                    phases: mode_v.get("phases")?.as_usize()?,
                    source: SourceSpec::decode(mode_v.get("source")?)?,
                    instrument: InstrumentOpts {
                        record_events: flag("record_events")?,
                        count_clobbers: flag("count_clobbers")?,
                    },
                }
            }
            other => return Err(jerr(format!("unknown scenario mode {other:?}"))),
        };
        Ok(Scenario {
            mode,
            schedule: AdversarySpec::decode(v.get("schedule")?)?,
            seed: v.get("seed")?.as_u64()?,
            agreement: v
                .get_opt("agreement")
                .and_then(JsonVal::non_null)
                .map(agreement_config_from_json)
                .transpose()?,
            engine: match v.get_opt("engine").and_then(JsonVal::non_null) {
                None => EngineKnobs::default(),
                Some(e) => EngineKnobs::decode(e)?,
            },
        })
    }

    /// [`Scenario::decode`] of a tree.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.decode(Self::decode)
    }

    /// Parse a complete scenario document.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        JsonDoc::decode(text, Self::decode)
    }

    /// The canonical pretty-printed document (what [`Scenario::load`]
    /// reads and the golden-file test pins).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_to(&mut out);
        out
    }

    /// Write the canonical document to `path` atomically
    /// (temp + fsync + rename; see [`crate::atomic_write`]).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        crate::record::atomic_write(path, &self.render_pretty())
    }

    /// Load and parse a scenario file (structural errors only; call
    /// [`Scenario::validate`] before running it).
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What validation checks of a resolved program — its name, step
/// count and thread count — whether it holds the program itself or the
/// [`ProgramFacts`] a [`ProgramMemo`] keeps.
trait ProgramShape {
    fn shape(&self) -> (&str, usize, usize);
}

impl ProgramShape for Program {
    fn shape(&self) -> (&str, usize, usize) {
        (&self.name, self.n_steps(), self.n_threads)
    }
}

impl ProgramShape for (Program, Option<(VarBlock, VarBlock)>) {
    fn shape(&self) -> (&str, usize, usize) {
        self.0.shape()
    }
}

impl ProgramShape for ProgramFacts {
    fn shape(&self) -> (&str, usize, usize) {
        (&self.name, self.n_steps, self.n_threads)
    }
}

/// Wire a machine's block boundaries into the trace: one `engine`-scope
/// `block` event per executed block, op-indexed by the machine's tick
/// counter and labelled with the adversary's self-description (which is
/// what gives `apex obs view` its per-adversary tick attribution).
fn install_block_hook(machine: &mut apex_sim::Machine, obs: &Obs) {
    let label = machine.schedule_description();
    let obs = obs.clone();
    machine.set_block_hook(Box::new(move |executed, ticks, work| {
        obs.emit(
            "engine",
            "block",
            ticks,
            &label,
            &[("ticks", executed), ("work", work)],
        );
    }));
}

/// Serialize the agreement constants (all fields explicit, so a scenario
/// pins the exact protocol point even if defaults change).
pub fn agreement_config_to_json(cfg: &AgreementConfig) -> Json {
    Doc(cfg).to_tree()
}

impl WriteJson for Doc<'_, AgreementConfig> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        let cfg = self.0;
        w.obj(|w| {
            w.field("n", cfg.n);
            w.field("beta", cfg.beta);
            w.field("cells_per_bin", cfg.cells_per_bin);
            w.field("omega", cfg.omega);
            w.field("clock_read_period", cfg.clock_read_period);
            w.field("update_period", cfg.update_period);
            w.field("eval_cost", cfg.eval_cost);
            w.field("clock_threshold", cfg.clock_threshold);
        });
    }
}

/// Deserialize the agreement constants.
pub fn agreement_config_from_json(v: JsonVal<'_>) -> Result<AgreementConfig, JsonError> {
    Ok(AgreementConfig {
        n: v.get("n")?.as_usize()?,
        beta: v.get("beta")?.as_usize()?,
        cells_per_bin: v.get("cells_per_bin")?.as_usize()?,
        omega: v.get("omega")?.as_u64()?,
        clock_read_period: v.get("clock_read_period")?.as_u64()?,
        update_period: v.get("update_period")?.as_u64()?,
        eval_cost: v.get("eval_cost")?.as_u64()?,
        clock_threshold: v.get("clock_threshold")?.as_u64()?,
    })
}
