//! The synthesis command set, as a library.
//!
//! Every `apex synth` subcommand lives here, and `apex run` shares its
//! scenario runner — one front door, one implementation.
//!
//! ```text
//! gen          --seed S --count K [--show-schedule]
//! fuzz         --seed S --trials K [--out DIR] [--keep N] [--max-secs T]
//!              [--shrink-budget R] [--no-det] [--comparators] [--no-write]
//! shrink       --file REPRO.json [--out DIR] [--shrink-budget R]
//! replay       --file REPRO.json | --dir DIR [--engine tree|bytecode] [--trace [FILE]]
//! run          SCENARIO.json [--emit OUT.json] [--json] [--cached [--store DIR]]
//!              [--engine tree|bytecode] [--trace [FILE]] [--metrics [FILE]] [--profile]
//! corpus-dedup [--dir DIR] [--dry-run]
//! ```
//!
//! A flag the subcommand does not read exits 2 with the usage text.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use apex_lab::CellTally;
use apex_obs::ObsOpts;
use apex_scenario::{ProgramEngine, RunOpts, RunOutcome, Scenario};
use apex_scheme::SchemeKind;

use crate::campaign::{campaign_triple, run_campaign, CampaignConfig, Finding};
use crate::repro::{dedup_corpus, Expectation, Reproducer};
use crate::{check_triple, shrink};

/// Print the synthesis usage text and exit with status 2.
pub fn usage() -> ! {
    eprintln!(
        "usage: apex synth <gen|fuzz|shrink|replay|run|corpus-dedup> [options]\n\
         \n\
         gen          --seed S --count K [--show-schedule]   print generated programs\n\
         fuzz         --seed S --trials K [--out DIR] [--keep N] [--max-secs T]\n\
         \x20             [--shrink-budget R] [--no-det] [--comparators] [--no-write]\n\
         shrink       --file F [--out DIR] [--shrink-budget R]\n\
         replay       --file F | --dir DIR [--engine tree|bytecode] [--trace [FILE]]\n\
         run          SCENARIO.json [--emit OUT.json] [--json] [--cached [--store DIR]]\n\
         \x20             [--engine tree|bytecode] [--trace [FILE]] [--metrics [FILE]] [--profile]\n\
         \x20             execute a scenario file (--cached answers from the lab store;\n\
         \x20             --engine overrides the scheme-mode interpreter, default bytecode\n\
         \x20             (tree runs the reference walker), --trace/--metrics\n\
         \x20             observe the run — none of them changes a result byte)\n\
         corpus-dedup [--dir DIR] [--dry-run]         drop scenario-digest duplicates"
    );
    std::process::exit(2)
}

/// Minimal `--flag [value]` argument list shared by the workspace CLIs.
pub struct Args {
    flags: Vec<(String, Option<String>)>,
    usage: fn() -> !,
}

impl Args {
    /// [`Args::parse`], returning the error instead of exiting.
    fn try_parse(raw: &[String], known: &[&[&str]], usage: fn() -> !) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if !known.iter().any(|group| group.contains(&name)) {
                return Err(format!("unknown flag {arg}"));
            }
            let value = it
                .peek()
                .filter(|v| !v.starts_with("--"))
                .map(|v| v.to_string());
            if value.is_some() {
                it.next();
            }
            flags.push((name.to_string(), value));
        }
        Ok(Args { flags, usage })
    }

    /// Parse `--name [value]` pairs, accepting only the flags `known`
    /// lists (one slice per flag group, e.g. a command's own flags and
    /// [`RunArgs::FLAGS`]). A bare word where a flag is expected, or a
    /// flag the command does not read, prints an error naming it and
    /// then `usage`, which exits with status 2. An invalid value read
    /// later ([`Args::num`], [`RunArgs::parse`]) does the same.
    pub fn parse(raw: &[String], known: &[&[&str]], usage: fn() -> !) -> Args {
        Args::try_parse(raw, known, usage).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage()
        })
    }

    /// Print `msg` and the command's usage text, then exit with status 2.
    fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}");
        (self.usage)()
    }

    /// The value of `--name`, if present with a value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether `--name` was passed at all.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Every value of a repeatable `--name VALUE` flag, in order
    /// (occurrences without a value are skipped).
    pub fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    /// The value of `--name` parsed as `T`, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| self.fail(&format!("invalid --{name} value {v:?}"))),
        }
    }
}

/// The run flags every executing command shares — `--engine
/// tree|bytecode` and `--trace [FILE]` / `--metrics` / `--profile` —
/// parsed in one place for `apex run`, `apex suite run`, `apex farm
/// worker`, and `apex synth run|replay`. None of them changes a result
/// byte: both interpreters produce byte-identical reports, and telemetry
/// only observes.
#[derive(Clone, Debug, Default)]
pub struct RunArgs {
    /// `--engine`: the scheme-interpreter override (`None` leaves the
    /// knob, then the bytecode default, to [`ProgramEngine::resolve`]).
    pub engine: Option<ProgramEngine>,
    /// `--trace [FILE]`, `--metrics`, `--profile`.
    pub obs: ObsOpts,
}

impl RunArgs {
    /// The shared run flags, for [`Args::parse`]'s `known` list.
    pub const FLAGS: &'static [&'static str] = &["engine", "trace", "metrics", "profile"];

    /// Parse the shared run flags. A bare `--trace` resolves to
    /// `default_trace` (a conventional location next to the run's other
    /// artifacts); `--trace FILE` goes wherever the caller pointed.
    /// Invalid values abort with the usage text.
    pub fn parse(args: &Args, default_trace: impl FnOnce() -> PathBuf) -> RunArgs {
        let engine = args.get("engine").map(|value| {
            ProgramEngine::parse(value).unwrap_or_else(|| {
                args.fail(&format!(
                    "invalid --engine value {value:?} (expected tree or bytecode)"
                ))
            })
        });
        let obs = ObsOpts {
            trace: args.has("trace").then(|| {
                args.get("trace")
                    .map(PathBuf::from)
                    .unwrap_or_else(default_trace)
            }),
            metrics: args.has("metrics"),
            profile: args.has("profile"),
        };
        RunArgs { engine, obs }
    }

    /// The [`RunOpts`] for one in-process run: the engine override plus
    /// the opened trace sink (a disabled handle without `--trace`).
    pub fn run_opts(&self) -> std::io::Result<RunOpts> {
        Ok(RunOpts {
            engine: self.engine,
            obs: self.obs.open_trace()?,
        })
    }
}

/// Dispatch one synthesis subcommand (`argv` excludes the binary name
/// and the subcommand itself is `argv[0]`). Unknown commands print the
/// usage text and exit 2.
pub fn dispatch(argv: &[String]) -> ExitCode {
    let Some(cmd) = argv.first() else { usage() };
    if cmd == "run" {
        // `run` takes a positional scenario file.
        return cmd_run(&argv[1..]);
    }
    let (known, run): (&[&str], fn(&Args) -> ExitCode) = match cmd.as_str() {
        "gen" => (&["seed", "count", "show-schedule"], cmd_gen),
        "fuzz" => (
            &[
                "seed",
                "trials",
                "out",
                "keep",
                "max-secs",
                "shrink-budget",
                "no-det",
                "comparators",
                "no-write",
            ],
            cmd_fuzz,
        ),
        "shrink" => (&["file", "out", "shrink-budget"], cmd_shrink),
        // Replay opens a trace but records no metrics or profile.
        "replay" => (&["file", "dir", "engine", "trace"], cmd_replay),
        "corpus-dedup" => (&["dir", "dry-run"], cmd_corpus_dedup),
        _ => usage(),
    };
    run(&Args::parse(&argv[1..], &[known], usage))
}

/// Execute one scenario file: validate, (optionally) re-emit the
/// canonical serialized form, run, and report — human-readable by
/// default, the full [`ReportRecord`](apex_scenario::ReportRecord) document on stdout with `--json`
/// (for scripts and CI). Exit code 0 iff the run met its mode's
/// correctness bar.
pub fn cmd_run(raw: &[String]) -> ExitCode {
    let (file, rest) = match raw.first() {
        Some(f) if !f.starts_with("--") => (Some(f.clone()), &raw[1..]),
        _ => (None, raw),
    };
    let args = Args::parse(
        rest,
        &[&["emit", "json", "cached", "store", "file"], RunArgs::FLAGS],
        usage,
    );
    let Some(file) = file.or_else(|| args.get("file").map(str::to_string)) else {
        usage()
    };
    let scenario = match Scenario::load(Path::new(&file)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = scenario.validate() {
        eprintln!("{file}: invalid scenario: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(out) = args.get("emit") {
        if let Err(e) = scenario.save(Path::new(out)) {
            eprintln!("failed to write {out}: {e}");
            return ExitCode::FAILURE;
        }
        if args.has("json") {
            eprintln!("wrote canonical form to {out}");
        } else {
            println!("wrote canonical form to {out}");
        }
    }
    if args.has("cached") {
        // Memoize through the lab store: a verified record anywhere in
        // the store for this scenario digest answers without executing.
        let store = match args.get("store") {
            Some(dir) => apex_lab::LabStore::new(dir),
            None => apex_lab::LabStore::default_location(),
        };
        if let Some((suite, text, record)) = store.find_record(&scenario.digest()) {
            if args.has("json") {
                print!("{text}");
                eprintln!("cache hit (suite {suite})");
            } else {
                println!(
                    "cache hit (suite {suite}): {}",
                    if record.ok() { "ok" } else { "FAIL" }
                );
            }
            return if record.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        if !args.has("json") {
            println!("cache miss: executing");
        }
    }
    // Captured, not raw: a panicking or budget-exhausted scenario becomes
    // a typed outcome document and a failing exit code instead of an
    // abort, so campaign scripts can tell the failure classes apart.
    let run_args = RunArgs::parse(&args, || PathBuf::from(apex_obs::TRACE_FILE));
    let opts = match run_args.run_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("--trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started_at = std::time::Instant::now();
    let outcome = RunOutcome::capture_opts(&scenario, &opts);
    let elapsed_ms = apex_obs::elapsed_ms(started_at);
    opts.obs.flush();
    if run_args.obs.metrics || run_args.obs.profile {
        // The result plane of a suite of one cell, tallied as `apex
        // suite run` tallies each cell, so `apex obs metrics --merge`
        // folds single runs and suite runs alike.
        let mut metrics = apex_obs::Metrics::new();
        CellTally::seed(&mut metrics, 1);
        CellTally::of(&outcome).add_to(&mut metrics);
        if run_args.obs.profile {
            metrics.add("time.elapsed_ms", elapsed_ms);
        }
        let path = args.get("metrics").unwrap_or(apex_obs::METRICS_FILE);
        if let Err(e) = std::fs::write(path, metrics.render_pretty()) {
            eprintln!("--metrics: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.has("json") {
            println!("metrics: wrote {path}");
        }
    }
    if args.has("json") {
        // Stdout carries exactly one document (the record when the run
        // completed, the typed outcome otherwise); the summary goes to
        // stderr so pipelines stay parseable.
        match outcome.record() {
            Some(record) => print!("{}", record.render_pretty()),
            None => print!("{}", outcome.to_json().render_pretty()),
        }
        eprintln!("{}", outcome.summary());
    } else {
        println!("{}", outcome.summary());
        if let Some(outputs) = outcome.record().and_then(|r| r.outputs.as_ref()) {
            println!("named outputs: {outputs:?}");
        }
    }
    if outcome.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Remove reproducers whose canonical scenario digests collide (first
/// step of the corpus lifecycle; `--dry-run` only reports).
pub fn cmd_corpus_dedup(args: &Args) -> ExitCode {
    let dir = PathBuf::from(args.get("dir").unwrap_or("corpus"));
    let dry_run = args.has("dry-run");
    let outcome = match dedup_corpus(&dir, dry_run) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for (dup, kept) in &outcome.removed {
        println!(
            "{} {} (duplicate of {})",
            if dry_run { "would remove" } else { "removed" },
            dup.display(),
            kept.display()
        );
    }
    println!(
        "{} distinct scenarios kept, {} duplicates {}",
        outcome.kept.len(),
        outcome.removed.len(),
        if dry_run { "found" } else { "removed" }
    );
    ExitCode::SUCCESS
}

fn cmd_gen(args: &Args) -> ExitCode {
    let seed: u64 = args.num("seed", 0);
    let count: usize = args.num("count", 3);
    let cfg = CampaignConfig::new(count, seed);
    for i in 0..count {
        let t = campaign_triple(&cfg, i);
        println!(
            "# {} — {} threads, {} steps, {} instructions, nondet={}",
            t.program.name,
            t.program.n_threads,
            t.program.n_steps(),
            t.program.n_instructions(),
            t.program.is_nondeterministic()
        );
        for (step, row) in t.program.steps.iter().enumerate() {
            for (thread, slot) in row.iter().enumerate() {
                if let Some(instr) = slot {
                    println!("  step {step} thread {thread}: {instr}");
                }
            }
        }
        if args.has("show-schedule") {
            println!("  schedule: {}", t.schedule.to_json().render());
        }
        println!();
    }
    ExitCode::SUCCESS
}

fn write_reproducer(finding: &Finding, expected: Expectation, note: String, out: &Path) {
    let repro = Reproducer::new(finding.scheme, expected, note, &finding.triple);
    match repro.save(out) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  failed to write reproducer: {e}"),
    }
}

fn cmd_fuzz(args: &Args) -> ExitCode {
    let seed: u64 = args.num("seed", 1);
    let trials: usize = args.num("trials", 1000);
    let keep: usize = args.num("keep", 3);
    let shrink_budget: usize = args.num("shrink-budget", 400);
    let out = PathBuf::from(args.get("out").unwrap_or("corpus"));
    let write = !args.has("no-write");

    let mut cfg = CampaignConfig::new(trials, seed);
    cfg.det_leg = !args.has("no-det");
    cfg.comparator_legs = args.has("comparators");
    if args.has("max-secs") {
        cfg.max_secs = Some(args.num("max-secs", 30.0));
    }

    println!(
        "fuzz: {} triples from seed {} (det leg: {}, comparator legs: {})",
        trials, seed, cfg.det_leg, cfg.comparator_legs
    );
    let mut last_print = std::time::Instant::now();
    let mut progress = move |done: usize, findings: usize| {
        if last_print.elapsed().as_secs_f64() > 2.0 {
            println!("  … {done}/{trials} triples, {findings} findings");
            last_print = std::time::Instant::now();
        }
    };
    let outcome = run_campaign(&cfg, Some(&mut progress));

    println!(
        "ran {} triples ({} det-baseline legs, {} stalls) in {:.1}s",
        outcome.trials_run, outcome.det_trials_run, outcome.stalls, outcome.wall_secs
    );
    println!(
        "nondet-scheme divergences: {} (must be 0)",
        outcome.nondet_divergences.len()
    );
    println!(
        "det-baseline divergences:  {} (witnesses of prior-work unsoundness)",
        outcome.det_divergences.len()
    );
    if cfg.comparator_legs {
        println!(
            "comparator divergences:    {} over {} legs (must be 0)",
            outcome.comparator_divergences.len(),
            outcome.comparator_trials_run
        );
    }
    println!(
        "engine divergences:        {} over {} tree-walker legs (must be 0)",
        outcome.engine_divergences.len(),
        outcome.engine_trials_run
    );
    // An engine divergence is an interpreter bug. Both engines may be
    // clean on their own, so a reproducer cannot pin it; the triple is
    // addressed by its campaign seed and index instead.
    for finding in &outcome.engine_divergences {
        println!(
            "BUG: the tree walker and the default engine disagree on triple {} \
             (campaign seed {seed})",
            finding.index
        );
    }

    // A paper-scheme (or comparator) divergence is a real bug: record it
    // and fail loudly.
    for finding in outcome
        .nondet_divergences
        .iter()
        .chain(&outcome.comparator_divergences)
    {
        println!(
            "BUG: {} diverged on triple {} ({:?})",
            finding.scheme.label(),
            finding.index,
            finding.verdict
        );
        if write {
            write_reproducer(
                finding,
                Expectation::Diverges,
                format!(
                    "UNEXPECTED {} divergence; campaign seed {seed}, triple {}",
                    finding.scheme.label(),
                    finding.index
                ),
                &out,
            );
        }
    }

    if write {
        for finding in outcome.det_divergences.iter().take(keep) {
            println!(
                "shrinking det-baseline divergence at triple {} ({} instrs)…",
                finding.index,
                finding.triple.program.n_instructions()
            );
            let (small, stats) = shrink(&finding.triple, SchemeKind::DetBaseline, shrink_budget);
            println!(
                "  {:?} -> {:?} in {} runs ({} accepted)",
                stats.before, stats.after, stats.runs, stats.accepted
            );
            // The differential pair: DetBaseline diverges, Nondet is clean
            // on the very same shrunk triple.
            let nondet = check_triple(&small, SchemeKind::Nondet);
            let pair_note = if nondet.diverged() || nondet.stalled {
                "; NOTE: nondet leg not clean on shrunk triple".to_string()
            } else {
                "; nondet scheme verified clean on this triple".to_string()
            };
            let shrunk_finding = Finding {
                triple: small,
                ..finding.clone()
            };
            write_reproducer(
                &shrunk_finding,
                Expectation::Diverges,
                format!(
                    "det-baseline divergence found by campaign seed {seed} at triple {}, \
                     shrunk {:?} -> {:?} in {} oracle runs{pair_note}",
                    finding.index, stats.before, stats.after, stats.runs
                ),
                &out,
            );
        }
    }

    if !outcome.nondet_divergences.is_empty()
        || !outcome.comparator_divergences.is_empty()
        || !outcome.engine_divergences.is_empty()
    {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_shrink(args: &Args) -> ExitCode {
    let Some(file) = args.get("file") else {
        usage()
    };
    let shrink_budget: usize = args.num("shrink-budget", 400);
    let out = PathBuf::from(args.get("out").unwrap_or("corpus"));
    let repro = match Reproducer::load(&PathBuf::from(file)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if repro.expected != Expectation::Diverges {
        eprintln!("only divergence reproducers can be shrunk");
        return ExitCode::FAILURE;
    }
    let triple = repro.triple();
    let verdict = check_triple(&triple, repro.scheme());
    if !verdict.diverged() {
        eprintln!("triple no longer diverges; nothing to shrink");
        return ExitCode::FAILURE;
    }
    let (small, stats) = shrink(&triple, repro.scheme(), shrink_budget);
    println!(
        "shrunk {:?} -> {:?} in {} runs",
        stats.before, stats.after, stats.runs
    );
    let new = Reproducer::new(
        repro.scheme(),
        repro.expected,
        format!(
            "{} (re-shrunk: {:?} -> {:?})",
            repro.note, stats.before, stats.after
        ),
        &small,
    );
    match new.save(&out) {
        Ok(path) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_replay(args: &Args) -> ExitCode {
    let entries: Vec<(PathBuf, Reproducer)> = if let Some(file) = args.get("file") {
        let path = PathBuf::from(file);
        match Reproducer::load(&path) {
            Ok(r) => vec![(path, r)],
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(dir) = args.get("dir") {
        match Reproducer::load_dir(&PathBuf::from(dir)) {
            Ok(rs) => rs,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        usage()
    };

    let opts = match RunArgs::parse(args, || PathBuf::from(apex_obs::TRACE_FILE)).run_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("--trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0;
    for (path, repro) in &entries {
        match repro.check(&opts) {
            Ok(verdict) => println!(
                "ok   {} ({}, expect {:?}, violations={})",
                path.display(),
                repro.scheme().label(),
                repro.expected,
                verdict.violations
            ),
            Err(e) => {
                failures += 1;
                println!("FAIL {}: {e}", path.display());
            }
        }
    }
    println!(
        "{}/{} reproducers replayed as recorded",
        entries.len() - failures,
        entries.len()
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_accept_known_flags_and_name_the_first_unknown_one() {
        let known: &[&[&str]] = &[&["store", "threads"], RunArgs::FLAGS];
        let parse = |line: &str| Args::try_parse(&argv(line), known, usage);
        let args = parse("--threads 2 --store /s --trace --profile").unwrap();
        assert_eq!(args.get("threads"), Some("2"));
        assert_eq!(args.get("store"), Some("/s"));
        assert!(args.has("trace") && args.get("trace").is_none());
        assert!(args.has("profile") && !args.has("metrics"));
        // A misspelled flag is refused, not ignored; so is a removed one,
        // value and all.
        let err = |line: &str| parse(line).err().unwrap();
        assert_eq!(err("--store /s --threds 2"), "unknown flag --threds");
        assert_eq!(err("--bench x.json"), "unknown flag --bench");
        assert_eq!(err("--threads 2 stray"), "unexpected argument \"stray\"");
        assert!(Args::try_parse(&[], &[], usage).is_ok());
    }
}
