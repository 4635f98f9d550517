//! `apex` — the workspace's single front door.
//!
//! ```text
//! apex suite run    SUITE.json [--store DIR] [--resume] [--cached] [--faults PLAN.json]
//!                   [--threads N] [--engine E] [--trace [FILE]] [--metrics] [--profile]
//!                   journaled expand-execute-record (crash-safe, resumable, memoizing)
//! apex suite expand SUITE.json                  print the deterministic cell list
//! apex drift        SUITE.json [--store DIR]    re-run and compare against the store
//! apex drift        --compare BASELINE CANDIDATE  byte-compare two stores
//! apex lab fsck     [--store DIR] [--repair]    integrity-scan the store
//! apex lab gc       [--store DIR] [--keep-last N] [--dry-run]  reclaim old suites
//! apex farm submit  SUITE.json [--queue DIR]    enqueue a suite for the workers
//! apex farm worker  [--queue DIR] [--store DIR] [--threads N] …  drain the queue
//! apex farm status  [--queue DIR] [--store DIR] per-suite queue progress
//! apex farm query   SCENARIO.json [--queue DIR] [--store DIR]  answer or enqueue
//! apex obs view     TRACE.jsonl [--scope S] …   summarize a trace file
//! apex obs metrics  [FILE] [--merge DIR]…       render / fleet-merge metrics
//! apex run          SCENARIO.json [--emit F] [--json]   execute one scenario
//! apex adversary    <validate|describe|gallery> …  lint/inspect adversary specs
//! apex synth        <gen|fuzz|shrink|replay|run|corpus-dedup> …
//! ```
//!
//! `suite`/`drift`/`lab` front [`apex_lab`]; `farm` fronts
//! [`apex_farm`]; `obs` fronts the [`apex_obs`] telemetry plane;
//! `adversary` fronts the [`apex_sim::AdversarySpec`] algebra; `run`
//! and `synth` delegate to [`apex_synth::cli`], so every entry point
//! in the workspace is reachable from one binary.
//!
//! Every subcommand names the flags it reads ([`Args::parse`]); any
//! other flag exits 2 with the usage text. The shared run flags are
//! [`RunArgs::FLAGS`].

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use apex_farm::{query, run_worker, FarmQueue, QueryAnswer, WorkerOpts};
use apex_lab::{
    check_against_store, compare_stores, fsck, gc, merge_metrics, run_suite_journaled, DriftKind,
    DriftReport, FaultInjector, FaultPlan, JournalOpts, LabStore, Suite,
};
use apex_obs::{read_trace, summarize, Metrics, Table};
use apex_scenario::Scenario;
use apex_sim::{AdversarySpec, Json};
use apex_synth::cli::{self, Args, RunArgs};

fn usage() -> ! {
    eprintln!(
        "usage: apex <suite|drift|lab|farm|obs|run|adversary|synth> …\n\
         \n\
         suite run    SUITE.json [--store DIR] [--resume] [--cached] [--faults PLAN.json]\n\
         \x20            [--threads N]\n\
         \x20            [--engine tree|bytecode] [--trace [FILE]] [--metrics] [--profile]\n\
         \x20                                        journaled expand-execute-record\n\
         suite expand SUITE.json                 print the deterministic cell list\n\
         drift        SUITE.json [--store DIR]   re-run a suite, compare against the store\n\
         drift        --compare BASE CAND        byte-compare two stores\n\
         lab fsck     [--store DIR] [--repair]   integrity-scan (--repair quarantines)\n\
         lab gc       [--store DIR] [--keep-last N] [--dry-run]  delete old suite dirs\n\
         farm submit  SUITE.json [--queue DIR]   enqueue a suite for the workers\n\
         farm worker  [--queue DIR] [--store DIR] [--threads N] [--worker ID]\n\
         \x20            [--shard N] [--ttl N] [--faults PLAN.json] [--engine tree|bytecode]\n\
         \x20            [--trace [FILE]] [--metrics] [--profile]  drain the queue\n\
         farm status  [--queue DIR] [--store DIR] [--metrics]  per-suite queue progress\n\
         farm query   SCENARIO.json [--queue DIR] [--store DIR] [--json]\n\
         \x20                                        answer from cache, or enqueue\n\
         obs view     TRACE.jsonl [--scope S] [--kind K] [--label L] [--raw]\n\
         \x20                                        summarize (or dump) a trace file\n\
         obs metrics  [FILE] [--merge DIR]… [--result-plane] [--json]\n\
         \x20                                        render / fleet-merge metrics documents\n\
         run          SCENARIO.json [--emit OUT.json] [--json] [--engine tree|bytecode]\n\
         \x20            [--trace [FILE]] [--metrics [FILE]] [--profile]\n\
         \x20                                        execute one scenario\n\
         adversary validate SPEC.json --n N      parse + validate a composed adversary\n\
         adversary describe SPEC.json --n N [--seed S]  compile and describe it\n\
         adversary gallery  [--n N]              print the composed-adversary gallery\n\
         synth        <subcommand> …             the synthesis command set\n\
         \n\
         --engine picks the scheme interpreter, default bytecode: the flag beats a\n\
         scenario's program_engine knob, which beats the default; tree is the walker\n\
         a flag the subcommand does not read exits 2 with this text\n\
         \n\
         the default store is {:?}",
        apex_lab::DEFAULT_STORE_ROOT
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    match cmd.as_str() {
        "suite" => cmd_suite(&argv[1..]),
        "drift" => cmd_drift(&argv[1..]),
        "lab" => cmd_lab(&argv[1..]),
        "farm" => cmd_farm(&argv[1..]),
        "obs" => cmd_obs(&argv[1..]),
        "run" => cli::cmd_run(&argv[1..]),
        "adversary" => cmd_adversary(&argv[1..]),
        "synth" => cli::dispatch(&argv[1..]),
        _ => usage(),
    }
}

/// `apex adversary <validate|describe|gallery>` — author-side tooling for
/// the composable adversary algebra: lint a spec file against a machine
/// size, compile one and print its live description, or emit the standard
/// composed gallery as suite-ready JSON.
fn cmd_adversary(raw: &[String]) -> ExitCode {
    let Some(verb) = raw.first() else { usage() };
    let (file, rest) = positional(&raw[1..]);
    let known: &[&str] = if verb == "describe" {
        &["n", "seed"]
    } else {
        &["n"]
    };
    let args = Args::parse(rest, &[known], usage);
    let n: usize = args.get("n").and_then(|v| v.parse().ok()).unwrap_or(8);
    let load = |file: &str| -> Result<AdversarySpec, String> {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        AdversarySpec::from_json(&json).map_err(|e| format!("{file}: {e}"))
    };
    match (verb.as_str(), file) {
        ("validate", Some(file)) => match load(&file).and_then(|spec| {
            spec.validate(n).map_err(|e| format!("{file}: {e}"))?;
            Ok(spec)
        }) {
            Ok(spec) => {
                println!(
                    "ok: {} (depth {}) is a valid adversary for n={n}",
                    spec.label(),
                    spec.depth()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        ("describe", Some(file)) => {
            let seed: u64 = args.get("seed").and_then(|v| v.parse().ok()).unwrap_or(0);
            match load(&file).and_then(|spec| {
                spec.validate(n).map_err(|e| format!("{file}: {e}"))?;
                Ok(spec)
            }) {
                Ok(spec) => {
                    let schedule = spec.build(n, seed);
                    println!("label:    {}", spec.label());
                    println!("depth:    {}", spec.depth());
                    println!("compiled: {}", schedule.describe());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("gallery", None) => {
            let specs = AdversarySpec::composed_gallery(n);
            let arr = Json::Arr(specs.iter().map(AdversarySpec::to_json).collect());
            println!("{}", arr.render_pretty());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Split one positional argument (a file path) off an argv tail.
fn positional(raw: &[String]) -> (Option<String>, &[String]) {
    match raw.first() {
        Some(f) if !f.starts_with("--") => (Some(f.clone()), &raw[1..]),
        _ => (None, raw),
    }
}

/// Load a suite document. Not validated here: each verb's own
/// expansion is the check, reported as `{file}: {error}`.
fn load_suite(file: &str) -> Result<Suite, ExitCode> {
    Suite::load(Path::new(file)).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn store_from(args: &Args) -> LabStore {
    match args.get("store") {
        Some(dir) => LabStore::new(dir),
        None => LabStore::default_location(),
    }
}

fn cmd_suite(raw: &[String]) -> ExitCode {
    let Some(verb) = raw.first() else { usage() };
    let known: &[&[&str]] = match verb.as_str() {
        "run" => &[
            &["store", "resume", "cached", "faults", "threads"],
            RunArgs::FLAGS,
        ],
        "expand" => &[],
        _ => usage(),
    };
    let (file, rest) = positional(&raw[1..]);
    let args = Args::parse(rest, known, usage);
    let Some(file) = file else { usage() };
    let suite = match load_suite(&file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match verb.as_str() {
        "expand" => {
            let cells = match suite.expand() {
                Ok(cells) => cells,
                Err(e) => {
                    eprintln!("{file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "suite {:?} ({}) expands to {} cells:",
                suite.name,
                suite.digest(),
                cells.len()
            );
            for cell in &cells {
                println!(
                    "  [{:>4}] {} {}",
                    cell.index,
                    cell.digest,
                    one_line(&cell.scenario)
                );
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let mut store = store_from(&args);
            if let Some(plan_file) = args.get("faults") {
                // Deterministic fault injection — test/CI harness only.
                let plan = match FaultPlan::load(Path::new(plan_file)) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                store = store.with_faults(Arc::new(FaultInjector::new(plan)));
            }
            // Bare `--trace` lands next to the suite's records.
            let trace_default = store.trace_path(&suite.digest());
            let run_args = RunArgs::parse(&args, || trace_default);
            let opts = JournalOpts {
                resume: args.has("resume"),
                cached: args.has("cached"),
                threads: args.get("threads").map(|_| args.num("threads", 0)),
                engine: run_args.engine,
                obs: run_args.obs,
            };
            let done = match run_suite_journaled(&suite, &store, &opts) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let run = &done.run;
            println!(
                "suite {:?}: {} cells ({} resumed from store, {} executed), {} ok — records in {}",
                run.name,
                run.outcomes.len(),
                done.skipped.len(),
                done.executed.len(),
                run.ok_count(),
                store.suite_dir(&run.suite_digest).display()
            );
            println!(
                "  {} exhausted, {} poisoned",
                done.status_count("exhausted"),
                done.status_count("poisoned")
            );
            if opts.cached {
                println!("  {}", done.cache.summary());
            }
            if opts.obs.profile {
                println!(
                    "  executed {} ticks in {} ms — {} ticks/s",
                    done.executed_ticks,
                    done.elapsed_ms,
                    done.ticks_per_sec()
                );
            }
            if let Some(trace) = &opts.obs.trace {
                println!("  trace: wrote {}", trace.display());
            }
            if !done.metrics.is_empty() {
                println!(
                    "  metrics: wrote {} ({})",
                    store.metrics_path(&run.suite_digest).display(),
                    done.metrics.summary()
                );
            }
            for cell in &done.manifest.cells {
                println!(
                    "  [{:>4}] {} {} {}",
                    cell.index,
                    if cell.ok { "ok  " } else { "FAIL" },
                    cell.digest,
                    cell.summary
                );
            }
            for mismatch in &run.output_mismatches {
                println!("  output assertion FAILED: {mismatch}");
            }
            if run.all_ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

fn cmd_drift(raw: &[String]) -> ExitCode {
    if raw.first().is_some_and(|a| a == "--compare") {
        // --compare BASELINE CANDIDATE: byte-compare two store roots.
        let [base, cand] = &raw[1..] else { usage() };
        let report = match compare_stores(&LabStore::new(base), &LabStore::new(cand)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        print_drift_table(&report);
        println!("{}", report.summary());
        return if report.clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let (file, rest) = positional(raw);
    let args = Args::parse(rest, &[&["store"]], usage);
    let Some(file) = file else { usage() };
    let suite = match load_suite(&file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    if let Err(e) = suite.validate() {
        eprintln!("{file}: {e}");
        return ExitCode::FAILURE;
    }
    let report = match check_against_store(&suite, &store_from(&args)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.summary());
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-suite view of a store comparison: one row per suite with a
/// divergence, counted by kind.
fn print_drift_table(report: &DriftReport) {
    let mut rows: std::collections::BTreeMap<&str, [u64; 4]> = Default::default();
    for d in &report.divergences {
        let column = match d.kind {
            DriftKind::RecordDiffers => 0,
            DriftKind::MissingRecord => 1,
            DriftKind::ExtraRecord => 2,
            DriftKind::ManifestMismatch => 3,
        };
        rows.entry(&d.suite).or_default()[column] += 1;
    }
    if rows.is_empty() {
        return;
    }
    let mut table = Table::new(&["suite", "differs", "missing", "extra", "manifest"]);
    for (suite, counts) in rows {
        let mut cells = vec![suite.to_string()];
        cells.extend(counts.iter().map(u64::to_string));
        table.row(&cells);
    }
    print!("{}", table.render());
}

/// `apex lab <fsck|gc>` — store maintenance. `fsck` integrity-scans every
/// suite directory (exit 1 on any issue; `--repair` moves bad files to
/// `quarantine/`, never deletes); `gc` removes finished suite directories
/// beyond the `--keep-last N` newest (quarantine and in-flight suites are
/// never touched).
fn cmd_lab(raw: &[String]) -> ExitCode {
    let Some(verb) = raw.first() else { usage() };
    let known: &[&str] = match verb.as_str() {
        "fsck" => &["store", "repair"],
        "gc" => &["store", "keep-last", "dry-run"],
        _ => usage(),
    };
    let args = Args::parse(&raw[1..], &[known], usage);
    let store = store_from(&args);
    match verb.as_str() {
        "fsck" => {
            let report = match fsck(&store, args.has("repair")) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", report.summary());
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "gc" => {
            let keep: usize = args.num("keep-last", 8);
            let report = match gc(&store, keep, args.has("dry-run")) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", report.summary());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// `apex farm <submit|worker|status|query>` — the memoizing campaign
/// farm. `submit` enqueues a suite document (content-addressed,
/// idempotent); `worker` drains the queue by leasing cell shards and
/// executing only cache misses; `status` surveys queue progress against
/// the store; `query` answers one scenario from verified store bytes or
/// enqueues it as a one-cell suite.
fn cmd_farm(raw: &[String]) -> ExitCode {
    let Some(verb) = raw.first() else { usage() };
    let known: &[&[&str]] = match verb.as_str() {
        "submit" => &[&["queue"]],
        "worker" => &[
            &[
                "queue", "store", "threads", "worker", "shard", "ttl", "faults",
            ],
            RunArgs::FLAGS,
        ],
        "status" => &[&["queue", "store", "metrics"]],
        "query" => &[&["queue", "store", "json"]],
        _ => usage(),
    };
    let (file, rest) = positional(&raw[1..]);
    let args = Args::parse(rest, known, usage);
    let queue = match args.get("queue") {
        Some(dir) => FarmQueue::new(dir),
        None => FarmQueue::default_location(),
    };
    match (verb.as_str(), file) {
        ("submit", Some(file)) => {
            let suite = match load_suite(&file) {
                Ok(s) => s,
                Err(code) => return code,
            };
            match queue.submit(&suite) {
                Ok((digest, path, fresh)) => {
                    println!(
                        "{} suite {:?} ({digest}) at {}",
                        if fresh { "enqueued" } else { "already queued:" },
                        suite.name,
                        path.display()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{file}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("worker", None) => {
            let mut store = store_from(&args);
            if let Some(plan_file) = args.get("faults") {
                // Deterministic fault injection — test/CI harness only.
                let plan = match FaultPlan::load(Path::new(plan_file)) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                store = store.with_faults(Arc::new(FaultInjector::new(plan)));
            }
            let mut opts = WorkerOpts::default();
            if let Some(id) = args.get("worker") {
                opts.worker = id.to_string();
            }
            opts.shard_cells = args.num("shard", opts.shard_cells);
            opts.ttl = args.num("ttl", opts.ttl);
            opts.threads = args.get("threads").map(|_| args.num("threads", 0));
            // Bare `--trace` lands beside the store, one file per worker
            // (a trace describes one worker's run, not the fleet's).
            let trace_default = store.root().join(format!("trace-{}.jsonl", opts.worker));
            let run_args = RunArgs::parse(&args, || trace_default);
            opts.engine = run_args.engine;
            opts.obs = run_args.obs;
            match run_worker(&queue, &store, &opts) {
                Ok(report) => {
                    println!("{}", report.summary());
                    for d in &report.divergences {
                        println!("  DIVERGENCE: {d}");
                    }
                    for bad in &report.skipped {
                        eprintln!("  SKIPPED: {bad}");
                    }
                    if report.divergences.is_empty() && report.skipped.is_empty() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("farm worker: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("status", None) => {
            let store = store_from(&args);
            match queue.status(&store) {
                Ok(status) => {
                    println!("{}", status.summary());
                    if args.has("metrics") {
                        // Fold every metrics sidecar in the store — the
                        // serial `metrics.json` and per-worker
                        // `metrics-<id>.json` shards alike — into one
                        // fleet document.
                        match merge_metrics(store.root()) {
                            Ok((merged, files)) if files > 0 => {
                                println!("fleet metrics ({files} documents merged):");
                                print!("{}", render_metrics_tables(&merged));
                            }
                            Ok(_) => println!("fleet metrics: no metrics documents in store"),
                            Err(e) => {
                                eprintln!("farm status --metrics: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    if status.unreadable.is_empty() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("farm status: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("query", Some(file)) => {
            let scenario = match Scenario::load(Path::new(&file)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            match query(&store_from(&args), &queue, &scenario) {
                Ok(QueryAnswer::Hit {
                    suite,
                    text,
                    record,
                }) => {
                    if args.has("json") {
                        print!("{text}");
                    } else {
                        println!(
                            "hit: {} (cached under suite {suite}) — {}",
                            record.scenario.digest(),
                            if record.ok() { "ok" } else { "FAIL" }
                        );
                    }
                    ExitCode::SUCCESS
                }
                Ok(QueryAnswer::Enqueued {
                    suite_digest,
                    path,
                    fresh,
                }) => {
                    println!(
                        "miss: {} as one-cell suite {suite_digest} at {} — run `apex farm worker`",
                        if fresh {
                            "enqueued"
                        } else {
                            "already enqueued"
                        },
                        path.display()
                    );
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("{file}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// `apex obs <view|metrics>` — read-side tooling for the telemetry
/// plane. `view` replays and summarizes a JSONL trace (optionally
/// filtered by scope/kind/label, `--raw` dumps matching lines);
/// `metrics` renders one metrics document or fleet-merges many
/// (`--merge DIR` scans a store for every `metrics*.json`;
/// `--result-plane` projects onto the partition-independent subset).
fn cmd_obs(raw: &[String]) -> ExitCode {
    let Some(verb) = raw.first() else { usage() };
    let known: &[&str] = match verb.as_str() {
        "view" => &["scope", "kind", "label", "raw"],
        "metrics" => &["merge", "result-plane", "json"],
        _ => usage(),
    };
    let (file, rest) = positional(&raw[1..]);
    let args = Args::parse(rest, &[known], usage);
    match verb.as_str() {
        "view" => {
            let Some(file) = file else { usage() };
            let log = match read_trace(Path::new(&file)) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let keep = |field: &str, flag: &str| -> bool {
                args.get(flag).is_none_or(|want| field == want)
            };
            let events: Vec<_> = log
                .events
                .into_iter()
                .filter(|e| {
                    keep(&e.scope, "scope") && keep(&e.kind, "kind") && keep(&e.label, "label")
                })
                .collect();
            if args.has("raw") {
                for e in &events {
                    println!("{}", e.to_line());
                }
            } else {
                print!("{}", summarize(&events).render());
                println!("{} events from {file}", events.len());
            }
            if log.torn_tail {
                eprintln!("warning: {file} has a torn final line (tolerated)");
            }
            ExitCode::SUCCESS
        }
        "metrics" => {
            let mut merged = Metrics::new();
            let mut files = 0usize;
            let result = (|| -> Result<(), String> {
                if let Some(file) = &file {
                    merged.merge(&Metrics::load(Path::new(file))?)?;
                    files += 1;
                }
                for dir in args.all("merge") {
                    let (doc, n) = merge_metrics(Path::new(dir))?;
                    if n == 0 {
                        return Err(format!("{dir}: no metrics*.json documents found"));
                    }
                    merged.merge(&doc)?;
                    files += n;
                }
                Ok(())
            })();
            if let Err(e) = result {
                eprintln!("obs metrics: {e}");
                return ExitCode::FAILURE;
            }
            if files == 0 {
                usage();
            }
            let doc = if args.has("result-plane") {
                merged.result_plane()
            } else {
                merged
            };
            if args.has("json") {
                println!("{}", doc.render_pretty());
            } else {
                println!("{} documents merged — {}", files, doc.summary());
                print!("{}", render_metrics_tables(&doc));
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Render a metrics document as counter/gauge/histogram tables.
fn render_metrics_tables(m: &Metrics) -> String {
    let mut out = String::new();
    let mut scalars = Table::new(&["instrument", "kind", "value"]);
    for (name, v) in m.counters() {
        scalars.row(&[name.to_string(), "counter".into(), v.to_string()]);
    }
    for (name, v) in m.gauges() {
        scalars.row(&[name.to_string(), "gauge".into(), v.to_string()]);
    }
    if !scalars.is_empty() {
        out.push_str(&scalars.render());
    }
    for (name, hist) in m.hists() {
        out.push('\n');
        out.push_str(&format!("{name} ({} observations):\n", hist.total()));
        let mut t = Table::new(&["bucket", "count"]);
        for (i, count) in hist.counts.iter().enumerate() {
            let bucket = match hist.bounds.get(i) {
                Some(b) => format!("<= {b}"),
                None => "overflow".to_string(),
            };
            t.row(&[bucket, count.to_string()]);
        }
        out.push_str(&t.render());
    }
    out
}

/// One-line scenario description for `suite expand` listings.
fn one_line(s: &apex_scenario::Scenario) -> String {
    use apex_scenario::{Mode, ProgramSource};
    match &s.mode {
        Mode::Scheme {
            scheme, program, ..
        } => {
            let prog = match program {
                ProgramSource::Library { name, n, .. } => format!("{name}(n={n})"),
                ProgramSource::Explicit(p) => format!("explicit {:?}", p.name),
            };
            format!(
                "{} {} schedule={} seed={}",
                scheme.label(),
                prog,
                s.schedule.to_json().render(),
                s.seed
            )
        }
        Mode::Agreement { n, phases, .. } => format!(
            "agreement n={n} phases={phases} schedule={} seed={}",
            s.schedule.to_json().render(),
            s.seed
        ),
    }
}
