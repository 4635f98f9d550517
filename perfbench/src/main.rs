//! `perfbench` — the apex suite pipeline, measured end to end and layer
//! by layer. See `perfbench/README.md` for the metrics, the workloads and
//! how to run it; `perfbench/run.py` builds this binary and forwards its
//! arguments.

mod gen;
mod reference;
mod traced;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use apex_lab::{run_suite_journaled, JournalOpts, JournaledRun, LabStore, Suite};
use apex_scenario::{RunOutcome, ScenarioReport};

use crate::reference::Reference;
use crate::traced::{Replays, TracedPass};

const USAGE: &str = "usage: perfbench --workload engine-bc|campaign|campaign-cached --seed N \
--seconds S --trace 0|1 [--commit SHA] [--write-reference]";

/// Untraced passes timed per run, at least.
const MIN_PASSES: usize = 3;
/// Share of the measuring window given to set-up repeats.
const SETUP_SHARE: f64 = 0.1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EngineBc,
    Campaign,
    CampaignCached,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "engine-bc" => Some(Workload::EngineBc),
            "campaign" => Some(Workload::Campaign),
            "campaign-cached" => Some(Workload::CampaignCached),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EngineBc => "engine-bc",
            Workload::Campaign => "campaign",
            Workload::CampaignCached => "campaign-cached",
        }
    }

    /// Runner threads (the closed loop's client count): one for the VM
    /// workload, so dispatch is measured alone; every core otherwise.
    /// Never more than `cores`, so the host is never oversubscribed.
    fn threads(self, cores: usize) -> usize {
        match self {
            Workload::EngineBc => 1,
            Workload::Campaign | Workload::CampaignCached => cores,
        }
    }

    fn cached(self) -> bool {
        self == Workload::CampaignCached
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    write_reference: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut commit = "unknown".to_string();
        let mut write_reference = false;
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            if flag == "--write-reference" {
                write_reference = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("expected 0 < seconds ≤ 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                "--commit" => commit = value.to_string(),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            commit,
            write_reference,
        })
    }
}

/// Deterministic totals of a run's records; a pure simulator speed-up
/// must leave every one of them unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Machine ticks over every record.
    pub ticks: u64,
    /// Σ machine work over scheme-mode records.
    pub work: u64,
    /// Σ ideal PRAM work over scheme-mode records.
    pub ideal_work: u64,
}

impl Counts {
    pub fn of(outcomes: &[RunOutcome]) -> Counts {
        let mut c = Counts::default();
        for record in outcomes.iter().filter_map(RunOutcome::record) {
            c.ticks += record.report.ticks();
            if let ScenarioReport::Scheme(r) = &record.report {
                c.work += r.total_work;
                c.ideal_work += r.ideal_work();
            }
        }
        c
    }
}

/// Failure tally over every pass a run checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// A deterministic count moved between passes or from the
    /// reference: the whole run is wrong, not one cell.
    broken: Vec<String>,
}

impl Tally {
    /// Count the cells of one pass that fail: bad outcomes (already in
    /// `bad`) plus records whose checksum differs from the expected one.
    fn pass(&mut self, bad: &[usize], checksums: &[Option<String>], expected: &[Option<String>]) {
        let mut failed = bad.to_vec();
        for (i, (got, want)) in checksums.iter().zip(expected).enumerate() {
            if got.is_none() || got != want {
                failed.push(i);
            }
        }
        failed.sort_unstable();
        failed.dedup();
        self.attempted += checksums.len() as u64;
        self.failed += failed.len() as u64;
    }

    fn same(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.broken.push(format!("{what}: {got} != {want}"));
        }
    }
}

/// One untraced pass: the real `apex suite run` path, from reading the
/// suite JSON to the fsynced manifest and the `finished` journal line,
/// with no telemetry switched on.
fn untraced_pass(
    suite_path: &Path,
    store: &LabStore,
    threads: usize,
    cached: bool,
) -> Result<(Duration, JournaledRun), String> {
    let start = Instant::now();
    let suite = Suite::load(suite_path)?;
    suite.validate()?;
    let opts = JournalOpts {
        cached,
        threads: Some(threads),
        ..Default::default()
    };
    let done = run_suite_journaled(&suite, store, &opts)?;
    Ok((start.elapsed(), done))
}

/// Per-cell checksums and failing cells of an untraced pass.
fn outcome_of(done: &JournaledRun, cached: bool) -> (Vec<Option<String>>, Vec<usize>) {
    let checksums = done
        .manifest
        .cells
        .iter()
        .map(|c| c.checksum.clone())
        .collect();
    let mut bad: Vec<usize> = (0..done.run.outcomes.len())
        .filter(|&i| !done.run.outcomes[i].ok())
        .collect();
    bad.extend(done.run.output_mismatches.iter().map(|m| m.index));
    if cached {
        // Every cell of the cached workload must be a verified hit.
        bad.extend(&done.executed);
    }
    for &i in bad.iter().take(10) {
        let c = &done.manifest.cells[i];
        eprintln!(
            "perfbench: cell {i} {} failed: {} {}",
            c.digest, c.status, c.summary
        );
    }
    (checksums, bad)
}

/// The set-up a run pays before its first cell: load, validate and
/// expand the suite, and create the store directory.
fn setup_once(suite_path: &Path, store_root: &Path) -> Result<Duration, String> {
    let start = Instant::now();
    let suite = Suite::load(suite_path)?;
    suite.validate()?;
    let cells = suite.expand()?;
    let dir = LabStore::new(store_root).suite_dir(&suite.digest());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let elapsed = start.elapsed();
    std::hint::black_box(cells);
    Ok(elapsed)
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("{}: {e}", dir.display())),
    }
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (0 for an empty slice).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reset this process's peak resident set (VmHWM) to its current
/// resident set, so a later `peak_rss_mb` sees only what ran since.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kib / 1024.0)
}

/// Metrics in print order: name → (value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn print_table(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, value, unit) in metrics {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
}

fn metrics_json(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn per_layer(
    passes: &[TracedPass],
    replays: &Replays,
    threads: usize,
    untraced_wall: f64,
) -> Metrics {
    // Every time is the median over traced passes; counts repeat exactly
    // across passes (checked by the caller), so any pass gives them.
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let p = &passes[0];
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().map(|d| ms(*d)))
        .collect();
    let traced_wall = med(&|p| p.wall.as_secs_f64());
    let ns_per_draw = ratio(replays.sched.as_secs_f64() * 1e9, replays.draws as f64);
    vec![
        ("lab.suite.expand_ms", med(&|p| ms(p.expand)), "ms"),
        ("scenario.build_ms", med(&|p| ms(p.build)), "ms"),
        ("bc.compile_ms", med(&|p| ms(p.compile)), "ms"),
        (
            "bc.live_slot_ratio",
            ratio(p.live_slots as f64, p.slots as f64),
            "ratio",
        ),
        ("sim.sched.draws", replays.draws as f64, "count"),
        ("sim.sched.ns_per_draw", ns_per_draw, "ns"),
        ("sim.blocks", p.blocks as f64, "count"),
        (
            "sim.ticks_per_block",
            ratio(p.counts.ticks as f64, p.blocks as f64),
            "ticks",
        ),
        ("scheme.run_ms", med(&|p| ms(p.run)), "ms"),
        (
            "scheme.ns_per_tick",
            med(&|p| ratio(p.run.as_secs_f64() * 1e9, p.scheme_ticks as f64)),
            "ns",
        ),
        ("core.agreement_ms", med(&|p| ms(p.agreement)), "ms"),
        ("scheme.verify_ms", ms(replays.verify), "ms"),
        ("scenario.record_ms", med(&|p| ms(p.record)), "ms"),
        ("scenario.record_bytes", p.record_bytes as f64, "bytes"),
        ("lab.store.write_ms", med(&|p| ms(p.write)), "ms"),
        ("lab.store.writes", p.writes as f64, "count"),
        ("lab.store.bytes", p.write_bytes as f64, "bytes"),
        ("lab.journal.append_ms", med(&|p| ms(p.journal)), "ms"),
        ("lab.journal.appends", p.appends as f64, "count"),
        ("lab.manifest_ms", med(&|p| ms(p.manifest)), "ms"),
        ("lab.store.lookup_ms", med(&|p| ms(p.lookup)), "ms"),
        (
            "lab.cache.hit_ratio",
            ratio(p.hits as f64, p.lookups as f64),
            "ratio",
        ),
        ("lab.commit_wait_ms", med(&|p| ms(p.commit_wait)), "ms"),
        (
            "runner.busy_ratio",
            med(&|p| ratio(p.busy.as_secs_f64(), threads as f64 * p.wall.as_secs_f64())),
            "ratio",
        ),
        ("cell.p50_ms", quantile(&latencies, 0.5), "ms"),
        ("cell.p90_ms", quantile(&latencies, 0.9), "ms"),
        ("cell.samples", latencies.len() as f64, "count"),
        (
            "trace.coverage",
            med(&|p| ratio(p.self_time().as_secs_f64(), p.wall.as_secs_f64())),
            "ratio",
        ),
        (
            "trace.overhead",
            ratio(traced_wall, untraced_wall) - 1.0,
            "ratio",
        ),
        ("trace.wall_s", traced_wall, "s"),
    ]
}

fn run(args: &Args) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workload = args.workload;
    let threads = workload.threads(cores);
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    remove_dir(&work)?;
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(args, workload, threads, cores, &work);
    remove_dir(&work)?;
    // Leave no empty scratch root behind; another run may still use it.
    let _ = std::fs::remove_dir(".bench_work");
    result
}

fn measure(
    args: &Args,
    workload: Workload,
    threads: usize,
    cores: usize,
    work: &Path,
) -> Result<(), String> {
    let cached = workload.cached();
    let suite = gen::suite(workload, args.seed);
    let suite_path = work.join("suite.json");
    suite
        .save(&suite_path)
        .map_err(|e| format!("{}: {e}", suite_path.display()))?;
    let cells = suite.expand()?;
    let reference = if args.write_reference {
        None
    } else {
        Reference::load(workload.name(), args.seed)?
    };
    let store_root = work.join("store");
    let store = LabStore::new(&store_root);
    let mut tally = Tally::default();

    // Preparation and warm-up, untimed: one untraced pass. For the cached
    // workload it also fills the store every later pass reads. With no
    // reference for this seed, its records are the ones every later
    // pass, traced or not, must reproduce byte for byte.
    let (_, warm) = untraced_pass(&suite_path, &store, threads, false)?;
    let (checksums, bad) = outcome_of(&warm, false);
    let counts = Counts::of(&warm.run.outcomes);
    let ticks: Vec<u64> = warm
        .run
        .outcomes
        .iter()
        .map(|o| o.record().map_or(0, |r| r.report.ticks()))
        .collect();
    // The peak resident set is the passes' own: neither the warm-up's
    // records nor its peak (the cold campaign, on the cached workload)
    // count towards it.
    drop(warm);
    reset_peak_rss()?;
    let expected = match &reference {
        Some(r) => r.checksums_for(&cells),
        None => checksums.clone(),
    };
    tally.pass(&bad, &checksums, &expected);
    if let Some(r) = &reference {
        if r.suite_digest() != suite.digest() {
            tally.broken.push(format!(
                "suite digest {} differs from the reference's {}",
                suite.digest(),
                r.suite_digest()
            ));
        }
        r.check_counts(&counts, None, &mut tally);
    }

    let budget = Duration::from_secs_f64(args.seconds * if args.trace { 0.4 } else { 1.0 });
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut setup_time = Duration::ZERO;
    let started = Instant::now();
    while walls.len() < MIN_PASSES || started.elapsed() < budget {
        // Set-up repeats are spread over the whole measuring window, so
        // they see the same host as the passes: between passes, while
        // they stay under `SETUP_SHARE` of the elapsed time.
        while setups.is_empty()
            || setup_time.as_secs_f64() < SETUP_SHARE * started.elapsed().as_secs_f64()
        {
            let root = work.join("setup");
            let t = setup_once(&suite_path, &root)?;
            remove_dir(&root)?;
            setups.push(t.as_secs_f64());
            setup_time += t;
        }
        if !cached {
            remove_dir(&store_root)?;
        }
        let (wall, done) = untraced_pass(&suite_path, &store, threads, cached)?;
        let (checksums, bad) = outcome_of(&done, cached);
        tally.pass(&bad, &checksums, &expected);
        let c = Counts::of(&done.run.outcomes);
        tally.same("ticks", c.ticks, counts.ticks);
        tally.same("work", c.work, counts.work);
        tally.same("ideal_work", c.ideal_work, counts.ideal_work);
        walls.push(wall.as_secs_f64());
    }
    let wall_s = median(&walls);
    // Taken before the traced passes, which would otherwise set the peak.
    let rss_mb = peak_rss_mb()?;

    let mut layer_metrics = None;
    let mut traced_passes = 0;
    if args.trace || args.write_reference {
        let budget = Duration::from_secs_f64(args.seconds * 0.6);
        let started = Instant::now();
        let mut passes: Vec<TracedPass> = Vec::new();
        while passes.len() < 2 || started.elapsed() < budget {
            let traced_root = work.join("traced");
            if !cached {
                remove_dir(&traced_root)?;
            }
            // The cached workload reads the store the warm-up filled.
            let traced_store = if cached {
                store.clone()
            } else {
                LabStore::new(&traced_root)
            };
            let p = traced::traced_pass(&suite_path, &traced_store, threads, cached)?;
            tally.pass(&p.bad_cells, &p.checksums, &expected);
            tally.same("traced ticks", p.counts.ticks, counts.ticks);
            tally.same("traced work", p.counts.work, counts.work);
            tally.same("traced ideal_work", p.counts.ideal_work, counts.ideal_work);
            if let Some(first) = passes.first() {
                for (what, got, want) in [
                    ("sim.blocks", p.blocks, first.blocks),
                    ("bc.slots", p.slots, first.slots),
                    ("bc.live_slots", p.live_slots, first.live_slots),
                    ("lab.journal.appends", p.appends, first.appends),
                    ("lab.store.bytes", p.write_bytes, first.write_bytes),
                ] {
                    tally.same(what, got, want);
                }
            }
            passes.push(p);
        }
        // The cached workload simulates nothing, so it replays nothing.
        let replays = if cached {
            Replays::default()
        } else {
            traced::replay(&cells, &ticks)
        };
        if let Some(r) = &reference {
            r.check_counts(&counts, Some((&passes[0], &replays)), &mut tally);
        }
        if args.write_reference {
            let r = Reference::new(
                workload.name(),
                args.seed,
                &suite,
                &cells,
                &checksums,
                &counts,
                &passes[0],
                &replays,
            );
            r.save()?;
            println!("wrote {}", r.path().display());
        }
        traced_passes = passes.len();
        layer_metrics = Some(per_layer(&passes, &replays, threads, wall_s));
    }

    // ok_frac covers every pass the run checked, traced ones included.
    let end_to_end: Metrics = vec![
        // The fastest repeat, not the median: a set-up lasts ~25 ms, so
        // each repeat samples one instant of a host whose speed swings
        // 1.7× in phases of seconds, and the median of such samples jumps
        // between the two speeds from run to run.
        (
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        ("wall_s", wall_s, "s"),
        ("ticks_per_s", ratio(counts.ticks as f64, wall_s), "1/s"),
        (
            "ok_frac",
            1.0 - ratio(tally.failed as f64, tally.attempted as f64),
            "ratio",
        ),
        ("peak_rss_mb", rss_mb, "MiB"),
        (
            "work_overhead",
            ratio(counts.work as f64, counts.ideal_work as f64),
            "ratio",
        ),
    ];
    let correct = tally.failed == 0 && tally.broken.is_empty();
    for b in &tally.broken {
        eprintln!("perfbench: deterministic count moved — {b}");
    }

    let provenance: BTreeMap<&str, String> = BTreeMap::from([
        ("workload", format!("{:?}", workload.name())),
        ("seed", args.seed.to_string()),
        ("host_cores", cores.to_string()),
        ("runner_threads", threads.to_string()),
        ("git_commit", format!("{:?}", args.commit)),
        ("suite_digest", format!("{:?}", suite.digest())),
        ("cells", cells.len().to_string()),
        ("untraced_passes", walls.len().to_string()),
        (
            "wall_s_passes",
            format!(
                "[{}]",
                walls
                    .iter()
                    .map(|w| format!("{w:.4}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("traced_passes", traced_passes.to_string()),
        ("setup_repeats", setups.len().to_string()),
        ("reference", reference.is_some().to_string()),
        ("ticks", counts.ticks.to_string()),
    ]);
    let provenance: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("provenance {{{}}}", provenance.join(", "));
    print_table(
        &format!(
            "end to end ({}, untraced, {} passes):",
            workload.name(),
            walls.len()
        ),
        &end_to_end,
    );
    if let Some(layers) = &layer_metrics {
        print_table(
            &format!(
                "per layer ({}, traced, {traced_passes} passes):",
                workload.name()
            ),
            layers,
        );
    }
    let metrics = layer_metrics.as_ref().unwrap_or(&end_to_end);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics_json(metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
