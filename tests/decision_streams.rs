//! The adversaries' decision streams, pinned draw for draw.
//!
//! A schedule's `next_batch` is its hot path and `next` its reference;
//! `tests/batch_determinism.rs` and `tests/adversary_algebra.rs` check
//! that the two agree *with each other*. Neither notices a change that
//! moves both at once. perfbench's seed-1 record checksums and the count
//! goldens see only what a handful of n=8 runs make of the stream.
//!
//! This test pins the stream itself: for every spec below, at each
//! listed machine size and two seeds, the `fnv1a64` digest of the first
//! [`DRAWS`] decisions, drawn through `next_batch` at ragged sizes
//! (some longer than the machine, some shorter, some of one). The specs
//! cover every `ScheduleKind`, a `Scale` warp, the committed canonical
//! adversary, the campaign gallery at n=8, and the base and overlay
//! families at n=3 and n=64 as well. At n=64 the overlays flip some
//! processor's availability more often than once every 64 ticks.
//!
//! `tests/golden/decision-streams.json` holds one line per stream. A
//! mismatch names the spec, `n` and the seed of every stream that moved,
//! and prints the `cp` that regenerates the golden. Regenerate it only
//! for a deliberate change to what an adversary means, and say why in
//! CHANGES.md: every stored record was drawn from these streams.

use std::path::Path;

use apex::sim::{AdversarySpec, Json, ProcId};
use apex_scenario::fnv1a64;

/// Decisions digested per stream.
const DRAWS: usize = 20_000;

/// Seeds each stream is drawn under.
const SEEDS: [u64; 2] = [1, 0x5EED_CAFE];

/// Batch sizes cycled through while drawing: single draws, sizes around
/// the small machine sizes, the machine's default prefetch block (256)
/// and blocks far past it.
const SIZES: [usize; 10] = [1, 7, 64, 3, 256, 31, 2, 1000, 65, 5];

/// The composed-adversary gallery of the campaign benchmark workload,
/// at n=8 (the processor lists of the partitions are fixed).
const CAMPAIGN_GALLERY: [(&str, &str); 8] = [
    ("campaign/uniform", r#"{"kind": "uniform"}"#),
    ("campaign/zipf-1", r#"{"kind": "zipf", "s": 1.0}"#),
    (
        "campaign/bursty-16",
        r#"{"kind": "bursty", "mean_burst": 16}"#,
    ),
    (
        "campaign/crash-over-zipf",
        r#"{"kind": "overlay", "layer": "crash", "crash_frac": 0.25, "horizon": 8192,
            "base": {"kind": "zipf", "s": 1.0}}"#,
    ),
    (
        "campaign/sleepy-over-uniform",
        r#"{"kind": "overlay", "layer": "sleepy", "sleepy_frac": 0.25, "awake": 256,
            "asleep": 512, "base": {"kind": "uniform"}}"#,
    ),
    (
        "campaign/bursty-then-zipf",
        r#"{"kind": "phase-switch", "spans": [{"ticks": 4096, "spec": {"kind": "bursty",
            "mean_burst": 64}}], "tail": {"kind": "zipf", "s": 0.5}}"#,
    ),
    (
        "campaign/partition-halves",
        r#"{"kind": "partition", "groups": [
            {"procs": [0, 1, 2, 3], "spec": {"kind": "bursty", "mean_burst": 32}},
            {"procs": [4, 5, 6, 7], "spec": {"kind": "uniform"}}]}"#,
    ),
    (
        "campaign/partition-interleaved",
        r#"{"kind": "partition", "groups": [
            {"procs": [0, 2, 4, 6], "spec": {"kind": "zipf", "s": 1.5}},
            {"procs": [1, 3, 5, 7], "spec": {"kind": "round-robin"}}]}"#,
    ),
];

/// Every base family, written for an `n`-processor machine.
fn base_family(n: usize) -> Vec<(String, String)> {
    let scripted = format!(
        r#"{{"kind": "scripted", "n": {n}, "segments": [
            {{"seg": "run", "proc": {last}, "ticks": 300}},
            {{"seg": "round-robin", "procs": [0, {last}], "rounds": 40}},
            {{"seg": "all-except", "excluded": [0], "rounds": 25}}],
            "fallback": {{"kind": "zipf", "s": 1.25}}}}"#,
        last = n - 1
    );
    [
        ("round-robin", r#"{"kind": "round-robin"}"#.to_string()),
        ("uniform", r#"{"kind": "uniform"}"#.to_string()),
        ("zipf-1", r#"{"kind": "zipf", "s": 1.0}"#.to_string()),
        ("zipf-2.5", r#"{"kind": "zipf", "s": 2.5}"#.to_string()),
        (
            "two-class",
            r#"{"kind": "two-class", "slow_frac": 0.25, "ratio": 16.0}"#.to_string(),
        ),
        (
            "bursty-1",
            r#"{"kind": "bursty", "mean_burst": 1}"#.to_string(),
        ),
        (
            "bursty-64",
            r#"{"kind": "bursty", "mean_burst": 64}"#.to_string(),
        ),
        (
            "sleepy",
            r#"{"kind": "sleepy", "sleepy_frac": 0.5, "awake": 40, "asleep": 90}"#.to_string(),
        ),
        (
            "crash",
            r#"{"kind": "crash", "crash_frac": 0.5, "horizon": 3000}"#.to_string(),
        ),
        ("scripted", scripted),
    ]
    .into_iter()
    .map(|(name, text)| (format!("base/{name}"), text))
    .collect()
}

/// Crash and sleepy overlays over several bases, including dense
/// patterns whose availability flips every few ticks.
fn overlay_family() -> Vec<(String, String)> {
    let crash = |frac: f64, horizon: u64| {
        format!(r#""layer": "crash", "crash_frac": {frac:?}, "horizon": {horizon}"#)
    };
    let sleepy = |frac: f64, awake: u64, asleep: u64| {
        format!(
            r#""layer": "sleepy", "sleepy_frac": {frac:?}, "awake": {awake}, "asleep": {asleep}"#
        )
    };
    [
        (
            "crash-over-uniform",
            crash(0.25, 8192),
            r#"{"kind": "uniform"}"#,
        ),
        (
            "crash-over-zipf",
            crash(0.25, 8192),
            r#"{"kind": "zipf", "s": 1.0}"#,
        ),
        (
            "dense-crash-over-uniform",
            crash(0.75, 100),
            r#"{"kind": "uniform"}"#,
        ),
        (
            "crash-at-once-over-round-robin",
            crash(1.0, 0),
            r#"{"kind": "round-robin"}"#,
        ),
        (
            "sleepy-over-uniform",
            sleepy(0.25, 256, 512),
            r#"{"kind": "uniform"}"#,
        ),
        (
            "sleepy-over-bursty",
            sleepy(0.5, 128, 512),
            r#"{"kind": "bursty", "mean_burst": 16}"#,
        ),
        (
            "dense-sleepy-over-two-class",
            sleepy(1.0, 3, 5),
            r#"{"kind": "two-class", "slow_frac": 0.5, "ratio": 4.0}"#,
        ),
        (
            "crash-over-sleepy-over-zipf",
            crash(0.5, 2000),
            r#"{"kind": "overlay", "layer": "sleepy", "sleepy_frac": 0.5, "awake": 7,
                "asleep": 11, "base": {"kind": "zipf", "s": 1.0}}"#,
        ),
    ]
    .into_iter()
    .map(|(name, layer, base)| {
        (
            format!("overlay/{name}"),
            format!(r#"{{"kind": "overlay", {layer}, "base": {base}}}"#),
        )
    })
    .collect()
}

/// One spec per remaining shape: a speed warp, and the committed
/// canonical adversary (a three-deep phase switch into a partition).
fn composed_family() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let canonical = std::fs::read_to_string(root.join("tests/golden/canonical-adversary.json"))
        .expect("canonical adversary is committed");
    vec![
        (
            "scale/bursty".to_string(),
            r#"{"kind": "scale", "factors": [1, 3, 1, 2, 5, 1, 1, 4],
                "base": {"kind": "bursty", "mean_burst": 8}}"#
                .to_string(),
        ),
        ("canonical-adversary".to_string(), canonical),
    ]
}

/// `(spec name, spec document, n)` for every pinned stream.
fn streams() -> Vec<(String, String, usize)> {
    let mut all = Vec::new();
    for n in [3, 8, 64] {
        for (name, text) in base_family(n).into_iter().chain(overlay_family()) {
            all.push((name, text, n));
        }
    }
    for (name, text) in CAMPAIGN_GALLERY {
        all.push((name.to_string(), text.to_string(), 8));
    }
    for (name, text) in composed_family() {
        all.push((name, text, 8));
    }
    all
}

/// Digest of the first [`DRAWS`] decisions of `spec` on `n` processors
/// under `seed`, drawn in batches of the cycled [`SIZES`].
fn digest(spec: &AdversarySpec, n: usize, seed: u64) -> u64 {
    let mut schedule = spec.build(n, seed);
    let mut bytes = Vec::with_capacity(DRAWS * 8);
    let mut buf = vec![ProcId(0); *SIZES.iter().max().unwrap()];
    let mut drawn = 0;
    for &size in SIZES.iter().cycle() {
        let take = size.min(DRAWS - drawn);
        schedule.next_batch(&mut buf[..take]);
        for p in &buf[..take] {
            assert!(p.0 < n, "processor {} out of range for n={n}", p.0);
            bytes.extend_from_slice(&(p.0 as u64).to_le_bytes());
        }
        drawn += take;
        if drawn == DRAWS {
            break;
        }
    }
    fnv1a64(&bytes)
}

/// The golden document: one JSON object per stream, one per line.
fn render(lines: &[(String, usize, u64, u64)]) -> String {
    let body: Vec<String> = lines
        .iter()
        .map(|(name, n, seed, digest)| {
            format!(
                r#"  {{"spec": "{name}", "n": {n}, "seed": {seed}, "fnv1a64": "{digest:016x}"}}"#
            )
        })
        .collect();
    format!(
        "{{\n\"draws\": {DRAWS},\n\"streams\": [\n{}\n]\n}}\n",
        body.join(",\n")
    )
}

#[test]
fn decision_streams_match_their_golden() {
    let mut lines = Vec::new();
    for (name, text, n) in streams() {
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec = AdversarySpec::from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        spec.validate(n)
            .unwrap_or_else(|e| panic!("{name} at n={n}: {e}"));
        for seed in SEEDS {
            lines.push((name.clone(), n, seed, digest(&spec, n, seed)));
        }
    }
    let fresh = render(&lines);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden_path = root.join("tests/golden/decision-streams.json");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if fresh == golden {
        return;
    }
    let moved: Vec<String> = fresh
        .lines()
        .filter(|line| line.contains("\"spec\"") && !golden.lines().any(|g| g == *line))
        .map(|line| format!("  {}", line.trim().trim_end_matches(',')))
        .collect();
    let fresh_path =
        std::env::temp_dir().join(format!("apex-decision-streams-{}.json", std::process::id()));
    std::fs::write(&fresh_path, &fresh).unwrap();
    panic!(
        "{} decision streams moved (this run's digests):\n{}\nIf the change is intended, \
         regenerate the golden with `cp {} {}` and explain why in CHANGES.md.",
        moved.len(),
        moved.join("\n"),
        fresh_path.display(),
        golden_path.display()
    );
}
