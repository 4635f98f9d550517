//! Seeded suite generation: one suite document per workload.
//!
//! The seed moves only cell seeds and input-data seeds. Programs, sizes,
//! scheme kinds and the adversary gallery are fixed per workload, so two
//! seeds give suites of the same shape and nearly the same cost, and a
//! held-out seed can confirm a claim made on another.

use apex_lab::{Grid, OutputExpectation, SeedRange, Suite};
use apex_pram::refexec::{execute, Choices};
use apex_scenario::{Mode, ProgramEngine, ProgramSource, Scenario, SourceSpec};
use apex_scheme::SchemeKind;
use apex_sim::{AdversarySpec, Json};

use crate::Workload;

/// The composed-adversary gallery of the campaign workloads: zipf,
/// partition and phase-switch compositions plus crash and sleepy overlays.
const CAMPAIGN_ADVERSARIES: &[&str] = &[
    r#"{"kind": "uniform"}"#,
    r#"{"kind": "zipf", "s": 1.0}"#,
    r#"{"kind": "bursty", "mean_burst": 16}"#,
    r#"{"kind": "overlay", "layer": "crash", "crash_frac": 0.25, "horizon": 8192,
        "base": {"kind": "zipf", "s": 1.0}}"#,
    r#"{"kind": "overlay", "layer": "sleepy", "sleepy_frac": 0.25, "awake": 256, "asleep": 512,
        "base": {"kind": "uniform"}}"#,
    r#"{"kind": "phase-switch", "spans": [{"ticks": 4096, "spec": {"kind": "bursty", "mean_burst": 64}}],
        "tail": {"kind": "zipf", "s": 0.5}}"#,
    r#"{"kind": "partition", "groups": [
        {"procs": [0, 1, 2, 3], "spec": {"kind": "bursty", "mean_burst": 32}},
        {"procs": [4, 5, 6, 7], "spec": {"kind": "uniform"}}]}"#,
    r#"{"kind": "partition", "groups": [
        {"procs": [0, 2, 4, 6], "spec": {"kind": "zipf", "s": 1.5}},
        {"procs": [1, 3, 5, 7], "spec": {"kind": "round-robin"}}]}"#,
];

/// Seeds per (program, scheme, adversary) point of the campaign grid.
const CAMPAIGN_SEEDS: u64 = 13;

/// SplitMix64: the benchmark's own input generator (independent of the
/// simulator's RNG, so a simulator change cannot move the inputs).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seed in `1..=1_000_000` (small enough to read in a record).
    fn small(&mut self) -> u64 {
        1 + self.next() % 1_000_000
    }
}

fn spec(text: &str) -> AdversarySpec {
    let json = Json::parse(text).expect("gallery entry is valid JSON");
    AdversarySpec::from_json(&json).expect("gallery entry is a valid adversary")
}

/// Generate the suite document of `workload` for `seed`. `campaign` and
/// `campaign-cached` share one document, so the cached run answers
/// exactly the cells the cold run stored.
pub fn suite(workload: Workload, seed: u64) -> Suite {
    let mut rng = SplitMix(seed);
    let mut suite = match workload {
        Workload::EngineBc => engine_bc(&mut rng),
        Workload::Campaign | Workload::CampaignCached => campaign(&mut rng),
    };
    pin_outputs(&mut suite);
    suite
}

/// Long scheme-mode cells of the `bench-program` family on the bytecode
/// engine, set in each scenario's own engine knob.
fn engine_bc(rng: &mut SplitMix) -> Suite {
    let mut suite = Suite::new("perfbench-engine-bc");
    let adversaries = [
        r#"{"kind": "uniform"}"#,
        r#"{"kind": "bursty", "mean_burst": 64}"#,
    ];
    for n in [16, 32] {
        for adversary in adversaries {
            let programs = [
                ProgramSource::library("coin-sum", n, vec![64]),
                ProgramSource::library("blelloch-scan", n, vec![rng.small()]),
                ProgramSource::library("jacobi-smooth", n, vec![rng.small(), 8]),
                ProgramSource::library("odd-even-sort", n, vec![rng.small()]),
            ];
            for program in programs {
                let scenario = Scenario::scheme(SchemeKind::Nondet, program, rng.small())
                    .schedule(spec(adversary))
                    .program_engine(ProgramEngine::Bytecode);
                suite.cells.push(scenario);
            }
        }
    }
    suite
}

/// More than 1000 small n=8 cells: library programs crossed with the
/// schemes, the adversary gallery and a seed range, plus agreement-mode
/// cells, on the default tree engine.
///
/// The scan-consensus and ideal-CAS comparators are left out: they lose
/// step values under starvation, so some cells of every seed fail the
/// verifier, and a workload must not fail. The deterministic baseline is
/// unsound for randomized programs (the paper's motivation), so it runs
/// the deterministic programs only.
fn campaign(rng: &mut SplitMix) -> Suite {
    let mut suite = Suite::new("perfbench-campaign");
    let schedules: Vec<AdversarySpec> = CAMPAIGN_ADVERSARIES.iter().map(|s| spec(s)).collect();
    let deterministic = vec![SchemeKind::Nondet, SchemeKind::DetBaseline];
    let randomized = vec![SchemeKind::Nondet];
    let programs = [
        (
            ProgramSource::library("tree-reduce-max", 8, vec![rng.small()]),
            &deterministic,
        ),
        (
            ProgramSource::library("tree-reduce-add", 8, vec![rng.small()]),
            &deterministic,
        ),
        (
            ProgramSource::library("allreduce-add", 8, vec![rng.small()]),
            &deterministic,
        ),
        (ProgramSource::library("coin-sum", 8, vec![16]), &randomized),
    ];
    for (program, schemes) in programs {
        let mut grid = Grid::new(Scenario::scheme(SchemeKind::Nondet, program, 0));
        grid.schemes = schemes.clone();
        grid.schedules = schedules.clone();
        grid.seeds = Some(SeedRange {
            start: rng.small(),
            count: CAMPAIGN_SEEDS,
        });
        suite.grids.push(grid);
    }
    for source in [
        SourceSpec::Random(64),
        SourceSpec::Coin(1, 2),
        SourceSpec::Keyed,
    ] {
        let mut grid = Grid::new(Scenario::agreement(8, source, 1, 0));
        grid.schedules = schedules.clone();
        grid.seeds = Some(SeedRange {
            start: rng.small(),
            count: CAMPAIGN_SEEDS,
        });
        suite.grids.push(grid);
    }
    suite
}

/// Pin the outputs of every nondet-scheme cell running a deterministic
/// library program to the reference executor's result, so the suite run
/// itself fails on a wrong answer even when the verifier is clean.
fn pin_outputs(suite: &mut Suite) {
    let cells = suite.expand().expect("generated suite is valid");
    for cell in cells {
        let Mode::Scheme {
            scheme: SchemeKind::Nondet,
            program,
            ..
        } = &cell.scenario.mode
        else {
            continue;
        };
        let program_ir = program.resolve().expect("library program resolves");
        let Some((_, out)) = cell.scenario.io_blocks() else {
            continue;
        };
        if program_ir.is_nondeterministic() {
            continue;
        }
        let memory = execute(&program_ir, &Choices::Seeded(0)).memory;
        suite.expect.push(OutputExpectation {
            cell: cell.digest,
            outputs: memory[out.base..out.base + out.len].to_vec(),
        });
    }
}
