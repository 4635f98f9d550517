//! Property + golden tests for the `Suite` JSON format.
//!
//! The format's contract: every suite in the generator space round-trips
//! through its JSON document exactly; expansion is deterministic (the
//! same document always yields the same cell order and the same cell
//! digests); and the canonical serialized form of one pinned suite never
//! drifts (`tests/golden/canonical-suite.json`). The committed example
//! suite (`suites/smoke.json`, run by CI's suite-smoke job) is held to
//! the acceptance bar: ≥ 12 cells, both modes, ≥ 3 schedule families,
//! a seed range.

use apex::core::InstrumentOpts;
use apex::pram::VarBlock;
use apex::scenario::{Mode, ProgramMemo, ProgramSource, Scenario, SourceSpec};
use apex::scheme::SchemeKind;
use apex::sim::ScheduleKind;
use apex_lab::{Grid, OutputExpectation, SeedRange, Suite};
use proptest::prelude::*;

/// Deterministic splitter for deriving independent sub-seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A valid suite anywhere in the generator space: an optional explicit
/// agreement cell (n = 16, so it can never collide with the grid's
/// scheme-mode cells) plus one grid whose axes are drawn with pairwise
/// distinct values (the digest-uniqueness precondition).
fn suite_from_seed(seed: u64) -> Suite {
    let x = mix(seed, 1);
    let mut suite = Suite::new(format!("prop-{:03x}", x % 4096));
    if x.is_multiple_of(3) {
        suite
            .cells
            .push(Scenario::agreement(16, SourceSpec::Keyed, 1, mix(seed, 2)));
    }

    let catalog: [(&str, Vec<u64>); 3] = [
        ("coin-sum", vec![1 + mix(seed, 3) % 64]),
        ("tree-reduce-add", vec![mix(seed, 4) % 100]),
        ("blelloch-scan", vec![mix(seed, 5) % 100]),
    ];
    let (name, params) = &catalog[(mix(seed, 6) % 3) as usize];
    let base_n = 4usize << (mix(seed, 7) % 2);
    let mut grid = Grid::new(Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library(name, base_n, params.clone()),
        mix(seed, 8),
    ));

    let all_schemes = [
        SchemeKind::Nondet,
        SchemeKind::DetBaseline,
        SchemeKind::ScanConsensus,
        SchemeKind::IdealCas,
    ];
    let rot = (mix(seed, 9) % 4) as usize;
    grid.schemes = (0..(mix(seed, 10) % 4) as usize)
        .map(|i| all_schemes[(rot + i) % 4])
        .collect();

    if mix(seed, 11).is_multiple_of(2) {
        grid.ns = vec![4, 8];
    }

    let families: [ScheduleKind; 4] = [
        ScheduleKind::Uniform,
        ScheduleKind::RoundRobin,
        ScheduleKind::Bursty {
            mean_burst: 1 + mix(seed, 12) % 32,
        },
        ScheduleKind::Zipf {
            s: 0.25 + (mix(seed, 13) % 8) as f64 / 4.0,
        },
    ];
    let rot = (mix(seed, 14) % 4) as usize;
    grid.schedules = (0..(mix(seed, 15) % 4) as usize)
        .map(|i| families[(rot + i) % 4].clone().into())
        .collect();

    if mix(seed, 16).is_multiple_of(3) {
        grid.batches = vec![1, 2 + (mix(seed, 17) % 128) as usize];
    }
    if mix(seed, 18).is_multiple_of(2) {
        grid.seeds = Some(SeedRange {
            start: mix(seed, 19) % 10_000,
            count: 1 + mix(seed, 20) % 3,
        });
    }
    suite.grids.push(grid);
    suite
}

fn canonical_suite() -> Suite {
    let mut canonical = Suite::new("canonical");
    canonical.cells.push(
        Scenario::agreement(8, SourceSpec::Coin(1, 4), 2, 7)
            .schedule(ScheduleKind::TwoClass {
                slow_frac: 0.25,
                ratio: 8.0,
            })
            .instrument(InstrumentOpts::full()),
    );
    let mut grid = Grid::new(Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("blelloch-scan", 8, vec![5]),
        100,
    ));
    grid.schemes = vec![SchemeKind::Nondet, SchemeKind::IdealCas];
    grid.ns = vec![4, 8];
    grid.schedules = vec![
        ScheduleKind::Uniform.into(),
        ScheduleKind::Zipf { s: 1.5 }.into(),
    ];
    grid.batches = vec![1, 32];
    grid.seeds = Some(SeedRange {
        start: 100,
        count: 2,
    });
    canonical.grids.push(grid);
    canonical
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Exact JSON round-trip (compact and pretty) over the generator
    /// space, with byte-stable canonical re-rendering.
    #[test]
    fn suite_json_round_trips_exactly(seed in any::<u64>()) {
        let suite = suite_from_seed(seed);
        let compact = Suite::parse(&suite.to_json().render()).unwrap();
        let pretty = Suite::parse(&suite.render_pretty()).unwrap();
        prop_assert_eq!(&compact, &suite);
        prop_assert_eq!(&pretty, &suite);
        prop_assert_eq!(compact.render_pretty(), suite.render_pretty());
        prop_assert_eq!(compact.digest(), suite.digest());
    }

    /// Expansion is deterministic: the same document (parsed twice)
    /// yields the same cell order and digests, and every digest is
    /// distinct (enforced by expand, asserted here end to end).
    #[test]
    fn expansion_is_deterministic(seed in any::<u64>()) {
        let suite = suite_from_seed(seed);
        let text = suite.render_pretty();
        let a = Suite::parse(&text).unwrap().expand().unwrap();
        let b = Suite::parse(&text).unwrap().expand().unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert!(!a.is_empty());
        let mut digests: Vec<&str> = a.iter().map(|c| c.digest.as_str()).collect();
        let n = digests.len();
        digests.sort_unstable();
        digests.dedup();
        prop_assert_eq!(digests.len(), n);
        // Cell indices are their positions.
        for (i, cell) in a.iter().enumerate() {
            prop_assert_eq!(cell.index, i);
            prop_assert!(cell.scenario.validate().is_ok());
            prop_assert_eq!(&cell.digest, &cell.scenario.digest());
        }
    }
}

/// The canonical suite's serialized form and expansion are pinned.
#[test]
fn golden_suite_form_and_expansion_are_pinned() {
    let golden = include_str!("golden/canonical-suite.json");
    let canonical = canonical_suite();
    assert_eq!(
        canonical.render_pretty(),
        golden,
        "canonical-suite.json drifted; rewrite it only for a deliberate format change"
    );
    let parsed = Suite::parse(golden).unwrap();
    assert_eq!(parsed, canonical);

    // The deterministic expansion is part of the pinned contract: cell
    // count, suite digest, and the first/last cell addresses.
    let cells = parsed.expand().unwrap();
    assert_eq!(cells.len(), 33);
    assert_eq!(parsed.digest(), "25d19cd872895eed");
    assert_eq!(cells[0].digest, "c74994c5fac4766d");
    assert_eq!(cells[32].digest, "1660692f7b08f92e");
}

/// The committed example suite meets the acceptance bar and its file is
/// the canonical rendering (so store addresses never depend on how the
/// file was written).
#[test]
fn committed_smoke_suite_is_canonical_and_broad() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("suites/smoke.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let suite = Suite::parse(&text).unwrap();
    assert_eq!(
        suite.render_pretty(),
        text,
        "suites/smoke.json is not canonical"
    );
    suite.validate().unwrap();

    let cells = suite.expand().unwrap();
    assert!(cells.len() >= 12, "{} cells", cells.len());
    let schemes = cells
        .iter()
        .filter(|c| matches!(c.scenario.mode, Mode::Scheme { .. }))
        .count();
    assert!(schemes > 0 && schemes < cells.len(), "both modes covered");
    let mut families: Vec<String> = cells
        .iter()
        .map(|c| match c.scenario.schedule.to_json() {
            apex::sim::Json::Obj(fields) => fields[0].1.render(),
            _ => unreachable!("schedules serialize as objects"),
        })
        .collect();
    families.sort();
    families.dedup();
    assert!(families.len() >= 3, "{families:?}");
    let mut seeds: Vec<u64> = cells.iter().map(|c| c.scenario.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert!(seeds.len() >= 2, "a seed range is swept");
}

/// A program source's I/O blocks as comparable numbers.
fn io_shape(io: Option<(VarBlock, VarBlock)>) -> Option<(usize, usize, usize, usize)> {
    io.map(|(i, o)| (i.base, i.len, o.base, o.len))
}

/// Expansion validates through a [`ProgramMemo`] that builds each
/// distinct program once. It must hide nothing: for every committed
/// suite, each cell's unmemoized `Scenario::validate` and `io_blocks`
/// agree with what the memo reports for it.
#[test]
fn the_expansion_memo_agrees_with_unmemoized_validation() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in ["smoke", "adversary", "bench-program"] {
        let suite = Suite::load(&root.join(format!("suites/{name}.json"))).unwrap();
        let cells = suite.expand().unwrap();
        let mut memo = ProgramMemo::default();
        for cell in &cells {
            let memoized = cell.scenario.validate_in(&mut memo);
            assert_eq!(
                cell.scenario.validate(),
                memoized.as_ref().map(|_| ()).map_err(Clone::clone),
                "{name} cell {}",
                cell.index
            );
            assert_eq!(
                io_shape(cell.scenario.io_blocks()),
                io_shape(memoized.unwrap()),
                "{name} cell {}",
                cell.index
            );
        }
    }
}

/// A grid whose base names a bad library program fails at its first
/// cell, with exactly the message unmemoized validation gives — though
/// a good program of the same name was resolved just before it.
#[test]
fn a_bad_library_base_fails_at_its_first_cell() {
    for (bad, why) in [
        (
            ProgramSource::library("coin-sum", 8, vec![0]),
            "coin-sum bound must be ≥ 1",
        ),
        (
            ProgramSource::library("coin-sum", 3, vec![16]),
            "library program \"coin-sum\" needs a power-of-two n ≥ 2, got 3",
        ),
    ] {
        let mut suite = Suite::new("bad-base");
        suite.cells.push(Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("coin-sum", 8, vec![16]),
            1,
        ));
        suite
            .cells
            .push(Scenario::agreement(8, SourceSpec::Keyed, 1, 1));
        let mut grid = Grid::new(Scenario::scheme(SchemeKind::Nondet, bad.clone(), 0));
        grid.seeds = Some(SeedRange { start: 0, count: 3 });
        suite.grids.push(grid);
        let unmemoized = Scenario::scheme(SchemeKind::Nondet, bad, 0)
            .validate()
            .unwrap_err();
        assert_eq!(unmemoized.0, why);
        assert_eq!(
            suite.expand().unwrap_err(),
            format!("suite \"bad-base\" cell 2: {unmemoized}")
        );
    }
}

/// Library parameters that would panic in a builder's precondition, or
/// grow memory until the process is killed, are a typed error naming the
/// program — checked in closed form, so no row builds anything.
#[test]
fn hostile_library_parameters_are_refused_before_building() {
    let cap = "the cap is 1048576";
    for (name, n, params, why) in [
        ("jacobi-smooth", 2, vec![1, 2], "needs n ≥ 4, got 2"),
        ("jacobi-smooth", 8, vec![1, u64::MAX], cap),
        ("random-walks", 8, vec![1000, 1 << 40], cap),
        ("leader-election", 8, vec![u64::MAX], cap),
        ("leader-election", 1 << 16, vec![1], cap),
        ("odd-even-sort", 1 << 16, vec![1], cap),
        ("odd-even-sort", 1 << 10, vec![1], cap),
        ("matvec", 1 << 16, vec![1], cap),
        ("matvec", 1 << 10, vec![1], cap),
        ("coin-sum", 1 << 16, vec![16], cap),
        ("blelloch-scan", 1 << 16, vec![1], cap),
    ] {
        let mut suite = Suite::new("hostile-library");
        suite.cells.push(Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library(name, n, params.clone()),
            1,
        ));
        let err = suite.validate().unwrap_err();
        assert!(
            err.contains(&format!("library program {name:?}")) && err.contains(why),
            "{name} n={n} {params:?}: {err}"
        );
    }
}

/// Output expectations still need a cell that declares named outputs:
/// a library scheme-mode cell passes, an agreement-mode or explicit
/// program cell fails.
#[test]
fn expectations_pin_only_cells_with_named_outputs() {
    let library = Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("tree-reduce-max", 8, vec![3]),
        1,
    );
    let agreement = Scenario::agreement(8, SourceSpec::Keyed, 1, 42);
    let explicit = Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::Explicit(apex::pram::library::coin_sum(4, 8).program),
        1,
    );
    for (pinned, ok) in [(&library, true), (&agreement, false), (&explicit, false)] {
        let mut suite = Suite::new("pins");
        suite.cells = vec![library.clone(), agreement.clone(), explicit.clone()];
        suite.expect.push(OutputExpectation {
            cell: pinned.digest(),
            outputs: vec![1],
        });
        match suite.validate() {
            Ok(()) => assert!(ok, "pinning {} passed", pinned.digest()),
            Err(e) => {
                assert!(!ok, "{e}");
                assert!(e.contains("declares no named outputs"), "{e}");
            }
        }
    }
}
