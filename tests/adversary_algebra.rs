//! Contract suite for the composable adversary algebra.
//!
//! Four pins:
//!
//! 1. **Batch transparency** — for randomly generated `AdversarySpec`
//!    trees, the batched decision stream equals the tick-for-tick
//!    reference stream at ragged batch sizes (the invariant every
//!    combinator's rustdoc argues; the machine's prefetch queue relies on
//!    it).
//! 2. **Exact JSON round-trip** — the same random trees survive
//!    `to_json → parse → from_json` unchanged, compact and pretty.
//! 3. **Legacy lowering** — every `ScheduleKind` lowers into the algebra
//!    with a bit-identical decision stream, and a fixed-seed sweep of
//!    full scenario runs over all eight families produces records whose
//!    combined digest is pinned (so no algebra refactor can silently
//!    change what legacy scenarios compute).
//! 4. **Golden form** — the canonical three-deep composition's
//!    serialized form and digest never drift
//!    (`tests/golden/canonical-adversary.json`), and that composition
//!    runs scenario → suite → store → drift byte-identically across two
//!    independent runs (`suites/adversary.json`).

use apex::scenario::{fnv1a64, ProgramSource, ReportRecord, Scenario};
use apex::scheme::SchemeKind;
use apex::sim::{
    AdversarySpec, Group, Json, OverlayKind, ScheduleKind, ScriptSegment, ScriptSpec, Span,
};
use apex_lab::{
    check_against_store, compare_stores, run_suite_journaled, JournalOpts, LabStore, Suite,
};
use proptest::prelude::*;

/// Deterministic splitter for deriving independent sub-seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One of the eight base families (JSON-exact parameters).
fn base_from_seed(seed: u64, n: usize) -> ScheduleKind {
    let x = mix(seed, 3);
    let quarter = |v: u64| (v % 5) as f64 / 4.0;
    match mix(seed, 1) % 8 {
        0 => ScheduleKind::RoundRobin,
        1 => ScheduleKind::Uniform,
        2 => ScheduleKind::Zipf {
            s: 0.25 + (x % 12) as f64 / 4.0,
        },
        3 => ScheduleKind::TwoClass {
            slow_frac: quarter(x),
            ratio: 1.0 + (x % 15) as f64,
        },
        4 => ScheduleKind::Bursty {
            mean_burst: 1 + x % 128,
        },
        5 => ScheduleKind::Sleepy {
            sleepy_frac: quarter(x >> 3),
            awake: 1 + x % 1024,
            asleep: x % 8192,
        },
        6 => ScheduleKind::Crash {
            crash_frac: quarter(x >> 5),
            horizon: 1 + x % 100_000,
        },
        _ => ScheduleKind::Scripted(
            ScriptSpec::new(
                n,
                vec![
                    ScriptSegment::Run {
                        proc: (x as usize) % n,
                        ticks: 1 + x % 256,
                    },
                    ScriptSegment::AllExcept {
                        excluded: vec![(x as usize >> 4) % n],
                        rounds: x % 8,
                    },
                ],
            )
            .fallback(ScheduleKind::Bursty {
                mean_burst: 1 + x % 32,
            }),
        ),
    }
}

/// A random well-formed adversary tree of at most `depth` combinator
/// levels over an `n`-processor machine.
fn spec_from_seed(seed: u64, n: usize, depth: usize) -> AdversarySpec {
    if depth <= 1 || mix(seed, 10).is_multiple_of(2) {
        return AdversarySpec::Base(base_from_seed(mix(seed, 11), n));
    }
    match mix(seed, 12) % 4 {
        0 => AdversarySpec::Overlay {
            layer: if mix(seed, 13).is_multiple_of(2) {
                OverlayKind::Crash {
                    crash_frac: (mix(seed, 14) % 5) as f64 / 4.0,
                    horizon: 1 + mix(seed, 15) % 50_000,
                }
            } else {
                OverlayKind::Sleepy {
                    sleepy_frac: (mix(seed, 14) % 5) as f64 / 4.0,
                    awake: 1 + mix(seed, 15) % 512,
                    asleep: mix(seed, 16) % 4096,
                }
            },
            base: Box::new(spec_from_seed(mix(seed, 17), n, depth - 1)),
        },
        1 => AdversarySpec::PhaseSwitch {
            spans: (0..1 + (mix(seed, 18) as usize) % 2)
                .map(|i| Span {
                    ticks: 1 + mix(seed, 19 + i as u64) % 5000,
                    spec: spec_from_seed(mix(seed, 30 + i as u64), n, depth - 1),
                })
                .collect(),
            tail: Box::new(spec_from_seed(mix(seed, 21), n, depth - 1)),
        },
        2 if n >= 4 => {
            let cut = 2 + (mix(seed, 22) as usize) % (n - 3);
            AdversarySpec::Partition {
                groups: vec![
                    Group {
                        procs: (0..cut).collect(),
                        spec: spec_from_seed(mix(seed, 23), cut, depth - 1),
                    },
                    Group {
                        procs: (cut..n).collect(),
                        spec: spec_from_seed(mix(seed, 24), n - cut, depth - 1),
                    },
                ],
            }
        }
        _ => AdversarySpec::Scale {
            factors: (0..n).map(|i| 1 + mix(seed, 40 + i as u64) % 7).collect(),
            base: Box::new(spec_from_seed(mix(seed, 25), n, depth - 1)),
        },
    }
}

/// The canonical three-deep composition of the acceptance criteria:
/// `PhaseSwitch(Overlay(Crash, Zipf), Partition[Bursty, Sleepy])`.
fn canonical_adversary() -> AdversarySpec {
    AdversarySpec::PhaseSwitch {
        spans: vec![Span {
            ticks: 8192,
            spec: AdversarySpec::Overlay {
                layer: OverlayKind::Crash {
                    crash_frac: 0.25,
                    horizon: 4096,
                },
                base: Box::new(AdversarySpec::Base(ScheduleKind::Zipf { s: 1.0 })),
            },
        }],
        tail: Box::new(AdversarySpec::Partition {
            groups: vec![
                Group {
                    procs: (0..4).collect(),
                    spec: AdversarySpec::Base(ScheduleKind::Bursty { mean_burst: 16 }),
                },
                Group {
                    procs: (4..8).collect(),
                    spec: AdversarySpec::Base(ScheduleKind::Sleepy {
                        sleepy_frac: 0.5,
                        awake: 128,
                        asleep: 512,
                    }),
                },
            ],
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Batch transparency for every composition: `next_batch` at ragged
    /// sizes replays exactly the tick-for-tick reference stream.
    #[test]
    fn compositions_are_batch_transparent(seed in any::<u64>()) {
        let n = 4 + (mix(seed, 0) as usize % 3) * 2; // 4, 6, 8
        let spec = spec_from_seed(seed, n, 3);
        prop_assert_eq!(spec.validate(n), Ok(()));
        let mut reference = spec.build(n, seed);
        let mut batched = spec.build(n, seed);
        let serial: Vec<_> = (0..600).map(|_| reference.next()).collect();
        let mut got = Vec::with_capacity(serial.len());
        let mut buf = vec![apex::sim::ProcId(0); 128];
        let sizes = [1usize, 9, 128, 3, 64, 127, 2, 31];
        let mut k = 0;
        while got.len() < serial.len() {
            let take = sizes[k % sizes.len()].min(serial.len() - got.len());
            batched.next_batch(&mut buf[..take]);
            got.extend_from_slice(&buf[..take]);
            k += 1;
        }
        prop_assert_eq!(got, serial, "{:?}", spec);
    }

    /// Exact JSON round-trip over the same tree space.
    #[test]
    fn compositions_round_trip_through_json(seed in any::<u64>()) {
        let n = 4 + (mix(seed, 0) as usize % 3) * 2;
        let spec = spec_from_seed(seed, n, 3);
        let compact = AdversarySpec::from_json(&Json::parse(&spec.to_json().render()).unwrap()).unwrap();
        let pretty = AdversarySpec::from_json(&Json::parse(&spec.to_json().render_pretty()).unwrap()).unwrap();
        prop_assert_eq!(&compact, &spec);
        prop_assert_eq!(&pretty, &spec);
        // Canonical: one more trip is byte-stable.
        prop_assert_eq!(compact.to_json().render(), spec.to_json().render());
    }
}

/// Every legacy family lowers with a bit-identical decision stream.
#[test]
fn every_legacy_family_lowers_bit_identically() {
    for family in 0..8u64 {
        for salt in 0..3u64 {
            let kind = base_from_seed(family.wrapping_mul(977).wrapping_add(salt), 8);
            let mut legacy = kind.build(8, 1234 + salt);
            let mut lowered = kind.lower().build(8, 1234 + salt);
            for tick in 0..3000 {
                assert_eq!(
                    legacy.next(),
                    lowered.next(),
                    "{} diverged at tick {tick}",
                    kind.label()
                );
            }
        }
    }
}

/// Fixed-seed sweep of full runs over all eight legacy families: the
/// combined record digest is pinned, so legacy scenarios keep producing
/// byte-identical reports through any algebra refactor. Regenerate the
/// constant only for a deliberate engine/format change.
#[test]
fn legacy_sweep_reports_are_pinned() {
    let mut all = String::new();
    for family in 0..8u64 {
        // One representative per family, n = 8 (family 7 is scripted).
        let kind = match family {
            0 => ScheduleKind::RoundRobin,
            1 => ScheduleKind::Uniform,
            2 => ScheduleKind::Zipf { s: 1.5 },
            3 => ScheduleKind::TwoClass {
                slow_frac: 0.25,
                ratio: 8.0,
            },
            4 => ScheduleKind::Bursty { mean_burst: 24 },
            5 => ScheduleKind::Sleepy {
                sleepy_frac: 0.25,
                awake: 128,
                asleep: 512,
            },
            6 => ScheduleKind::Crash {
                crash_frac: 0.25,
                horizon: 4096,
            },
            _ => ScheduleKind::Scripted(
                ScriptSpec::new(8, vec![ScriptSegment::Run { proc: 1, ticks: 64 }])
                    .fallback(ScheduleKind::Uniform),
            ),
        };
        for seed in [1u64, 2] {
            let scenario = Scenario::scheme(
                SchemeKind::Nondet,
                ProgramSource::library("tree-reduce-max", 8, vec![3]),
                seed,
            )
            .schedule(kind.clone());
            let record = ReportRecord::run(&scenario);
            assert!(record.ok(), "{} seed {seed}", kind.label());
            all.push_str(&record.render_pretty());
        }
    }
    assert_eq!(
        format!("{:016x}", fnv1a64(all.as_bytes())),
        "0645f218f66e5283",
        "legacy-family run reports drifted — a change to the algebra or \
         engine altered what legacy scenarios compute"
    );
}

/// The canonical composition's serialized form is pinned byte-for-byte,
/// with its content digest.
#[test]
fn golden_adversary_form_is_pinned() {
    let golden = include_str!("golden/canonical-adversary.json");
    let canonical = canonical_adversary();
    assert_eq!(
        canonical.to_json().render_pretty(),
        golden,
        "canonical-adversary.json drifted; regenerate only for a \
         deliberate format change"
    );
    let parsed = AdversarySpec::from_json(&Json::parse(golden).unwrap()).unwrap();
    assert_eq!(parsed, canonical);
    assert_eq!(parsed.depth(), 3);
    parsed.validate(8).unwrap();
    assert_eq!(
        format!("{:016x}", fnv1a64(canonical.to_json().render().as_bytes())),
        "3bdb0ee73946c34a",
        "canonical adversary digest drifted"
    );
}

/// Acceptance pin: the three-deep composition runs scenario → suite →
/// store → drift end-to-end, byte-identically across two independent
/// runs of the committed `suites/adversary.json`.
#[test]
fn composed_suite_runs_end_to_end_byte_identically() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("suites/adversary.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let suite = Suite::parse(&text).unwrap();
    assert_eq!(
        suite.render_pretty(),
        text,
        "suites/adversary.json is not canonical"
    );
    suite.validate().unwrap();
    // The committed suite contains the canonical three-deep composition.
    let cells = suite.expand().unwrap();
    assert!(
        cells
            .iter()
            .any(|c| c.scenario.schedule == canonical_adversary()),
        "the canonical composition must be a cell of the committed suite"
    );
    assert!(cells.iter().all(|c| c.scenario.schedule.depth() >= 2));

    let mk_store = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("apex-adv-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        LabStore::new(dir)
    };
    let a = mk_store("a");
    let b = mk_store("b");
    let opts = JournalOpts::default();
    let run_a = run_suite_journaled(&suite, &a, &opts).unwrap().run;
    assert!(run_a.all_ok(), "{:?}", run_a.output_mismatches);
    run_suite_journaled(&suite, &b, &opts).unwrap();

    // Byte-identical stores, clean drift both ways.
    let report = compare_stores(&a, &b).unwrap();
    assert!(report.clean(), "{}", report.summary());
    let report = check_against_store(&suite, &a).unwrap();
    assert!(report.clean(), "{}", report.summary());

    let _ = std::fs::remove_dir_all(a.root());
    let _ = std::fs::remove_dir_all(b.root());
}
