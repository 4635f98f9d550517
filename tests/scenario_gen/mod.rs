//! The scenario generator the property tests share: a seed picks a
//! point anywhere in the run space — both modes, both program sources,
//! every schedule family and adversary combinator, every knob — with
//! parameters exact in the JSON number model.

// Each test crate that includes this module uses only part of it.
#![allow(dead_code)]

use apex::core::{AgreementConfig, InstrumentOpts};
use apex::scenario::{EngineKnobs, Mode, ProgramEngine, ProgramSource, Scenario, SourceSpec};
use apex::scheme::tasks::eval_cost;
use apex::scheme::SchemeKind;
use apex::sim::{AdversarySpec, Group, OverlayKind, ScheduleKind, ScriptSegment, ScriptSpec, Span};
use apex_synth::gen::{generate_program, GenConfig};

/// Deterministic splitter for deriving independent sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One of the eight schedule families, with parameters that are exact in
/// the JSON number model (quarters for fractions).
pub fn schedule_from_seed(sel: u64, n: usize, seed: u64) -> ScheduleKind {
    let x = mix(seed, 11);
    let quarter = |v: u64| (v % 5) as f64 / 4.0;
    match sel % 8 {
        0 => ScheduleKind::RoundRobin,
        1 => ScheduleKind::Uniform,
        2 => ScheduleKind::Zipf {
            s: 0.25 + (x % 16) as f64 / 4.0,
        },
        3 => ScheduleKind::TwoClass {
            slow_frac: quarter(x),
            ratio: 1.0 + (x % 31) as f64,
        },
        4 => ScheduleKind::Bursty {
            mean_burst: 1 + x % 256,
        },
        5 => ScheduleKind::Sleepy {
            sleepy_frac: quarter(x >> 3),
            awake: 1 + x % 4096,
            asleep: x % 65_536,
        },
        6 => ScheduleKind::Crash {
            crash_frac: quarter(x >> 5),
            horizon: x % 1_000_000,
        },
        _ => ScheduleKind::Scripted(
            ScriptSpec::new(
                n,
                vec![
                    ScriptSegment::Run {
                        proc: (x as usize) % n,
                        ticks: x % 512,
                    },
                    ScriptSegment::RoundRobin {
                        procs: (0..n).step_by(2).collect(),
                        rounds: 1 + x % 16,
                    },
                    ScriptSegment::AllExcept {
                        excluded: vec![(x as usize >> 4) % n],
                        rounds: x % 8,
                    },
                ],
            )
            .fallback(ScheduleKind::Bursty {
                mean_burst: 1 + x % 64,
            }),
        ),
    }
}

/// An adversary anywhere in the algebra: a base family, or one of the
/// four combinators wrapped around bases (parameters exact in the JSON
/// number model).
pub fn adversary_from_seed(sel: u64, n: usize, seed: u64) -> AdversarySpec {
    let x = mix(seed, 17);
    let base = |salt: u64| AdversarySpec::Base(schedule_from_seed(mix(seed, salt), n, seed));
    match sel % 6 {
        0 | 1 => base(41), // plain bases stay the most common case
        2 => AdversarySpec::Overlay {
            layer: if x.is_multiple_of(2) {
                OverlayKind::Crash {
                    crash_frac: (x % 5) as f64 / 4.0,
                    horizon: 1 + x % 10_000,
                }
            } else {
                OverlayKind::Sleepy {
                    sleepy_frac: (x % 5) as f64 / 4.0,
                    awake: 1 + x % 512,
                    asleep: x % 4096,
                }
            },
            base: Box::new(base(42)),
        },
        3 => AdversarySpec::PhaseSwitch {
            spans: (0..1 + (x as usize) % 2)
                .map(|i| Span {
                    ticks: 1 + mix(seed, 50 + i as u64) % 20_000,
                    spec: base(60 + i as u64),
                })
                .collect(),
            tail: Box::new(base(43)),
        },
        4 if n >= 4 => {
            // Groups of ≥ 2 keep every scripted leaf shape well-formed.
            let cut = 2 + (x as usize) % (n - 3);
            AdversarySpec::Partition {
                groups: vec![
                    Group {
                        procs: (0..cut).collect(),
                        spec: AdversarySpec::Base(schedule_from_seed(mix(seed, 44), cut, seed)),
                    },
                    Group {
                        procs: (cut..n).collect(),
                        spec: AdversarySpec::Base(schedule_from_seed(mix(seed, 45), n - cut, seed)),
                    },
                ],
            }
        }
        _ => AdversarySpec::Scale {
            factors: (0..n).map(|i| 1 + mix(seed, 70 + i as u64) % 8).collect(),
            base: Box::new(base(46)),
        },
    }
}

pub fn scheme_mode_from_seed(seed: u64) -> (Mode, usize) {
    let scheme = [
        SchemeKind::Nondet,
        SchemeKind::DetBaseline,
        SchemeKind::ScanConsensus,
        SchemeKind::IdealCas,
    ][(mix(seed, 2) % 4) as usize];
    let (program, n) = if mix(seed, 3).is_multiple_of(2) {
        // Library source, cycling the whole catalog.
        let names = ProgramSource::library_names();
        let (name, params) = names[(mix(seed, 4) as usize) % names.len()];
        let n = 4usize << (mix(seed, 5) % 2); // 4 or 8
        let params: Vec<u64> = (0..params.len() as u64)
            .map(|i| 1 + mix(seed, 6 + i) % 8)
            .collect();
        (ProgramSource::library(name, n, params), n)
    } else {
        // Explicit source: a synthesized strict-EREW program.
        let p = generate_program(&GenConfig::default(), mix(seed, 7));
        let n = p.n_threads;
        (ProgramSource::Explicit(p), n)
    };
    (
        Mode::Scheme {
            scheme,
            program,
            replicas: apex::scheme::ReplicaK(1 + (mix(seed, 8) as usize) % 3),
        },
        n,
    )
}

pub fn agreement_mode_from_seed(seed: u64) -> (Mode, usize) {
    let n = 4usize << (mix(seed, 2) % 3); // 4, 8, 16
    let source = match mix(seed, 3) % 3 {
        0 => SourceSpec::Random(1 + mix(seed, 4) % (1 << 40)),
        1 => {
            let den = 1 + mix(seed, 6) % 8;
            SourceSpec::Coin(mix(seed, 5) % (den + 1), den)
        }
        _ => SourceSpec::Keyed,
    };
    (
        Mode::Agreement {
            n,
            source,
            phases: 1 + (mix(seed, 7) as usize) % 4,
            instrument: InstrumentOpts {
                record_events: mix(seed, 8).is_multiple_of(2),
                count_clobbers: mix(seed, 9).is_multiple_of(2),
            },
        },
        n,
    )
}

/// A scenario anywhere in the full generator space, derived
/// deterministically from one seed.
pub fn scenario_from_seed(seed: u64) -> Scenario {
    let (mode, n) = if mix(seed, 1).is_multiple_of(3) {
        agreement_mode_from_seed(seed)
    } else {
        scheme_mode_from_seed(seed)
    };
    let agreement = (mix(seed, 20).is_multiple_of(4)).then(|| {
        // A valid override: sized for this n, with room for K ≤ 3.
        AgreementConfig::for_n(n, eval_cost(3))
    });
    let engine = EngineKnobs {
        batch: (mix(seed, 21).is_multiple_of(3)).then(|| 1 + (mix(seed, 22) as usize) % 256),
        tick_budget: (mix(seed, 23).is_multiple_of(4))
            .then(|| 1_000_000 + mix(seed, 24) % (1 << 50)),
        program_engine: match mix(seed, 25) % 5 {
            0 => Some(ProgramEngine::Bytecode),
            1 => Some(ProgramEngine::Tree),
            _ => None,
        },
    };
    Scenario {
        mode,
        schedule: adversary_from_seed(mix(seed, 10), n, seed),
        seed: mix(seed, 30),
        agreement,
        engine,
    }
}
