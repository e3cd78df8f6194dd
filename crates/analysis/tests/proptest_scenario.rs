//! Seeded-loop property tests for the scenario API's round-trip contract:
//! every spec drawn from the registry round-trips
//! `spec → canonical label → spec` and `spec → JSON → spec` byte-identically,
//! illegal combinations come back as typed `ScenarioError`s (never a
//! panic), and schedule labels are a bijection with their values.

use disp_analysis::{decode_scenario, encode_scenario};
use disp_core::scenario::{
    fmt_f64, parse_f64, Limits, ParamValue, Registry, ScenarioError, ScenarioSpec, Schedule,
};
use disp_graph::generators::GraphFamily;
use disp_rng::prelude::*;
use disp_sim::Placement;

const CASES: usize = 400;

fn random_family(rng: &mut StdRng) -> GraphFamily {
    let fixed = GraphFamily::all();
    match rng.random_range(0..(fixed.len() as u64 + 3)) as usize {
        i if i < fixed.len() => fixed[i],
        x if x == fixed.len() => GraphFamily::RandomRegular {
            degree: rng.random_range(2..8u64) as usize,
        },
        x if x == fixed.len() + 1 => GraphFamily::Caterpillar {
            legs: rng.random_range(1..6u64) as usize,
        },
        _ => GraphFamily::ErdosRenyi {
            avg_degree: rng.random_range(2..20u64) as f64 / 2.0,
        },
    }
}

fn random_prob(rng: &mut StdRng) -> f64 {
    // Mix round values with full-precision uniform draws: Rust's float
    // Display is shortest-round-trip, so any finite f64 is canonical.
    if rng.random_bool(0.5) {
        (rng.random_range(1..1001u64) as f64) / 1000.0
    } else {
        let u = ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64).max(1e-9);
        u.min(1.0)
    }
}

fn random_placement(rng: &mut StdRng) -> Placement {
    match rng.random_range(0..4u64) {
        0 => Placement::Rooted,
        1 => Placement::ScatteredUniform,
        2 => Placement::Clustered {
            clusters: rng.random_range(1..12u64) as usize,
        },
        _ => Placement::AdversarialSpread,
    }
}

fn random_schedule(rng: &mut StdRng) -> Schedule {
    match rng.random_range(0..5u64) {
        0 => Schedule::Sync,
        1 => Schedule::AsyncRoundRobin,
        2 => Schedule::AsyncRandom {
            prob: random_prob(rng),
        },
        3 => Schedule::AsyncTargeted {
            max_lag: rng.random_range(1..1000u64),
        },
        _ => Schedule::AsyncLagging {
            max_lag: rng.random_range(1..1000u64),
        },
    }
}

/// A random spec over the registry's vocabulary — not necessarily *valid*
/// (combination-wise), but always grammatical.
fn random_spec(rng: &mut StdRng, registry: &Registry) -> ScenarioSpec {
    let labels = registry.labels();
    let algorithm = labels[rng.random_range(0..labels.len() as u64) as usize];
    let mut spec = ScenarioSpec::new(
        random_family(rng),
        rng.random_range(1..100_000u64) as usize,
        algorithm,
    )
    .with_placement(random_placement(rng))
    .with_schedule(random_schedule(rng));
    if rng.random_bool(0.3) {
        spec = spec.with_occupancy((rng.random_range(1..1001u64) as f64) / 1000.0);
    }
    if rng.random_bool(0.3) {
        // Draw params from the factory's declared defaults, with fresh
        // values of the declared type.
        let declared = registry.get(algorithm).unwrap().default_params();
        for (key, default) in declared.iter() {
            if rng.random_bool(0.5) {
                let value = match default {
                    ParamValue::U64(_) => ParamValue::U64(rng.random_range(0..100u64)),
                    ParamValue::F64(_) => ParamValue::F64(random_prob(rng)),
                    ParamValue::Bool(_) => ParamValue::Bool(rng.random_bool(0.5)),
                };
                spec = spec.with_param(key, value);
            }
        }
    }
    // Fault dimensions: grammatical regardless of family and capability —
    // the validation property test exercises the typed rejections.
    if rng.random_bool(0.2) {
        spec = spec.with_dynamic_ring(rng.random_range(1..10u64));
    }
    if rng.random_bool(0.2) {
        spec = spec.with_crashes(rng.random_range(1..8u64));
    }
    if rng.random_bool(0.2) {
        spec = spec.with_min_distance(rng.random_range(2..6u64));
    }
    if rng.random_bool(0.2) {
        spec = spec.with_limits(Limits {
            max_rounds: rng.random_bool(0.5).then(|| rng.next_u64() >> 20),
            max_steps: rng.random_bool(0.5).then(|| rng.next_u64() >> 20),
        });
    }
    spec
}

#[test]
fn specs_round_trip_through_labels_and_json_byte_identically() {
    let registry = Registry::builtin();
    let mut rng = StdRng::seed_from_u64(0x5CEA_0001);
    for case in 0..CASES {
        let spec = random_spec(&mut rng, &registry);
        let label = spec.label();
        let from_label = ScenarioSpec::from_label(&label)
            .unwrap_or_else(|e| panic!("case {case}: '{label}' failed to parse: {e}"));
        assert_eq!(from_label, spec, "case {case}: label round-trip");
        assert_eq!(from_label.label(), label, "case {case}: label stability");

        let json = encode_scenario(&spec);
        disp_analysis::Json::parse(&json)
            .unwrap_or_else(|e| panic!("case {case}: JSON '{json}' unparseable: {e}"));
        let from_json = decode_scenario(&json)
            .unwrap_or_else(|e| panic!("case {case}: '{json}' failed to decode: {e}"));
        assert_eq!(from_json, spec, "case {case}: JSON round-trip");
        assert_eq!(
            encode_scenario(&from_json),
            json,
            "case {case}: JSON stability"
        );
    }
}

#[test]
fn validation_returns_typed_errors_and_never_panics() {
    let registry = Registry::builtin();
    let mut rng = StdRng::seed_from_u64(0x5CEA_0002);
    let mut invalid = 0usize;
    for _ in 0..CASES {
        let spec = random_spec(&mut rng, &registry);
        match spec.validate(&registry) {
            Ok(()) => {
                // A valid spec's capabilities must actually match.
                let f = registry.get(&spec.algorithm).unwrap();
                assert!(spec.placement.is_rooted() || f.supports_general());
                assert!(!spec.schedule.is_async() || f.supports_async());
                assert!(spec.dyn_ring.is_none() || f.supports_dynamic());
                assert!(spec.crashes == 0 || f.supports_crash());
                assert!(
                    spec.dyn_ring.is_none() || matches!(spec.family, GraphFamily::Ring),
                    "the dynamic adversary is ring-only"
                );
            }
            Err(e) => {
                invalid += 1;
                match e {
                    ScenarioError::PlacementUnsupported { ref algorithm, .. }
                    | ScenarioError::ScheduleUnsupported { ref algorithm, .. }
                    | ScenarioError::FaultUnsupported { ref algorithm, .. } => {
                        assert_eq!(algorithm, &spec.algorithm)
                    }
                    ScenarioError::BadSpec { .. } | ScenarioError::LimitTooLow { .. } => {}
                    other => panic!("unexpected error class {other:?}"),
                }
                // Errors must render.
                assert!(!e.to_string().is_empty());
            }
        }
    }
    assert!(invalid > 20, "the draw should produce illegal combos");
}

#[test]
fn mutated_labels_error_but_never_panic() {
    let registry = Registry::builtin();
    let mut rng = StdRng::seed_from_u64(0x5CEA_0003);
    // Includes every letter of the fault tokens (`dyn-ring`, `crash`,
    // `dist`) so mutations can forge near-miss fault segments.
    let alphabet: Vec<char> = "abcdefghikrsnty0123456789/=.-".chars().collect();
    for _ in 0..CASES {
        let spec = random_spec(&mut rng, &registry);
        let mut label: Vec<char> = spec.label().chars().collect();
        for _ in 0..rng.random_range(1..4u64) {
            match rng.random_range(0..3u64) {
                0 if label.len() > 1 => {
                    let i = rng.random_range(0..label.len() as u64) as usize;
                    label.remove(i);
                }
                1 => {
                    let i = rng.random_range(0..label.len() as u64 + 1) as usize;
                    let c = alphabet[rng.random_range(0..alphabet.len() as u64) as usize];
                    label.insert(i, c);
                }
                _ => {
                    let i = rng.random_range(0..label.len() as u64) as usize;
                    label[i] = alphabet[rng.random_range(0..alphabet.len() as u64) as usize];
                }
            }
        }
        let mutated: String = label.into_iter().collect();
        // Must return a Result either way; a surviving parse must itself
        // round-trip (the grammar admits no two spellings of one spec).
        if let Ok(respec) = ScenarioSpec::from_label(&mutated) {
            assert_eq!(respec.label(), mutated, "'{mutated}' is non-canonical");
        }
    }
}

#[test]
fn schedule_labels_are_a_bijection_over_random_draws() {
    let mut rng = StdRng::seed_from_u64(0x5CEA_0004);
    for case in 0..CASES {
        let schedule = random_schedule(&mut rng);
        let label = schedule.label();
        let back = Schedule::from_label(&label)
            .unwrap_or_else(|| panic!("case {case}: '{label}' failed to parse"));
        assert_eq!(back, schedule, "case {case}: value round-trip");
        assert_eq!(back.label(), label, "case {case}: label round-trip");
    }
}

#[test]
fn canonical_floats_round_trip_over_random_bit_patterns() {
    let mut rng = StdRng::seed_from_u64(0x5CEA_0005);
    let mut checked = 0usize;
    while checked < CASES {
        let v = f64::from_bits(rng.next_u64());
        if !v.is_finite() {
            continue;
        }
        checked += 1;
        let s = fmt_f64(v);
        assert_eq!(parse_f64(&s), Some(v), "'{s}'");
        assert!(s.contains('.') || s.contains('e') || s.contains('E'));
    }
}
