//! Schedule-fuzz determinism: random adversarial activation sequences
//! (derived from `disp_rng`) replayed twice must produce **byte-identical
//! traces** and identical `Outcome`s — and fuzzed campaigns must survive a
//! mid-run kill/resume through the campaign store with byte-identical
//! results. This is the determinism oracle for the flat-state engine: the
//! worklist, the cohort rides and the intrusive occupancy lists all have to
//! reproduce exactly under replay or checkpoint/resume is fiction.

use disp_analysis::TrialRecord;
use disp_campaign::grid::CampaignSpec;
use disp_campaign::run::run_campaign;
use disp_campaign::store::CampaignStore;
use disp_core::scenario::{Registry, ScenarioSpec, Schedule};
use disp_graph::generators::GraphFamily;
use disp_rng::mix;
use disp_rng::prelude::*;
use disp_sim::{Outcome, Placement, Trace, TraceEvent};

// `random-walk` is builtin now; the fuzzer needs no extras.
fn registry() -> Registry {
    Registry::builtin()
}

/// Draw a random-but-valid scenario from the fuzz RNG.
fn fuzz_spec(rng: &mut StdRng, registry: &Registry) -> ScenarioSpec {
    let families = [
        GraphFamily::Line,
        GraphFamily::Star,
        GraphFamily::RandomTree,
        GraphFamily::ErdosRenyi { avg_degree: 5.0 },
        GraphFamily::Torus,
        GraphFamily::Complete,
        GraphFamily::Hypercube,
        GraphFamily::Ring,
    ];
    loop {
        let family = families[rng.random_range(0..families.len())];
        let algorithm = ["ks-dfs", "probe-dfs", "random-walk"][rng.random_range(0..3usize)];
        let placement = match rng.random_range(0..4u32) {
            0 => Placement::Rooted,
            1 => Placement::ScatteredUniform,
            2 => Placement::Clustered {
                clusters: 1 + rng.random_range(0..4usize),
            },
            _ => Placement::AdversarialSpread,
        };
        // Random *adversarial* activation sequences: random per-step subsets
        // with a fuzzed probability, fuzzed heterogeneous lags, the adaptive
        // targeted starvation adversary, round-robin and plain sync as
        // controls.
        let schedule = match rng.random_range(0..6u32) {
            0 => Schedule::Sync,
            1 => Schedule::AsyncRoundRobin,
            2 | 3 => Schedule::AsyncRandom {
                prob: 0.05 + (rng.random_range(0..90u32) as f64) / 100.0,
            },
            4 => Schedule::AsyncTargeted {
                max_lag: 1 + rng.random_range(0..6u64),
            },
            _ => Schedule::AsyncLagging {
                max_lag: 1 + rng.random_range(0..6u64),
            },
        };
        let k = 6 + rng.random_range(0..26usize);
        let mut spec = ScenarioSpec::new(family, k, algorithm)
            .with_placement(placement)
            .with_schedule(schedule);
        if !placement.is_rooted() && rng.random_bool(0.5) {
            spec = spec.with_occupancy(0.5);
        }
        // Fault dimensions, drawn blind: `validate` redraws the illegal
        // combinations (dyn-ring off rings, crashes on crash-intolerant
        // algorithms), so faulty worlds enter the fuzz pool organically.
        if rng.random_bool(0.25) {
            spec = spec.with_dynamic_ring(1 + rng.random_range(0..3u64));
        }
        if rng.random_bool(0.25) {
            spec = spec.with_crashes(1 + rng.random_range(0..4u64));
        }
        if spec.validate(registry).is_ok() {
            return spec;
        }
    }
}

/// Run `spec` with a trace observing it, returning the outcome and the full
/// event trace. Built through [`ScenarioSpec::build`] and driven by
/// [`ScenarioSpec::execute`], so the fuzzed executions are exactly the
/// instances campaigns run under the same seed.
fn traced_run(spec: &ScenarioSpec, registry: &Registry, seed: u64) -> (Outcome, Vec<TraceEvent>) {
    let (mut world, mut protocol) = spec.build(registry, seed).expect("fuzz specs are valid");
    let mut trace = Trace::new();
    let outcome = spec
        .execute(&mut world, protocol.as_mut(), seed, &mut trace)
        .expect("fuzz runs must terminate");
    (outcome, trace.events().to_vec())
}

#[test]
fn replayed_adversarial_schedules_are_byte_identical() {
    let registry = registry();
    let mut rng = StdRng::seed_from_u64(0x0F02_2EE0);
    let mut async_specs = 0;
    for case in 0..32u64 {
        let spec = fuzz_spec(&mut rng, &registry);
        if spec.schedule.is_async() {
            async_specs += 1;
        }
        let seed = mix(&[0xD00F, case]);
        let (out_a, trace_a) = traced_run(&spec, &registry, seed);
        let (out_b, trace_b) = traced_run(&spec, &registry, seed);
        assert_eq!(out_a, out_b, "{spec}: outcomes diverged under replay");
        assert_eq!(
            trace_a.len(),
            trace_b.len(),
            "{spec}: trace lengths diverged"
        );
        assert_eq!(trace_a, trace_b, "{spec}: traces diverged under replay");
        // And the serialized (byte) form agrees too — what "byte-identical"
        // means for a checkpointed trace.
        assert_eq!(format!("{trace_a:?}"), format!("{trace_b:?}"), "{spec}");
        // A different seed must not silently reuse the same execution —
        // but only scenarios that consume randomness at all (a seeded
        // adversary, a random graph family, a seeded placement or a
        // randomized algorithm) are required to diverge; e.g.
        // line/rooted/async-rr/probe-dfs is deterministic by construction.
        let randomized = matches!(
            spec.schedule,
            Schedule::AsyncRandom { .. } | Schedule::AsyncLagging { .. }
        ) || matches!(
            spec.family,
            GraphFamily::RandomTree | GraphFamily::ErdosRenyi { .. }
        ) || spec.placement == Placement::ScatteredUniform
            || spec.algorithm == "random-walk";
        if randomized {
            let (out_c, trace_c) = traced_run(&spec, &registry, seed ^ 0x5555);
            assert!(
                out_c != out_a || trace_c != trace_a,
                "{spec}: different seeds produced identical executions"
            );
        }
    }
    assert!(async_specs >= 10, "fuzz drew too few async schedules");
}

#[test]
fn fuzzed_campaigns_survive_kill_and_resume_byte_identically() {
    let registry = registry();
    let mut rng = StdRng::seed_from_u64(0xBADC_0FFE);
    let scenarios: Vec<ScenarioSpec> = (0..6).map(|_| fuzz_spec(&mut rng, &registry)).collect();
    // Duplicate labels would collapse into one checkpoint key; dedup.
    let mut seen = std::collections::HashSet::new();
    let scenarios: Vec<ScenarioSpec> = scenarios
        .into_iter()
        .filter(|s| seen.insert(s.label()))
        .collect();
    let spec = CampaignSpec::custom(scenarios, 2, 0xFEED);

    let dir = std::env::temp_dir().join(format!("disp-schedule-fuzz-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Reference: uninterrupted in-memory run.
    let (reference, _) = run_campaign(&spec, None, 2, &registry).unwrap();
    let reference_lines: Vec<String> = reference.iter().map(TrialRecord::to_json_line).collect();

    // Killed run: checkpoint everything, then tear the log mid-record and
    // resume from the surviving prefix.
    let store = CampaignStore::create(&dir, &spec, false).unwrap();
    let (_, _) = run_campaign(&spec, Some(&store), 2, &registry).unwrap();
    let log = std::fs::read(store.trials_path()).unwrap();
    assert!(log.len() > 120, "campaign log suspiciously small");
    let cut = log.len() / 2 + 17; // deliberately mid-line
    std::fs::write(store.trials_path(), &log[..cut]).unwrap();

    let (resumed, summary) = run_campaign(&spec, Some(&store), 4, &registry).unwrap();
    assert!(summary.skipped > 0, "resume should reuse surviving trials");
    assert!(summary.executed > 0, "the torn tail must be recomputed");
    let resumed_lines: Vec<String> = resumed.iter().map(TrialRecord::to_json_line).collect();
    assert_eq!(
        resumed_lines, reference_lines,
        "kill/resume changed campaign output"
    );

    std::fs::remove_dir_all(&dir).ok();
}
