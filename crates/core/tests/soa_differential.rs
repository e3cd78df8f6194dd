//! The SoA differential suite.
//!
//! The hot-path refactor rewrote the per-agent state of `probe-dfs`,
//! `sync-seeker` and `ks-dfs` from enum-of-structs `Vec<AgentState>` to
//! structure-of-arrays (tag byte + packed parallel fields) and moved the
//! rider/guest/prober lists into a reusable arena. The contract is
//! **byte-identical behavior**: same seed ⇒ same outcome, same final
//! positions, and the same traced event stream, event for event.
//!
//! This suite enforces the contract mechanically. The pre-refactor AoS
//! implementations are retained verbatim under `tests/soa_differential/`
//! (only compiled for this test target — the `#[cfg(test)]`-retention the
//! issue asks for, realized as test-only modules) and registered beside the
//! live ones under `ref-*` labels. Every spec in a pool mirroring the
//! invariant grid — all graph families × placements × schedules, plus the
//! dynamic-ring fault worlds — runs through *both* registrations with the
//! same seed, and the suite compares:
//!
//! 1. the full [`Outcome`] (rounds/steps/epochs, activations, moves, peak
//!    memory bits — `PartialEq` covers every field),
//! 2. the final position of every agent, and
//! 3. the traced `Move`/`CohortMove`/`Milestone` event stream, which
//!    observes every individual world mutation in order — "step for step".
//!
//! Crash worlds are not in the pool because none of the three refactored
//! algorithms declares `supports_crash` (the crash-tolerant `random-walk`
//! and `spacer` were not touched by the refactor).

#![cfg(not(any(feature = "inject-collision", feature = "inject-orphan")))]

mod soa_differential {
    // Verbatim pre-refactor copies: unused helpers (probe counters, alt
    // constructors) stay in place so the reference is a faithful snapshot.
    #![allow(dead_code)]
    pub mod ref_ks_dfs;
    pub mod ref_probe_dfs;
    pub mod ref_rooted_sync;
}

use disp_core::scenario::{AlgorithmFactory, ParamValue, Params, Registry, ScenarioSpec, Schedule};
use disp_graph::generators::GraphFamily;
use disp_rng::mix;
use disp_sim::{AgentProtocol, Outcome, Placement, Trace, TraceEvent, World};
use soa_differential::ref_ks_dfs::KsDfs as RefKsDfs;
use soa_differential::ref_probe_dfs::ProbeDfs as RefProbeDfs;
use soa_differential::ref_rooted_sync::{RootedSyncDisp as RefRootedSyncDisp, SyncConfig};

// ---------------------------------------------------------------------------
// Reference factories: identical capability declarations, `ref-` labels.
// ---------------------------------------------------------------------------

struct RefProbeDfsFactory;

impl AlgorithmFactory for RefProbeDfsFactory {
    fn label(&self) -> &'static str {
        "ref-probe-dfs"
    }

    fn supports_dynamic(&self) -> bool {
        true
    }

    fn build(&self, world: &World, _params: &Params, _seed: u64) -> Box<dyn AgentProtocol> {
        Box::new(RefProbeDfs::new(world))
    }
}

struct RefKsDfsFactory;

impl AlgorithmFactory for RefKsDfsFactory {
    fn label(&self) -> &'static str {
        "ref-ks-dfs"
    }

    fn supports_general(&self) -> bool {
        true
    }

    fn build(&self, world: &World, _params: &Params, seed: u64) -> Box<dyn AgentProtocol> {
        Box::new(RefKsDfs::with_seed(world, seed))
    }
}

struct RefSyncSeekerFactory;

impl AlgorithmFactory for RefSyncSeekerFactory {
    fn label(&self) -> &'static str {
        "ref-sync-seeker"
    }

    fn supports_async(&self) -> bool {
        false
    }

    fn default_params(&self) -> Params {
        Params::new()
            .set("wait", ParamValue::U64(1))
            .set("probers", ParamValue::U64(0))
    }

    fn build(&self, world: &World, params: &Params, _seed: u64) -> Box<dyn AgentProtocol> {
        let config = SyncConfig {
            wait_rounds: params.u64_or("wait", 1) as u32,
            max_probers: match params.u64_or("probers", 0) {
                0 => None,
                cap => Some(cap as usize),
            },
        };
        Box::new(RefRootedSyncDisp::with_config(world, config))
    }
}

fn registry() -> Registry {
    Registry::builtin()
        .with(RefProbeDfsFactory)
        .with(RefKsDfsFactory)
        .with(RefSyncSeekerFactory)
}

// ---------------------------------------------------------------------------
// Execution: ScenarioSpec::build + ScenarioSpec::execute, the path every
// ScenarioSpec::run takes, with the World (final positions) kept and a
// Trace observing the run.
// ---------------------------------------------------------------------------

const TRACE_CAP: usize = 1 << 20;

struct RunRecord {
    outcome: Outcome,
    positions: Vec<disp_graph::NodeId>,
    events: Vec<TraceEvent>,
    truncated: bool,
}

fn run_traced(spec: &ScenarioSpec, registry: &Registry, seed: u64) -> RunRecord {
    let (mut world, mut protocol) = spec.build(registry, seed).expect("pool specs are valid");
    let mut trace = Trace::with_cap(TRACE_CAP);
    let outcome = spec
        .execute(&mut world, protocol.as_mut(), seed, &mut trace)
        .expect("pool runs must terminate");
    RunRecord {
        outcome,
        positions: world.snapshot_positions(),
        events: trace.events().to_vec(),
        truncated: trace.truncated(),
    }
}

/// Run `spec` through the live algorithm and its `ref-` twin under the same
/// seed and assert the three-way identity (outcome, positions, events).
fn assert_identical(spec: &ScenarioSpec, registry: &Registry, seed: u64) {
    let live = run_traced(spec, registry, seed);
    let mut ref_spec = spec.clone();
    ref_spec.algorithm = format!("ref-{}", spec.algorithm);
    let reference = run_traced(&ref_spec, registry, seed);

    assert_eq!(
        live.outcome, reference.outcome,
        "{spec} seed {seed}: outcome diverged from the AoS reference"
    );
    assert_eq!(
        live.positions, reference.positions,
        "{spec} seed {seed}: final positions diverged from the AoS reference"
    );
    assert!(
        !live.truncated && !reference.truncated,
        "{spec} seed {seed}: trace cap too small for a step-for-step comparison"
    );
    // Event streams are compared index-by-index first so a divergence points
    // at the first differing step, not at a 10^5-line Debug dump.
    let n = live.events.len().min(reference.events.len());
    for i in 0..n {
        assert_eq!(
            live.events[i], reference.events[i],
            "{spec} seed {seed}: trace diverges at event {i}"
        );
    }
    assert_eq!(
        live.events.len(),
        reference.events.len(),
        "{spec} seed {seed}: trace lengths diverge after a common prefix of {n}"
    );
}

// ---------------------------------------------------------------------------
// The spec pool: the invariant grid's shape (families × placements ×
// schedules at k = 18, scattered starts at half occupancy) plus the
// dynamic-ring fault worlds for the one refactored algorithm that
// supports them.
// ---------------------------------------------------------------------------

fn pool(algorithm: &str) -> Vec<ScenarioSpec> {
    let families = [
        GraphFamily::Line,
        GraphFamily::Star,
        GraphFamily::RandomTree,
        GraphFamily::ErdosRenyi { avg_degree: 6.0 },
        GraphFamily::Torus,
        GraphFamily::Complete,
    ];
    let schedules = [
        Schedule::Sync,
        Schedule::AsyncRoundRobin,
        Schedule::AsyncRandom { prob: 0.6, seed: 0 },
        Schedule::AsyncLagging {
            max_lag: 3,
            seed: 0,
        },
        Schedule::AsyncTargeted { max_lag: 3 },
    ];
    let registry = registry();
    let mut specs = Vec::new();
    for family in families {
        for &placement in &Placement::all() {
            for schedule in schedules {
                let mut spec = ScenarioSpec::new(family, 18, algorithm)
                    .with_placement(placement)
                    .with_schedule(schedule);
                if !placement.is_rooted() {
                    spec = spec.with_occupancy(0.5);
                }
                if spec.validate(&registry).is_ok() {
                    specs.push(spec);
                }
            }
        }
    }
    specs
}

fn assert_pool_identical(algorithm: &str, tag: u64) {
    let registry = registry();
    let specs = pool(algorithm);
    assert!(!specs.is_empty(), "empty pool for {algorithm}");
    for (i, spec) in specs.iter().enumerate() {
        for rep in 0..2u64 {
            let seed = mix(&[tag, i as u64, rep]);
            assert_identical(spec, &registry, seed);
        }
    }
}

#[test]
fn probe_dfs_matches_the_aos_reference_across_the_grid() {
    assert_pool_identical("probe-dfs", 0x50A0_0001);
}

#[test]
fn sync_seeker_matches_the_aos_reference_across_the_grid() {
    assert_pool_identical("sync-seeker", 0x50A0_0002);
}

#[test]
fn ks_dfs_matches_the_aos_reference_across_the_grid() {
    assert_pool_identical("ks-dfs", 0x50A0_0003);
}

#[test]
fn sync_seeker_matches_under_non_default_params() {
    // The seeker's wait/prober-cap knobs steer the leader down different
    // branches (capped pools, longer waits); cover them explicitly since
    // the grid pool only runs defaults.
    let registry = registry();
    for (wait, probers) in [(2u64, 0u64), (1, 3), (3, 2)] {
        let spec = ScenarioSpec::new(GraphFamily::RandomTree, 18, "sync-seeker")
            .with_param("probers", ParamValue::U64(probers))
            .with_param("wait", ParamValue::U64(wait));
        assert_identical(&spec, &registry, mix(&[0x50A0_0004, wait, probers]));
    }
}

#[test]
fn probe_dfs_matches_the_aos_reference_in_dynamic_ring_worlds() {
    // Fault worlds: one seeded ring edge down per round, restored the next
    // round, across the schedule families — the EdgeDown retry paths.
    let registry = registry();
    let schedules = [
        Schedule::Sync,
        Schedule::AsyncRoundRobin,
        Schedule::AsyncRandom { prob: 0.6, seed: 0 },
        Schedule::AsyncLagging {
            max_lag: 3,
            seed: 0,
        },
        Schedule::AsyncTargeted { max_lag: 3 },
    ];
    for (i, schedule) in schedules.into_iter().enumerate() {
        for rate in [1u64, 2] {
            let spec = ScenarioSpec::new(GraphFamily::Ring, 18, "probe-dfs")
                .with_schedule(schedule)
                .with_dynamic_ring(rate);
            if spec.validate(&registry).is_err() {
                continue;
            }
            for rep in 0..2u64 {
                let seed = mix(&[0x50A0_0005, i as u64, rate, rep]);
                assert_identical(&spec, &registry, seed);
            }
        }
    }
}

#[test]
fn larger_instances_match_too() {
    // One bigger instance per algorithm so packed-field widths (ports,
    // counters) are exercised beyond toy sizes.
    let registry = registry();
    for (algorithm, family) in [
        ("probe-dfs", GraphFamily::Line),
        ("sync-seeker", GraphFamily::Complete),
        ("ks-dfs", GraphFamily::Torus),
    ] {
        let spec = ScenarioSpec::new(family, 256, algorithm);
        assert_identical(&spec, &registry, mix(&[0x50A0_0006]));
    }
}
