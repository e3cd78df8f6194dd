//! The trace-export contract: a `Trace` observing a run records the
//! Move/CohortMove stream plus the Milestone codes the protocols document,
//! without perturbing the run, and respects the bounded-growth cap.

use disp_core::probe_dfs::MILESTONE_SETTLED;
use disp_core::scenario::{Registry, ScenarioReport, ScenarioSpec, Schedule};
use disp_graph::generators::GraphFamily;
use disp_sim::{Trace, TraceEvent, WorldPool};

fn traced_run(
    spec: &ScenarioSpec,
    registry: &Registry,
    seed: u64,
    mut trace: Trace,
) -> (ScenarioReport, Trace) {
    let report = spec
        .run_observed(registry, seed, &mut WorldPool::new(), &mut trace)
        .unwrap();
    (report, trace)
}

#[test]
fn probe_dfs_run_records_one_settled_milestone_per_agent() {
    let registry = Registry::builtin();
    let spec = ScenarioSpec::new(GraphFamily::Line, 24, "probe-dfs").with_schedule(Schedule::Sync);
    let (report, trace) = traced_run(&spec, &registry, 7, Trace::new());
    assert!(report.dispersed);
    assert!(!trace.truncated());

    let settled: Vec<_> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Milestone {
                agent,
                node,
                code: MILESTONE_SETTLED,
                ..
            } => Some((*agent, *node)),
            _ => None,
        })
        .collect();
    // On a line under SYNC no settler is ever recruited back off its node,
    // so exactly k settlements fire, each on a distinct node.
    assert_eq!(settled.len(), 24, "one SETTLED milestone per agent");
    let mut nodes: Vec<_> = settled.iter().map(|(_, n)| n.0).collect();
    nodes.sort_unstable();
    nodes.dedup();
    assert_eq!(nodes.len(), 24, "settlement nodes are distinct");

    // The trace carries real movement too, and it matches the outcome's
    // accounting: every individual traversal is a Move event and every
    // cohort hop is one CohortMove charging `members` rides.
    let solo_moves = trace.move_count() as u64;
    let ride_moves: u64 = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::CohortMove { members, .. } => Some(*members as u64),
            _ => None,
        })
        .sum();
    assert_eq!(solo_moves + ride_moves, report.outcome.total_moves);
}

#[test]
fn traced_run_outcome_is_identical_to_untraced() {
    let registry = Registry::builtin();
    for label in [
        "line/k16/rooted/sync/probe-dfs",
        "star/k12/rooted/async-lag3/probe-dfs",
        "ring/k16/scatter/sync/ks-dfs",
    ] {
        let spec = ScenarioSpec::from_label(label).unwrap();
        let plain = spec.run(&registry, 11).unwrap();
        let (traced, trace) = traced_run(&spec, &registry, 11, Trace::new());
        assert_eq!(plain.outcome, traced.outcome, "{label}");
        assert_eq!(plain.dispersed, traced.dispersed, "{label}");
        assert!(!trace.events().is_empty(), "{label} recorded nothing");
    }
}

#[test]
fn tiny_cap_truncates_instead_of_growing() {
    let registry = Registry::builtin();
    let spec = ScenarioSpec::new(GraphFamily::Line, 32, "probe-dfs").with_schedule(Schedule::Sync);
    let (report, trace) = traced_run(&spec, &registry, 7, Trace::with_cap(5));
    assert!(report.dispersed);
    assert_eq!(trace.events().len(), 5);
    assert!(trace.truncated());
}
