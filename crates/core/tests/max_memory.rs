//! The O(1) memory fast path: every registered protocol answers
//! `max_memory_bits` itself, with exactly the maximum the runners' per-agent
//! scan would compute, at the start, part-way through and at the end of a
//! run. A protocol that answers `None` makes every memory sample scan all
//! `k` agents. The class histogram the flight recorder samples is held to
//! the agents it describes the same way: its counts sum to `k`, and its
//! `settled` entry counts exactly the agents that report `is_settled`.

use disp_core::extras::spacer::SpacerFactory;
use disp_core::scenario::{Registry, ScenarioSpec};
use disp_graph::generators::GraphFamily;
use disp_sim::{AgentId, AgentProtocol, RunConfig, SyncRunner};

fn scan(protocol: &dyn AgentProtocol, k: usize) -> usize {
    (0..k as u32)
        .map(|i| protocol.memory_bits(AgentId(i)))
        .max()
        .unwrap_or(0)
}

#[test]
fn every_protocol_reports_the_scanned_memory_maximum() {
    let registry = Registry::builtin().with(SpacerFactory);
    for label in registry.labels() {
        let spec = match label {
            "spacer" => ScenarioSpec::new(GraphFamily::Ring, 12, label).with_occupancy(0.25),
            _ => ScenarioSpec::new(GraphFamily::RandomTree, 24, label),
        };
        for rounds in [0, 2, 7, 20, 60, u64::MAX] {
            let (mut world, mut protocol) = spec.build(&registry, 5).expect("scenario builds");
            let config = RunConfig {
                max_rounds: rounds.min(spec.run_config(&world).max_rounds),
                ..spec.run_config(&world)
            };
            // Stopping at the round limit is the point: it leaves the
            // protocol mid-run, with its roles mixed.
            let _ = SyncRunner::new(config).run(&mut world, protocol.as_mut());
            let k = world.num_agents();
            assert_eq!(
                protocol.max_memory_bits(),
                Some(scan(protocol.as_ref(), k)),
                "{label} after at most {rounds} rounds"
            );
            let mut classes = Vec::new();
            protocol.class_counts(&mut classes);
            if classes.is_empty() {
                continue;
            }
            let total: u32 = classes.iter().map(|&(_, count)| count).sum();
            assert_eq!(total as usize, k, "{label} after at most {rounds} rounds");
            let settled: Vec<u32> = classes
                .iter()
                .filter(|&&(name, _)| name == "settled")
                .map(|&(_, count)| count)
                .collect();
            let scanned = (0..k as u32)
                .filter(|&i| protocol.is_settled(AgentId(i)))
                .count();
            assert_eq!(
                settled,
                [scanned as u32],
                "{label} after at most {rounds} rounds: {classes:?}"
            );
        }
    }
}
