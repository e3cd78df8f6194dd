//! Load balancing view of dispersion: work items (agents) created at a few
//! hot nodes of a cluster interconnect (here a hypercube) must end up on
//! distinct machines. Clustered starts are a first-class placement family,
//! so the whole workload is one canonical scenario.
//!
//! ```text
//! cargo run --example load_balancing
//! ```

use dispersion::prelude::*;

fn main() {
    let registry = Registry::builtin();

    // 96 work items created at 3 seeded hot spots of a 128-machine
    // hypercube (occupancy 0.75 → the scenario instantiates 128 nodes).
    let spec = ScenarioSpec::new(GraphFamily::Hypercube, 96, "ks-dfs")
        .with_occupancy(0.75)
        .with_placement(Placement::Clustered { clusters: 3 });
    println!("scenario: {}", spec.label());

    let report = spec.run(&registry, 4).expect("balancing run");
    println!(
        "balanced in {} rounds with {} item migrations; one item per machine: {}",
        report.outcome.rounds, report.outcome.total_moves, report.dispersed
    );
    println!(
        "peak coordination state per item: {} bits (O(log(k + degree)))",
        report.outcome.peak_memory_bits
    );

    // Same workload under asynchrony — one builder call away.
    let async_spec = spec.with_schedule(Schedule::AsyncRandom { prob: 0.6 });
    let async_report = async_spec.run(&registry, 4).expect("async balancing run");
    println!(
        "under asynchrony: {} epochs ({} scheduler steps), dispersed: {}",
        async_report.outcome.epochs, async_report.outcome.steps, async_report.dispersed
    );
}
