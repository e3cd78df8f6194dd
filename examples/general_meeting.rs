//! General initial configurations: several groups start on different nodes,
//! their DFS territories collide in the middle of the graph, and the final
//! configuration must still be a valid dispersion. Hand-crafted starts that
//! no placement family covers go through the scenario API's
//! custom-positions escape hatch ([`run_custom`]).
//!
//! ```text
//! cargo run --example general_meeting
//! ```

use dispersion::prelude::*;

fn main() {
    // Two dense camps at both ends of a barbell graph plus stragglers on the
    // bridge: the camps' DFS territories must interleave on the narrow path.
    let graph = generators::barbell(12, 20);
    let n = graph.num_nodes();
    let mut positions = Vec::new();
    for _ in 0..14 {
        positions.push(NodeId(0)); // left clique camp
    }
    for _ in 0..14 {
        positions.push(NodeId((n - 1) as u32)); // right clique camp
    }
    for i in 0..6 {
        positions.push(NodeId((12 + 3 * i) as u32)); // stragglers on the bridge
    }

    println!(
        "barbell graph: {} nodes, {} edges; {} agents in {} groups",
        n,
        graph.num_edges(),
        positions.len(),
        3
    );

    let registry = Registry::builtin();
    let factory = registry.get("ks-dfs").expect("registered");
    for (label, schedule) in [
        ("SYNC", Schedule::Sync),
        ("ASYNC (random)", Schedule::AsyncRandom { prob: 0.6 }),
    ] {
        let (outcome, dispersed) = run_custom(
            factory,
            &Params::new(),
            graph.clone(),
            positions.clone(),
            schedule,
            Limits::default(),
            8,
        )
        .expect("run");
        println!(
            "{label:<16} {:>6} {}  | {:>6} moves | dispersed: {}",
            outcome.time(),
            if schedule.is_async() {
                "epochs"
            } else {
                "rounds"
            },
            outcome.total_moves,
            dispersed
        );
    }

    println!("\nGeneral configurations use the scan-based algorithm with the documented");
    println!("scatter fallback instead of the paper's full subsumption machinery — see");
    println!("DESIGN.md section 3 for the fidelity discussion.");
}
