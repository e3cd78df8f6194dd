//! Quickstart: disperse `k` agents from a single node of a random tree under
//! both schedulers and print the measured costs.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dispersion::prelude::*;

fn main() {
    let k = 64;
    let registry = Registry::builtin();

    // One canonical description per run; the graph (a random tree with k
    // nodes) is instantiated from the run seed.
    let runs = [
        (
            "SYNC  seeker probing ",
            ScenarioSpec::new(GraphFamily::RandomTree, k, "sync-seeker"),
        ),
        (
            "ASYNC doubling probe ",
            ScenarioSpec::new(GraphFamily::RandomTree, k, "probe-dfs")
                .with_schedule(Schedule::AsyncRandom { prob: 0.7 }),
        ),
        (
            "ASYNC scan baseline  ",
            ScenarioSpec::new(GraphFamily::RandomTree, k, "ks-dfs")
                .with_schedule(Schedule::AsyncRandom { prob: 0.7 }),
        ),
    ];

    for (label, spec) in runs {
        let report = spec.run(&registry, 7).expect("run");
        println!(
            "{label}: {:>6} {}, {:>7} moves, {:>3} bits/agent, dispersed: {}   [{}]",
            report.outcome.time(),
            if spec.schedule.is_async() {
                "epochs"
            } else {
                "rounds"
            },
            report.outcome.total_moves,
            report.outcome.peak_memory_bits,
            report.dispersed,
            report.scenario
        );
    }
}
