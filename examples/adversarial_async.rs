//! How much does the adversary matter? Run the asynchronous doubling-probe
//! algorithm (Theorem 7.1) under increasingly hostile activation schedules
//! and report epochs, steps and moves. Each schedule is one canonical
//! scenario label away.
//!
//! ```text
//! cargo run --example adversarial_async
//! ```

use dispersion::prelude::*;

fn main() {
    let registry = Registry::builtin();
    let k = 80;
    println!("Erdős–Rényi graph (avg degree 6) with k = {k} agents rooted at node 0\n");
    println!(
        "{:<28} {:>8} {:>10} {:>10} {:>10}",
        "schedule", "epochs", "steps", "moves", "dispersed"
    );

    let schedules = vec![
        ("async round-robin", Schedule::AsyncRoundRobin),
        ("async random p=0.9", Schedule::AsyncRandom { prob: 0.9 }),
        ("async random p=0.5", Schedule::AsyncRandom { prob: 0.5 }),
        ("async random p=0.2", Schedule::AsyncRandom { prob: 0.2 }),
        ("async lagging ≤4", Schedule::AsyncLagging { max_lag: 4 }),
        ("async lagging ≤16", Schedule::AsyncLagging { max_lag: 16 }),
        ("async targeted ≤4", Schedule::AsyncTargeted { max_lag: 4 }),
        (
            "async targeted ≤16",
            Schedule::AsyncTargeted { max_lag: 16 },
        ),
    ];

    for (label, schedule) in schedules {
        let spec = ScenarioSpec::new(GraphFamily::ErdosRenyi { avg_degree: 6.0 }, k, "probe-dfs")
            .with_schedule(schedule);
        let report = spec.run(&registry, 13).expect("run");
        println!(
            "{:<28} {:>8} {:>10} {:>10} {:>10}",
            label,
            report.outcome.epochs,
            report.outcome.steps,
            report.outcome.total_moves,
            report.dispersed
        );
    }

    println!("\nEpoch counts stay in the same O(k log k) envelope regardless of the");
    println!("adversary — the paper's point that the probing technique is not");
    println!("inherently tied to synchrony.");
}
