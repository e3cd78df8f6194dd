//! A tour of the scenario API: one algorithm driven through every placement
//! family × every schedule family via canonical `ScenarioSpec`s — the same
//! descriptions the campaign CLI accepts as `--scenario` labels.
//!
//! ```text
//! cargo run --example scenario_tour
//! ```

use dispersion::prelude::*;

fn main() {
    let registry = Registry::builtin();
    let k = 48;

    let schedules = [
        Schedule::Sync,
        Schedule::AsyncRoundRobin,
        Schedule::AsyncRandom { prob: 0.7 },
        Schedule::AsyncLagging { max_lag: 4 },
    ];

    println!(
        "{:<44} {:>8} {:>9} {:>10}",
        "scenario (canonical label)", "time", "moves", "dispersed"
    );
    for placement in Placement::all() {
        for schedule in schedules {
            // ks-dfs is the general-configuration algorithm: the only
            // builtin that accepts every placement under every schedule.
            // Half occupancy (n ≈ 2k) keeps non-rooted starts non-trivial —
            // at k = n a scattered start is already dispersed.
            let spec = ScenarioSpec::new(GraphFamily::Grid, k, "ks-dfs")
                .with_occupancy(0.5)
                .with_placement(placement)
                .with_schedule(schedule);
            let label = spec.label();

            // The label IS the scenario: it parses back to the same spec,
            // which is what lets campaign stores and CLIs speak it.
            assert_eq!(ScenarioSpec::parse(&label, &registry).unwrap(), spec);

            let report = spec.run(&registry, 11).expect("tour run");
            println!(
                "{label:<44} {:>8} {:>9} {:>10}",
                report.outcome.time(),
                report.outcome.total_moves,
                report.dispersed
            );
        }
    }

    // Illegal combinations are typed errors, not silent misbehavior: the
    // paper's rooted algorithms refuse non-rooted starts...
    let err = ScenarioSpec::new(GraphFamily::Grid, k, "probe-dfs")
        .with_placement(Placement::ScatteredUniform)
        .run(&registry, 1)
        .unwrap_err();
    println!("\nprobe-dfs + scatter  -> {err}");
    // ...and the SYNC-only algorithm refuses asynchronous schedules.
    let err = ScenarioSpec::new(GraphFamily::Grid, k, "sync-seeker")
        .with_schedule(Schedule::AsyncRoundRobin)
        .run(&registry, 1)
        .unwrap_err();
    println!("sync-seeker + async  -> {err}");
}
