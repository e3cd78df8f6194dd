//! Electric-vehicle relocation: the paper's motivating scenario of
//! self-driven cars (agents) spreading out to distinct charging stations
//! (nodes). A fleet parked at one depot of a city-grid road network must end
//! with one car per station, using only local port labels.
//!
//! ```text
//! cargo run --example ev_charging
//! ```

use dispersion::prelude::*;

fn main() {
    // A 12x12 city grid (144 stations) carrying a fleet of 100 cars:
    // occupancy 0.7 makes the scenario instantiate ≈ k/0.7 stations.
    let registry = Registry::builtin();
    let fleet = 100;
    let depot = |algorithm: &str| {
        ScenarioSpec::new(GraphFamily::Grid, fleet, algorithm).with_occupancy(0.7)
    };

    let runs = [
        ("synchronized fleet (SYNC)", depot("sync-seeker")),
        (
            "uncoordinated fleet (ASYNC, lagging)",
            depot("probe-dfs").with_schedule(Schedule::AsyncLagging { max_lag: 5 }),
        ),
        (
            "OPODIS'21 baseline (ASYNC, lagging)",
            depot("ks-dfs").with_schedule(Schedule::AsyncLagging { max_lag: 5 }),
        ),
    ];

    for (label, spec) in runs {
        let report = spec.run(&registry, 9).expect("relocation run");
        println!(
            "{label:38} -> {:>6} {}  | {:>7} car-moves | every car at its own station: {}",
            report.outcome.time(),
            if spec.schedule.is_async() {
                "epochs"
            } else {
                "rounds"
            },
            report.outcome.total_moves,
            report.dispersed
        );
    }
}
