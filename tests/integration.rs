//! Cross-crate integration tests: every algorithm × scheduler × placement ×
//! graph-family combination must produce a valid dispersion, within the
//! expected complexity envelopes, with logarithmic per-agent memory — all
//! driven through the canonical scenario API.

use dispersion::core::scenario::ScenarioReport;
use dispersion::prelude::*;

fn report(spec: &ScenarioSpec) -> ScenarioReport {
    spec.run(&Registry::builtin(), 11)
        .expect("run must terminate")
}

fn rooted(family: GraphFamily, k: usize, algo: &str, schedule: Schedule) -> ScenarioReport {
    report(&ScenarioSpec::new(family, k, algo).with_schedule(schedule))
}

#[test]
fn all_algorithms_disperse_on_all_quick_families_sync() {
    for family in GraphFamily::quick() {
        for algo in Registry::builtin().labels() {
            let r = rooted(family, 48, algo, Schedule::Sync);
            assert!(r.dispersed, "{algo} on {family}");
            assert!(r.outcome.terminated);
        }
    }
}

#[test]
fn async_algorithms_disperse_under_all_adversaries() {
    for schedule in [
        Schedule::AsyncRoundRobin,
        Schedule::AsyncRandom { prob: 0.5 },
        Schedule::AsyncLagging { max_lag: 6 },
    ] {
        for algo in ["ks-dfs", "probe-dfs"] {
            let r = rooted(GraphFamily::RandomTree, 40, algo, schedule);
            assert!(r.dispersed, "{algo} under {schedule:?}");
        }
    }
}

#[test]
fn every_placement_family_disperses_under_every_schedule() {
    // The acceptance sweep of the scenario redesign, at integration level:
    // placement families × schedule families through the general algorithm.
    for placement in Placement::all() {
        for schedule in [
            Schedule::Sync,
            Schedule::AsyncRandom { prob: 0.6 },
            Schedule::AsyncLagging { max_lag: 4 },
        ] {
            let spec = ScenarioSpec::new(GraphFamily::Grid, 30, "ks-dfs")
                .with_placement(placement)
                .with_schedule(schedule);
            let r = report(&spec);
            assert!(r.dispersed, "{}", spec.label());
        }
    }
}

#[test]
fn probe_dfs_stays_within_k_log_k_async() {
    for family in [
        GraphFamily::Line,
        GraphFamily::Star,
        GraphFamily::RandomTree,
    ] {
        let r = rooted(family, 96, "probe-dfs", Schedule::AsyncRandom { prob: 0.8 });
        assert!(
            verify::envelope::within_k_log_k(&r.outcome, 60.0),
            "{family}: {} epochs exceeds the O(k log k) envelope",
            r.outcome.epochs
        );
    }
}

#[test]
fn seeker_sync_is_linear_on_bounded_degree_families() {
    for family in [GraphFamily::Line, GraphFamily::Ring, GraphFamily::Grid] {
        let r = rooted(family, 100, "sync-seeker", Schedule::Sync);
        assert!(
            verify::envelope::within_linear(&r.outcome, 25.0),
            "{family}: {} rounds exceeds the O(k) envelope",
            r.outcome.rounds
        );
    }
}

#[test]
fn memory_is_logarithmic_for_every_algorithm() {
    for algo in Registry::builtin().labels() {
        let r = rooted(GraphFamily::Star, 128, algo, Schedule::Sync);
        assert!(
            verify::envelope::memory_logarithmic(&r.outcome, 30.0),
            "{algo}: {} bits is not O(log(k+Δ))",
            r.outcome.peak_memory_bits
        );
    }
}

#[test]
fn baseline_is_superlinear_on_dense_graphs_while_probe_is_not() {
    let rounds = |k: usize, algo: &str| {
        rooted(GraphFamily::Complete, k, algo, Schedule::Sync)
            .outcome
            .rounds
    };
    let ratio_scan = rounds(48, "ks-dfs") as f64 / rounds(24, "ks-dfs") as f64;
    let ratio_probe = rounds(48, "probe-dfs") as f64 / rounds(24, "probe-dfs") as f64;
    assert!(
        ratio_scan > ratio_probe,
        "doubling k should hurt the scan baseline ({ratio_scan:.2}x) more than probing ({ratio_probe:.2}x)"
    );
}

#[test]
fn general_configurations_disperse_with_many_groups() {
    // Hand-crafted many-group starts go through the custom-positions escape
    // hatch; the seeded families are covered by the placement sweep above.
    let registry = Registry::builtin();
    let factory = registry.get("ks-dfs").unwrap();
    let graph = GraphFamily::Grid.instantiate(100, 3);
    let n = graph.num_nodes();
    let positions: Vec<NodeId> = (0..70).map(|i| NodeId(((i * 13) % n) as u32)).collect();
    for schedule in [Schedule::Sync, Schedule::AsyncRandom { prob: 0.6 }] {
        let (outcome, dispersed) = run_custom(
            factory,
            &Params::new(),
            graph.clone(),
            positions.clone(),
            schedule,
            Limits::default(),
            1,
        )
        .expect("run");
        assert!(dispersed);
        assert!(outcome.terminated);
    }
}

#[test]
fn port_relabeling_does_not_break_dispersion() {
    // Algorithms on anonymous port-labeled graphs must not depend on how the
    // generator happened to assign port numbers.
    let registry = Registry::builtin();
    let factory = registry.get("probe-dfs").unwrap();
    let base = GraphFamily::RandomTree.instantiate(60, 21);
    let permuted = generators::permute_ports(&base, 99);
    for graph in [base, permuted] {
        let positions = vec![NodeId(0); 60];
        let (outcome, dispersed) = run_custom(
            factory,
            &Params::new(),
            graph,
            positions,
            Schedule::Sync,
            Limits::default(),
            2,
        )
        .expect("run");
        assert!(dispersed);
        assert!(outcome.terminated);
    }
}

#[test]
fn campaign_engine_drives_the_full_stack_deterministically() {
    use disp_campaign::grid::{CampaignSpec, Mode};
    use disp_campaign::run::run_campaign;

    let registry = Registry::builtin();
    let spec = CampaignSpec::mini(Mode::Quick, 0xA11CE);
    let (a, summary) = run_campaign(&spec, None, 1, &registry).expect("campaign");
    let (b, _) = run_campaign(&spec, None, 3, &registry).expect("campaign");
    assert_eq!(summary.total, spec.trials().len());
    assert!(a.iter().all(|r| r.dispersed), "mini campaign must disperse");
    let lines = |rs: &[dispersion::analysis::TrialRecord]| -> Vec<String> {
        rs.iter().map(|r| r.to_json_line()).collect()
    };
    assert_eq!(lines(&a), lines(&b), "thread count must not change results");
}
