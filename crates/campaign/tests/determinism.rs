//! The campaign engine's central promise, tested end to end: results are a
//! pure function of `(campaign seed, canonical scenario label, repetition)`
//! — independent of thread count, scheduling interleavings, and kill/resume
//! splits.

use disp_analysis::{ExperimentPoint, TrialRecord};
use disp_campaign::grid::{section_points, CampaignSpec, Mode, Section};
use disp_campaign::run::run_campaign;
use disp_campaign::store::CampaignStore;
use disp_core::scenario::{Registry, ScenarioSpec, Schedule};
use disp_graph::generators::GraphFamily;
use disp_rng::prelude::*;
use disp_sim::Placement;
use std::path::PathBuf;

/// Every algorithm × schedule combination the registry supports: two runs
/// with the same seed produce identical outcomes (rounds, epochs, moves,
/// peak bits — the full `Outcome` and the dispersion verdict).
#[test]
fn every_algorithm_schedule_pair_is_seed_deterministic() {
    let registry = Registry::builtin();
    let schedules = [
        Schedule::Sync,
        Schedule::AsyncRoundRobin,
        Schedule::AsyncRandom { prob: 0.6 },
        Schedule::AsyncLagging { max_lag: 4 },
    ];
    let mut rng = StdRng::seed_from_u64(0xDE7E_0001);
    for algorithm in registry.labels() {
        for schedule in schedules {
            if schedule.is_async() && !registry.get(algorithm).unwrap().supports_async() {
                continue;
            }
            for _case in 0..3 {
                let seed = rng.next_u64();
                let point = ExperimentPoint::new(
                    ScenarioSpec::new(GraphFamily::RandomTree, 24, algorithm)
                        .with_schedule(schedule),
                    1,
                );
                let a = point.run_trial(&registry, 0, seed);
                let b = point.run_trial(&registry, 0, seed);
                assert_eq!(
                    a.outcome, b.outcome,
                    "{algorithm} under {schedule:?} with seed {seed}"
                );
                assert_eq!(a.dispersed, b.dispersed);
                assert_eq!(a.to_json_line(), b.to_json_line());
            }
        }
    }
}

fn quick_mixed_spec(seed: u64) -> CampaignSpec {
    // A cost-heterogeneous mini campaign: both schedulers, two families,
    // two k values, rooted and scattered starts — enough spread to provoke
    // real stealing at 8 threads.
    let mut mixed = section_points(
        &[GraphFamily::RandomTree],
        &[16, 48],
        &["ks-dfs"],
        Placement::ScatteredUniform,
        Schedule::AsyncRandom { prob: 0.7 },
        2,
    );
    mixed.extend(section_points(
        &[GraphFamily::RandomTree],
        &[16, 48],
        &["ks-dfs", "probe-dfs"],
        Placement::Rooted,
        Schedule::AsyncRandom { prob: 0.7 },
        2,
    ));
    CampaignSpec {
        name: "table1".into(),
        mode: Mode::Quick,
        seed,
        sections: vec![
            Section::new(
                "sync-mini",
                "sync mini",
                section_points(
                    &[GraphFamily::Line, GraphFamily::Star],
                    &[16, 48],
                    &["ks-dfs", "probe-dfs", "sync-seeker"],
                    Placement::Rooted,
                    Schedule::Sync,
                    2,
                ),
            ),
            Section::new("async-mini", "async mini", mixed),
        ],
    }
}

fn sorted_lines(records: &[TrialRecord]) -> Vec<String> {
    let mut lines: Vec<String> = records.iter().map(TrialRecord::to_json_line).collect();
    lines.sort();
    lines
}

/// A campaign at `--threads 1` and `--threads 8` produces identical sorted
/// JSONL (and, because the engine returns grid order, identical unsorted
/// record sequences too).
#[test]
fn threads_1_and_8_produce_identical_jsonl() {
    let registry = Registry::builtin();
    let spec = quick_mixed_spec(0xC0FFEE);
    let (one, s1) = run_campaign(&spec, None, 1, &registry).unwrap();
    let (eight, s8) = run_campaign(&spec, None, 8, &registry).unwrap();
    assert_eq!(s1.total, s8.total);
    assert_eq!(sorted_lines(&one), sorted_lines(&eight));
    // Stronger: grid-ordered output is identical line for line.
    let unsorted =
        |rs: &[TrialRecord]| -> Vec<String> { rs.iter().map(TrialRecord::to_json_line).collect() };
    assert_eq!(unsorted(&one), unsorted(&eight));
}

/// Checkpoint files written at different thread counts are permutations of
/// each other (completion order differs; content does not).
#[test]
fn checkpoint_files_sort_identically_across_thread_counts() {
    let registry = Registry::builtin();
    let spec = quick_mixed_spec(0xBEEF);
    let base = std::env::temp_dir().join(format!("disp-determinism-{}", std::process::id()));
    let mut all_sorted: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 8] {
        let dir: PathBuf = base.join(format!("t{threads}"));
        std::fs::remove_dir_all(&dir).ok();
        let store = CampaignStore::create(&dir, &spec, false).unwrap();
        run_campaign(&spec, Some(&store), threads, &registry).unwrap();
        let text = std::fs::read_to_string(store.trials_path()).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines.sort();
        all_sorted.push(lines);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(all_sorted[0], all_sorted[1]);
    assert_eq!(all_sorted[0].len(), spec.trials().len());
}

/// Kill/resume determinism: a run interrupted anywhere and resumed (even at
/// a different thread count) converges to the same byte content as an
/// uninterrupted run. The manifest round-trip goes through canonical
/// scenario labels, exactly like the CLI.
#[test]
fn resume_after_partial_run_matches_uninterrupted_run() {
    let registry = Registry::builtin();
    let spec = CampaignSpec::by_name("mini", Mode::Quick, 0xFACADE).unwrap();
    let grid = spec.trials();
    let dir = std::env::temp_dir().join(format!("disp-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // "Kill" after an arbitrary prefix: checkpoint 40% of trials by hand,
    // plus a torn tail to simulate death mid-write.
    let store = CampaignStore::create(&dir, &spec, false).unwrap();
    let writer = store.appender().unwrap();
    let prefix = grid.len() * 2 / 5;
    for t in &grid[..prefix] {
        writer.append(&t.point.run_trial(&registry, t.rep, t.seed));
    }
    drop(writer);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(store.trials_path())
            .unwrap();
        write!(f, "{{\"scenario\":{{\"fam").unwrap();
    }

    // Resume through the manifest path, like the CLI does.
    let (store2, manifest) = CampaignStore::open(&dir).unwrap();
    let respec = manifest.rebuild_spec().unwrap();
    assert_eq!(respec.trials().len(), grid.len());
    let (resumed, summary) = run_campaign(&respec, Some(&store2), 8, &registry).unwrap();
    assert_eq!(summary.skipped, prefix);
    assert_eq!(summary.executed, grid.len() - prefix);

    let (clean, _) = run_campaign(&spec, None, 1, &registry).unwrap();
    assert_eq!(sorted_lines(&resumed), sorted_lines(&clean));

    // The on-disk log (minus the torn line) matches too.
    let ingest = store2.read_trials().unwrap();
    assert_eq!(ingest.malformed, 1);
    assert_eq!(sorted_lines(&ingest.records), sorted_lines(&clean));

    std::fs::remove_dir_all(&dir).ok();
}

/// The new scenario classes (scattered-uniform and clustered placements)
/// run under all three schedule families in the `placements` campaign, and
/// the whole grid is thread-count invariant — the acceptance bar for the
/// scenario redesign.
#[test]
fn placements_campaign_is_thread_count_invariant() {
    let registry = Registry::builtin();
    let mut spec = CampaignSpec::by_name("placements", Mode::Quick, 0x5CA7).unwrap();
    for section in &mut spec.sections {
        section.points.retain(|p| p.scenario.k <= 32);
    }
    assert_eq!(spec.sections.len(), 3);
    let (a, _) = run_campaign(&spec, None, 1, &registry).unwrap();
    let (b, _) = run_campaign(&spec, None, 4, &registry).unwrap();
    assert_eq!(sorted_lines(&a), sorted_lines(&b));
    assert!(a.iter().all(|r| r.dispersed));
    for placement in ["scatter", "cluster4", "spread"] {
        for schedule in ["sync", "async-rand0.7", "async-lag4"] {
            assert!(
                a.iter().any(|r| {
                    let id = r.point.point_id();
                    id.contains(&format!("/{placement}/")) && id.contains(&format!("/{schedule}/"))
                }),
                "no record for {placement} × {schedule}"
            );
        }
    }
}
