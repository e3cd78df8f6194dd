//! The telemetry pipeline's non-content guarantee, end to end: attaching a
//! live event stream to a campaign — at any thread count — changes *no
//! byte* of the results, while the sidecar accounts for every trial
//! exactly once (started + completed for executed trials, cached for
//! checkpoint hits).

use disp_analysis::json::Json;
use disp_analysis::TrialRecord;
use disp_campaign::grid::CampaignSpec;
use disp_campaign::run::{run_campaign, run_campaign_batched};
use disp_campaign::store::CampaignStore;
use disp_campaign::telemetry::{JsonlSink, Telemetry, TrialEvent, VecSink};
use disp_core::scenario::{Registry, ScenarioSpec};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

fn mixed_spec(seed: u64) -> CampaignSpec {
    let labels = [
        "star/k12/rooted/sync/probe-dfs",
        "ring/k12/rooted/sync/ks-dfs",
        "rtree/k12/rooted/async-rand0.7/ks-dfs",
    ];
    let scenarios: Vec<ScenarioSpec> = labels
        .iter()
        .map(|l| ScenarioSpec::from_label(l).unwrap())
        .collect();
    CampaignSpec::custom(scenarios, 3, seed)
}

fn lines(records: &[TrialRecord]) -> Vec<String> {
    records.iter().map(TrialRecord::to_json_line).collect()
}

/// Results with telemetry at 1 and 4 threads are byte-identical to results
/// without telemetry, and the event stream accounts for every trial: one
/// `started` and one `completed` per grid trial, no drops on this scale.
#[test]
fn telemetry_on_or_off_and_thread_count_change_no_result_byte() {
    let registry = Registry::builtin();
    let spec = mixed_spec(0xCAFE);
    let total = spec.trials().len();
    let (baseline, _) = run_campaign(&spec, None, 1, &registry).unwrap();
    let baseline = lines(&baseline);

    for threads in [1usize, 4] {
        let (sink, collected) = VecSink::new();
        let telemetry = Telemetry::start(Box::new(sink));
        let handle = telemetry.handle();
        let (records, summary) = run_campaign_batched(
            &spec,
            None,
            threads,
            1,
            &registry,
            &AtomicBool::new(false),
            Some(&handle),
        )
        .unwrap();
        drop(handle);
        let dropped = telemetry.finish();
        assert_eq!(dropped, 0, "bounded channel must absorb a mini campaign");
        assert_eq!(summary.executed, total);

        assert_eq!(
            lines(&records),
            baseline,
            "telemetry at {threads} thread(s) altered result bytes"
        );

        let events = collected.lock().unwrap();
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("started"), total);
        assert_eq!(count("completed"), total);
        assert_eq!(count("cached"), 0);
        // Every completed event carries a wall-clock that the results
        // stream must not contain: spot-check the rendered JSON.
        for event in events.iter() {
            if let TrialEvent::Completed { .. } = event {
                let json = event.to_json_line();
                assert!(json.contains("\"wall_micros\""), "{json}");
            }
        }
        for line in &baseline {
            assert!(
                !line.contains("wall_micros"),
                "timing leaked into results: {line}"
            );
        }
    }
}

/// With a store: the `events.jsonl` sidecar lands next to the checkpoint,
/// every line parses as an `"event"` object, and `trials.jsonl` is
/// (sorted) byte-identical to a run without telemetry. A re-run over the
/// same store announces every trial as `cached` — nothing re-executes.
#[test]
fn sidecar_accounts_for_runs_and_resumes_without_touching_the_checkpoint() {
    let registry = Registry::builtin();
    let spec = mixed_spec(0xBEEF);
    let total = spec.trials().len();
    let base = std::env::temp_dir().join(format!("disp-telemetry-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    // Telemetered, multi-threaded, checkpointed run.
    let dir: PathBuf = base.join("telemetered");
    let store = CampaignStore::create(&dir, &spec, false).unwrap();
    let telemetry = Telemetry::start(Box::new(JsonlSink::create(&store.events_path()).unwrap()));
    let handle = telemetry.handle();
    run_campaign_batched(
        &spec,
        Some(&store),
        4,
        1,
        &registry,
        &AtomicBool::new(false),
        Some(&handle),
    )
    .unwrap();
    drop(handle);
    telemetry.finish();

    // Bare single-threaded run: the checkpoint contents must agree.
    let bare_dir: PathBuf = base.join("bare");
    let bare_store = CampaignStore::create(&bare_dir, &spec, false).unwrap();
    run_campaign(&spec, Some(&bare_store), 1, &registry).unwrap();
    let sorted = |path: &std::path::Path| -> Vec<String> {
        let mut lines: Vec<String> = std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines.sort();
        lines
    };
    assert_eq!(
        sorted(&store.trials_path()),
        sorted(&bare_store.trials_path()),
        "sidecar run altered checkpoint bytes"
    );

    // The sidecar is well-formed JSONL with full accounting.
    let sidecar = std::fs::read_to_string(store.events_path()).unwrap();
    let mut started = 0;
    let mut completed = 0;
    for line in sidecar.lines() {
        let json = Json::parse(line).expect("sidecar line parses");
        match json.get("event").and_then(Json::as_str) {
            Some("started") => started += 1,
            Some("completed") => completed += 1,
            other => panic!("unexpected sidecar event {other:?}"),
        }
    }
    assert_eq!(started, total);
    assert_eq!(completed, total);

    // Re-run over the same store: everything is a checkpoint hit, and the
    // stream says so (in grid order) instead of going silent.
    let (sink, collected) = VecSink::new();
    let telemetry = Telemetry::start(Box::new(sink));
    let handle = telemetry.handle();
    let (records, summary) = run_campaign_batched(
        &spec,
        Some(&store),
        2,
        1,
        &registry,
        &AtomicBool::new(false),
        Some(&handle),
    )
    .unwrap();
    drop(handle);
    telemetry.finish();
    assert_eq!(summary.executed, 0);
    assert_eq!(summary.skipped, total);
    let events = collected.lock().unwrap();
    assert_eq!(events.len(), total);
    let grid_order: Vec<String> = spec.trials().iter().map(|t| t.trial_id()).collect();
    let cached_order: Vec<String> = events
        .iter()
        .map(|e| match e {
            TrialEvent::Cached { trial_id, .. } => trial_id.clone(),
            other => panic!("resume emitted {other:?}"),
        })
        .collect();
    assert_eq!(cached_order, grid_order);
    assert_eq!(records.len(), total);

    std::fs::remove_dir_all(&base).ok();
}
