//! Byte identity on the warm path: a job served from the trial cache
//! sends exactly the bytes a cold run of the same grid sends, whatever
//! form the cached lines were in.
//!
//! - A grid of 3 repetitions over records a grid of 2 cached: the served
//!   lines advertise 3, as `run_campaign_batched` encodes them.
//! - A hand-written `cache.jsonl` in an accepted but non-canonical
//!   spelling (integer `seed`, numeric `occupancy`): served canonically,
//!   through a server and through the trial pipeline's assembly.
//! - The warm job of a cold-then-warm sequence: its `/events` frames, its
//!   `/runs/:id` document (less the two wall-clock fields) and the
//!   `/metrics` counter deltas of the whole sequence are pinned below.
//!   The ignored `record_warm_sequence` prints them, to re-record.

use disp_analysis::json::Json;
use disp_analysis::ExperimentPoint;
use disp_analysis::TrialRecord;
use disp_campaign::grid::{CampaignSpec, TrialSpec};
use disp_campaign::run::{run_campaign_batched, Plan};
use disp_core::scenario::{Registry, ScenarioSpec};
use disp_serve::cache::{CacheBudget, TrialCache};
use disp_serve::{Client, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;

const LABELS: [&str; 3] = [
    "er6/k12/occ0.5/scatter/sync/ks-dfs",
    "star/k8/rooted/sync/probe-dfs",
    "ring/k6/rooted/async-lag4/ks-dfs",
];

fn grid(reps: usize, seed: u64) -> CampaignSpec {
    let scenarios = LABELS.iter().map(|l| ScenarioSpec::from_label(l).unwrap());
    CampaignSpec::custom(scenarios.collect(), reps, seed)
}

/// The grid's records as the offline engine returns them.
fn offline(reps: usize, seed: u64) -> Vec<TrialRecord> {
    let never = AtomicBool::new(false);
    let reg = Registry::builtin();
    run_campaign_batched(&grid(reps, seed), None, 1, 1, &reg, &never, None)
        .unwrap()
        .0
}

fn body_of(records: &[TrialRecord]) -> String {
    records.iter().map(|r| r.to_json_line() + "\n").collect()
}

fn submission(reps: usize, seed: u64) -> Json {
    let labels = LABELS.iter().map(|l| Json::Str(l.to_string())).collect();
    Json::Obj(vec![
        ("scenarios".into(), Json::Arr(labels)),
        ("reps".into(), Json::Num(reps as f64)),
        ("seed".into(), Json::Num(seed as f64)),
    ])
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("disp-warm-bytes-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn start(cache_dir: Option<&Path>) -> (Server, Client) {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads: 2,
            job_threads: 1,
            cache_dir: cache_dir.map(Path::to_path_buf),
            cache_budget: CacheBudget::default(),
            coordinator: None,
        },
    )
    .unwrap();
    let client = Client::new(&server.addr().to_string());
    (server, client)
}

/// One job as a client reads it: submit, event stream to its end, results,
/// then the settled status document.
struct Run {
    events: String,
    results: String,
    status: Json,
}

fn run(client: &mut Client, reps: usize, seed: u64) -> Run {
    let created = client.post_json("/runs", &submission(reps, seed)).unwrap();
    assert_eq!(created.status, 201, "{}", created.text());
    let id = created
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let events = client.get(&format!("/runs/{id}/events")).unwrap().text();
    let results = client.get(&format!("/runs/{id}/results")).unwrap();
    assert_eq!(results.status, 200, "{}", results.text());
    let status = client.get(&format!("/runs/{id}")).unwrap().json().unwrap();
    Run {
        events,
        results: results.text(),
        status,
    }
}

fn metric(client: &mut Client, name: &str) -> u64 {
    let body = client.get("/metrics").unwrap().text();
    disp_serve::parse_metric(&body, name).unwrap()
}

#[test]
fn a_reps3_grid_over_records_cached_by_a_reps2_grid_is_served_as_the_engine_encodes_it() {
    let dir = tmp_dir("reps");
    {
        let cache = TrialCache::open(&dir).unwrap();
        for record in offline(2, 11) {
            cache.insert(&record);
        }
    }
    let (server, mut client) = start(Some(&dir));
    let wider = run(&mut client, 3, 11);
    assert_eq!(wider.results, body_of(&offline(3, 11)));
    // Every reps-2 record served, only the third repetitions executed.
    assert_eq!(
        wider.status.get("cache_hits").and_then(Json::as_u64),
        Some(6)
    );
    assert_eq!(wider.status.get("executed").and_then(Json::as_u64), Some(3));
    // The reps-2 grid itself is served verbatim from the same cache.
    assert_eq!(run(&mut client, 2, 11).results, body_of(&offline(2, 11)));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `line` respelled as a hand-written `cache.jsonl` may hold it: a
/// numeric `occupancy` and, when the seed is exact as a JSON number, an
/// integer `seed`.
fn respell(record: &TrialRecord) -> String {
    let mut line = record.to_json_line();
    if record.seed < 1 << 53 {
        let hex = format!("\"seed\":\"{:016x}\"", record.seed);
        line = line.replacen(&hex, &format!("\"seed\":{}", record.seed), 1);
    }
    let line = line.replacen("\"occupancy\":\"0.5\"", "\"occupancy\":0.5", 1);
    assert_eq!(TrialRecord::from_json_line(&line).unwrap(), *record);
    line
}

fn write_log(dir: &Path, lines: &[String]) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("cache.jsonl"), lines.join("\n") + "\n").unwrap();
}

#[test]
fn cache_lines_in_a_non_canonical_spelling_are_served_canonically() {
    let dir = tmp_dir("spelling");
    let records = offline(2, 12);
    let lines: Vec<String> = records.iter().map(respell).collect();
    // The er6 point's two lines are respelled; the others stay canonical.
    assert!(lines[..2].iter().all(|l| l.contains("\"occupancy\":0.5,")));
    write_log(&dir, &lines);
    let (server, mut client) = start(Some(&dir));
    let warm = run(&mut client, 2, 12);
    assert_eq!(warm.results, body_of(&records));
    assert_eq!(warm.status.get("executed").and_then(Json::as_u64), Some(0));
    assert_eq!(metric(&mut client, "disp_cache_hits_total"), 6);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_hand_written_line_with_an_integer_seed_is_served_canonically() {
    // A campaign's trial seeds use all 64 bits; these two are small enough
    // to be written as plain JSON integers.
    let dir = tmp_dir("integer-seed");
    let point = ExperimentPoint::new(ScenarioSpec::from_label(LABELS[0]).unwrap(), 2);
    let reg = Registry::builtin();
    let grid: Vec<TrialSpec> = (0..2)
        .map(|rep| TrialSpec {
            section: 0,
            point: point.clone(),
            rep,
            seed: 42 + rep as u64,
        })
        .collect();
    let records: Vec<TrialRecord> = grid
        .iter()
        .map(|t| t.point.run_trial(&reg, t.rep, t.seed))
        .collect();
    let lines: Vec<String> = records.iter().map(respell).collect();
    assert!(lines[0].contains("\"seed\":42,") && lines[0].contains("\"occupancy\":0.5,"));
    write_log(&dir, &lines);
    let cache = TrialCache::open(&dir).unwrap();
    let plan = Plan::new(grid, &reg, Some(&cache), None).unwrap();
    assert_eq!(plan.held(), 2);
    assert_eq!(plan.assemble_lines(&[]).unwrap(), body_of(&records));
    std::fs::remove_dir_all(&dir).ok();
}

/// The three warm-path artifacts of a cold-then-warm sequence on a fresh
/// in-memory server: the warm job's event frames, its status document
/// without `elapsed_secs` and `throughput_per_sec`, and the deltas of
/// every `/metrics` counter and histogram count over the sequence (each
/// `name delta` on its own line, sorted).
fn warm_sequence() -> (String, String, String) {
    let (server, mut client) = start(None);
    let before = client.get("/metrics").unwrap().text();
    let cold = run(&mut client, 2, 13);
    let warm = run(&mut client, 2, 13);
    let after = client.get("/metrics").unwrap().text();
    server.shutdown();
    assert_eq!(cold.results, warm.results);
    assert_eq!(warm.results, body_of(&offline(2, 13)));
    let status = match warm.status {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "elapsed_secs" && k != "throughput_per_sec")
                .collect(),
        ),
        other => panic!("status is not an object: {other:?}"),
    };
    let counters = |text: &str| -> Vec<(String, i64)> {
        text.lines()
            .filter_map(|l| l.split_once(' '))
            .filter(|(name, _)| name.ends_with("_total") || name.ends_with("_count"))
            .map(|(name, v)| (name.to_string(), v.trim().parse().unwrap()))
            .collect()
    };
    let before = counters(&before);
    let mut deltas: Vec<String> = counters(&after)
        .into_iter()
        .map(|(name, v)| {
            let was = before.iter().find(|(n, _)| *n == name).map_or(0, |p| p.1);
            format!("{name} {}", v - was)
        })
        .collect();
    deltas.sort();
    (warm.events, status.to_string_compact(), deltas.join("\n"))
}

/// Recorded with the warm path that rendered events on a collector thread
/// and re-encoded every record at assembly.
const WARM_EVENTS: &str = concat!(
    "data: {\"event\":\"job_state\",\"id\":\"r2\",\"state\":\"queued\"}\n\n",
    "data: {\"event\":\"job_state\",\"id\":\"r2\",\"state\":\"running\"}\n\n",
    "data: {\"event\":\"cached\",\"trial_id\":\"er6/k12/occ0.5/scatter/sync/ks-dfs#r0\",\"label\":\"er6/k12/occ0.5/scatter/sync/ks-dfs\",\"rep\":0,\"time\":12,\"total_moves\":12,\"dispersed\":true}\n\n",
    "data: {\"event\":\"cached\",\"trial_id\":\"er6/k12/occ0.5/scatter/sync/ks-dfs#r1\",\"label\":\"er6/k12/occ0.5/scatter/sync/ks-dfs\",\"rep\":1,\"time\":8,\"total_moves\":4,\"dispersed\":true}\n\n",
    "data: {\"event\":\"cached\",\"trial_id\":\"star/k8/rooted/sync/probe-dfs#r0\",\"label\":\"star/k8/rooted/sync/probe-dfs\",\"rep\":0,\"time\":226,\"total_moves\":253,\"dispersed\":true}\n\n",
    "data: {\"event\":\"cached\",\"trial_id\":\"star/k8/rooted/sync/probe-dfs#r1\",\"label\":\"star/k8/rooted/sync/probe-dfs\",\"rep\":1,\"time\":226,\"total_moves\":253,\"dispersed\":true}\n\n",
    "data: {\"event\":\"cached\",\"trial_id\":\"ring/k6/rooted/async-lag4/ks-dfs#r0\",\"label\":\"ring/k6/rooted/async-lag4/ks-dfs\",\"rep\":0,\"time\":13,\"total_moves\":15,\"dispersed\":true}\n\n",
    "data: {\"event\":\"cached\",\"trial_id\":\"ring/k6/rooted/async-lag4/ks-dfs#r1\",\"label\":\"ring/k6/rooted/async-lag4/ks-dfs\",\"rep\":1,\"time\":13,\"total_moves\":15,\"dispersed\":true}\n\n",
    "data: {\"event\":\"job_state\",\"id\":\"r2\",\"state\":\"done\"}\n\n",
);
const WARM_STATUS: &str = concat!(
    "{\"id\":\"r2\",\"state\":\"done\",\"total\":6,\"done\":6,\"cache_hits\":6",
    ",\"executed\":0",
    ",\"points\":{\"er6/k12/occ0.5/scatter/sync/ks-dfs\":{\"count\":2",
    ",\"moves\":{\"count\":2,\"mean\":8,\"stddev\":4,\"min\":4,\"max\":12",
    ",\"p50\":4,\"p99\":12},\"time\":{\"count\":2,\"mean\":10,\"stddev\":2",
    ",\"min\":8,\"max\":12,\"p50\":8,\"p99\":12}}",
    ",\"ring/k6/rooted/async-lag4/ks-dfs\":{\"count\":2,\"moves\":{\"count\":2",
    ",\"mean\":15,\"stddev\":0,\"min\":15,\"max\":15,\"p50\":15,\"p99\":15}",
    ",\"time\":{\"count\":2,\"mean\":13,\"stddev\":0,\"min\":13,\"max\":13",
    ",\"p50\":13,\"p99\":13}},\"star/k8/rooted/sync/probe-dfs\":{\"count\":2",
    ",\"moves\":{\"count\":2,\"mean\":253,\"stddev\":0,\"min\":253,\"max\":253",
    ",\"p50\":253,\"p99\":253},\"time\":{\"count\":2,\"mean\":226,\"stddev\":0",
    ",\"min\":226,\"max\":226,\"p50\":226,\"p99\":226}}}}",
);
const SEQUENCE_DELTAS: &str = concat!(
    "disp_cache_evictions_total 0\n",
    "disp_cache_hits_total 6\n",
    "disp_cache_misses_total 6\n",
    "disp_cache_skipped_lines_total 0\n",
    "disp_events_dropped_total 0\n",
    "disp_fleet_batches_abandoned_total 0\n",
    "disp_fleet_batches_completed_total 0\n",
    "disp_fleet_local_cache_hits_total 0\n",
    "disp_fleet_trials_executed_total 0\n",
    "disp_fleet_trials_uploaded_total 0\n",
    "disp_http_errors_total 0\n",
    "disp_http_request_duration_us_count 9\n",
    "disp_http_requests_total 9\n",
    "disp_job_queue_wait_us_count 2\n",
    "disp_jobs_cancelled_total 0\n",
    "disp_jobs_completed_total 2\n",
    "disp_jobs_evicted_total 0\n",
    "disp_jobs_failed_total 0\n",
    "disp_jobs_submitted_total 2\n",
    "disp_leases_expired_total 0\n",
    "disp_trial_duration_us_count 6\n",
    "disp_trials_executed_total 6",
);

#[test]
fn a_warm_jobs_events_status_and_metrics_match_the_recorded_sequence() {
    let (events, status, deltas) = warm_sequence();
    assert_eq!(events, WARM_EVENTS);
    assert_eq!(status, WARM_STATUS);
    assert_eq!(deltas, SEQUENCE_DELTAS);
}

#[test]
#[ignore = "prints the pinned artifacts for re-recording"]
fn record_warm_sequence() {
    let (events, status, deltas) = warm_sequence();
    println!("WARM_EVENTS {events:?}\nWARM_STATUS {status:?}\nSEQUENCE_DELTAS {deltas:?}");
}
