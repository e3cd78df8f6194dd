//! End-to-end tests for the live-telemetry surface: the SSE event stream,
//! the per-point streaming statistics on run status, the trace endpoint,
//! and the latency/duration histograms on `/metrics`.

use disp_analysis::json::Json;
use disp_serve::{parse_metric, Client, ServeConfig, Server};

fn boot() -> (Server, String) {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads: 4,
            job_threads: 2,
            cache_dir: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

fn small_submission(seed: u64) -> Json {
    Json::Obj(vec![
        (
            "scenarios".into(),
            Json::Arr(vec![
                Json::Str("star/k12/rooted/sync/probe-dfs".into()),
                Json::Str("rtree/k12/rooted/async-rand0.7/ks-dfs".into()),
            ]),
        ),
        ("reps".into(), Json::Num(3.0)),
        ("seed".into(), Json::from_u64_lossless(seed)),
    ])
}

fn submit(client: &mut Client, seed: u64) -> (String, usize) {
    let resp = client.post_json("/runs", &small_submission(seed)).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let doc = resp.json().unwrap();
    let id = doc.get("id").and_then(Json::as_str).unwrap().to_string();
    let total = doc.get("total").and_then(Json::as_u64).unwrap() as usize;
    (id, total)
}

/// Collect the `data:` payloads of an SSE body as parsed JSON objects.
fn sse_events(body: &str) -> Vec<Json> {
    body.lines()
        .filter_map(|line| line.strip_prefix("data: "))
        .map(|payload| Json::parse(payload).expect("SSE payload parses"))
        .collect()
}

fn kind_count(events: &[Json], kind: &str) -> usize {
    events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some(kind))
        .count()
}

/// The event stream delivers one started+completed pair per executed
/// trial, lifecycle events bracket the run, the stream closes cleanly
/// when the job settles — and a warm re-submission streams `cached`
/// events instead of going silent.
#[test]
fn event_stream_accounts_for_every_trial_and_closes_cleanly() {
    let (server, addr) = boot();
    let mut client = Client::new(&addr);
    let (id, total) = submit(&mut client, 11);

    // Subscribing from a second connection while the run executes: the
    // GET blocks until the server closes the stream at settle time, so a
    // complete response body *is* the clean-close witness (a severed
    // chunked stream would fail to decode).
    let mut subscriber = Client::new(&addr);
    let resp = subscriber.get(&format!("/runs/{id}/events")).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/event-stream")));
    let events = sse_events(&resp.text());
    assert_eq!(kind_count(&events, "started"), total);
    assert_eq!(kind_count(&events, "completed"), total);
    assert_eq!(kind_count(&events, "cached"), 0);
    assert_eq!(kind_count(&events, "overflow"), 0);
    // Lifecycle: queued → running → done, in order.
    let states: Vec<String> = events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("job_state"))
        .map(|e| e.get("state").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(states, ["queued", "running", "done"]);
    // Every completed event carries wall-clock micros (non-content, so it
    // lives here and never in the results stream).
    for event in &events {
        if event.get("event").and_then(Json::as_str) == Some("completed") {
            assert!(event.get("wall_micros").and_then(Json::as_u64).is_some());
        }
    }

    // Warm re-submission: the grid is a pure cache hit, and the stream
    // says so explicitly.
    let (warm_id, _) = submit(&mut client, 11);
    let resp = subscriber.get(&format!("/runs/{warm_id}/events")).unwrap();
    let events = sse_events(&resp.text());
    assert_eq!(kind_count(&events, "cached"), total);
    assert_eq!(kind_count(&events, "started"), 0);

    server.shutdown();
}

/// Polling `GET /runs/:id` while the job runs: `done` is monotone, and the
/// final document carries per-point streaming statistics that agree with
/// the grid (count = reps per label) plus the throughput clock.
#[test]
fn run_status_counts_are_monotone_and_point_stats_cover_the_grid() {
    let (server, addr) = boot();
    let mut client = Client::new(&addr);
    let (id, total) = submit(&mut client, 23);

    let mut last_done = 0u64;
    let final_doc = loop {
        let doc = client.get(&format!("/runs/{id}")).unwrap().json().unwrap();
        let done = doc.get("done").and_then(Json::as_u64).unwrap();
        assert!(
            done >= last_done,
            "done went backwards: {last_done} → {done}"
        );
        last_done = done;
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => break doc,
            Some("queued" | "running") => std::thread::sleep(std::time::Duration::from_millis(2)),
            other => panic!("run ended {other:?}"),
        }
    };

    let points = match final_doc.get("points") {
        Some(Json::Obj(entries)) => entries,
        other => panic!("no points object: {other:?}"),
    };
    assert_eq!(points.len(), 2, "one stats entry per grid label");
    let mut counted = 0;
    for (label, stats) in points {
        let count = stats.get("count").and_then(Json::as_u64).unwrap();
        assert_eq!(count, 3, "label {label} saw {count} trials");
        counted += count as usize;
        for measure in ["moves", "time"] {
            let m = stats.get(measure).unwrap();
            let mean = m.get("mean").and_then(Json::as_f64).unwrap();
            let min = m.get("min").and_then(Json::as_f64).unwrap();
            let max = m.get("max").and_then(Json::as_f64).unwrap();
            let p50 = m.get("p50").and_then(Json::as_f64).unwrap();
            assert!(mean > 0.0 && min <= mean && mean <= max);
            assert!(p50 >= min && p50 <= max);
        }
    }
    assert_eq!(counted, total);
    assert!(final_doc
        .get("elapsed_secs")
        .and_then(Json::as_f64)
        .is_some_and(|s| s >= 0.0));
    assert!(final_doc
        .get("throughput_per_sec")
        .and_then(Json::as_f64)
        .is_some_and(|t| t > 0.0));

    server.shutdown();
}

/// `GET /trace` renders the same bytes for the same (scenario, seed),
/// truncates at the requested cap, and rejects bad requests with typed
/// 400s instead of running anything.
#[test]
fn trace_endpoint_is_deterministic_capped_and_validated() {
    let (server, addr) = boot();
    let mut client = Client::new(&addr);
    let path = "/trace?scenario=star/k8/rooted/sync/probe-dfs&seed=5";
    let a = client.get(path).unwrap();
    assert_eq!(a.status, 200);
    let b = client.get(path).unwrap();
    assert_eq!(a.text(), b.text(), "trace is not deterministic");
    let tail = a.text();
    let end = tail.lines().last().unwrap().to_string();
    let end = Json::parse(&end).unwrap();
    assert_eq!(end.get("event").and_then(Json::as_str), Some("trace_end"));
    assert_eq!(end.get("truncated"), Some(&Json::Bool(false)));
    // The probe-dfs settle milestone (code 1) appears in the log.
    assert!(tail.contains("\"event\":\"milestone\""), "{tail}");

    let capped = client.get(&format!("{path}&cap=3")).unwrap();
    let capped = capped.text();
    let end = Json::parse(capped.lines().last().unwrap()).unwrap();
    assert_eq!(end.get("events").and_then(Json::as_u64), Some(3));
    assert_eq!(end.get("truncated"), Some(&Json::Bool(true)));

    for bad in [
        "/trace",
        "/trace?scenario=nope/k8",
        "/trace?scenario=star/k8/rooted/sync/probe-dfs&seed=minus",
        "/trace?scenario=star/k8/rooted/sync/probe-dfs&cap=0",
    ] {
        let resp = client.get(bad).unwrap();
        assert_eq!(resp.status, 400, "{bad}");
        assert!(resp.json().unwrap().get("error").is_some(), "{bad}");
    }

    server.shutdown();
}

/// `/metrics` exposes the new histograms and gauges with live counts:
/// request latency observes every request, trial durations observe every
/// executed trial, and the queue-wait histogram sees each job once.
#[test]
fn metrics_histograms_observe_requests_trials_and_queue_waits() {
    let (server, addr) = boot();
    let mut client = Client::new(&addr);
    let (id, total) = submit(&mut client, 31);
    // Wait for settle via the event stream (blocks until close).
    let _ = client.get(&format!("/runs/{id}/events")).unwrap();

    let body = client.get("/metrics").unwrap().text();
    let get =
        |name: &str| parse_metric(&body, name).unwrap_or_else(|| panic!("missing metric {name}"));
    assert!(get("disp_http_request_duration_us_count") >= 2);
    assert_eq!(
        get("disp_http_request_duration_us_bucket{le=\"+Inf\"}"),
        get("disp_http_request_duration_us_count"),
    );
    assert_eq!(get("disp_trial_duration_us_count"), total as u64);
    assert_eq!(get("disp_job_queue_wait_us_count"), 1);
    assert_eq!(get("disp_http_workers"), 4);
    // This very request is being served, so at least one worker is busy.
    assert!(get("disp_http_workers_busy") >= 1);
    assert_eq!(get("disp_jobs_evicted_total"), 0);

    server.shutdown();
}

/// A settled job's event log replays byte for byte what a live subscriber
/// read, and `/metrics` counts the job as retained, weighing it by its
/// results body plus its event frames.
#[test]
fn a_late_replay_equals_the_live_stream_and_the_retained_gauges_count_the_job() {
    let (server, addr) = boot();
    let mut client = Client::new(&addr);
    // A longer job ahead of it keeps the second one live while its
    // subscriber connects (the executor runs jobs in order).
    let ahead = Json::Obj(vec![
        (
            "scenarios".into(),
            Json::Arr(vec![Json::Str("line/k48/rooted/sync/ks-dfs".into())]),
        ),
        ("reps".into(), Json::Num(40.0)),
        ("seed".into(), Json::Num(5.0)),
    ]);
    let resp = client.post_json("/runs", &ahead).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let ahead_id = resp
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let (id, _) = submit(&mut client, 41);
    let live = Client::new(&addr)
        .get(&format!("/runs/{id}/events"))
        .unwrap()
        .text();
    let replay = client.get(&format!("/runs/{id}/events")).unwrap().text();
    assert_eq!(kind_count(&sse_events(&live), "job_state"), 3);
    assert_eq!(replay, live);

    // Both jobs have settled; each weighs its results body plus its
    // event frames.
    let bytes: usize = [&ahead_id, &id]
        .iter()
        .flat_map(|run| ["results", "events"].map(|what| format!("/runs/{run}/{what}")))
        .map(|path| client.get(&path).unwrap().text().len())
        .sum();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let body = client.get("/metrics").unwrap().text();
        let get = |name: &str| parse_metric(&body, name);
        if get("disp_jobs_retained") == Some(2) {
            assert_eq!(get("disp_jobs_retained_bytes"), Some(bytes as u64));
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "retained gauges never counted both jobs"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    server.shutdown();
}
