//! End-to-end service tests: boot `disp-serve` on an ephemeral port, drive
//! it over real sockets with the `disp_serve::client`, and check the two
//! properties the subsystem exists for:
//!
//! 1. **Determinism over HTTP** — the streamed JSONL for a fixed
//!    `(labels, seed, reps)` submission is byte-identical to an offline
//!    `disp-campaign` run of the same grid, no matter how many clients
//!    race their submissions.
//! 2. **Content-addressed caching** — a repeated submission executes zero
//!    new trials (`/metrics` is the witness) and still returns the same
//!    bytes.

use disp_analysis::json::Json;
use disp_analysis::TrialRecord;
use disp_campaign::grid::{CampaignSpec, Mode};
use disp_campaign::run::run_campaign;
use disp_campaign::telemetry::timeline_to_jsonl;
use disp_core::scenario::{Registry, ScenarioSpec};
use disp_serve::{parse_metric, Client, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The `mini` campaign's grid, reshaped as the ad-hoc submission a client
/// would POST: its canonical labels plus a uniform repetition count.
fn mini_labels() -> Vec<String> {
    let spec = CampaignSpec::mini(Mode::Quick, 0);
    spec.sections
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.point_id()))
        .collect()
}

fn mini_submission(seed: u64) -> Json {
    Json::Obj(vec![
        (
            "scenarios".into(),
            Json::Arr(mini_labels().into_iter().map(Json::Str).collect()),
        ),
        ("reps".into(), Json::Num(2.0)),
        ("seed".into(), Json::from_u64_lossless(seed)),
    ])
}

/// What `disp-campaign run` would produce offline for the same grid, in
/// grid order, as JSONL text.
fn offline_jsonl(seed: u64) -> String {
    let scenarios: Vec<ScenarioSpec> = mini_labels()
        .iter()
        .map(|l| ScenarioSpec::from_label(l).unwrap())
        .collect();
    let spec = CampaignSpec::custom(scenarios, 2, seed);
    let (records, _) = run_campaign(&spec, None, 1, &Registry::builtin()).unwrap();
    let mut out = String::new();
    for rec in &records {
        out.push_str(&TrialRecord::to_json_line(rec));
        out.push('\n');
    }
    out
}

fn wait_done(client: &mut Client, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.get(&format!("/runs/{id}")).unwrap();
        assert_eq!(status.status, 200);
        let doc = status.json().unwrap();
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => return doc,
            Some("queued") | Some("running") => {
                assert!(
                    Instant::now() < deadline,
                    "run {id} never finished: {doc:?}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("run {id} ended in {other:?}"),
        }
    }
}

fn metric(client: &mut Client, name: &str) -> u64 {
    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    parse_metric(&resp.text(), name).unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn concurrent_submissions_are_deterministic_and_the_repeat_is_pure_cache() {
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
    let expected = offline_jsonl(7);
    let total = 2 * mini_labels().len() as u64;

    // Phase 1: four clients race identical submissions of the mini grid.
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::new(&addr);
                    let resp = client.post_json("/runs", &mini_submission(7)).unwrap();
                    assert_eq!(resp.status, 201, "{}", resp.text());
                    let id = resp
                        .json()
                        .unwrap()
                        .get("id")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string();
                    wait_done(&mut client, &id);
                    let results = client.get(&format!("/runs/{id}/results")).unwrap();
                    assert_eq!(results.status, 200);
                    assert_eq!(
                        results.header("transfer-encoding").map(str::to_string),
                        Some("chunked".into())
                    );
                    results.text()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // (a) Every streamed body is byte-identical to the offline CLI run.
    for body in &bodies {
        assert_eq!(body, &expected, "HTTP results differ from the offline run");
    }

    // The grid ran at most once: the FIFO executor means the three
    // followers were served from the cache populated by the first job.
    let mut client = Client::new(&addr);
    assert_eq!(metric(&mut client, "disp_trials_executed_total"), total);
    assert!(metric(&mut client, "disp_cache_hits_total") >= 3 * total);

    // Phase 2: (b) a fifth, identical submission is a 100% cache hit — the
    // executed-trials counter does not move at all.
    let resp = client.post_json("/runs", &mini_submission(7)).unwrap();
    assert_eq!(resp.status, 201);
    let id = resp
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let status = wait_done(&mut client, &id);
    assert_eq!(status.get("cache_hits").and_then(Json::as_u64), Some(total));
    assert_eq!(status.get("executed").and_then(Json::as_u64), Some(0));
    assert_eq!(metric(&mut client, "disp_trials_executed_total"), total);
    let results = client.get(&format!("/runs/{id}/results")).unwrap();
    assert_eq!(results.text(), expected);

    // A different seed is a different content address: nothing aliases.
    let resp = client.post_json("/runs", &mini_submission(8)).unwrap();
    let id8 = resp
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let status8 = wait_done(&mut client, &id8);
    assert_eq!(status8.get("executed").and_then(Json::as_u64), Some(total));
    assert_ne!(
        client.get(&format!("/runs/{id8}/results")).unwrap().text(),
        expected
    );

    server.shutdown();
}

#[test]
fn summary_endpoint_matches_the_report_json_encoder() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::new(&server.addr().to_string());
    let body = Json::Obj(vec![
        (
            "scenarios".into(),
            Json::Arr(vec![Json::Str("star/k8/rooted/sync/probe-dfs".into())]),
        ),
        ("reps".into(), Json::Num(2.0)),
        ("seed".into(), Json::from_u64_lossless(3)),
    ]);
    let resp = client.post_json("/runs", &body).unwrap();
    assert_eq!(resp.status, 201);
    let id = resp
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    wait_done(&mut client, &id);
    let summary = client
        .get(&format!("/runs/{id}/results?format=summary"))
        .unwrap();
    assert_eq!(summary.status, 200);
    let doc = summary.json().unwrap();
    assert_eq!(doc.get("campaign").and_then(Json::as_str), Some("custom"));
    let sections = match doc.get("sections") {
        Some(Json::Arr(items)) => items,
        other => panic!("bad sections: {other:?}"),
    };
    let ms = match sections[0].get("measurements") {
        Some(Json::Arr(ms)) => ms,
        other => panic!("bad measurements: {other:?}"),
    };
    assert_eq!(ms.len(), 1);
    assert_eq!(
        ms[0].get("scenario").and_then(Json::as_str),
        Some("star/k8/rooted/sync/probe-dfs")
    );
    assert_eq!(
        ms[0].get("all_dispersed").and_then(Json::as_bool),
        Some(true)
    );
    server.shutdown();
}

#[test]
fn lifecycle_errors_are_typed_and_cancellation_works() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::new(&server.addr().to_string());

    // Health and vocabulary endpoints. `/healthz` carries the process
    // identity; `status` stays the literal "ok" smoke checks grep for.
    let health = client.get("/healthz").unwrap().json().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health.get("role").and_then(Json::as_str),
        Some("standalone")
    );
    assert!(health
        .get("uptime_seconds")
        .and_then(Json::as_u64)
        .is_some());
    assert_eq!(
        health.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let scenarios = client.get("/scenarios").unwrap();
    assert!(scenarios.text().contains("async-target"));

    // Unknown run, bad grid, bad route.
    assert_eq!(client.get("/runs/r999").unwrap().status, 404);
    assert_eq!(client.get("/nope").unwrap().status, 404);
    let bad = client
        .post_json(
            "/runs",
            &Json::Obj(vec![(
                "scenarios".into(),
                Json::Arr(vec![Json::Str("star/k8/rooted/sync/quantum-dfs".into())]),
            )]),
        )
        .unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("unknown algorithm"), "{}", bad.text());

    // Results of an unfinished/cancelled run are a 409, not a hang: cancel
    // immediately after submit (the FIFO executor may or may not have
    // started it; either way the job settles and results stay unavailable
    // if it was cancelled before completion).
    let resp = client
        .post_json(
            "/runs",
            &Json::Obj(vec![
                (
                    "scenarios".into(),
                    Json::Arr(vec![Json::Str("line/k64/rooted/sync/ks-dfs".into())]),
                ),
                ("reps".into(), Json::Num(50.0)),
            ]),
        )
        .unwrap();
    let id = resp
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let cancel = client.delete(&format!("/runs/{id}")).unwrap();
    assert_eq!(cancel.status, 200);
    let deadline = Instant::now() + Duration::from_secs(60);
    let final_state = loop {
        let doc = client.get(&format!("/runs/{id}")).unwrap().json().unwrap();
        match doc.get("state").and_then(Json::as_str).map(str::to_string) {
            Some(s) if s == "queued" || s == "running" => {
                assert!(Instant::now() < deadline);
                std::thread::sleep(Duration::from_millis(10));
            }
            Some(s) => break s,
            None => panic!("no state"),
        }
    };
    if final_state == "cancelled" {
        let results = client.get(&format!("/runs/{id}/results")).unwrap();
        assert_eq!(results.status, 409);
        assert!(results.text().contains("cancelled"));
    } else {
        // The executor won the race and finished the tiny grid first —
        // then results must be available and DELETE was a no-op.
        assert_eq!(final_state, "done");
        assert_eq!(
            client.get(&format!("/runs/{id}/results")).unwrap().status,
            200
        );
    }
    server.shutdown();
}

#[test]
fn a_deeply_nested_body_is_a_400_and_the_server_stays_up() {
    // 20,000 nested arrays (40 KB, far under the body cap) used to
    // overflow the handler thread's stack and abort the whole process.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::new(&server.addr().to_string());
    let body = "[".repeat(20_000) + &"]".repeat(20_000);
    let resp = client
        .request("POST", "/runs", Some(body.into_bytes()))
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("nesting"), "{}", resp.text());
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn an_overflowing_second_chunk_is_a_400_and_every_worker_survives() {
    // The second chunk's size is usize::MAX: added unchecked to the first
    // chunk's length it wrapped, and the slice that followed panicked the
    // HTTP worker. Three such bodies against two workers left none alive.
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads: 2,
            job_threads: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let body = format!("1\r\nA\r\nffffffffffffffff\r\n{}", "B".repeat(36));
    let request =
        format!("POST /runs HTTP/1.1\r\nhost: {addr}\r\ntransfer-encoding: chunked\r\n\r\n{body}");
    for attempt in 0..3 {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply)
            .unwrap_or_else(|e| panic!("attempt {attempt}: {e}"));
        assert!(
            reply.starts_with("HTTP/1.1 400 "),
            "attempt {attempt}: {reply}"
        );
    }
    let mut client = Client::new(&addr);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    // The scrape itself holds one worker; no other stays busy, and once
    // the client leaves, none is. (A worker that closed a connection may
    // take a moment to step down, hence the deadline.)
    let deadline = Instant::now() + Duration::from_secs(5);
    while metric(&mut client, "disp_http_workers_busy") != 1 {
        assert!(Instant::now() < deadline, "an HTTP worker stayed busy");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(client);
    while server.state().workers_busy.load(Ordering::SeqCst) > 0 {
        assert!(Instant::now() < deadline, "an HTTP worker stayed busy");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_do_not_starve_new_clients() {
    // One HTTP worker only: before the yield-to-the-queue policy, a single
    // idle keep-alive client would pin it for the whole idle budget (~30 s)
    // and every new connection would hang.
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads: 1,
            job_threads: 1,
            cache_dir: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let mut idle_client = Client::new(&addr);
    assert_eq!(idle_client.get("/healthz").unwrap().status, 200);
    // idle_client now holds the only worker in its keep-alive read loop.

    let mut fresh = Client::new(&addr);
    let start = Instant::now();
    assert_eq!(fresh.get("/healthz").unwrap().status, 200);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "new client starved for {:?} behind an idle keep-alive connection",
        start.elapsed()
    );

    // The displaced idle client transparently reconnects (safe GET retry).
    assert_eq!(idle_client.get("/healthz").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn persistent_cache_survives_a_restart() {
    let dir = std::env::temp_dir().join(format!("disp-serve-restart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServeConfig {
        http_threads: 2,
        job_threads: 2,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let expected = offline_jsonl(7);
    let total = 2 * mini_labels().len() as u64;

    // First server instance computes the grid…
    {
        let server = Server::start("127.0.0.1:0", config.clone()).unwrap();
        let mut client = Client::new(&server.addr().to_string());
        let resp = client.post_json("/runs", &mini_submission(7)).unwrap();
        let id = resp
            .json()
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        wait_done(&mut client, &id);
        assert_eq!(metric(&mut client, "disp_trials_executed_total"), total);
        server.shutdown();
    }

    // …and a restarted instance serves it from disk without running a thing.
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::new(&server.addr().to_string());
    let resp = client.post_json("/runs", &mini_submission(7)).unwrap();
    let id = resp
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let status = wait_done(&mut client, &id);
    assert_eq!(status.get("executed").and_then(Json::as_u64), Some(0));
    assert_eq!(metric(&mut client, "disp_trials_executed_total"), 0);
    assert_eq!(
        client.get(&format!("/runs/{id}/results")).unwrap().text(),
        expected
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timeline_endpoints_use_the_shared_encoder_and_track_job_progress() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::new(&server.addr().to_string());

    // `GET /timeline` streams exactly what `disp-campaign timeline` would
    // print for the same scenario and seed: both sides run `run_observed`
    // with a default-budget recorder and encode through the shared
    // `timeline_to_jsonl`, so byte-identity holds by construction — and is
    // pinned here over a real socket.
    let label = "star/k8/rooted/sync/probe-dfs";
    let registry = Registry::builtin();
    let spec = ScenarioSpec::parse(label, &registry).unwrap();
    let mut recorder = disp_sim::TimelineRecorder::new();
    spec.run_observed(&registry, 7, &mut disp_sim::WorldPool::new(), &mut recorder)
        .unwrap();
    let expected = timeline_to_jsonl(&recorder.finish(), &spec.label(), 7);
    let resp = client
        .get(&format!("/timeline?scenario={label}&seed=7"))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), expected);

    // A tight budget decimates deterministically and surfaces on the
    // `/metrics` decimation gauge.
    let small = client
        .get(&format!("/timeline?scenario={label}&seed=7&budget=4"))
        .unwrap();
    assert_eq!(small.status, 200);
    let end = Json::parse(small.text().lines().last().unwrap()).unwrap();
    assert_eq!(
        end.get("event").and_then(Json::as_str),
        Some("timeline_end")
    );
    let level = end
        .get("decimation_level")
        .and_then(Json::as_u64)
        .expect("timeline_end carries decimation_level");
    assert!(level >= 1, "budget 4 must force decimation");
    assert!(metric(&mut client, "disp_timeline_decimation_level") >= level);

    // Bad inputs are typed 400s, never mid-stream failures.
    assert_eq!(client.get("/timeline").unwrap().status, 400);
    assert_eq!(
        client.get("/timeline?scenario=nope/k8").unwrap().status,
        400
    );
    assert_eq!(
        client
            .get(&format!("/timeline?scenario={label}&budget=0"))
            .unwrap()
            .status,
        400
    );

    // The per-job progress timeline brackets monotone samples with
    // start/end lines and its last sample reaches done == total.
    let resp = client.post_json("/runs", &mini_submission(7)).unwrap();
    assert_eq!(resp.status, 201);
    let id = resp
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    wait_done(&mut client, &id);
    let body = client.get(&format!("/runs/{id}/timeline")).unwrap();
    assert_eq!(body.status, 200);
    let text = body.text();
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(
        lines
            .first()
            .and_then(|l| l.get("event"))
            .and_then(Json::as_str),
        Some("progress_start")
    );
    assert_eq!(
        lines
            .last()
            .and_then(|l| l.get("event"))
            .and_then(Json::as_str),
        Some("progress_end")
    );
    let total = lines[0].get("total").and_then(Json::as_u64).unwrap();
    let dones: Vec<u64> = lines
        .iter()
        .filter(|l| l.get("event").and_then(Json::as_str) == Some("progress"))
        .map(|l| l.get("done").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(!dones.is_empty(), "no progress samples in:\n{text}");
    assert!(
        dones.windows(2).all(|w| w[0] < w[1]),
        "progress samples must be strictly monotone: {dones:?}"
    );
    assert_eq!(*dones.last().unwrap(), total);

    // Unknown run id → 404.
    assert_eq!(client.get("/runs/r999/timeline").unwrap().status, 404);
    server.shutdown();
}
