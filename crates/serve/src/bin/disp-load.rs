//! The load-generation harness for `disp-serve`.
//!
//! ```text
//! disp-load bench  --addr HOST:PORT [--connections N] [--requests N]
//!                  [--scenario LABEL]... [--grid default|micro] [--min-rps N]
//!                  [--reps N] [--seed S] [--format text|json]
//!                  [--target serve|coordinator]
//! disp-load once   --addr HOST:PORT [--scenario LABEL]... [--grid default|micro]
//!                  [--reps N] [--seed S]
//! disp-load events --addr HOST:PORT [--scenario LABEL]... [--grid default|micro]
//!                  [--reps N] [--seed S]
//! disp-load watch  --addr HOST:PORT [--scenario LABEL]... [--grid default|micro]
//!                  [--reps N] [--seed S] | --run ID
//! disp-load get    --addr HOST:PORT --path PATH
//! ```
//!
//! * `bench` warms the cache with one submission, then hammers the server
//!   from N keep-alive connections with a mixed submit/poll/fetch/metrics
//!   workload and reports throughput and p50/p99 latency — the numbers
//!   behind the ROADMAP's "heavy traffic" claim. `--format json` prints
//!   the same numbers as one machine-readable JSON object. `--grid micro`
//!   swaps the builtin grid for a wide grid of many small trials (the
//!   server-side analogue of the bench gate's micro workload, pushing the
//!   executor's per-worker world pools), and `--min-rps` turns the
//!   measured warm-cache throughput into a pass/fail floor. `--target
//!   coordinator` adds the per-worker spread of the warm-up grid.
//! * `once` submits one grid, waits for completion and streams the JSONL
//!   results to stdout (the CI smoke diffs this against an offline
//!   `disp-campaign run` of the same grid).
//! * `events` submits one grid and subscribes to `GET /runs/:id/events`,
//!   verifying the live stream: every grid trial produces a completed or
//!   cached event, lifecycle events bracket them, and the stream closes
//!   cleanly when the job settles (the CI events smoke). A subscriber
//!   that fell behind (an `overflow` frame) is a *failure*: the windows
//!   are sized so a healthy consumer never drops, so a drop is a signal,
//!   not noise.
//! * `watch` is the live dashboard: submit a grid (or point it at a
//!   running job with `--run ID`) and poll `GET /runs/:id/timeline`,
//!   re-rendering an ASCII sparkline of completed trials until the job
//!   settles.
//! * `get` fetches one path and prints the body (so CI needs no curl).

use disp_analysis::json::Json;
use disp_campaign::cli::{emit, Args, Cli, Command, Flag, Kind::*};
use disp_serve::Client;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str = "\
disp-load — load generation for disp-serve

USAGE:
  disp-load bench  --addr HOST:PORT [--connections N] [--requests N]
                   [--scenario LABEL]... [--grid default|micro] [--min-rps N]
                   [--reps N] [--seed S] [--format text|json]
                   [--target serve|coordinator]
  disp-load once   --addr HOST:PORT [--scenario LABEL]... [--grid default|micro]
                   [--reps N] [--seed S]
  disp-load events --addr HOST:PORT [--scenario LABEL]... [--grid default|micro]
                   [--reps N] [--seed S]
  disp-load watch  --addr HOST:PORT [--scenario LABEL]... [--grid default|micro]
                   [--reps N] [--seed S] | --run ID
  disp-load get    --addr HOST:PORT --path PATH

Without --scenario the grid is a small builtin one; --reps defaults to 2
and --seed to 7. bench defaults: 4 connections, 1000 requests.
The mixed workload is, per 8 requests: 1 submit, 3 status polls,
3 results fetches, 1 metrics scrape. --grid micro replaces the builtin
grid with many small trials across families and schedules; --min-rps N
fails the bench when the measured warm-cache throughput falls below N
requests per second. --target coordinator additionally reports how the
warm-up grid's trials were spread across cluster workers (from the
/metrics per-worker gauges).

events submits a grid, subscribes to the run's live event stream and
verifies it: one completed/cached event per grid trial, a clean close,
and no overflow frame (a subscriber that fell behind exits non-zero).

watch submits a grid (or attaches to a running job with --run ID, which
submits nothing) and polls GET /runs/:id/timeline, re-rendering a
sparkline of completed trials until the job settles.
";

const ADDR: Flag = Flag::new("--addr", Text);
const SCENARIO: Flag = Flag::new("--scenario", Text).repeated();
const GRID: Flag = Flag::new("--grid", OneOf(&["default", "micro"]));
const REPS: Flag = Flag::new("--reps", Positive);
const SEED: Flag = Flag::new("--seed", Unsigned);

/// The flags each subcommand reads.
const CLI: Cli = Cli {
    name: "disp-load",
    usage: USAGE,
    commands: &[
        Command::new(
            "bench",
            &[
                ADDR,
                Flag::new("--connections", Positive),
                Flag::new("--requests", Positive),
                SCENARIO,
                GRID,
                Flag::new("--min-rps", Number),
                REPS,
                SEED,
                Flag::new("--format", OneOf(&["text", "json"])),
                Flag::new("--target", OneOf(&["serve", "coordinator"])),
            ],
        ),
        Command::new("once", &[ADDR, SCENARIO, GRID, REPS, SEED]),
        Command::new("events", &[ADDR, SCENARIO, GRID, REPS, SEED]),
        Command::new(
            "watch",
            &[ADDR, SCENARIO, GRID, REPS, SEED, Flag::new("--run", Text)],
        ),
        Command::new("get", &[ADDR, Flag::new("--path", Text)]),
    ],
};

/// The grid without `--scenario`: SYNC + ASYNC, two algorithms.
const DEFAULT_GRID: [&str; 2] = [
    "star/k12/rooted/sync/probe-dfs",
    "rtree/k12/rooted/async-rand0.7/ks-dfs",
];

/// The `--grid micro` grid: many small trials across graph families,
/// schedules and both algorithms — the serve-path analogue of the bench
/// gate's micro workload. Every trial is tiny, so the executor's cost is
/// dominated by per-trial setup, which is exactly what the per-worker
/// world pools are for.
const MICRO_GRID: [&str; 12] = [
    "line/k256/rooted/sync/probe-dfs",
    "line/k192/rooted/sync/probe-dfs",
    "line/k128/rooted/sync/ks-dfs",
    "ring/k256/rooted/sync/probe-dfs",
    "ring/k128/rooted/sync/ks-dfs",
    "star/k64/rooted/sync/probe-dfs",
    "star/k64/rooted/sync/ks-dfs",
    "rtree/k128/rooted/sync/probe-dfs",
    "rtree/k64/rooted/async-rand0.7/ks-dfs",
    "line/k128/rooted/async-lag4/probe-dfs",
    "star/k32/rooted/async-rand0.7/probe-dfs",
    "ring/k64/rooted/async-lag4/ks-dfs",
];

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let args = CLI.parse_subcommand(&words);
    CLI.finish(run(&args))
}

fn run(args: &Args) -> Result<(), String> {
    let addr: String = args.get("--addr").ok_or("--addr HOST:PORT is required")?;
    let mut client = Client::new(&addr);
    match args.command.name {
        "bench" => cmd_bench(args, &addr, &submission_body(args)?),
        "once" => cmd_once(&mut client, &submission_body(args)?),
        "events" => cmd_events(&mut client, &submission_body(args)?),
        "watch" => cmd_watch(args, &mut client),
        _ => cmd_get(args, &mut client),
    }
}

/// The `POST /runs` body of the grid the flags name.
fn submission_body(args: &Args) -> Result<Json, String> {
    let mut scenarios = args.all("--scenario");
    let micro = args
        .get::<String>("--grid")
        .is_some_and(|grid| grid == "micro");
    if scenarios.is_empty() {
        let grid: &[&str] = if micro { &MICRO_GRID } else { &DEFAULT_GRID };
        scenarios = grid.iter().map(|label| label.to_string()).collect();
    } else if micro {
        return Err("--grid micro and explicit --scenario are mutually exclusive".into());
    }
    Ok(Json::Obj(vec![
        (
            "scenarios".into(),
            Json::Arr(scenarios.into_iter().map(Json::Str).collect()),
        ),
        (
            "reps".into(),
            Json::Num(args.get("--reps").unwrap_or(2usize) as f64),
        ),
        (
            "seed".into(),
            Json::from_u64_lossless(args.get("--seed").unwrap_or(7)),
        ),
    ]))
}

/// Submit one grid: the new run's id and the whole reply.
fn submit(client: &mut Client, body: &Json) -> Result<(String, Json), String> {
    let resp = client.post_json("/runs", body)?;
    if resp.status != 201 {
        return Err(format!("submit failed ({}): {}", resp.status, resp.text()));
    }
    let reply = resp.json()?;
    let id = reply.get("id").and_then(Json::as_str);
    let id = id.ok_or("submit response carries no id")?.to_string();
    Ok((id, reply))
}

/// Submit one grid and wait until it is done; returns the job id.
fn submit_and_wait(client: &mut Client, body: &Json) -> Result<String, String> {
    let (id, _) = submit(client, body)?;
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = client.get(&format!("/runs/{id}"))?;
        let state = status
            .json()?
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        match state.as_str() {
            "done" => return Ok(id),
            "queued" | "running" => {
                if Instant::now() > deadline {
                    return Err(format!("run {id} still {state} after 300s"));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            other => return Err(format!("run {id} ended {other}")),
        }
    }
}

fn cmd_once(client: &mut Client, body: &Json) -> Result<(), String> {
    let id = submit_and_wait(client, body)?;
    let results = client.get(&format!("/runs/{id}/results"))?;
    if results.status != 200 {
        return Err(format!("results failed ({})", results.status));
    }
    emit(&results.text())
}

/// Submit a grid and verify its live event stream end to end: subscribe to
/// `GET /runs/:id/events`, block until the job settles and the server
/// closes the stream, then check that every grid trial produced exactly
/// one completed/cached event. A truncated chunked body (unclean close)
/// surfaces as a transport error from the client, so reaching the checks
/// at all proves the stream ended cleanly.
fn cmd_events(client: &mut Client, body: &Json) -> Result<(), String> {
    let (id, submitted) = submit(client, body)?;
    let total = submitted
        .get("total")
        .and_then(Json::as_u64)
        .ok_or("submit response carries no total")? as usize;

    let stream = client.get(&format!("/runs/{id}/events"))?;
    if stream.status != 200 {
        return Err(format!("events stream → {}", stream.status));
    }
    let body = stream.text();
    let mut completed = 0usize;
    let mut cached = 0usize;
    let mut settled = false;
    let mut overflow = 0u64;
    for line in body.lines() {
        let Some(payload) = line.strip_prefix("data: ") else {
            continue;
        };
        let event = Json::parse(payload).map_err(|e| format!("bad event {payload:?}: {e}"))?;
        match event.get("event").and_then(Json::as_str) {
            Some("completed") => completed += 1,
            Some("cached") => cached += 1,
            Some("job_state") => {
                if let Some("done" | "cancelled" | "failed") =
                    event.get("state").and_then(Json::as_str)
                {
                    settled = true;
                }
            }
            Some("overflow") => {
                overflow += event.get("dropped").and_then(Json::as_u64).unwrap_or(0);
            }
            _ => {}
        }
    }
    if !settled {
        return Err("stream closed without a terminal job_state event".into());
    }
    // An overflow frame means this subscriber fell behind the retained
    // window and events were dropped — the stream is no longer a faithful
    // record, so the check fails loudly instead of shrugging.
    if overflow > 0 {
        return Err(format!(
            "event stream overflowed: {overflow} events dropped \
             (saw {completed} completed + {cached} cached of {total})",
        ));
    }
    if completed + cached != total {
        return Err(format!(
            "expected {total} trial events, saw {completed} completed + {cached} cached",
        ));
    }
    emit(&format!(
        "events ok: {total} trials → {completed} completed, {cached} cached, clean close\n"
    ))
}

/// The live dashboard: poll `GET /runs/:id/timeline` and re-render an
/// ASCII sparkline of completed trials until the job settles. Without
/// `--run ID` it submits the flag grid first and watches that.
fn cmd_watch(args: &Args, client: &mut Client) -> Result<(), String> {
    let id = match args.get::<String>("--run") {
        Some(id) => {
            let grid = ["--scenario", "--grid", "--reps", "--seed"];
            if let Some(flag) = grid.into_iter().find(|flag| args.has(flag)) {
                return Err(format!(
                    "watch --run attaches to a run and submits nothing, so it does not take {flag}"
                ));
            }
            id
        }
        None => submit(client, &submission_body(args)?)?.0,
    };
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut last = String::new();
    loop {
        let status = client.get(&format!("/runs/{id}"))?;
        if status.status != 200 {
            return Err(format!("/runs/{id} → {}", status.status));
        }
        let doc = status.json()?;
        let state = doc
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let total = doc.get("total").and_then(Json::as_u64).unwrap_or(0);
        let done = doc.get("done").and_then(Json::as_u64).unwrap_or(0);
        let tl = client.get(&format!("/runs/{id}/timeline"))?;
        if tl.status != 200 {
            return Err(format!("/runs/{id}/timeline → {}", tl.status));
        }
        let body = tl.text();
        let series: Vec<f64> = body
            .lines()
            .filter_map(|line| {
                let event = Json::parse(line).ok()?;
                if event.get("event").and_then(Json::as_str) == Some("progress") {
                    Some(event.get("done").and_then(Json::as_u64)? as f64)
                } else {
                    None
                }
            })
            .collect();
        let bar = disp_analysis::sparkline_scaled(&series, total as f64, 60);
        let line = format!("[{bar}] {done}/{total} {state}");
        if line != last {
            emit(&format!("{line}\n"))?;
            last = line;
        }
        match state.as_str() {
            "done" => return Ok(()),
            "queued" | "running" => {
                if Instant::now() > deadline {
                    return Err(format!("run {id} still {state} after 300s"));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            other => return Err(format!("run {id} ended {other}")),
        }
    }
}

fn cmd_get(args: &Args, client: &mut Client) -> Result<(), String> {
    let path: String = args.get("--path").unwrap_or_else(|| "/healthz".into());
    let resp = client.get(&path)?;
    emit(&resp.text())?;
    if resp.status >= 400 {
        return Err(format!("GET {path} → {}", resp.status));
    }
    Ok(())
}

/// Parse the `disp_cluster_worker_trials_total{worker="..."} N` lines of
/// a `/metrics` body into `(worker, trials)` pairs.
fn parse_worker_trials(body: &str) -> Vec<(String, u64)> {
    body.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("disp_cluster_worker_trials_total{worker=\"")?;
            let (name, value) = rest.split_once("\"}")?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Fetch `/healthz` and render its identity fields for the bench header:
/// `role=… version=… uptime=…s`.
fn healthz_summary(client: &mut Client) -> Result<String, String> {
    let resp = client.get("/healthz")?;
    if resp.status != 200 {
        return Err(format!("/healthz → {}", resp.status));
    }
    let doc = resp.json()?;
    let field = |name: &str| {
        doc.get(name)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    Ok(format!(
        "role={} version={} uptime={}s",
        field("role"),
        field("version"),
        doc.get("uptime_seconds")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    ))
}

fn cmd_bench(args: &Args, addr: &str, body: &Json) -> Result<(), String> {
    let json = args.get::<String>("--format").is_some_and(|f| f == "json");
    let coordinator = args
        .get::<String>("--target")
        .is_some_and(|t| t == "coordinator");
    let connections: usize = args.get("--connections").unwrap_or(4);
    let requests: usize = args.get("--requests").unwrap_or(1000);
    let min_rps: f64 = args.get("--min-rps").unwrap_or(0.0);

    // Warm-up: one full submission so the cache is hot and there is a
    // completed job id to poll/fetch during the measured phase.
    let mut warm = Client::new(addr);
    let health = healthz_summary(&mut warm)?;
    if !json {
        emit(&format!("disp-load: server {health}\n"))?;
    }
    let warm_start = Instant::now();
    let warm_id = submit_and_wait(&mut warm, body)?;
    let warm_wall = warm_start.elapsed();
    drop(warm);

    let issued = AtomicUsize::new(0);
    let errors = AtomicU64::new(0);
    let kind_counts: [AtomicU64; 4] = Default::default(); // submit, status, results, metrics
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(requests));

    let bench_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut client = Client::new(addr);
                let mut local: Vec<u64> = Vec::new();
                loop {
                    let i = issued.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        break;
                    }
                    // Mixed workload, 8-request cycle: 1 submit (a pure
                    // cache hit past the warm-up), 3 status polls, 3
                    // results fetches, 1 metrics scrape.
                    let kind = match i % 8 {
                        0 => 0,
                        1..=3 => 1,
                        4..=6 => 2,
                        _ => 3,
                    };
                    let start = Instant::now();
                    let result = match kind {
                        0 => client.post_json("/runs", body),
                        1 => client.get(&format!("/runs/{warm_id}")),
                        2 => client.get(&format!("/runs/{warm_id}/results")),
                        _ => client.get("/metrics"),
                    };
                    let elapsed = start.elapsed().as_micros() as u64;
                    kind_counts[kind].fetch_add(1, Ordering::Relaxed);
                    match result {
                        Ok(resp) if resp.status < 400 => local.push(elapsed),
                        Ok(resp) => {
                            eprintln!("disp-load: request kind {kind} → {}", resp.status);
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("disp-load: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall = bench_start.elapsed();

    let mut all = latencies.into_inner().unwrap();
    all.sort_unstable();
    let errors = errors.load(Ordering::Relaxed);
    if all.is_empty() {
        return Err("no request succeeded".into());
    }
    let pct = |p: f64| -> f64 {
        let idx = ((all.len() as f64 - 1.0) * p).round() as usize;
        all[idx] as f64 / 1000.0
    };
    let total = all.len();
    let throughput = total as f64 / wall.as_secs_f64();
    // --target coordinator: scrape the per-worker trial gauges so the
    // report shows how the cluster spread the warm-up grid.
    let workers: Vec<(String, u64)> = if coordinator {
        let mut client = Client::new(addr);
        let resp = client.get("/metrics")?;
        if resp.status != 200 {
            return Err(format!("/metrics → {}", resp.status));
        }
        parse_worker_trials(&resp.text())
    } else {
        Vec::new()
    };
    if json {
        let mut fields = vec![
            ("server".into(), Json::Str(health.clone())),
            ("requests".into(), Json::Num(total as f64)),
            ("connections".into(), Json::Num(connections as f64)),
            ("errors".into(), Json::Num(errors as f64)),
            ("elapsed_s".into(), Json::Num(wall.as_secs_f64())),
            ("req_per_s".into(), Json::Num(throughput)),
            ("p50_ms".into(), Json::Num(pct(0.50))),
            ("p99_ms".into(), Json::Num(pct(0.99))),
            ("warm_up_s".into(), Json::Num(warm_wall.as_secs_f64())),
            (
                "kinds".into(),
                Json::Obj(
                    ["submit", "status", "results", "metrics"]
                        .iter()
                        .zip(&kind_counts)
                        .map(|(name, count)| {
                            (
                                (*name).into(),
                                Json::Num(count.load(Ordering::Relaxed) as f64),
                            )
                        })
                        .collect(),
                ),
            ),
        ];
        if coordinator {
            let trials = workers
                .iter()
                .map(|(name, n)| (name.clone(), Json::Num(*n as f64)));
            fields.push(("workers".into(), Json::Obj(trials.collect())));
        }
        emit(&format!("{}\n", Json::Obj(fields).to_string_compact()))?;
    } else {
        let mut out = format!(
            "disp-load: warm-up run {warm_id} completed in {warm_wall:.2?}; measured {total} \
             requests over {connections} connections in {wall:.2?}\n\
             disp-load: {throughput:.1} req/s  p50 {:.2}ms  p99 {:.2}ms  (submit {}, status {}, \
             results {}, metrics {}; {errors} errors)\n",
            pct(0.50),
            pct(0.99),
            kind_counts[0].load(Ordering::Relaxed),
            kind_counts[1].load(Ordering::Relaxed),
            kind_counts[2].load(Ordering::Relaxed),
            kind_counts[3].load(Ordering::Relaxed),
        );
        if coordinator && workers.is_empty() {
            out.push_str("disp-load: no worker has completed a trial on this coordinator yet\n");
        }
        for (name, trials) in &workers {
            out.push_str(&format!("disp-load: worker {name}: {trials} trials\n"));
        }
        emit(&out)?;
    }
    if errors > 0 {
        return Err(format!(
            "{errors} of {} requests failed",
            total as u64 + errors
        ));
    }
    // The measured phase runs against a warm cache (the warm-up executed
    // the whole grid), so a floor here is a warm-cache throughput
    // non-regression gate, not a hardware benchmark.
    if min_rps > 0.0 && throughput < min_rps {
        return Err(format!(
            "warm-cache throughput regressed: {throughput:.1} req/s is below the \
             --min-rps {min_rps} floor"
        ));
    }
    Ok(())
}
