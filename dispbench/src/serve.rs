//! `serve-jobs`: an in-process `disp-serve` driven by closed-loop
//! clients. Each client submits a wide grid of tiny trials on a fresh
//! seed (cold: every slot executes), polls its status, waits on its event
//! stream, fetches the results, then resubmits the same grid (warm: every
//! slot is a trial-cache hit). No client submits while its last job is
//! unfinished, so the job queue never refuses a submission.
//!
//! The jobs run on a server with an in-memory trial cache and one engine
//! thread, so each job passes through as few threads as the server allows
//! (client, HTTP worker, executor, telemetry collector). The persistent
//! cache directory the harness pre-fills serves only the restarts timed as
//! `setup_s`.

use crate::report::{self, Checks, Metrics};
use crate::trace::{Facts, Tracer};
use crate::{grids, trials, Args, THREADS};
use disp_analysis::json::Json;
use disp_analysis::TrialRecord;
use disp_campaign::grid::{CampaignSpec, TrialSpec};
use disp_cluster::cache::{CacheBudget, TrialCache};
use disp_core::scenario::Registry;
use disp_serve::{parse_metric, Client, HttpResponse, ServeConfig, Server};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Agent counts and repetitions of the job grid: 6 families x 16
/// scenarios x 2 repetitions = 192 slots.
const KS: [usize; 1] = [16];
const REPS: usize = 2;
/// Seeds whose grids pre-fill the persistent cache the server restarts
/// over (20 x 192 = 3,840 records).
const PREFILL_SEEDS: u64 = 20;
/// Restarts over the persistent cache per run; `setup_s` is their median.
const STARTS: usize = 15;
/// In-memory trial-cache entries (`disp-serve --cache-max-entries`): about
/// 21 cold jobs' worth, so the cache reaches its budget early in a run and
/// the server's memory stops growing with the number of jobs run.
const CACHE_ENTRIES: usize = 4096;
/// Engine threads per job (`disp-serve --job-threads`). With one, the
/// executor runs a job's trials itself on its warm thread-local pool; with
/// more, every job spawns that many engine threads and fills fresh pools.
const JOB_THREADS: usize = 1;
/// Cold jobs per client whose results are compared byte for byte with
/// `run_campaign_batched`.
const OFFLINE_CHECKED: u64 = 2;

fn grid(labels: &[String], seed: u64) -> Result<CampaignSpec, String> {
    grids::campaign(labels, REPS, seed).map(|(_, spec)| spec)
}

fn submission(labels: &[String], seed: u64) -> Json {
    Json::Obj(vec![
        (
            "scenarios".into(),
            Json::Arr(labels.iter().map(|l| Json::Str(l.clone())).collect()),
        ),
        ("reps".into(), Json::Num(REPS as f64)),
        ("seed".into(), Json::from_u64_lossless(seed)),
    ])
}

/// What the offline engine returns for `spec`, as a results body.
fn offline_body(spec: &CampaignSpec) -> Result<String, String> {
    let records = grids::offline(spec, &Registry::builtin())?;
    Ok(records.iter().map(|r| r.to_json_line() + "\n").collect())
}

/// Fill `dir`'s persistent trial cache with real records.
fn prefill(labels: &[String], seed: u64, dir: &Path) -> Result<(), String> {
    let cache = TrialCache::open(dir)?;
    for i in 0..PREFILL_SEEDS {
        let spec = grid(labels, grids::derive(seed, "prefill", i))?;
        for r in &grids::offline(&spec, &Registry::builtin())? {
            cache.insert(r);
        }
    }
    Ok(())
}

/// Start a server, over the persistent cache in `dir` or an in-memory one,
/// and wait for the first 200 from `/healthz`.
fn start(dir: Option<&Path>) -> Result<Server, String> {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads: THREADS,
            job_threads: JOB_THREADS,
            cache_dir: dir.map(Path::to_path_buf),
            cache_budget: CacheBudget {
                max_entries: CACHE_ENTRIES,
                ..CacheBudget::default()
            },
            coordinator: None,
        },
    )?;
    let mut client = Client::new(&server.addr().to_string());
    for _ in 0..1000 {
        if matches!(client.get("/healthz"), Ok(r) if r.status == 200) {
            return Ok(server);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Err("server never answered /healthz".into())
}

fn expect(
    resp: Result<HttpResponse, String>,
    status: u16,
    what: &str,
) -> Result<HttpResponse, String> {
    match resp {
        Ok(r) if r.status == status => Ok(r),
        Ok(r) => Err(format!("{what}: HTTP {} {}", r.status, r.text().trim())),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// One job, submit to results body, each request in its span.
struct JobRun {
    began: Instant,
    ended: Instant,
    events: String,
    results: String,
    status: Json,
}

fn job(client: &mut Client, tracer: &mut Tracer, body: &Json, id: u64) -> Result<JobRun, String> {
    let span = tracer.open("job", id);
    let began = Instant::now();
    let result = (|| -> Result<(String, String, String), String> {
        let resp = tracer.time("serve.submit", id, || client.post_json("/runs", body));
        let created = expect(resp, 201, "POST /runs")?.json()?;
        let jid = created
            .get("id")
            .and_then(Json::as_str)
            .ok_or("POST /runs: no id")?
            .to_string();
        let resp = tracer.time("serve.status", id, || client.get(&format!("/runs/{jid}")));
        expect(resp, 200, "GET /runs/:id")?;
        let resp = tracer.time("serve.events", id, || {
            client.get(&format!("/runs/{jid}/events"))
        });
        let events = expect(resp, 200, "GET /runs/:id/events")?.text();
        let resp = tracer.time("serve.results", id, || {
            client.get(&format!("/runs/{jid}/results"))
        });
        let results = expect(resp, 200, "GET /runs/:id/results")?.text();
        Ok((jid, events, results))
    })();
    let ended = Instant::now();
    tracer.close(span);
    let (jid, events, results) = result?;
    // After the clock stops: the settled job's counts.
    let status = expect(client.get(&format!("/runs/{jid}")), 200, "GET /runs/:id")?.json()?;
    Ok(JobRun {
        began,
        ended,
        events,
        results,
        status,
    })
}

/// `wall_micros` of every `completed` event and the number of `cached`
/// ones in an SSE body.
fn scan_events(body: &str) -> (Vec<u64>, usize) {
    let (mut walls, mut cached) = (Vec::new(), 0);
    for frame in body.split("\n\n") {
        let Some(data) = frame.trim().strip_prefix("data: ") else {
            continue;
        };
        let Ok(v) = Json::parse(data) else { continue };
        match v.get("event").and_then(Json::as_str) {
            Some("completed") => {
                walls.push(v.get("wall_micros").and_then(Json::as_u64).unwrap_or(0))
            }
            Some("cached") => cached += 1,
            _ => {}
        }
    }
    (walls, cached)
}

/// Every line a record of the expected trial, in grid order, dispersed.
fn check_results(checks: &mut Checks, trials: &[TrialSpec], body: &str) {
    let records = body
        .lines()
        .map(TrialRecord::from_json_line)
        .collect::<Result<Vec<_>, String>>();
    if let Some(records) = checks.check_ok(records, "results body") {
        grids::check_records(checks, trials, &records, "results");
    }
}

fn count(status: &Json, key: &str) -> u64 {
    status.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// Keeps the clients in rounds: both submit their cold jobs together,
/// then both their warm jobs. A round's latency is the mean over the two
/// clients, so the one whose job queued behind the other's counts every
/// round alike, whichever client that was.
struct Lockstep {
    barrier: Barrier,
    go: AtomicBool,
    deadline: Instant,
}

impl Lockstep {
    /// Called by both clients before every round; whether it runs. The
    /// first round always does.
    fn next_round(&self, round: u64) -> bool {
        if self.barrier.wait().is_leader() {
            self.go.store(
                round == 0 || Instant::now() < self.deadline,
                Ordering::SeqCst,
            );
        }
        self.barrier.wait();
        self.go.load(Ordering::SeqCst)
    }
}

/// One client's record of one round: when its cold and warm jobs began
/// and ended.
#[derive(Default, Clone)]
struct Round {
    traced: bool,
    cold: Option<(Instant, Instant)>,
    warm: Option<(Instant, Instant)>,
}

#[derive(Default)]
struct ClientLog {
    checks: Checks,
    rounds: Vec<Round>,
    trial_ms: Vec<f64>,
    results_bytes: Vec<f64>,
    executed: Vec<u64>,
    cache_hits: Vec<u64>,
    /// (seed, cold results body) of the jobs checked against the engine.
    kept: Vec<(u64, String)>,
}

fn client_loop(
    c: u64,
    addr: &str,
    labels: &[String],
    seed: u64,
    lockstep: &Lockstep,
    tracer: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = Client::new(addr);
    let mut untraced = Tracer::new(false, Instant::now());
    let mut round = 0u64;
    while lockstep.next_round(round) {
        let seed = grids::derive(seed, "serve", (c << 32) | round);
        let body = submission(labels, seed);
        // A traced run traces every other round; the rest give the
        // untraced times the tracing overhead is taken against.
        let traced = tracer.enabled() && round.is_multiple_of(2);
        let t = if traced { &mut *tracer } else { &mut untraced };
        let id = (c << 32) | (2 * round);
        let cold = log
            .checks
            .check_ok(job(&mut client, t, &body, id), "cold job");
        lockstep.barrier.wait();
        let warm = log
            .checks
            .check_ok(job(&mut client, t, &body, id + 1), "warm job");
        log.rounds.push(Round {
            traced,
            cold: cold.as_ref().map(|j| (j.began, j.ended)),
            warm: warm.as_ref().map(|j| (j.began, j.ended)),
        });
        let compare_offline = round < OFFLINE_CHECKED;
        round += 1;

        // Checks, off the clock.
        let trials = grid(labels, seed)
            .map(|spec| spec.trials())
            .unwrap_or_default();
        let slots = trials.len() as u64;
        if let Some(cold) = &cold {
            let (walls, _) = scan_events(&cold.events);
            log.checks.check(walls.len() as u64 == slots, || {
                format!("{} completed events for {slots} slots", walls.len())
            });
            log.trial_ms
                .push(walls.iter().sum::<u64>() as f64 / 1e3 / walls.len().max(1) as f64);
            let (executed, hits) = (
                count(&cold.status, "executed"),
                count(&cold.status, "cache_hits"),
            );
            log.checks.check(executed == slots && hits == 0, || {
                format!("cold job status {}", cold.status.to_string_compact())
            });
            log.executed.push(executed);
            log.results_bytes.push(cold.results.len() as f64);
            check_results(&mut log.checks, &trials, &cold.results);
        }
        if let Some(warm) = &warm {
            let (walls, cached) = scan_events(&warm.events);
            log.checks
                .check(walls.is_empty() && cached as u64 == slots, || {
                    format!(
                        "warm job events: {} completed, {cached} cached",
                        walls.len()
                    )
                });
            let (executed, hits) = (
                count(&warm.status, "executed"),
                count(&warm.status, "cache_hits"),
            );
            log.checks.check(executed == 0 && hits == slots, || {
                format!("warm job status {}", warm.status.to_string_compact())
            });
            log.cache_hits.push(hits);
            log.results_bytes.push(warm.results.len() as f64);
            let same = cold
                .as_ref()
                .is_some_and(|cold| cold.results == warm.results);
            log.checks
                .check(same, || "warm results differ from cold results".into());
        }
        if let (Some(cold), true) = (cold, compare_offline) {
            log.kept.push((seed, cold.results));
        }
    }
    log
}

/// Histogram mean and counter deltas from two `/metrics` scrapes.
fn scrape(addr: &str) -> Result<String, String> {
    Ok(expect(Client::new(addr).get("/metrics"), 200, "GET /metrics")?.text())
}

fn delta(before: &str, after: &str, name: &str) -> f64 {
    let get = |body: &str| parse_metric(body, name).unwrap_or(0) as f64;
    get(after) - get(before)
}

pub fn run(args: &Args) -> Result<(Checks, Metrics), String> {
    let labels = grids::tiny_grid(&KS);
    let work = crate::work_dir(args)?;
    let cache_dir = work.join("cache");
    prefill(&labels, args.seed, &cache_dir)?;

    let mut setup_s = Vec::new();
    for _ in 0..STARTS {
        let t = Instant::now();
        let restarted = start(Some(&cache_dir))?;
        setup_s.push(t.elapsed().as_secs_f64());
        restarted.shutdown();
    }
    let server = start(None)?;
    let addr = server.addr().to_string();
    let before = scrape(&addr)?;
    let origin = Instant::now();
    let lockstep = Lockstep {
        barrier: Barrier::new(THREADS),
        go: AtomicBool::new(false),
        deadline: origin + args.seconds,
    };
    let mut tracers: Vec<Tracer> = (0..THREADS)
        .map(|_| Tracer::new(args.trace, origin))
        .collect();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(c, tracer)| {
                let (addr, labels, lockstep) = (&addr, &labels, &lockstep);
                s.spawn(move || client_loop(c as u64, addr, labels, args.seed, lockstep, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = scrape(&addr)?;
    server.shutdown();

    // Per round: the two clients' mean cold and warm latency, and how long
    // the cold phase took, from the first cold submit to the last cold
    // results body.
    let slots = grid(&labels, 0)?.trials().len() as f64;
    let ms = |(began, ended): (Instant, Instant)| (ended - began).as_secs_f64() * 1e3;
    let (mut cold_ms, mut warm_ms, mut phase_ms, mut traced_cold_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in 0..logs.iter().map(|l| l.rounds.len()).min().unwrap_or(0) {
        let rounds: Vec<&Round> = logs.iter().map(|l| &l.rounds[r]).collect();
        let colds: Option<Vec<(Instant, Instant)>> = rounds.iter().map(|r| r.cold).collect();
        let warms: Option<Vec<(Instant, Instant)>> = rounds.iter().map(|r| r.warm).collect();
        if let (Some(colds), Some(warms)) = (colds, warms) {
            let cold: Vec<f64> = colds.iter().copied().map(ms).collect();
            if rounds[0].traced {
                traced_cold_ms.push(report::mean(&cold));
                continue;
            }
            cold_ms.push(report::mean(&cold));
            warm_ms.push(report::mean(&warms.into_iter().map(ms).collect::<Vec<_>>()));
            let first = colds.iter().map(|c| c.0).min().expect("two clients");
            let last = colds.iter().map(|c| c.1).max().expect("two clients");
            phase_ms.push(ms((first, last)));
        }
    }
    // Cold trials executed per second of a round's cold phase.
    let rate = slots * THREADS as f64 / (report::lower_quartile(&phase_ms) / 1e3);

    let mut checks = Checks::default();
    let mut all = ClientLog::default();
    for log in logs {
        checks.merge(log.checks);
        all.trial_ms.extend(log.trial_ms);
        all.results_bytes.extend(log.results_bytes);
        all.executed.extend(log.executed);
        all.cache_hits.extend(log.cache_hits);
        all.kept.extend(log.kept);
    }
    for (seed, body) in &all.kept {
        let expected = grid(&labels, *seed).and_then(|spec| offline_body(&spec));
        checks.check(expected.as_deref() == Ok(body.as_str()), || {
            format!("seed {seed}: served results differ from run_campaign_batched")
        });
    }

    if !args.trace {
        std::fs::remove_dir_all(&work).ok();
        let mut m = Metrics::default();
        m.put("setup_s", report::median(&setup_s), "s");
        m.put("trial_ms", report::lower_quartile(&all.trial_ms), "ms");
        m.put("trials_per_s", rate, "1/s");
        m.put("job_cold_ms", report::lower_quartile(&cold_ms), "ms");
        m.put("job_warm_ms", report::lower_quartile(&warm_ms), "ms");
        return Ok((checks, m));
    }
    let mut tracer = Tracer::new(true, origin);
    for t in tracers {
        tracer.absorb(t);
    }
    let mut facts = Facts {
        results_mb: report::mean(&all.results_bytes) / 1e6,
        queue_wait_us: delta(&before, &after, "disp_job_queue_wait_us_sum")
            / delta(&before, &after, "disp_job_queue_wait_us_count"),
        trial_us: delta(&before, &after, "disp_trial_duration_us_sum")
            / delta(&before, &after, "disp_trial_duration_us_count"),
        executed: report::mean(&all.executed.iter().map(|&n| n as f64).collect::<Vec<_>>()),
        cache_hits: report::mean(&all.cache_hits.iter().map(|&n| n as f64).collect::<Vec<_>>()),
        overhead_pct: (report::mean(&traced_cold_ms) / report::mean(&cold_ms) - 1.0) * 100.0,
        ..Facts::default()
    };
    // Wait: from each job's submit until its event stream closed.
    let mut submitted = std::collections::HashMap::new();
    let mut waits = Vec::new();
    for span in tracer.spans() {
        match span.name {
            "serve.submit" => {
                submitted.insert(span.id, span.start_ns);
            }
            "serve.events" => {
                if let Some(start) = submitted.get(&span.id) {
                    waits.push((span.end_ns - start) as f64 / 1e6);
                }
            }
            _ => {}
        }
    }
    facts.wait_ms = report::mean(&waits);
    let hits = delta(&before, &after, "disp_cache_hits_total");
    facts.serve_hit_ratio = hits / (hits + delta(&before, &after, "disp_cache_misses_total"));
    let executed: u64 = all.executed.iter().sum();
    facts.executed_ratio =
        executed as f64 / ((all.executed.len() + all.cache_hits.len()) as f64 * slots);
    // Allocations are counted on an untraced replay, so the span log's
    // growth does not enter them; both replays must allocate alike.
    let mut off = Tracer::new(false, origin);
    let first = replay(&mut off, &mut checks, &mut facts, &labels, args.seed)?;
    let again = replay(
        &mut off,
        &mut checks,
        &mut Facts::default(),
        &labels,
        args.seed,
    )?;
    checks.check(first == again, || {
        format!("replay allocations differ: {first:?} vs {again:?}")
    });
    (facts.alloc_count, facts.alloc_bytes) = first;
    replay(&mut tracer, &mut checks, &mut facts, &labels, args.seed)?;
    std::fs::remove_dir_all(&work).ok();
    crate::write_spans(&tracer, args)?;
    Ok((checks, crate::trace::per_layer(&tracer, &facts)))
}

/// The first cold grid replayed on this thread, each record encoded, then
/// inserted into and read back from an in-memory trial cache; compared
/// line for line with the engine. Returns the allocations per trial; adds
/// the outcome counters to `facts`.
fn replay(
    tracer: &mut Tracer,
    checks: &mut Checks,
    facts: &mut Facts,
    labels: &[String],
    seed: u64,
) -> Result<(f64, f64), String> {
    let spec = grid(labels, grids::derive(seed, "serve", 0))?;
    let expected = offline_body(&spec)?;
    let cache = TrialCache::in_memory();
    let trials = spec.trials();
    let mut body = String::new();
    let (records, allocs) = trials::replay(
        tracer,
        &Registry::builtin(),
        &trials,
        trials.len(),
        0,
        |tracer, id, record, line| {
            tracer.time("cluster.insert", id, || cache.insert(record));
            let hit = tracer.time("cluster.lookup", id, || {
                let point = &record.point;
                cache.lookup(
                    &point.point_id(),
                    record.rep,
                    record.seed,
                    point.repetitions,
                )
            });
            checks.check(
                hit.as_ref().map(TrialRecord::to_json_line).as_deref() == Some(line),
                || format!("cache round trip of {}", record.trial_id()),
            );
            body.push_str(line);
            body.push('\n');
        },
    )?;
    for r in &records {
        if tracer.enabled() {
            facts.traced_activations += r.outcome.activations;
        } else {
            facts.count(&r.outcome);
        }
    }
    facts.cluster_hit_ratio = cache.hits() as f64 / (cache.hits() + cache.misses()) as f64;
    checks.check(body == expected, || {
        "replayed trials differ from run_campaign_batched".into()
    });
    let n = trials.len() as f64;
    Ok((allocs.count as f64 / n, allocs.bytes as f64 / n))
}
