//! The HTTP campaign service: accept loop, worker pool, routing.
//!
//! ## Endpoints
//!
//! | Method + path | Meaning |
//! |---|---|
//! | `POST /runs` | submit a grid (`{"scenarios":[…],"reps":N,"seed":S}` or `{"campaign":"mini","mode":"quick","seed":S}`) |
//! | `GET /runs/:id` | job status + progress + live per-point statistics and throughput |
//! | `GET /runs/:id/results` | stream the JSONL records (grid order); `?format=summary` returns the JSON report document |
//! | `GET /runs/:id/events` | live event stream (SSE): per-trial telemetry + lifecycle, closes when the job settles |
//! | `GET /runs/:id/timeline` | the job's decimated progress timeline (JSONL), live while running |
//! | `DELETE /runs/:id` | cancel |
//! | `GET /trace?scenario=LABEL` | run one traced trial, stream the event log as JSONL (`&seed=S&cap=N` optional) |
//! | `GET /timeline?scenario=LABEL` | run one recorded trial, stream its flight-recorder timeline as JSONL (`&seed=S&budget=N` optional) |
//! | `GET /scenarios` | the scenario-label grammar (same text as `disp-campaign scenarios`) |
//! | `GET /healthz` | liveness: `{"status":"ok","role":…,"uptime_seconds":…,"version":…}` |
//! | `GET /metrics` | text-format counters, latency/duration histograms, worker gauges |
//!
//! ## Shape
//!
//! One nonblocking accept loop dispatches connections to a fixed pool of
//! worker threads over a channel; each worker drives one keep-alive
//! connection at a time. Shutdown is a latch: the accept loop stops, the
//! channel closes, idle connections notice within one read tick, in-flight
//! requests finish with `Connection: close`, and the job manager drains —
//! no request is ever abandoned mid-response.
//!
//! Handlers return a `Reply`; `send` is the one writer that frames it
//! and the only code that counts `disp_http_errors_total`.

use crate::cache::{CacheBudget, TrialCache};
use crate::cluster;
use crate::http::{
    finish_chunks, read_request, write_chunk, write_chunked_head, write_response, Request,
    READ_TICK,
};
use crate::jobs::{ExecBackend, Job, JobManager, JobSnapshot, JobState, Retention};
use crate::metrics::{Gauges, Metrics};
use disp_analysis::json::Json;
use disp_analysis::jsonl;
use disp_campaign::grid::{CampaignSpec, Mode};
use disp_campaign::report::{campaign_report_json, section_measurements};
use disp_campaign::telemetry::{timeline_to_jsonl, trace_to_jsonl};
use disp_cluster::ClusterBoard;
use disp_core::scenario::{grammar_help, Registry, ScenarioSpec};
use disp_sim::{TimelineRecorder, Trace, WorldPool, DEFAULT_TIMELINE_BUDGET, DEFAULT_TRACE_CAP};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on the number of trials one `POST /runs` may compile to. A
/// submission is validated labels-first, so without this a single request
/// with `"reps": 4000000000` would pass validation and then try to
/// materialize (and hold result lines for) billions of trials —
/// monopolizing the FIFO executor and eventually aborting on allocation.
/// Grids larger than this belong to the offline CLI with `--out`
/// checkpointing, not a request/response lifecycle.
pub const MAX_JOB_TRIALS: usize = 100_000;

/// Coordinator-mode settings (`--role coordinator`).
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// Contiguous grid slots per worker batch.
    pub batch_size: usize,
    /// Lease time-to-live: a worker that stops heartbeating loses its
    /// batch after this long and the batch is requeued.
    pub lease_ttl: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            batch_size: 4,
            lease_ttl: Duration::from_secs(10),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// HTTP worker threads (concurrent connections served).
    pub http_threads: usize,
    /// Engine worker threads per job.
    pub job_threads: usize,
    /// Cache directory (`None` = in-memory cache).
    pub cache_dir: Option<PathBuf>,
    /// Cache byte/entry budgets and compaction threshold.
    pub cache_budget: CacheBudget,
    /// `Some` starts the server as a cluster coordinator: jobs are sharded
    /// onto the lease board instead of the local engine, and the
    /// `/internal/*` endpoints come alive.
    pub coordinator: Option<CoordinatorConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            http_threads: 4,
            job_threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            cache_dir: None,
            cache_budget: CacheBudget::default(),
            coordinator: None,
        }
    }
}

/// Shared application state.
#[derive(Debug)]
pub struct AppState {
    /// The trial cache.
    pub cache: Arc<TrialCache>,
    /// Service counters.
    pub metrics: Arc<Metrics>,
    /// The job manager.
    pub manager: JobManager,
    /// HTTP workers currently inside `handle_connection` (the
    /// utilization gauge on `/metrics`).
    pub workers_busy: AtomicUsize,
    /// Size of the HTTP worker pool.
    pub http_workers: usize,
    /// The cluster lease board (`Some` in coordinator mode).
    pub cluster: Option<Arc<ClusterBoard>>,
    /// When the server started (the `/healthz` uptime clock).
    pub started: Instant,
}

impl AppState {
    /// The role this process serves under, as reported by `/healthz`.
    /// Worker processes (`--role worker`) have no HTTP listener, so the
    /// roles observable here are `standalone` and `coordinator`.
    pub fn role(&self) -> &'static str {
        if self.cluster.is_some() {
            "coordinator"
        } else {
            "standalone"
        }
    }
}

/// A running campaign service.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    state: Arc<AppState>,
}

impl Server {
    /// Bind `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving in background threads.
    pub fn start(bind: &str, config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(bind).map_err(|e| format!("bind {bind}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let cache = Arc::new(match &config.cache_dir {
            Some(dir) => TrialCache::open_with(dir, config.cache_budget)?,
            None => TrialCache::in_memory_with(config.cache_budget),
        });
        let metrics = Arc::new(Metrics::default());
        let cluster = config
            .coordinator
            .map(|c| Arc::new(ClusterBoard::new(c.lease_ttl)));
        let backend = match (&cluster, config.coordinator) {
            (Some(board), Some(c)) => ExecBackend::Cluster {
                board: Arc::clone(board),
                batch_size: c.batch_size.max(1),
            },
            _ => ExecBackend::Local {
                threads: config.job_threads.max(1),
            },
        };
        let manager = JobManager::start(
            Arc::clone(&cache),
            Arc::clone(&metrics),
            backend,
            Retention::default(),
        );
        let state = Arc::new(AppState {
            cache,
            metrics,
            manager,
            workers_busy: AtomicUsize::new(0),
            http_workers: config.http_threads.max(1),
            cluster,
            started: Instant::now(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));

        let (conn_tx, conn_rx) = channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        // Accepted-but-unclaimed connections: idle keep-alive workers yield
        // to this queue (see `http::read_request`).
        let waiting = Arc::new(AtomicUsize::new(0));
        let workers: Vec<JoinHandle<()>> = (0..config.http_threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&conn_rx);
                let state = Arc::clone(&state);
                let shutdown = Arc::clone(&shutdown);
                let waiting = Arc::clone(&waiting);
                std::thread::spawn(move || worker_loop(&rx, &state, &shutdown, &waiting))
            })
            .collect();

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_waiting = Arc::clone(&waiting);
        let accept_handle = std::thread::spawn(move || {
            accept_loop(&listener, &conn_tx, &accept_shutdown, &accept_waiting);
            // Closing the channel releases idle workers; busy ones finish
            // their connection first (they poll the shutdown latch).
            drop(conn_tx);
            for worker in workers {
                let _ = worker.join();
            }
        });

        Ok(Server {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
            state,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (tests assert on cache/metrics through this).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Graceful drain: stop accepting, finish in-flight requests, cancel
    /// and join the job executor. Blocks until every thread has exited.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        self.state.manager.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.drain();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    conn_tx: &Sender<TcpStream>,
    shutdown: &AtomicBool,
    waiting: &AtomicUsize,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                waiting.fetch_add(1, Ordering::SeqCst);
                if conn_tx.send(stream).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Transient per-connection failures (e.g. ECONNABORTED) must
            // not kill the accept loop.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    state: &Arc<AppState>,
    shutdown: &AtomicBool,
    waiting: &AtomicUsize,
) {
    loop {
        // Hold the lock only for the recv, not while serving.
        let stream = match rx.lock().unwrap().recv() {
            Ok(stream) => stream,
            Err(_) => return, // channel closed: drain complete
        };
        waiting.fetch_sub(1, Ordering::SeqCst);
        state.workers_busy.fetch_add(1, Ordering::SeqCst);
        let _ = handle_connection(stream, state, shutdown, waiting);
        state.workers_busy.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    state: &Arc<AppState>,
    shutdown: &AtomicBool,
    waiting: &AtomicUsize,
) -> std::io::Result<()> {
    // On BSD-derived platforms accept() propagates the listener's
    // O_NONBLOCK to the accepted socket, where read timeouts would have no
    // effect and every read tick would busy-spin — force blocking mode.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(READ_TICK))?;
    // Bound writes too: a client that stops reading a streamed response
    // must not pin this worker (and block graceful drain) forever.
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let mut buf = Vec::new();
    let mut served = 0usize;
    loop {
        // A fresh connection gets its first request read unconditionally;
        // after that, an idle connection yields to queued ones.
        let read = read_request(&mut stream, &mut buf, shutdown, waiting, served > 0);
        if let Ok(None) = read {
            return Ok(());
        }
        Metrics::inc(&state.metrics.http_requests);
        let Ok(Some(req)) = read else {
            let _ = send(
                &mut stream,
                state,
                Reply::error(400, "malformed request"),
                false,
            );
            return Ok(());
        };
        let keep_alive = req.wants_keep_alive() && !shutdown.load(Ordering::SeqCst);
        let begun = Instant::now();
        let reply = route(&req, &mut stream, state, shutdown, keep_alive).unwrap_or_else(|e| e);
        let outcome = send(&mut stream, state, reply, keep_alive);
        state
            .metrics
            .http_request_duration_us
            .observe(begun.elapsed().as_micros() as u64);
        outcome?;
        served += 1;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// What a handler answers. Handlers build replies; only [`send`] writes
/// them, so framing and error accounting live in one place.
pub(crate) enum Reply {
    /// A fixed-length body: status, content type, bytes.
    Body(u16, &'static str, Vec<u8>),
    /// A 200 JSONL document, sent chunked as one chunk.
    Jsonl(String),
    /// A 200 stream the handler already wrote to the socket, with how the
    /// writing went.
    Streamed(std::io::Result<()>),
}

impl Reply {
    /// A JSON document.
    pub(crate) fn json(status: u16, body: impl Into<Vec<u8>>) -> Reply {
        Reply::Body(status, "application/json", body.into())
    }

    /// A JSON error document, `{"error": message}`.
    pub(crate) fn error(status: u16, message: &str) -> Reply {
        let doc = Json::Obj(vec![("error".into(), Json::Str(message.into()))]);
        Reply::json(status, doc.to_string_compact())
    }
}

/// Write `reply` to the socket: the one writer of every reply that is not
/// streamed, and the only code that counts errors.
fn send(
    stream: &mut TcpStream,
    state: &AppState,
    reply: Reply,
    keep_alive: bool,
) -> std::io::Result<()> {
    match reply {
        Reply::Body(status, content_type, body) => {
            if status >= 400 {
                Metrics::inc(&state.metrics.http_errors);
            }
            write_response(stream, status, content_type, &body, keep_alive)
        }
        Reply::Jsonl(body) => {
            write_chunked_head(stream, 200, "application/jsonl", keep_alive)?;
            write_chunk(stream, body.as_bytes())?;
            finish_chunks(stream)
        }
        Reply::Streamed(written) => written,
    }
}

/// Dispatch one request. An `Err` is an error reply, sent like any other.
fn route(
    req: &Request,
    stream: &mut TcpStream,
    state: &Arc<AppState>,
    shutdown: &AtomicBool,
    keep_alive: bool,
) -> Result<Reply, Reply> {
    let job = |id: &str| {
        state
            .manager
            .get(id)
            .ok_or_else(|| Reply::error(404, "no such run"))
    };
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    Ok(match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            // The literal "ok" stays greppable for smoke checks while the
            // body carries identity: role, uptime, workspace version.
            let body = format!(
                "{{\"status\":\"ok\",\"role\":\"{}\",\"uptime_seconds\":{},\"version\":\"{}\"}}\n",
                state.role(),
                state.started.elapsed().as_secs(),
                env!("CARGO_PKG_VERSION"),
            );
            Reply::json(200, body)
        }
        ("GET", ["metrics"]) => {
            let (jobs_retained, jobs_retained_bytes) = state.manager.retained();
            let gauges = Gauges {
                queue_depth: state.manager.queue_depth(),
                jobs_retained,
                jobs_retained_bytes,
                http_workers_busy: state.workers_busy.load(Ordering::SeqCst),
                http_workers: state.http_workers,
                cluster: state.cluster.as_ref().map(|board| board.stats()),
            };
            let body = state.metrics.render(&state.cache, gauges);
            Reply::Body(200, "text/plain", body.into_bytes())
        }
        ("POST", ["internal", cmd]) => cluster::handle_internal(state, shutdown, cmd, &req.body)?,
        ("GET", ["trace"]) => observe(req, state, false)?,
        ("GET", ["timeline"]) => observe(req, state, true)?,
        ("GET", ["scenarios"]) => {
            let body = grammar_help(&Registry::builtin());
            Reply::Body(200, "text/plain; charset=utf-8", body.into_bytes())
        }
        ("POST", ["runs"]) => {
            let spec = parse_submission(&req.body).map_err(|e| Reply::error(400, &e))?;
            let job = state
                .manager
                .submit(spec)
                .map_err(|e| Reply::error(409, &e))?;
            Metrics::inc(&state.metrics.jobs_submitted);
            let body = Json::Obj(vec![
                ("id".into(), Json::Str(job.id.clone())),
                ("state".into(), Json::Str(job.state().label().into())),
                ("total".into(), Json::Num(job.total as f64)),
                ("url".into(), Json::Str(format!("/runs/{}", job.id))),
            ]);
            Reply::json(201, body.to_string_compact())
        }
        ("GET", ["runs", id]) => {
            let job = job(id)?;
            Reply::json(200, status_document(&job).as_bytes())
        }
        ("GET", ["runs", id, "events"]) => {
            let job = job(id)?;
            Reply::Streamed(stream_events(stream, &job, state, shutdown, keep_alive))
        }
        ("GET", ["runs", id, "timeline"]) => Reply::Jsonl(job(id)?.progress_jsonl()),
        ("GET", ["runs", id, "results"]) => {
            let job = job(id)?;
            let Some(body) = job.results() else {
                let msg = format!("run is {}, results not available", job.state().label());
                return Err(Reply::error(409, &msg));
            };
            if req.query_param("format") == Some("summary") {
                // Memoized on the job: big summaries parse every line, and
                // dashboards poll this endpoint.
                let doc = job.summary_or_build(|| summary_json(&job.spec, &body));
                Reply::json(200, doc.as_str())
            } else {
                Reply::Streamed(stream_results(stream, &body, keep_alive))
            }
        }
        ("DELETE", ["runs", id]) => {
            let job = job(id)?;
            job.request_cancel();
            Reply::json(200, status_document(&job).as_bytes())
        }
        (_, ["runs"]) | (_, ["runs", ..]) => Reply::error(405, "method not allowed"),
        _ => Reply::error(404, "no such endpoint"),
    })
}

/// Smallest chunk `/runs/:id/results` writes before its last one.
const RESULTS_CHUNK: usize = 32 * 1024;

/// Stream a finished results body as a chunked response, in slices of
/// whole lines of at least [`RESULTS_CHUNK`] bytes each, so million-trial
/// results do not degenerate into a syscall per line.
fn stream_results(stream: &mut TcpStream, body: &str, keep_alive: bool) -> std::io::Result<()> {
    write_chunked_head(stream, 200, "application/jsonl", keep_alive)?;
    for chunk in results_chunks(body) {
        write_chunk(stream, chunk.as_bytes())?;
    }
    finish_chunks(stream)
}

/// `body` cut at the first line end at or past each [`RESULTS_CHUNK`]
/// bytes, the last slice holding the rest.
fn results_chunks(body: &str) -> impl Iterator<Item = &str> {
    let mut rest = body;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let cut = rest
            .as_bytes()
            .get(RESULTS_CHUNK - 1..)
            .and_then(|tail| tail.iter().position(|&b| b == b'\n'))
            .map_or(rest.len(), |nl| RESULTS_CHUNK + nl);
        let (chunk, tail) = rest.split_at(cut);
        rest = tail;
        Some(chunk)
    })
}

/// Stream a job's event log as Server-Sent Events over chunked transfer.
/// Each frame is `data: {json}\n\n`. A subscriber that fell behind the
/// bounded per-job window gets an `overflow` frame (with the drop count)
/// before resuming — never an unbounded buffer. The stream ends cleanly
/// when the job settles and the log is drained, or when the server begins
/// shutdown — SIGTERM drains subscribers instead of severing them.
fn stream_events(
    stream: &mut TcpStream,
    job: &Job,
    state: &AppState,
    shutdown: &AtomicBool,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_chunked_head(stream, 200, "text/event-stream", keep_alive)?;
    let mut cursor = 0u64;
    loop {
        let batch = job.events_after(cursor, 2 * READ_TICK);
        if batch.dropped > 0 {
            state
                .metrics
                .events_dropped
                .fetch_add(batch.dropped, Ordering::Relaxed);
            let marker = format!(
                "data: {{\"event\":\"overflow\",\"dropped\":{}}}\n\n",
                batch.dropped
            );
            write_chunk(stream, marker.as_bytes())?;
        }
        write_chunk(stream, batch.frames.as_bytes())?;
        cursor = batch.next;
        if (batch.closed && batch.frames.is_empty()) || shutdown.load(Ordering::SeqCst) {
            return finish_chunks(stream);
        }
    }
}

/// `GET /trace?scenario=LABEL[&seed=S][&cap=N]` and `GET
/// /timeline?scenario=LABEL[&seed=S][&budget=N]`: run one trial under the
/// event trace or the flight recorder and send what it saw as JSONL —
/// byte-identical to `disp-campaign trace` / `timeline` for the same
/// scenario and seed (both sides use the shared encoders). Every input is
/// validated before the trial runs — the other path's bound included, which
/// is a 400 rather than silently ignored — and a run that fails is a 400,
/// never a mid-stream failure. The cap or budget bounds observer memory
/// however long the trial runs.
fn observe(req: &Request, state: &AppState, timeline: bool) -> Result<Reply, Reply> {
    let bad = |msg: &str| Reply::error(400, msg);
    let label = req
        .query_param("scenario")
        .ok_or_else(|| bad("missing required query parameter 'scenario'"))?;
    let seed = match req.query_param("seed") {
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| bad("seed must be an unsigned integer"))?,
        None => 1,
    };
    let (bound_name, default, other) = if timeline {
        ("budget", DEFAULT_TIMELINE_BUDGET, "cap")
    } else {
        ("cap", DEFAULT_TRACE_CAP, "budget")
    };
    if req.query_param(other).is_some() {
        return Err(bad(&format!(
            "{} takes '{bound_name}', not '{other}'",
            req.path
        )));
    }
    let bound = match req.query_param(bound_name) {
        Some(b) => b
            .parse::<usize>()
            .ok()
            .filter(|&b| b > 0)
            .ok_or_else(|| bad(&format!("{bound_name} must be a positive integer")))?,
        None => default,
    };
    let registry = Registry::builtin();
    let spec = ScenarioSpec::parse(label, &registry)
        .map_err(|e| bad(&format!("scenario '{label}': {e}")))?;
    let mut pool = WorldPool::new();
    let body = if timeline {
        let mut recorder = TimelineRecorder::with_budget(bound);
        spec.run_observed(&registry, seed, &mut pool, &mut recorder)
            .map_err(|e| bad(&e.to_string()))?;
        let timeline = recorder.finish();
        // The gauge tracks the deepest decimation any served timeline
        // reached: nonzero means budgets are being exercised.
        let level = timeline.decimation_level() as u64;
        state
            .metrics
            .timeline_decimation_level
            .fetch_max(level, Ordering::Relaxed);
        timeline_to_jsonl(&timeline, &spec.label(), seed)
    } else {
        let mut trace = Trace::with_cap(bound);
        spec.run_observed(&registry, seed, &mut pool, &mut trace)
            .map_err(|e| bad(&e.to_string()))?;
        trace_to_jsonl(&trace)
    };
    Ok(Reply::Jsonl(body))
}

/// Build the JSON summary document for a finished job's results body —
/// the same encoder (`campaign_report_json`) behind `disp-campaign report
/// --format json`.
fn summary_json(spec: &CampaignSpec, body: &str) -> String {
    let records = jsonl::read_trials(body.as_bytes())
        .map(|ingest| ingest.records)
        .unwrap_or_default();
    let sections = section_measurements(spec, records);
    campaign_report_json(spec, &sections).to_string_compact()
}

/// The status document for `GET /runs/:id` and `DELETE /runs/:id`,
/// rendered per read while the job is live and once when it has settled.
fn status_document(job: &Job) -> Arc<str> {
    job.status_or_build(|| job_status_json(job).to_string_compact())
}

/// Render the status document: snapshot counters plus live per-point
/// streaming statistics (count, mean/stddev/min/max/p50/p99 of moves and
/// time) and the throughput clock. Counts are monotone across polls of a
/// running job — `done` only grows, and each point's `count` only grows.
fn job_status_json(job: &Job) -> Json {
    let snap = job.snapshot();
    let mut fields = match snapshot_json(&snap) {
        Json::Obj(fields) => fields,
        _ => unreachable!("snapshot_json returns an object"),
    };
    let points: Vec<(String, Json)> = job
        .point_stats()
        .into_iter()
        .map(|(label, stats)| {
            (
                label,
                Json::Obj(vec![
                    ("count".into(), Json::Num(stats.moves.count() as f64)),
                    ("moves".into(), stats.moves.to_json()),
                    ("time".into(), stats.time.to_json()),
                ]),
            )
        })
        .collect();
    fields.push(("points".into(), Json::Obj(points)));
    if let Some(secs) = job.running_secs() {
        fields.push(("elapsed_secs".into(), Json::Num(secs)));
        if secs > 0.0 {
            fields.push((
                "throughput_per_sec".into(),
                Json::Num(snap.done as f64 / secs),
            ));
        }
    }
    Json::Obj(fields)
}

fn snapshot_json(snap: &JobSnapshot) -> Json {
    let mut fields = vec![
        ("id".into(), Json::Str(snap.id.clone())),
        ("state".into(), Json::Str(snap.state.label().into())),
        ("total".into(), Json::Num(snap.total as f64)),
        ("done".into(), Json::Num(snap.done as f64)),
        ("cache_hits".into(), Json::Num(snap.cache_hits as f64)),
        ("executed".into(), Json::Num(snap.executed as f64)),
    ];
    if let JobState::Failed(msg) = &snap.state {
        fields.push(("error".into(), Json::Str(msg.clone())));
    }
    Json::Obj(fields)
}

/// Parse and validate a `POST /runs` body into a campaign spec.
///
/// Accepts either an ad-hoc grid —
/// `{"scenarios": ["star/k12/rooted/sync/probe-dfs", …], "reps": 2, "seed": 7}`
/// — or a named campaign — `{"campaign": "mini", "mode": "quick", "seed": 7}`.
/// Every scenario is validated against the builtin registry before the job
/// is accepted, so an illegal grid is a 400 at submit time, never a
/// mid-job failure.
pub fn parse_submission(body: &[u8]) -> Result<CampaignSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = Json::parse(text.trim()).map_err(|e| format!("body is not JSON: {e}"))?;
    let seed = match v.get("seed") {
        Some(s) => s
            .as_u64_lossless()
            .ok_or("seed must be an unsigned integer")?,
        None => 1,
    };
    let registry = Registry::builtin();
    let spec = match (v.get("scenarios"), v.get("campaign")) {
        (Some(_), Some(_)) => {
            return Err("'scenarios' and 'campaign' are mutually exclusive".into())
        }
        (Some(Json::Arr(items)), None) => {
            if items.is_empty() {
                return Err("'scenarios' must not be empty".into());
            }
            let reps = match v.get("reps") {
                Some(r) => r.as_u64().ok_or("reps must be an unsigned integer")? as usize,
                None => 1,
            };
            let scenarios = items
                .iter()
                .map(|item| {
                    let label = item.as_str().ok_or("scenarios must be label strings")?;
                    ScenarioSpec::parse(label, &registry).map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, String>>()?;
            CampaignSpec::custom(scenarios, reps.max(1), seed)
        }
        (None, Some(name)) => {
            let name = name.as_str().ok_or("campaign must be a string")?;
            let mode = match v.get("mode") {
                Some(m) => {
                    let label = m.as_str().ok_or("mode must be a string")?;
                    Mode::from_label(label).ok_or_else(|| format!("unknown mode '{label}'"))?
                }
                None => Mode::Quick,
            };
            CampaignSpec::by_name(name, mode, seed)
                .ok_or_else(|| format!("unknown campaign '{name}'"))?
        }
        _ => return Err("body needs 'scenarios' (array of labels) or 'campaign'".into()),
    };
    // Count trials without expanding the grid (expansion itself would be
    // the allocation this cap exists to prevent).
    let trial_count = spec
        .sections
        .iter()
        .flat_map(|s| &s.points)
        .map(|p| p.repetitions.max(1))
        .fold(0usize, usize::saturating_add);
    if trial_count > MAX_JOB_TRIALS {
        return Err(format!(
            "grid expands to {trial_count} trials, above the per-request cap of \
             {MAX_JOB_TRIALS}; run grids this large offline with `disp-campaign run --out`",
        ));
    }
    for point in spec.sections.iter().flat_map(|s| &s.points) {
        point
            .scenario
            .validate(&registry)
            .map_err(|e| format!("scenario '{}': {e}", point.scenario.label()))?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn a_settled_jobs_status_is_memoized_with_the_bytes_of_a_live_render() {
        let server = Server::start(
            "127.0.0.1:0",
            ServeConfig {
                http_threads: 2,
                job_threads: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let spec = parse_submission(
            br#"{"scenarios":["star/k8/rooted/sync/probe-dfs","rtree/k8/rooted/async-rand0.7/ks-dfs"],"reps":3,"seed":5}"#,
        )
        .unwrap();
        let job = server.state().manager.submit(spec).unwrap();
        while !job.settled() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let live = job_status_json(&job).to_string_compact();
        assert_eq!(job.point_stats().len(), 2);
        let mut client = Client::new(&server.addr().to_string());
        let path = format!("/runs/{}", job.id);
        let first = client.get(&path).unwrap().text();
        // The first read memoized the document and dropped its sources.
        assert!(job.point_stats().is_empty());
        let second = client.get(&path).unwrap().text();
        assert_eq!(first, live);
        assert_eq!(second, live);
        let deleted = client.request("DELETE", &path, None).unwrap().text();
        assert_eq!(deleted, live);
        server.shutdown();
    }

    #[test]
    fn results_are_cut_at_the_first_line_end_past_each_32_kib() {
        // The cuts the results stream has always made: whole lines,
        // written out once a batch reaches 32 KiB.
        fn batched(lines: &[String]) -> Vec<String> {
            let mut chunks = Vec::new();
            let mut batch = String::new();
            for line in lines {
                batch.push_str(line);
                batch.push('\n');
                if batch.len() >= RESULTS_CHUNK {
                    chunks.push(std::mem::take(&mut batch));
                }
            }
            chunks.extend(Some(batch).filter(|b| !b.is_empty()));
            chunks
        }
        let varied =
            |n: usize| -> Vec<String> { (0..n).map(|i| "x".repeat(1 + i * 7919 % 1500)).collect() };
        let exact = |n: usize| vec!["y".repeat(RESULTS_CHUNK - 1); n];
        for lines in [
            Vec::new(),
            varied(1),
            varied(40),
            varied(1000),
            exact(3),
            vec!["z".repeat(3 * RESULTS_CHUNK), "w".into()],
        ] {
            let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let cut: Vec<&str> = results_chunks(&body).collect();
            assert_eq!(cut, batched(&lines), "{} lines", lines.len());
        }
    }

    #[test]
    fn submissions_parse_and_validate() {
        let spec = parse_submission(
            br#"{"scenarios":["star/k8/rooted/sync/probe-dfs"],"reps":2,"seed":7}"#,
        )
        .unwrap();
        assert_eq!(spec.name, "custom");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.trials().len(), 2);

        let named = parse_submission(br#"{"campaign":"mini","mode":"quick","seed":3}"#).unwrap();
        assert_eq!(named.name, "mini");

        // Defaults: reps 1, seed 1, mode quick.
        let d = parse_submission(br#"{"scenarios":["star/k8/rooted/sync/probe-dfs"]}"#).unwrap();
        assert_eq!(d.seed, 1);
        assert_eq!(d.trials().len(), 1);
    }

    #[test]
    fn bad_submissions_are_typed_errors() {
        for (body, needle) in [
            (&br#"{"reps":2}"#[..], "needs 'scenarios'"),
            (br#"{"scenarios":[]}"#, "must not be empty"),
            (br#"{"scenarios":["nope/k8"]}"#, "label"),
            (
                br#"{"scenarios":["star/k8/rooted/sync/quantum-dfs"]}"#,
                "unknown algorithm",
            ),
            (
                br#"{"scenarios":["star/k8/scatter/sync/probe-dfs"]}"#,
                "rooted",
            ),
            (br#"{"campaign":"nope"}"#, "unknown campaign"),
            (
                br#"{"scenarios":["star/k8/rooted/sync/probe-dfs"],"reps":4000000000}"#,
                "per-request cap",
            ),
            (
                br#"{"campaign":"mini","scenarios":["x"]}"#,
                "mutually exclusive",
            ),
            (br#"not json"#, "not JSON"),
        ] {
            let err = parse_submission(body).unwrap_err();
            assert!(err.contains(needle), "body {:?} → {err}", body);
        }
    }
}
