//! The HTTP side of coordinator/worker mode.
//!
//! `disp-cluster` keeps the protocol (`proto`), the scheduling state
//! (`board`) and the worker loop transport-agnostic; this module supplies
//! the two HTTP halves:
//!
//! * `handle_internal` — the coordinator's `/internal/*` endpoint
//!   handlers, routed from [`crate::server`]. `complete` hands worker
//!   results to the lease board; the submitting job's executor takes them
//!   from there into the shared cache tier, its progress counters and its
//!   event stream (worker-tagged `completed` events).
//! * [`HttpCoordinator`] + [`run_worker`] — the worker process: the
//!   [`Coordinator`] transport over [`crate::client::Client`] (batch
//!   uploads use chunked request bodies) and the process runner that wires
//!   a local cache, the heartbeat thread and the worker loop together.

use crate::cache::TrialCache;
use crate::client::Client;
use crate::server::{AppState, Reply};
use disp_analysis::json::Json;
use disp_cluster::proto::{
    decode_complete_body, decode_reconcile, decode_worker_ref, encode_complete_body,
    encode_reconcile, encode_worker_ref, CompleteHeader, CompleteReply, LeaseReply, ReconcileReply,
    Upload,
};
use disp_cluster::{Coordinator, WorkerConfig, WorkerShared, WorkerStats, WorkerSummary};
use disp_core::scenario::Registry;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Handle one `POST /internal/<cmd>` request. An `Err` is an error reply.
///
/// Answers 404 unless this server was started as a coordinator. During
/// shutdown, leases answer `Draining` (workers exit cleanly) and
/// heartbeats answer `ok: false` (in-flight batches are abandoned; their
/// trials stay in the workers' local caches for the next run).
pub(crate) fn handle_internal(
    state: &AppState,
    shutdown: &AtomicBool,
    cmd: &str,
    body: &[u8],
) -> Result<Reply, Reply> {
    let board = state
        .cluster
        .as_ref()
        .ok_or_else(|| Reply::error(404, "this server is not a coordinator"))?;
    let text = std::str::from_utf8(body).map_err(|_| Reply::error(400, "body is not UTF-8"))?;
    let bad = |e: String| Reply::error(400, &e);
    let reply = match cmd {
        "lease" => {
            let (worker, _, stats) = decode_worker_ref(text).map_err(bad)?;
            if let Some(stats) = stats {
                board.note_worker_stats(&worker, stats);
            }
            let lease = if shutdown.load(Ordering::SeqCst) {
                LeaseReply::Draining
            } else {
                board.lease(&worker)
            };
            lease.encode()
        }
        "heartbeat" => {
            let (worker, held, stats) = decode_worker_ref(text).map_err(bad)?;
            let (job, batch) = held.ok_or_else(|| bad("heartbeat needs job and batch".into()))?;
            if let Some(stats) = stats {
                board.note_worker_stats(&worker, stats);
            }
            let ok = !shutdown.load(Ordering::SeqCst) && board.heartbeat(&worker, &job, batch);
            Json::Obj(vec![("ok".into(), Json::Bool(ok))]).to_string_compact()
        }
        "reconcile" => {
            let (worker, job, batch, digests) = decode_reconcile(text).map_err(bad)?;
            board.reconcile(&worker, &job, batch, &digests).encode()
        }
        "complete" => {
            let (header, uploads) = decode_complete_body(text).map_err(bad)?;
            // A broken upload (wrong identity, uncovered slot) is the
            // worker's bug; the lease stays live for a retry. The job's
            // executor accounts what the board accepts.
            board
                .complete(&header.worker, &header.job, header.batch, &uploads)
                .map_err(bad)?
                .encode()
        }
        _ => return Err(Reply::error(404, "no such endpoint")),
    };
    Ok(Reply::json(200, reply))
}

/// The worker's [`Coordinator`] transport: the protocol over the same
/// keep-alive HTTP client `disp-load` uses. Batch uploads go out as
/// chunked request bodies ([`Client::post_chunked`]).
#[derive(Debug)]
pub struct HttpCoordinator {
    client: Client,
}

impl HttpCoordinator {
    /// A transport to the coordinator at `addr` (`host:port`).
    pub fn new(addr: &str) -> HttpCoordinator {
        HttpCoordinator {
            client: Client::new(addr),
        }
    }

    fn post(&mut self, path: &str, body: String) -> Result<String, String> {
        let resp = self.client.request("POST", path, Some(body.into_bytes()))?;
        if resp.status != 200 {
            return Err(format!("{path}: HTTP {}: {}", resp.status, resp.text()));
        }
        Ok(resp.text())
    }
}

impl Coordinator for HttpCoordinator {
    fn lease(&mut self, worker: &str, stats: WorkerStats) -> Result<LeaseReply, String> {
        let body = self.post(
            "/internal/lease",
            encode_worker_ref(worker, None, Some(stats)),
        )?;
        LeaseReply::decode(&body)
    }

    fn heartbeat(
        &mut self,
        worker: &str,
        job: &str,
        batch: u64,
        stats: WorkerStats,
    ) -> Result<bool, String> {
        let body = self.post(
            "/internal/heartbeat",
            encode_worker_ref(worker, Some((job, batch)), Some(stats)),
        )?;
        Json::parse(body.trim())?
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| "heartbeat reply: missing ok".to_string())
    }

    fn reconcile(
        &mut self,
        worker: &str,
        job: &str,
        batch: u64,
        digests: &[Option<u64>],
    ) -> Result<ReconcileReply, String> {
        let body = self.post(
            "/internal/reconcile",
            encode_reconcile(worker, job, batch, digests),
        )?;
        ReconcileReply::decode(&body)
    }

    fn complete(
        &mut self,
        header: &CompleteHeader,
        uploads: &[Upload],
    ) -> Result<CompleteReply, String> {
        let body = encode_complete_body(header, uploads);
        let resp = self
            .client
            .post_chunked("/internal/complete", body.as_bytes())?;
        if resp.status != 200 {
            return Err(format!(
                "/internal/complete: HTTP {}: {}",
                resp.status,
                resp.text()
            ));
        }
        CompleteReply::decode(&resp.text())
    }
}

/// Configuration of a worker process (`disp-serve --role worker`).
#[derive(Debug, Clone)]
pub struct WorkerProcessConfig {
    /// Worker id, tagged onto every trial it uploads.
    pub id: String,
    /// Engine threads for batch execution.
    pub threads: usize,
    /// Local cache directory (`None` = in-memory).
    pub cache_dir: Option<PathBuf>,
    /// Poll delay when the coordinator has no work.
    pub poll: Duration,
}

/// Run a worker against the coordinator at `addr` until `shared` is asked
/// to stop (SIGTERM) or the coordinator drains. The heartbeat thread gets
/// its own connection so a long-running batch cannot starve its lease.
pub fn run_worker(
    addr: &str,
    cfg: &WorkerProcessConfig,
    shared: &Arc<WorkerShared>,
) -> Result<WorkerSummary, String> {
    let cache = match &cfg.cache_dir {
        Some(dir) => TrialCache::open(dir)?,
        None => TrialCache::in_memory(),
    };
    let registry = Registry::builtin();
    let mut transport = HttpCoordinator::new(addr);
    let heartbeat = {
        let mut transport = HttpCoordinator::new(addr);
        let shared = Arc::clone(shared);
        let worker = cfg.id.clone();
        std::thread::spawn(move || {
            disp_cluster::worker::heartbeat_loop(&mut transport, &shared, &worker)
        })
    };
    let worker_cfg = WorkerConfig {
        id: cfg.id.clone(),
        threads: cfg.threads,
        poll: cfg.poll,
    };
    let result = disp_cluster::worker::run_worker_loop(
        &mut transport,
        &cache,
        &registry,
        &worker_cfg,
        shared,
    );
    // End the heartbeat thread whether the loop drained or errored.
    shared.request_stop();
    let _ = heartbeat.join();
    result
}
