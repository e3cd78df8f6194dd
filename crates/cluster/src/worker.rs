//! The worker loop.
//!
//! A worker is a pull client: lease a batch, reconcile digests of what its
//! *local* trial cache holds with the coordinator, run the slots the
//! coordinator is missing through the trial pipeline (served from the
//! local cache or executed into it), upload them, and go back for more. The loop is generic over a [`Coordinator`] transport
//! so the whole protocol is unit-testable in-process; the HTTP transport
//! lives in `disp-serve` next to its client.
//!
//! Heartbeats run on a *separate* transport (see [`heartbeat_loop`]) so a
//! long-running batch cannot starve its own lease: the main loop executes
//! trials while the heartbeat thread keeps the lease alive, and a
//! heartbeat answered `false` trips the batch's cancel flag — the engine
//! stops at the next trial boundary and the batch is abandoned to its new
//! owner.

use crate::cache::TrialCache;
use crate::proto::{
    line_digest, BatchAssignment, CompleteHeader, CompleteReply, LeaseReply, ReconcileReply,
    SlotSpec, Upload, WorkerStats,
};
use disp_analysis::ExperimentPoint;
use disp_campaign::grid::TrialSpec;
use disp_campaign::run::{Fill, Plan, RunOptions};
use disp_core::scenario::{Registry, ScenarioSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A transport to the coordinator. Methods take `&mut self` because the
/// HTTP client owns a reconnecting connection.
pub trait Coordinator {
    /// `POST /internal/lease`. `stats` is the worker's cumulative counter
    /// snapshot, piggybacked for fleet-wide metrics (observability only).
    fn lease(&mut self, worker: &str, stats: WorkerStats) -> Result<LeaseReply, String>;
    /// `POST /internal/heartbeat`, carrying the same stats snapshot.
    fn heartbeat(
        &mut self,
        worker: &str,
        job: &str,
        batch: u64,
        stats: WorkerStats,
    ) -> Result<bool, String>;
    /// `POST /internal/reconcile`.
    fn reconcile(
        &mut self,
        worker: &str,
        job: &str,
        batch: u64,
        digests: &[Option<u64>],
    ) -> Result<ReconcileReply, String>;
    /// `POST /internal/complete`.
    fn complete(
        &mut self,
        header: &CompleteHeader,
        uploads: &[Upload],
    ) -> Result<CompleteReply, String>;
}

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// This worker's id, tagged onto every trial it uploads.
    pub id: String,
    /// Engine threads for batch execution.
    pub threads: usize,
    /// Poll delay when the coordinator has no work (upper-bounded by the
    /// coordinator's suggested `retry_ms`).
    pub poll: Duration,
}

/// What a worker did over its lifetime (printed on clean exit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Batches completed (non-stale).
    pub batches: u64,
    /// Trials executed by the engine.
    pub executed: u64,
    /// Trials served from the worker's local cache.
    pub local_hits: u64,
    /// Records uploaded to the coordinator.
    pub uploaded: u64,
    /// Batches abandoned (lost lease or stale reconcile).
    pub abandoned: u64,
}

impl WorkerSummary {
    /// The wire snapshot of these counters, piggybacked on lease and
    /// heartbeat bodies.
    pub fn stats(&self) -> WorkerStats {
        WorkerStats {
            executed: self.executed,
            local_hits: self.local_hits,
            uploaded: self.uploaded,
            batches: self.batches,
            abandoned: self.abandoned,
        }
    }
}

/// The lease the worker currently holds, shared with the heartbeat thread.
#[derive(Debug, Clone)]
struct CurrentLease {
    job: String,
    batch: u64,
    lease_ms: u64,
    /// Tripped by the heartbeat thread when the lease is lost.
    cancel: Arc<AtomicBool>,
}

/// State shared between the worker loop and its heartbeat thread.
#[derive(Debug, Default)]
pub struct WorkerShared {
    /// External stop request (SIGTERM): finish the current batch-step and
    /// exit.
    pub stop: AtomicBool,
    current: Mutex<Option<CurrentLease>>,
    /// Latest cumulative counter snapshot, published by the worker loop and
    /// read by the heartbeat thread for piggybacking.
    stats: Mutex<WorkerStats>,
}

impl WorkerShared {
    /// A fresh shared state.
    pub fn new() -> Arc<WorkerShared> {
        Arc::new(WorkerShared::default())
    }

    /// Request a stop; the loops exit at their next boundary.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Publish the worker loop's latest counter snapshot.
    pub fn publish_stats(&self, stats: WorkerStats) {
        *self.stats.lock().unwrap() = stats;
    }

    /// The latest published counter snapshot.
    pub fn stats_snapshot(&self) -> WorkerStats {
        *self.stats.lock().unwrap()
    }
}

/// Keep the current lease alive on a dedicated transport; trip its cancel
/// flag the moment the coordinator disowns it. Runs until
/// [`WorkerShared::request_stop`].
pub fn heartbeat_loop<C: Coordinator>(transport: &mut C, shared: &WorkerShared, worker: &str) {
    const TICK: Duration = Duration::from_millis(50);
    let mut since_beat = Duration::ZERO;
    while !shared.stopping() {
        std::thread::sleep(TICK);
        since_beat += TICK;
        let Some(lease) = shared.current.lock().unwrap().clone() else {
            since_beat = Duration::ZERO;
            continue;
        };
        // Beat at a third of the TTL so two beats can be lost before the
        // lease expires.
        let interval = Duration::from_millis((lease.lease_ms / 3).max(50));
        if since_beat < interval {
            continue;
        }
        since_beat = Duration::ZERO;
        match transport.heartbeat(worker, &lease.job, lease.batch, shared.stats_snapshot()) {
            Ok(true) => {}
            Ok(false) => lease.cancel.store(true, Ordering::SeqCst),
            // Transport errors are not lease loss: the main loop decides
            // what to do about a dead coordinator.
            Err(_) => {}
        }
    }
}

/// The worker main loop: lease → reconcile → plan and execute the missing
/// slots → upload, until [`WorkerShared::request_stop`] or the coordinator drains.
/// Transport errors are retried with backoff; a coordinator that stays
/// unreachable ends the loop with an error.
pub fn run_worker_loop<C: Coordinator>(
    transport: &mut C,
    cache: &TrialCache,
    registry: &Registry,
    cfg: &WorkerConfig,
    shared: &WorkerShared,
) -> Result<WorkerSummary, String> {
    const MAX_CONSECUTIVE_ERRORS: u32 = 20;
    let mut summary = WorkerSummary::default();
    let mut errors = 0u32;
    while !shared.stopping() {
        shared.publish_stats(summary.stats());
        let reply = match transport.lease(&cfg.id, summary.stats()) {
            Ok(reply) => {
                errors = 0;
                reply
            }
            Err(e) => {
                errors += 1;
                if errors >= MAX_CONSECUTIVE_ERRORS {
                    return Err(format!("coordinator unreachable: {e}"));
                }
                sleep_checking_stop(Duration::from_millis(250), shared);
                continue;
            }
        };
        match reply {
            LeaseReply::Draining => break,
            LeaseReply::Idle { retry_ms } => {
                sleep_checking_stop(cfg.poll.min(Duration::from_millis(retry_ms)), shared);
            }
            LeaseReply::Batch(assignment) => {
                process_batch(
                    transport,
                    cache,
                    registry,
                    cfg,
                    shared,
                    assignment,
                    &mut summary,
                )?;
            }
        }
    }
    Ok(summary)
}

fn process_batch<C: Coordinator>(
    transport: &mut C,
    cache: &TrialCache,
    registry: &Registry,
    cfg: &WorkerConfig,
    shared: &WorkerShared,
    assignment: BatchAssignment,
    summary: &mut WorkerSummary,
) -> Result<(), String> {
    let cancel = Arc::new(AtomicBool::new(false));
    *shared.current.lock().unwrap() = Some(CurrentLease {
        job: assignment.job.clone(),
        batch: assignment.batch,
        lease_ms: assignment.lease_ms,
        cancel: cancel.clone(),
    });
    let outcome = drive_batch(
        transport,
        cache,
        registry,
        cfg,
        &assignment,
        &cancel,
        summary,
    );
    *shared.current.lock().unwrap() = None;
    outcome
}

fn drive_batch<C: Coordinator>(
    transport: &mut C,
    cache: &TrialCache,
    registry: &Registry,
    cfg: &WorkerConfig,
    assignment: &BatchAssignment,
    cancel: &Arc<AtomicBool>,
    summary: &mut WorkerSummary,
) -> Result<(), String> {
    let slots = &assignment.slots;
    // 1. Reconcile: advertise digests of what the local cache holds (a
    //    pure read) and learn what the coordinator is missing.
    let digests: Vec<Option<u64>> = slots
        .iter()
        .map(|s| {
            let held = cache.peek(&s.label, s.rep, s.seed, s.repetitions);
            held.map(|rec| line_digest(&rec.to_json_line()))
        })
        .collect();
    let reconcile = transport.reconcile(&cfg.id, &assignment.job, assignment.batch, &digests)?;
    if reconcile.stale {
        summary.abandoned += 1;
        return Ok(());
    }
    // 2. Plan the missing slots against the local cache: every label is
    //    validated against the registry (a bad slot is an error, not a
    //    crash), and a hit comes back with the submitting grid's repetition
    //    count, byte-identical to a fresh execution.
    let trials = reconcile
        .missing
        .iter()
        .map(|&i| match slots.get(i) {
            Some(slot) => trial_of(slot),
            None => Err(format!(
                "coordinator named slot {i} of a {}-slot batch",
                slots.len()
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let plan = Plan::new(trials, registry, Some(cache), None)?;
    summary.local_hits += plan.held() as u64;
    // 3. Execute what neither side holds. Each record lands in the local
    //    cache as it finishes, so work done before a lost lease (the
    //    heartbeat trips `cancel`) is served at the next reconcile.
    let opts = RunOptions {
        threads: cfg.threads,
        cancel: Some(cancel),
        ..RunOptions::default()
    };
    let (fresh, _) = plan.execute(registry, Some(cache), &opts);
    if cancel.load(Ordering::SeqCst) || fresh.iter().any(Option::is_none) {
        summary.abandoned += 1;
        return Ok(());
    }
    summary.executed += fresh.len() as u64;
    // 4. Upload exactly the missing slots.
    let uploads: Vec<Upload> = reconcile
        .missing
        .iter()
        .zip(plan.fills())
        .map(|(&slot, fill)| {
            let (record, wall_micros) = match fill {
                Fill::Held(rec) => ((**rec).clone(), 0),
                Fill::Miss(m) => fresh[*m].clone().expect("checked above"),
            };
            Upload {
                slot,
                wall_micros,
                cached: matches!(fill, Fill::Held(_)),
                line: record.to_json_line(),
                record,
            }
        })
        .collect();
    let header = CompleteHeader {
        worker: cfg.id.clone(),
        job: assignment.job.clone(),
        batch: assignment.batch,
    };
    let reply = transport.complete(&header, &uploads)?;
    if reply.stale {
        summary.abandoned += 1;
    } else {
        summary.batches += 1;
        summary.uploaded += reply.accepted as u64;
    }
    Ok(())
}

/// Rebuild the executable trial from its wire slot. The label is only
/// parsed here; the pipeline's plan stage validates it against the
/// registry, so a slot the two sides' registries disagree about fails the
/// worker loop with a typed error instead of guessing.
fn trial_of(slot: &SlotSpec) -> Result<TrialSpec, String> {
    let spec = ScenarioSpec::from_label(&slot.label)
        .map_err(|e| format!("bad slot label {:?}: {e}", slot.label))?;
    Ok(TrialSpec {
        section: 0,
        point: ExperimentPoint::new(spec, slot.repetitions),
        rep: slot.rep,
        seed: slot.seed,
    })
}

fn sleep_checking_stop(total: Duration, shared: &WorkerShared) {
    const TICK: Duration = Duration::from_millis(25);
    let mut slept = Duration::ZERO;
    while slept < total && !shared.stopping() {
        let step = TICK.min(total - slept);
        std::thread::sleep(step);
        slept += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::ClusterBoard;
    use crate::plan::plan_batches;
    use disp_campaign::grid::trial_seed;

    /// An in-process transport straight onto a board — the protocol without
    /// the HTTP layer (which `disp-serve` tests end to end).
    struct LocalTransport {
        board: Arc<ClusterBoard>,
        cache: Arc<TrialCache>,
    }

    impl Coordinator for LocalTransport {
        fn lease(&mut self, worker: &str, stats: WorkerStats) -> Result<LeaseReply, String> {
            self.board.note_worker_stats(worker, stats);
            Ok(self.board.lease(worker))
        }
        fn heartbeat(
            &mut self,
            worker: &str,
            job: &str,
            batch: u64,
            stats: WorkerStats,
        ) -> Result<bool, String> {
            self.board.note_worker_stats(worker, stats);
            Ok(self.board.heartbeat(worker, job, batch))
        }
        fn reconcile(
            &mut self,
            worker: &str,
            job: &str,
            batch: u64,
            digests: &[Option<u64>],
        ) -> Result<ReconcileReply, String> {
            Ok(self.board.reconcile(worker, job, batch, digests))
        }
        fn complete(
            &mut self,
            header: &CompleteHeader,
            uploads: &[Upload],
        ) -> Result<CompleteReply, String> {
            let reply = self
                .board
                .complete(&header.worker, &header.job, header.batch, uploads)?;
            if !reply.stale {
                for u in uploads {
                    self.cache.insert(&u.record);
                }
            }
            Ok(reply)
        }
    }

    fn grid_slots(campaign_seed: u64, reps: usize) -> Vec<SlotSpec> {
        [
            "star/k8/rooted/sync/probe-dfs",
            "line/k6/rooted/sync/probe-dfs",
        ]
        .iter()
        .flat_map(|label| {
            let spec = ScenarioSpec::from_label(label).unwrap();
            let point = ExperimentPoint::new(spec, reps);
            (0..reps)
                .map(|rep| SlotSpec {
                    label: point.point_id(),
                    rep,
                    seed: trial_seed(campaign_seed, &point, rep),
                    repetitions: reps,
                })
                .collect::<Vec<_>>()
        })
        .collect()
    }

    #[test]
    fn worker_drains_a_published_job_and_records_match_direct_execution() {
        let board = Arc::new(ClusterBoard::new(Duration::from_secs(60)));
        let shared_cache = Arc::new(TrialCache::in_memory());
        let slots = grid_slots(7, 2);
        board.publish("r0", plan_batches(slots.clone(), 3));
        let mut transport = LocalTransport {
            board: board.clone(),
            cache: shared_cache.clone(),
        };
        let local = TrialCache::in_memory();
        let cfg = WorkerConfig {
            id: "w1".into(),
            threads: 2,
            poll: Duration::from_millis(10),
        };
        let shared = WorkerShared::new();
        // Drain: once the board is idle, stop the loop from another thread.
        let stopper = {
            let board = board.clone();
            let shared = shared.clone();
            std::thread::spawn(move || {
                while board.wait("r0", Duration::from_millis(20), &mut Vec::new())
                    == crate::board::WaitStatus::Waiting
                {}
                shared.request_stop();
            })
        };
        let summary =
            run_worker_loop(&mut transport, &local, &Registry::builtin(), &cfg, &shared).unwrap();
        stopper.join().unwrap();
        assert_eq!(summary.executed, slots.len() as u64);
        assert_eq!(summary.uploaded, slots.len() as u64);
        assert_eq!(summary.abandoned, 0);
        // Every record the coordinator now holds equals a direct execution.
        for slot in &slots {
            let rec = shared_cache
                .peek(&slot.label, slot.rep, slot.seed, slot.repetitions)
                .expect("uploaded");
            let direct =
                trial_of(slot)
                    .unwrap()
                    .point
                    .run_trial(&Registry::builtin(), slot.rep, slot.seed);
            assert_eq!(rec.to_json_line(), direct.to_json_line());
        }
    }

    #[test]
    fn a_slot_the_registry_rejects_fails_the_loop_instead_of_crashing_it() {
        let board = Arc::new(ClusterBoard::new(Duration::from_secs(60)));
        // Parses as a label, but ks-dfs does not tolerate crashes.
        let label = "ring/k8/rooted/sync/crash2/ks-dfs";
        board.publish(
            "r2",
            plan_batches(
                vec![SlotSpec {
                    label: label.into(),
                    rep: 0,
                    seed: 1,
                    repetitions: 1,
                }],
                1,
            ),
        );
        let mut transport = LocalTransport {
            board,
            cache: Arc::new(TrialCache::in_memory()),
        };
        let cfg = WorkerConfig {
            id: "w1".into(),
            threads: 1,
            poll: Duration::from_millis(10),
        };
        let err = run_worker_loop(
            &mut transport,
            &TrialCache::in_memory(),
            &Registry::builtin(),
            &cfg,
            &WorkerShared::new(),
        )
        .unwrap_err();
        assert!(err.contains(label) && err.contains("crash"), "{err}");
    }

    #[test]
    fn local_cache_hits_upload_without_re_execution() {
        let board = Arc::new(ClusterBoard::new(Duration::from_secs(60)));
        let shared_cache = Arc::new(TrialCache::in_memory());
        let slots = grid_slots(7, 1);
        let local = TrialCache::in_memory();
        // Pre-warm the worker's local cache with the exact records.
        for slot in &slots {
            let rec =
                trial_of(slot)
                    .unwrap()
                    .point
                    .run_trial(&Registry::builtin(), slot.rep, slot.seed);
            local.insert(&rec);
        }
        board.publish("r1", plan_batches(slots.clone(), 10));
        let mut transport = LocalTransport {
            board: board.clone(),
            cache: shared_cache.clone(),
        };
        let cfg = WorkerConfig {
            id: "w1".into(),
            threads: 1,
            poll: Duration::from_millis(10),
        };
        let shared = WorkerShared::new();
        let stopper = {
            let board = board.clone();
            let shared = shared.clone();
            std::thread::spawn(move || {
                while board.wait("r1", Duration::from_millis(20), &mut Vec::new())
                    == crate::board::WaitStatus::Waiting
                {}
                shared.request_stop();
            })
        };
        let summary =
            run_worker_loop(&mut transport, &local, &Registry::builtin(), &cfg, &shared).unwrap();
        stopper.join().unwrap();
        assert_eq!(summary.executed, 0);
        assert_eq!(summary.local_hits, slots.len() as u64);
        assert_eq!(summary.uploaded, slots.len() as u64);
        assert_eq!(shared_cache.len(), slots.len());
    }
}
