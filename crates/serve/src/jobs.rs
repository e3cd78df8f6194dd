//! The job manager: compiles submitted grids into campaign specs and runs
//! them — through the trial cache — on the existing work-stealing engine.
//!
//! ## Execution model
//!
//! Jobs are queued FIFO to **one** executor thread, which runs each job
//! through the campaign trial pipeline ([`disp_campaign::run`]) with the
//! trial cache as its store: cache-missing trials execute on the configured
//! engine worker count (or, in coordinator mode, on the cluster lease
//! board). Serializing *jobs* (while parallelizing *trials*) is a
//! deliberate choice: it is what makes concurrent identical submissions
//! dedupe perfectly — by the time job №2 starts, job №1 has populated the
//! cache, so №2 is a pure cache hit instead of a racing duplicate
//! computation. The queue depth is exported in `/metrics`.
//!
//! ## Determinism under concurrency
//!
//! A job's result lines are assembled in grid order, and each line is a
//! pure function of `(canonical label, campaign seed, rep)` — whether it
//! was computed now, computed by an earlier overlapping job, or loaded
//! from a previous process's cache file. HTTP concurrency, job interleaving
//! and cache state therefore change *latency only*, never a byte of any
//! response body.
//!
//! ## What a settled job keeps
//!
//! A settled job stays addressable until retention evicts it, so it keeps
//! only what its endpoints can still send, each in one buffer of its exact
//! size: the `/results` body (one string, built once at assembly), the
//! event log (ready SSE frames back to back, plus their end offsets), and
//! — after its first status read — the `/runs/:id` document itself, which
//! replaces the per-point statistics it was rendered from. The retention
//! byte budget weighs each settled job by its results body plus its event
//! frames.

use crate::cache::TrialCache;
use crate::metrics::Metrics;
use disp_analysis::online::OnlineStats;
use disp_analysis::TrialRecord;
use disp_campaign::grid::{CampaignSpec, TrialSpec};
use disp_campaign::run::{Plan, RunOptions};
use disp_campaign::store::TrialStore;
use disp_campaign::telemetry::{Telemetry, TelemetrySink, TrialEvent};
use disp_cluster::{plan_batches, ClusterBoard, SlotSpec, WaitStatus};
use disp_core::scenario::Registry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lifecycle of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the executor.
    Queued,
    /// Trials are running.
    Running,
    /// Every grid trial is accounted for; results are available.
    Done,
    /// Cancelled before completion (completed trials are still cached).
    Cancelled,
    /// The executor panicked (should not happen; grids are validated at
    /// submit time).
    Failed(String),
}

impl JobState {
    /// Stable lowercase label used in status JSON.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Events retained per job for `GET /runs/:id/events`: a subscriber that
/// falls further behind than this window is handed an overflow marker and
/// skipped forward instead of buffering without bound (the slow-consumer
/// policy, DESIGN.md §10).
pub const EVENT_WINDOW: usize = 4096;

/// The per-job event log: the last [`EVENT_WINDOW`] events as ready SSE
/// frames (`data: {json}\n\n`) back to back in one buffer, with monotone
/// sequence numbers, closed exactly once when the job settles.
#[derive(Debug, Default)]
struct EventLog {
    /// Sequence number the *next* event will get; the oldest retained
    /// event has seq `next_seq - ends.len()`.
    next_seq: u64,
    /// The frames, oldest first. The first `dead` bytes belong to frames
    /// that fell out of the window; they are cut off once they outweigh
    /// the live ones, so pushes stay amortized O(1).
    frames: String,
    dead: usize,
    /// End offset in `frames` of each retained frame, oldest first.
    ends: VecDeque<usize>,
    closed: bool,
}

impl EventLog {
    fn push(&mut self, json: &str) {
        self.frames.push_str("data: ");
        self.frames.push_str(json);
        self.frames.push_str("\n\n");
        self.ends.push_back(self.frames.len());
        self.next_seq += 1;
        if self.ends.len() > EVENT_WINDOW {
            self.dead = self.ends.pop_front().expect("window is non-empty");
            if self.dead > self.frames.len() - self.dead {
                self.cut_dead();
            }
        }
    }

    /// Drop the bytes of frames that left the window.
    fn cut_dead(&mut self) {
        let dead = std::mem::take(&mut self.dead);
        self.frames.drain(..dead);
        for end in &mut self.ends {
            *end -= dead;
        }
    }

    /// The frames from seq `from` through the newest (empty when `from`
    /// is past the newest).
    fn frames_from(&self, from: u64) -> &str {
        let oldest = self.next_seq - self.ends.len() as u64;
        match from.checked_sub(oldest).map(|i| i as usize) {
            Some(0) => &self.frames[self.dead..],
            Some(i) if i <= self.ends.len() => &self.frames[self.ends[i - 1]..],
            _ => "",
        }
    }

    /// Close the log and keep only its live frames, in buffers of their
    /// exact size: a settled log never grows again.
    fn close(&mut self) {
        self.closed = true;
        self.cut_dead();
        self.frames.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

/// What [`Job::events_after`] hands an event-stream subscriber.
#[derive(Debug, Clone)]
pub struct EventBatch {
    /// Ready SSE frames (`data: {json}\n\n`) of the events from the
    /// cursor (or from the oldest retained one) through the newest.
    pub frames: String,
    /// The cursor to resume from: one past the last event in `frames`.
    pub next: u64,
    /// Events lost between the subscriber's cursor and the retained
    /// window (0 unless the subscriber fell behind [`EVENT_WINDOW`]).
    pub dropped: u64,
    /// Whether the log is closed (job settled): no further events follow.
    pub closed: bool,
}

/// Retained progress samples per job — the job-level analogue of the trial
/// flight recorder's point budget: the `GET /runs/:id/timeline` document
/// stays O(1) no matter how many trials a grid holds.
pub const PROGRESS_BUDGET: usize = 512;

/// One decimated job-progress sample: the completion counters at the
/// moment the sample was taken, plus the execution clock.
#[derive(Debug, Clone, Copy)]
struct ProgressSample {
    done: u64,
    executed: u64,
    cache_hits: u64,
    elapsed_us: u64,
}

/// The job-progress recorder: the same deterministic stride-doubling
/// decimation as `disp_sim::TimelineRecorder`, keyed on the `done` counter
/// instead of protocol time — a sample is kept when its `done` count is
/// divisible by the stride, and reaching the budget doubles the stride and
/// thins retroactively. The final sample is always force-recorded.
#[derive(Debug)]
struct ProgressLog {
    stride: u64,
    samples: Vec<ProgressSample>,
}

impl Default for ProgressLog {
    fn default() -> ProgressLog {
        ProgressLog {
            stride: 1,
            samples: Vec::new(),
        }
    }
}

impl ProgressLog {
    fn record(&mut self, sample: ProgressSample) {
        // Concurrent trial completions may observe the counters out of
        // order; the log keeps only the monotone frontier.
        if self
            .samples
            .last()
            .is_some_and(|last| last.done >= sample.done)
        {
            return;
        }
        if !sample.done.is_multiple_of(self.stride) {
            return;
        }
        self.samples.push(sample);
        while self.samples.len() >= PROGRESS_BUDGET {
            let next = self.stride * 2;
            self.samples.retain(|s| s.done.is_multiple_of(next));
            self.stride = next;
        }
    }

    /// Record the final sample; the log never grows after it, so its
    /// buffer is cut to size.
    fn record_final(&mut self, sample: ProgressSample) {
        match self.samples.last() {
            Some(last) if last.done == sample.done => {}
            _ => self.samples.push(sample),
        }
        self.samples.shrink_to_fit();
    }

    fn decimation_level(&self) -> u32 {
        self.stride.trailing_zeros()
    }
}

/// Live per-grid-point statistics: streaming summaries of the two cost
/// measures the paper plots, fed by completed (and cached) trials.
#[derive(Debug, Default, Clone)]
pub struct PointStats {
    /// Total agent moves per trial.
    pub moves: OnlineStats,
    /// Rounds (SYNC) / epochs (ASYNC) per trial.
    pub time: OnlineStats,
}

/// One submitted campaign run.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id (`r1`, `r2`, …).
    pub id: String,
    /// The compiled grid.
    pub spec: CampaignSpec,
    /// Number of trials in the grid.
    pub total: usize,
    state: Mutex<JobState>,
    /// Trials accounted for so far (cache hits + executed).
    done: AtomicUsize,
    /// Trials served from the cache.
    cache_hits: AtomicUsize,
    /// Trials actually executed for this job.
    executed: AtomicUsize,
    /// Cooperative cancellation latch.
    cancel: AtomicBool,
    /// The `/results` body — result JSONL lines in grid order, each ending
    /// in a newline (set exactly once, on `Done`).
    results: Mutex<Option<Arc<str>>>,
    /// Memoized `?format=summary` document — built once on first request,
    /// not re-parsed from the lines per poll.
    summary: Mutex<Option<Arc<String>>>,
    /// Memoized `GET /runs/:id` document of a settled job (see
    /// [`Job::status_or_build`]).
    status: Mutex<Option<Arc<str>>>,
    /// Bounded lifecycle + per-trial event log for the SSE endpoint.
    events: Mutex<EventLog>,
    /// Wakes event-stream subscribers on every push and on close.
    events_cv: Condvar,
    /// Streaming per-point statistics (label → stats), fed by telemetry;
    /// dropped once the settled job's status document is memoized.
    point_stats: Mutex<HashMap<String, PointStats>>,
    /// Decimated completion-over-time samples (`GET /runs/:id/timeline`).
    progress: Mutex<ProgressLog>,
    /// When the job was submitted (queue-wait metric).
    submitted_at: Instant,
    /// When the executor picked the job up, and how long execution took
    /// once settled — the throughput clock.
    running_span: Mutex<(Option<Instant>, Option<Duration>)>,
}

/// A point-in-time snapshot of a job, for status responses.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id.
    pub id: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Trials in the grid.
    pub total: usize,
    /// Trials accounted for (cache hits + executed).
    pub done: usize,
    /// Trials served from cache.
    pub cache_hits: usize,
    /// Trials executed fresh.
    pub executed: usize,
}

impl Job {
    fn new(id: String, spec: CampaignSpec) -> Job {
        let total = spec.trials().len();
        Job {
            id,
            spec,
            total,
            state: Mutex::new(JobState::Queued),
            done: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
            results: Mutex::new(None),
            summary: Mutex::new(None),
            status: Mutex::new(None),
            events: Mutex::new(EventLog::default()),
            events_cv: Condvar::new(),
            point_stats: Mutex::new(HashMap::new()),
            progress: Mutex::new(ProgressLog::default()),
            submitted_at: Instant::now(),
            running_span: Mutex::new((None, None)),
        }
    }

    /// Current state (cloned).
    pub fn state(&self) -> JobState {
        self.state.lock().unwrap().clone()
    }

    fn set_state(&self, state: JobState) {
        *self.state.lock().unwrap() = state;
    }

    /// Snapshot the job for a status response.
    pub fn snapshot(&self) -> JobSnapshot {
        JobSnapshot {
            id: self.id.clone(),
            state: self.state(),
            total: self.total,
            done: self.done.load(Ordering::SeqCst),
            cache_hits: self.cache_hits.load(Ordering::SeqCst),
            executed: self.executed.load(Ordering::SeqCst),
        }
    }

    /// The finished results body (JSONL lines in grid order, each ending
    /// in a newline), if the job is `Done`.
    pub fn results(&self) -> Option<Arc<str>> {
        self.results.lock().unwrap().clone()
    }

    /// Bytes the retention budget weighs this job by: its results body
    /// plus its retained event frames.
    pub fn retained_bytes(&self) -> usize {
        let results = self.results.lock().unwrap().as_ref().map_or(0, |r| r.len());
        let log = self.events.lock().unwrap();
        results + log.frames.len() - log.dead
    }

    /// The memoized summary document, building it with `build` on the
    /// first call. Summaries of big jobs are expensive (parse every line,
    /// aggregate measurements), and a polling dashboard would otherwise
    /// pay that per request.
    pub fn summary_or_build(&self, build: impl FnOnce() -> String) -> Arc<String> {
        let mut slot = self.summary.lock().unwrap();
        if let Some(doc) = &*slot {
            return Arc::clone(doc);
        }
        let doc = Arc::new(build());
        *slot = Some(Arc::clone(&doc));
        doc
    }

    /// The `GET /runs/:id` document, rendered by `build`. A live job's
    /// document changes between polls, so it is built on every call. A
    /// settled job's is final: it is built once and kept, and the
    /// per-point statistics it was built from are dropped.
    pub fn status_or_build(&self, build: impl FnOnce() -> String) -> Arc<str> {
        let mut slot = self.status.lock().unwrap();
        if let Some(doc) = &*slot {
            return Arc::clone(doc);
        }
        // Decided before building, so a job that settles mid-build is not
        // memoized with a live document.
        let settled = self.settled();
        let doc: Arc<str> = build().into();
        if settled {
            *slot = Some(Arc::clone(&doc));
            *self.point_stats.lock().unwrap() = HashMap::new();
        }
        doc
    }

    /// Whether the executor has settled the job: its counters are final.
    pub(crate) fn settled(&self) -> bool {
        self.events.lock().unwrap().closed
    }

    /// Append one rendered event to the (bounded) event log and wake
    /// subscribers. No-op after close.
    fn push_event(&self, json: &str) {
        let mut log = self.events.lock().unwrap();
        if log.closed {
            return;
        }
        log.push(json);
        drop(log);
        self.events_cv.notify_all();
    }

    /// Push a `job_state` lifecycle event (queued/running/done/…).
    fn push_state_event(&self, state: &JobState) {
        self.push_event(&format!(
            "{{\"event\":\"job_state\",\"id\":{:?},\"state\":{:?}}}",
            self.id,
            state.label()
        ));
    }

    /// Close the event log: subscribers drain what is buffered and then
    /// see a clean end-of-stream.
    fn close_events(&self) {
        self.events.lock().unwrap().close();
        self.events_cv.notify_all();
    }

    /// Absorb one telemetry event: append it to the event log and, for
    /// completed/cached trials, fold the outcome into the per-point
    /// streaming statistics.
    pub fn record_trial_event(&self, event: &TrialEvent) {
        match event {
            TrialEvent::Completed {
                label,
                time,
                total_moves,
                ..
            }
            | TrialEvent::Cached {
                label,
                time,
                total_moves,
                ..
            } => {
                let mut stats = self.point_stats.lock().unwrap();
                let entry = stats.entry(label.clone()).or_default();
                entry.moves.push(*total_moves as f64);
                entry.time.push(*time as f64);
            }
            TrialEvent::Started { .. } | TrialEvent::Overflow { .. } => {}
        }
        self.push_event(&event.to_json_line());
    }

    /// Account one settled grid slot, live: `executed` trials ran fresh
    /// (here or on a cluster worker), the rest were cache hits. Called once
    /// per record, on the executor thread — by the job's trial store, also
    /// for the uploads a cluster job takes off the lease board.
    pub(crate) fn note_trial(&self, executed: bool) {
        if executed {
            self.executed.fetch_add(1, Ordering::SeqCst);
        } else {
            self.cache_hits.fetch_add(1, Ordering::SeqCst);
        }
        self.done.fetch_add(1, Ordering::SeqCst);
        self.note_progress();
    }

    /// Sample the completion counters into the progress log. Called after
    /// every `done` increment; the log's divisibility filter makes almost
    /// all calls on a large grid a push-free comparison.
    fn note_progress(&self) {
        let sample = ProgressSample {
            done: self.done.load(Ordering::SeqCst) as u64,
            executed: self.executed.load(Ordering::SeqCst) as u64,
            cache_hits: self.cache_hits.load(Ordering::SeqCst) as u64,
            elapsed_us: self.elapsed_us(),
        };
        self.progress.lock().unwrap().record(sample);
    }

    /// Force-record the terminal progress sample (the recorder's
    /// final-point rule: the last state always survives decimation).
    fn finish_progress(&self) {
        let sample = ProgressSample {
            done: self.done.load(Ordering::SeqCst) as u64,
            executed: self.executed.load(Ordering::SeqCst) as u64,
            cache_hits: self.cache_hits.load(Ordering::SeqCst) as u64,
            elapsed_us: self.elapsed_us(),
        };
        self.progress.lock().unwrap().record_final(sample);
    }

    /// Microseconds on the execution clock (0 while queued).
    fn elapsed_us(&self) -> u64 {
        let span = self.running_span.lock().unwrap();
        match *span {
            (_, Some(total)) => total.as_micros() as u64,
            (Some(started), None) => started.elapsed().as_micros() as u64,
            (None, None) => 0,
        }
    }

    /// Render the decimated progress timeline as JSONL — the body of
    /// `GET /runs/:id/timeline`, available live while the job runs.
    pub fn progress_jsonl(&self) -> String {
        let state = self.state();
        let log = self.progress.lock().unwrap();
        let mut out = format!(
            "{{\"event\":\"progress_start\",\"id\":{:?},\"total\":{},\"state\":{:?}}}\n",
            self.id,
            self.total,
            state.label(),
        );
        for s in &log.samples {
            out.push_str(&format!(
                "{{\"event\":\"progress\",\"done\":{},\"executed\":{},\"cache_hits\":{},\"elapsed_us\":{}}}\n",
                s.done, s.executed, s.cache_hits, s.elapsed_us,
            ));
        }
        out.push_str(&format!(
            "{{\"event\":\"progress_end\",\"points\":{},\"decimation_level\":{}}}\n",
            log.samples.len(),
            log.decimation_level(),
        ));
        out
    }

    /// Events from seq `cursor` on, as one copy of their frames, blocking
    /// up to `wait` for news when caught up. A subscriber that fell behind
    /// the retained window gets the buffered tail plus a nonzero `dropped`
    /// count to report.
    pub fn events_after(&self, cursor: u64, wait: Duration) -> EventBatch {
        let mut log = self.events.lock().unwrap();
        loop {
            let oldest = log.next_seq - log.ends.len() as u64;
            let (dropped, from) = if cursor < oldest {
                (oldest - cursor, oldest)
            } else {
                (0, cursor)
            };
            if from < log.next_seq || dropped > 0 || log.closed {
                return EventBatch {
                    frames: log.frames_from(from).to_string(),
                    next: from.max(log.next_seq),
                    dropped,
                    closed: log.closed,
                };
            }
            let (guard, timeout) = self.events_cv.wait_timeout(log, wait).unwrap();
            log = guard;
            if timeout.timed_out() {
                return EventBatch {
                    frames: String::new(),
                    next: cursor,
                    dropped: 0,
                    closed: log.closed,
                };
            }
        }
    }

    /// Snapshot of the per-point streaming statistics, sorted by label
    /// (empty once a settled job's status document is memoized).
    pub fn point_stats(&self) -> Vec<(String, PointStats)> {
        let stats = self.point_stats.lock().unwrap();
        let mut out: Vec<(String, PointStats)> =
            stats.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Seconds the job has been executing: live clock while running,
    /// frozen at the final span once settled, `None` while queued.
    pub fn running_secs(&self) -> Option<f64> {
        let span = self.running_span.lock().unwrap();
        match *span {
            (_, Some(total)) => Some(total.as_secs_f64()),
            (Some(started), None) => Some(started.elapsed().as_secs_f64()),
            (None, None) => None,
        }
    }

    /// Microseconds the job waited in the queue (settled by the executor).
    fn mark_running(&self) -> u64 {
        let wait = self.submitted_at.elapsed().as_micros() as u64;
        self.running_span.lock().unwrap().0 = Some(Instant::now());
        wait
    }

    fn mark_settled(&self) {
        let mut span = self.running_span.lock().unwrap();
        if let (Some(started), None) = *span {
            span.1 = Some(started.elapsed());
        }
    }

    /// Request cancellation (idempotent; a no-op once `Done`).
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
        let mut state = self.state.lock().unwrap();
        if *state == JobState::Queued {
            // Not picked up yet: the executor will skip it, but reflecting
            // the decision immediately makes DELETE read-your-writes.
            *state = JobState::Cancelled;
        }
    }
}

/// Upper bound on jobs waiting for the executor; submissions beyond it are
/// refused (see [`JobManager::submit`]).
pub const MAX_QUEUED_JOBS: usize = 64;

/// How the executor turns a job's cache-missing trials into records.
#[derive(Debug)]
pub enum ExecBackend {
    /// Run trials in-process on the work-stealing engine.
    Local {
        /// Engine worker threads per job.
        threads: usize,
    },
    /// Shard trials into batches on the cluster lease board; workers pull
    /// and execute them, the board collects the records.
    Cluster {
        /// The coordinator's lease board (shared with the HTTP handlers).
        board: Arc<ClusterBoard>,
        /// Contiguous grid slots per batch.
        batch_size: usize,
    },
}

/// Bounds on how many settled jobs (and how many bytes of their results
/// bodies and event frames) stay addressable before the oldest are
/// evicted.
#[derive(Debug, Clone, Copy)]
pub struct Retention {
    /// Maximum number of settled jobs retained.
    pub jobs: usize,
    /// Maximum aggregate [`Job::retained_bytes`] of the retained jobs (the
    /// newest settled job is always kept, even if it alone exceeds this).
    pub bytes: usize,
}

impl Default for Retention {
    fn default() -> Retention {
        Retention {
            jobs: 512,
            bytes: 256 * 1024 * 1024,
        }
    }
}

/// Accepts jobs, owns the executor thread, and hands out job handles.
#[derive(Debug)]
pub struct JobManager {
    jobs: Arc<Mutex<HashMap<String, Arc<Job>>>>,
    queue: Mutex<Option<Sender<Arc<Job>>>>,
    queue_depth: Arc<AtomicUsize>,
    /// Settled jobs retained and their aggregate retained bytes.
    retained: Arc<Mutex<(usize, usize)>>,
    next_id: AtomicU64,
    executor: Mutex<Option<JoinHandle<()>>>,
}

impl JobManager {
    /// Start a manager whose executor runs each job's fresh trials on
    /// `job_threads` engine workers, reading and populating `cache`.
    ///
    /// A long-running server must not retain every job forever (each `Done`
    /// job holds its full results body and event log): once a job settles,
    /// it joins an eviction queue, and only the most recent settled jobs
    /// within the `retention` budgets — a job count *and* an aggregate byte
    /// bound, since a handful of near-cap grids can outweigh hundreds of
    /// small ones — stay addressable; older ids answer 404. Their *trials*
    /// remain in the cache, so re-submitting an evicted grid is still a
    /// pure cache hit; only the job handle is gone.
    pub fn start(
        cache: Arc<TrialCache>,
        metrics: Arc<Metrics>,
        backend: ExecBackend,
        retention: Retention,
    ) -> JobManager {
        let (tx, rx) = channel::<Arc<Job>>();
        let queue_depth = Arc::new(AtomicUsize::new(0));
        let depth = Arc::clone(&queue_depth);
        let jobs: Arc<Mutex<HashMap<String, Arc<Job>>>> = Arc::new(Mutex::new(HashMap::new()));
        let jobs_for_executor = Arc::clone(&jobs);
        let retained: Arc<Mutex<(usize, usize)>> = Arc::default();
        let retained_for_executor = Arc::clone(&retained);
        let executor = std::thread::spawn(move || {
            // Grids were validated at submit time against the builtin
            // registry, so building it here (cheap) keeps the executor free
            // of shared-lifetime plumbing.
            let registry = Registry::builtin();
            // Settled jobs in settle order with their retained bytes, for
            // eviction.
            let mut settled: VecDeque<(String, usize)> = VecDeque::new();
            let mut settled_bytes = 0usize;
            while let Ok(job) = rx.recv() {
                depth.fetch_sub(1, Ordering::SeqCst);
                if job.cancel.load(Ordering::SeqCst) {
                    job.set_state(JobState::Cancelled);
                    Metrics::inc(&metrics.jobs_cancelled);
                } else {
                    let queue_wait_us = job.mark_running();
                    metrics.job_queue_wait_us.observe(queue_wait_us);
                    job.set_state(JobState::Running);
                    job.push_state_event(&JobState::Running);
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        execute_job(&job, &cache, &metrics, &registry, &backend)
                    }));
                    match run {
                        Ok(Ok(true)) => {
                            job.set_state(JobState::Done);
                            Metrics::inc(&metrics.jobs_completed);
                        }
                        Ok(Ok(false)) => {
                            job.set_state(JobState::Cancelled);
                            Metrics::inc(&metrics.jobs_cancelled);
                        }
                        Ok(Err(msg)) => {
                            job.set_state(JobState::Failed(msg));
                            Metrics::inc(&metrics.jobs_failed);
                        }
                        Err(panic) => {
                            let msg = panic
                                .downcast_ref::<String>()
                                .cloned()
                                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_else(|| "executor panicked".into());
                            job.set_state(JobState::Failed(msg));
                            Metrics::inc(&metrics.jobs_failed);
                        }
                    }
                }
                job.mark_settled();
                job.finish_progress();
                // Terminal lifecycle event, then a clean end-of-stream for
                // every `GET /runs/:id/events` subscriber.
                job.push_state_event(&job.state());
                job.close_events();
                let weight = job.retained_bytes();
                settled.push_back((job.id.clone(), weight));
                settled_bytes += weight;
                while settled.len() > retention.jobs.max(1)
                    || (settled.len() > 1 && settled_bytes > retention.bytes)
                {
                    if let Some((old, old_bytes)) = settled.pop_front() {
                        settled_bytes -= old_bytes;
                        jobs_for_executor.lock().unwrap().remove(&old);
                        Metrics::inc(&metrics.jobs_evicted);
                    }
                }
                *retained_for_executor.lock().unwrap() = (settled.len(), settled_bytes);
            }
        });
        JobManager {
            jobs,
            queue: Mutex::new(Some(tx)),
            queue_depth,
            retained,
            next_id: AtomicU64::new(1),
            executor: Mutex::new(Some(executor)),
        }
    }

    /// Accept a validated grid; returns the queued job handle.
    ///
    /// Backpressure: at most [`MAX_QUEUED_JOBS`] jobs may be waiting for
    /// the executor — beyond that, submissions are refused (HTTP 409)
    /// rather than growing the queue, the jobs map and their eventual
    /// result buffers without bound.
    pub fn submit(&self, spec: CampaignSpec) -> Result<Arc<Job>, String> {
        if self.queue_depth() >= MAX_QUEUED_JOBS {
            return Err(format!(
                "job queue is full ({MAX_QUEUED_JOBS} runs waiting); retry after the backlog drains",
            ));
        }
        let id = format!("r{}", self.next_id.fetch_add(1, Ordering::SeqCst));
        let job = Arc::new(Job::new(id.clone(), spec));
        job.push_state_event(&JobState::Queued);
        self.jobs.lock().unwrap().insert(id, Arc::clone(&job));
        let queue = self.queue.lock().unwrap();
        let tx = queue.as_ref().ok_or("server is shutting down")?;
        self.queue_depth.fetch_add(1, Ordering::SeqCst);
        tx.send(Arc::clone(&job))
            .map_err(|_| "server is shutting down".to_string())?;
        Ok(job)
    }

    /// Look up a job by id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap().get(id).cloned()
    }

    /// Jobs waiting for the executor (the `/metrics` gauge).
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::SeqCst)
    }

    /// Settled jobs retained and the bytes the retention budget counts for
    /// them (the `/metrics` gauges).
    pub fn retained(&self) -> (usize, usize) {
        *self.retained.lock().unwrap()
    }

    /// Graceful drain: refuse new jobs, cancel queued and running ones, and
    /// join the executor. Completed trials stay cached, so a re-submission
    /// after restart resumes from where the drain cut in.
    pub fn shutdown(&self) {
        // Closing the channel ends the executor's recv loop…
        self.queue.lock().unwrap().take();
        // …and the latches drain whatever it is currently running.
        for job in self.jobs.lock().unwrap().values() {
            if !matches!(job.state(), JobState::Done) {
                job.request_cancel();
            }
        }
        if let Some(handle) = self.executor.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

/// The per-job [`TelemetrySink`]: every event lands in the job's event log
/// (feeding `GET /runs/:id/events` and the per-point online stats), and
/// completed-trial wall times feed the service-wide duration histogram.
struct JobSink {
    job: Arc<Job>,
    metrics: Arc<Metrics>,
}

impl TelemetrySink for JobSink {
    fn emit(&mut self, event: &TrialEvent) {
        if let TrialEvent::Completed { wall_micros, .. } = event {
            self.metrics.trial_duration_us.observe(*wall_micros);
        }
        self.job.record_trial_event(event);
    }
}

/// The job's view of the trial cache — its store in the trial pipeline.
/// Every hit and every fresh record moves the job's live counters, once
/// per record, never from the (lossy) telemetry channel.
struct JobStore<'a> {
    job: &'a Job,
    cache: &'a TrialCache,
    metrics: &'a Metrics,
}

impl TrialStore for JobStore<'_> {
    fn lookup(&self, trial: &TrialSpec) -> Option<TrialRecord> {
        let hit = TrialStore::lookup(self.cache, trial);
        if hit.is_some() {
            self.job.note_trial(false);
        }
        hit
    }

    fn insert(&self, record: &TrialRecord) {
        // Insert before counting: once `done == total` is visible, every
        // line is reproducible from the cache.
        self.cache.insert(record);
        self.job.note_trial(true);
        Metrics::inc(&self.metrics.trials_executed);
    }
}

/// Run one job through the trial pipeline: plan the grid against the
/// cache, execute the misses (on the engine, or on the cluster lease
/// board), assemble the result lines in grid order. Returns `Ok(false)` on
/// cancellation and `Err` on a failed job (digest conflict, assembly hole)
/// — surfaced as `Failed` with the message intact.
fn execute_job(
    job: &Arc<Job>,
    cache: &TrialCache,
    metrics: &Arc<Metrics>,
    registry: &Registry,
    backend: &ExecBackend,
) -> Result<bool, String> {
    let telemetry = Telemetry::start(Box::new(JobSink {
        job: Arc::clone(job),
        metrics: Arc::clone(metrics),
    }));
    let events = telemetry.handle();
    let store = JobStore {
        job,
        cache,
        metrics,
    };
    let plan = Plan::new(job.spec.trials(), registry, Some(&store), Some(&events))?;
    let fresh: Vec<Option<TrialRecord>> = match backend {
        ExecBackend::Local { threads } => {
            let opts = RunOptions {
                threads: *threads,
                cancel: Some(&job.cancel),
                telemetry: Some(&events),
                ..RunOptions::default()
            };
            let (fresh, _) = plan.execute(registry, Some(&store), &opts);
            fresh
                .into_iter()
                .map(|f| f.map(|(record, _)| record))
                .collect()
        }
        ExecBackend::Cluster { board, batch_size } => {
            let mut sink = JobSink {
                job: Arc::clone(job),
                metrics: Arc::clone(metrics),
            };
            match execute_on_board(&plan, board, *batch_size, &store, &mut sink)? {
                Some(fresh) => fresh,
                None => return Ok(false),
            }
        }
    };
    telemetry.finish();
    if job.cancel.load(Ordering::SeqCst) && fresh.iter().any(Option::is_none) {
        return Ok(false);
    }
    // A slot repeating another slot's trial is satisfied by its record:
    // progress-wise it is a hit on it.
    for _ in 0..plan.repeats() {
        job.note_trial(false);
    }
    let mut body = String::new();
    for record in plan.assemble(fresh)? {
        body.push_str(&record.to_json_line());
        body.push('\n');
    }
    // `Arc<str>` copies the body into one allocation of its exact size.
    *job.results.lock().unwrap() = Some(body.into());
    Ok(true)
}

/// The execution stage on the cluster lease board: publish the plan's
/// misses as contiguous batches, wait for workers to pull and complete
/// them (the board requeues expired leases), and return their records
/// aligned with [`Plan::misses`]. `Ok(None)` on cancellation.
///
/// Every upload the board accepted is accounted here, as it lands, the
/// way local execution accounts a trial: an executed one through the
/// job's `store` and `sink`, a worker-cache hit as a cache hit; its record
/// is kept for assembly. The board hands over the last of them with
/// `Done`, so the job settles with its counters complete.
fn execute_on_board(
    plan: &Plan,
    board: &ClusterBoard,
    batch_size: usize,
    store: &JobStore,
    sink: &mut JobSink,
) -> Result<Option<Vec<Option<TrialRecord>>>, String> {
    let job = store.job;
    let mut by_id: HashMap<String, TrialRecord> = HashMap::new();
    let slots: Vec<SlotSpec> = plan
        .misses()
        .map(|t| SlotSpec {
            label: t.point.point_id(),
            rep: t.rep,
            seed: t.seed,
            repetitions: t.point.repetitions,
        })
        .collect();
    if !slots.is_empty() {
        board.publish(&job.id, plan_batches(slots, batch_size));
        let mut landed = Vec::new();
        loop {
            if job.cancel.load(Ordering::SeqCst) {
                board.withdraw(&job.id);
                return Ok(None);
            }
            let status = board.wait(&job.id, Duration::from_millis(200), &mut landed);
            for (worker, upload) in landed.drain(..) {
                let record = upload.record;
                if upload.cached {
                    store.cache.insert(&record);
                    job.note_trial(false);
                    sink.emit(&TrialEvent::cached(&record));
                } else {
                    store.insert(&record);
                    sink.emit(&TrialEvent::completed_by(
                        &record,
                        upload.wall_micros,
                        &worker,
                    ));
                }
                by_id.insert(record.trial_id(), record);
            }
            match status {
                WaitStatus::Done => break,
                WaitStatus::Failed(msg) => {
                    board.withdraw(&job.id);
                    return Err(msg);
                }
                WaitStatus::Waiting => {}
            }
        }
    }
    board.withdraw(&job.id);
    Ok(Some(
        plan.misses().map(|t| by_id.remove(&t.trial_id())).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_campaign::run::run_campaign;
    use disp_core::scenario::ScenarioSpec;

    fn grid(seed: u64, reps: usize) -> CampaignSpec {
        let labels = [
            "star/k8/rooted/sync/probe-dfs",
            "rtree/k8/rooted/async-rand0.7/ks-dfs",
        ];
        let scenarios: Vec<ScenarioSpec> = labels
            .iter()
            .map(|l| ScenarioSpec::from_label(l).unwrap())
            .collect();
        CampaignSpec::custom(scenarios, reps, seed)
    }

    /// What an offline run of `spec` gives, as a results body.
    fn offline_body(spec: &CampaignSpec) -> String {
        let (offline, _) = run_campaign(spec, None, 1, &Registry::builtin()).unwrap();
        offline.iter().map(|r| r.to_json_line() + "\n").collect()
    }

    fn wait_done(job: &Job) -> JobSnapshot {
        for _ in 0..600 {
            let snap = job.snapshot();
            match snap.state {
                JobState::Done | JobState::Cancelled | JobState::Failed(_) => return snap,
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        panic!("job did not settle: {:?}", job.snapshot());
    }

    #[test]
    fn job_results_match_an_offline_run_and_repeat_is_pure_cache() {
        let cache = Arc::new(TrialCache::in_memory());
        let metrics = Arc::new(Metrics::default());
        let manager = JobManager::start(
            Arc::clone(&cache),
            Arc::clone(&metrics),
            ExecBackend::Local { threads: 2 },
            Retention::default(),
        );

        let job = manager.submit(grid(7, 2)).unwrap();
        let snap = wait_done(&job);
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.done, snap.total);
        assert_eq!(snap.executed, snap.total, "cold cache executes everything");

        let offline = offline_body(&grid(7, 2));
        assert_eq!(*job.results().unwrap(), offline);

        // Identical resubmission: zero executed trials, identical bytes.
        let again = manager.submit(grid(7, 2)).unwrap();
        let snap2 = wait_done(&again);
        assert_eq!(snap2.state, JobState::Done);
        assert_eq!(snap2.executed, 0);
        assert_eq!(snap2.cache_hits, snap2.total);
        assert_eq!(*again.results().unwrap(), offline);
        assert_eq!(
            metrics.trials_executed.load(Ordering::SeqCst),
            snap.total as u64
        );
        manager.shutdown();
    }

    #[test]
    fn overlapping_grid_reuses_shared_trials() {
        let cache = Arc::new(TrialCache::in_memory());
        let metrics = Arc::new(Metrics::default());
        let manager = JobManager::start(
            Arc::clone(&cache),
            metrics,
            ExecBackend::Local { threads: 2 },
            Retention::default(),
        );
        let first = manager.submit(grid(7, 2)).unwrap();
        wait_done(&first);
        // Same labels and campaign seed, one more repetition: only the new
        // rep per point executes.
        let wider = manager.submit(grid(7, 3)).unwrap();
        let snap = wait_done(&wider);
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.cache_hits, first.total);
        assert_eq!(snap.executed, snap.total - first.total);
        // And the served lines advertise the *new* grid's repetition count,
        // exactly as a fresh offline run would.
        assert_eq!(*wider.results().unwrap(), offline_body(&grid(7, 3)));
        manager.shutdown();
    }

    #[test]
    fn cancel_before_pickup_never_runs() {
        let cache = Arc::new(TrialCache::in_memory());
        let metrics = Arc::new(Metrics::default());
        let manager = JobManager::start(
            cache,
            Arc::clone(&metrics),
            ExecBackend::Local { threads: 1 },
            Retention::default(),
        );
        // Saturate the executor with one job, then cancel a queued one.
        let busy = manager.submit(grid(1, 2)).unwrap();
        let queued = manager.submit(grid(2, 2)).unwrap();
        queued.request_cancel();
        assert_eq!(queued.state(), JobState::Cancelled);
        wait_done(&busy);
        let snap = wait_done(&queued);
        assert_eq!(snap.state, JobState::Cancelled);
        assert_eq!(snap.executed, 0);
        assert!(queued.results().is_none());
        manager.shutdown();
    }

    #[test]
    fn duplicate_labels_in_one_grid_run_once_but_fill_every_slot() {
        let cache = Arc::new(TrialCache::in_memory());
        let metrics = Arc::new(Metrics::default());
        let manager = JobManager::start(
            Arc::clone(&cache),
            Arc::clone(&metrics),
            ExecBackend::Local { threads: 2 },
            Retention::default(),
        );
        let label = "star/k8/rooted/sync/probe-dfs";
        let spec = CampaignSpec::custom(
            vec![
                ScenarioSpec::from_label(label).unwrap(),
                ScenarioSpec::from_label(label).unwrap(),
            ],
            1,
            7,
        );
        let job = manager.submit(spec.clone()).unwrap();
        let snap = wait_done(&job);
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.total, 2);
        assert_eq!(snap.done, 2);
        assert_eq!(snap.executed, 1, "one content triple executes once");
        assert_eq!(metrics.trials_executed.load(Ordering::SeqCst), 1);
        // Output still mirrors the offline run of the same (duplicated)
        // grid, which also emits one line per grid slot.
        let offline = offline_body(&spec);
        assert_eq!(*job.results().unwrap(), offline);
        let lines: Vec<&str> = offline.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], lines[1]);
        manager.shutdown();
    }

    #[test]
    fn settled_jobs_beyond_the_retention_cap_are_evicted() {
        let cache = Arc::new(TrialCache::in_memory());
        let metrics = Arc::new(Metrics::default());
        let manager = JobManager::start(
            Arc::clone(&cache),
            metrics,
            ExecBackend::Local { threads: 2 },
            Retention {
                jobs: 2,
                bytes: usize::MAX,
            },
        );
        let jobs: Vec<_> = (0..4)
            .map(|_| manager.submit(grid(7, 1)).unwrap())
            .collect();
        for job in &jobs {
            wait_done(job);
        }
        // Wait for the executor's eviction bookkeeping to catch up: the two
        // oldest settled jobs must disappear from the manager.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while manager.get(&jobs[0].id).is_some() || manager.get(&jobs[1].id).is_some() {
            assert!(std::time::Instant::now() < deadline, "eviction never ran");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(manager.get(&jobs[2].id).is_some());
        assert!(manager.get(&jobs[3].id).is_some());
        // The evicted grid's trials are still cached: a resubmission is a
        // pure hit.
        let again = manager.submit(grid(7, 1)).unwrap();
        let snap = wait_done(&again);
        assert_eq!(snap.executed, 0);
        assert_eq!(snap.cache_hits, snap.total);
        manager.shutdown();
    }

    #[test]
    fn eviction_is_also_bounded_by_result_bytes() {
        let cache = Arc::new(TrialCache::in_memory());
        let metrics = Arc::new(Metrics::default());
        // A byte budget so small that any two finished jobs exceed it: only
        // the newest settled job may survive, regardless of the job count.
        let manager = JobManager::start(
            Arc::clone(&cache),
            metrics,
            ExecBackend::Local { threads: 2 },
            Retention {
                jobs: 100,
                bytes: 1,
            },
        );
        let a = manager.submit(grid(7, 1)).unwrap();
        wait_done(&a);
        assert!(a.retained_bytes() > 1);
        let b = manager.submit(grid(8, 1)).unwrap();
        wait_done(&b);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while manager.get(&a.id).is_some() {
            assert!(
                std::time::Instant::now() < deadline,
                "byte-budget eviction never ran"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // The newest settled job always survives, even over budget.
        assert!(manager.get(&b.id).is_some());
        manager.shutdown();
    }

    #[test]
    fn the_byte_budget_counts_event_frames_as_well_as_results() {
        // A budget that holds both jobs' results bodies, but not their
        // event frames as well: the older job must go.
        let (a_spec, b_spec) = (grid(7, 1), grid(8, 1));
        let budget = offline_body(&a_spec).len() + offline_body(&b_spec).len();
        let manager = JobManager::start(
            Arc::new(TrialCache::in_memory()),
            Arc::new(Metrics::default()),
            ExecBackend::Local { threads: 2 },
            Retention {
                jobs: 100,
                bytes: budget,
            },
        );
        let a = manager.submit(a_spec).unwrap();
        wait_done(&a);
        let b = manager.submit(b_spec).unwrap();
        wait_done(&b);
        assert!(a.retained_bytes() > a.results().unwrap().len());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while manager.get(&a.id).is_some() {
            assert!(
                std::time::Instant::now() < deadline,
                "event frames were not weighed against the budget"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(manager.get(&b.id).is_some());
        manager.shutdown();
    }

    #[test]
    fn the_event_log_keeps_the_window_and_replays_it_from_any_cursor() {
        let job = Job::new("r1".into(), grid(1, 1));
        let total = 3 * EVENT_WINDOW as u64 + 700;
        for i in 0..total {
            job.push_event(&format!("{{\"i\":{i}}}"));
        }
        let frame = |i: u64| format!("data: {{\"i\":{i}}}\n\n");
        let oldest = total - EVENT_WINDOW as u64;
        let tail = |from: u64| (from..total).map(frame).collect::<String>();
        // A cursor behind the window gets the whole window and the count
        // of what it missed.
        let batch = job.events_after(3, Duration::ZERO);
        assert_eq!(batch.dropped, oldest - 3);
        assert_eq!(batch.frames, tail(oldest));
        assert_eq!(batch.next, total);
        for cursor in [oldest, oldest + 1, total - 1] {
            let batch = job.events_after(cursor, Duration::ZERO);
            assert_eq!((batch.dropped, batch.next), (0, total));
            assert_eq!(batch.frames, tail(cursor));
        }
        // Caught up: nothing after the wait, cursor unchanged.
        let batch = job.events_after(total, Duration::from_millis(1));
        assert_eq!(
            (batch.frames.as_str(), batch.next, batch.closed),
            ("", total, false)
        );
        // Closing keeps exactly the window's bytes and replays them.
        job.close_events();
        let log = job.events.lock().unwrap();
        assert_eq!(log.frames, tail(oldest));
        assert_eq!(log.frames.capacity(), log.frames.len());
        drop(log);
        let batch = job.events_after(0, Duration::ZERO);
        assert_eq!(batch.frames, tail(oldest));
        assert!(batch.closed);
        assert_eq!(job.retained_bytes(), tail(oldest).len());
    }

    #[test]
    fn summary_is_built_once_and_then_served_from_the_memo() {
        let cache = Arc::new(TrialCache::in_memory());
        let metrics = Arc::new(Metrics::default());
        let manager = JobManager::start(
            Arc::clone(&cache),
            metrics,
            ExecBackend::Local { threads: 2 },
            Retention::default(),
        );
        let job = manager.submit(grid(7, 1)).unwrap();
        wait_done(&job);
        let builds = AtomicUsize::new(0);
        let first = job.summary_or_build(|| {
            builds.fetch_add(1, Ordering::SeqCst);
            "doc".into()
        });
        let second = job.summary_or_build(|| {
            builds.fetch_add(1, Ordering::SeqCst);
            "other".into()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(*first, *second);
        assert!(Arc::ptr_eq(&first, &second));
        manager.shutdown();
    }

    #[test]
    fn shutdown_refuses_new_jobs() {
        let cache = Arc::new(TrialCache::in_memory());
        let metrics = Arc::new(Metrics::default());
        let manager = JobManager::start(
            cache,
            metrics,
            ExecBackend::Local { threads: 1 },
            Retention::default(),
        );
        manager.shutdown();
        assert!(manager.submit(grid(3, 1)).is_err());
    }
}
