//! Service counters, histograms and their text exposition (`GET /metrics`).
//!
//! The format is the Prometheus text convention — `name value` lines with
//! `_total` suffixes on monotone counters, and
//! `name_bucket{le="…"} count` / `name_sum` / `name_count` triples for
//! histograms — because every scraping tool (and `grep` in the CI smoke)
//! reads it. Counters never influence behavior; they exist so a load test
//! can *prove* claims like "the second submission was served entirely from
//! cache" or "telemetry added no tail latency".
//!
//! Every line this module renders must round-trip through
//! [`parse_metric`] — enforced by a test that iterates the full exposition
//! — so a counter can never again be declared but silently dropped from
//! the rendering (the bug class that once hid eviction counts).

use crate::cache::TrialCache;
use disp_cluster::BoardStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket upper bounds (µs) for HTTP request latency: sub-millisecond
/// cache hits through second-long campaign submissions.
pub const HTTP_LATENCY_BUCKETS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 100_000, 1_000_000,
];

/// Bucket upper bounds (µs) for trial execution and queue-wait times:
/// micro trials through minute-scale n=10^6 runs.
pub const TRIAL_DURATION_BUCKETS_US: &[u64] = &[
    100, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 10_000_000, 60_000_000,
];

/// A fixed-bucket cumulative histogram (Prometheus semantics): lock-free
/// observation, rendered as `_bucket{le="…"}` lines plus `_sum`/`_count`.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over the given bucket upper bounds (ascending).
    pub fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        if let Some(i) = self.bounds.iter().position(|&b| value <= b) {
            self.buckets[i].fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Append the text exposition for this histogram under `name`.
    /// Bucket counts are cumulative, ending with the implicit `+Inf`
    /// bucket (== `_count`), per the Prometheus convention. Each line
    /// keeps the `first-token value` shape [`parse_metric`] expects.
    fn render_into(&self, name: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, &bound) in self.bounds.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
        }
        let total = self.count.load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {total}\n"));
        out.push_str(&format!(
            "{name}_sum {}\n",
            self.sum.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("{name}_count {total}\n"));
    }
}

/// Monotone service counters and latency histograms (all relaxed: they are
/// observability, not synchronization).
#[derive(Debug)]
pub struct Metrics {
    /// HTTP requests parsed and routed (any status).
    pub http_requests: AtomicU64,
    /// Requests answered with a 4xx/5xx status.
    pub http_errors: AtomicU64,
    /// Jobs accepted by `POST /runs`.
    pub jobs_submitted: AtomicU64,
    /// Jobs that reached the `done` state.
    pub jobs_completed: AtomicU64,
    /// Jobs cancelled before completion.
    pub jobs_cancelled: AtomicU64,
    /// Jobs that failed (executor panic — should stay 0).
    pub jobs_failed: AtomicU64,
    /// Settled jobs evicted from the manager under the retention budgets
    /// (their trials stay cached; only the job handle is dropped).
    pub jobs_evicted: AtomicU64,
    /// Trials actually executed by the engine (cache misses that ran).
    pub trials_executed: AtomicU64,
    /// Event-stream lines dropped by the slow-consumer policy: whenever a
    /// `GET /runs/:id/events` subscriber falls behind the retained window,
    /// the events it skipped are counted here (and reported to it in an
    /// `overflow` frame).
    pub events_dropped: AtomicU64,
    /// Highest stride-doubling decimation level reached by any timeline
    /// this process has served (a gauge: 0 = every recorded point kept).
    pub timeline_decimation_level: AtomicU64,
    /// Per-request wall time, µs (request parsed → response written).
    pub http_request_duration_us: Histogram,
    /// Per-trial execution wall time, µs (fed by job telemetry).
    pub trial_duration_us: Histogram,
    /// Time jobs spent queued before the executor picked them up, µs.
    pub job_queue_wait_us: Histogram,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            http_requests: AtomicU64::new(0),
            http_errors: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_evicted: AtomicU64::new(0),
            trials_executed: AtomicU64::new(0),
            events_dropped: AtomicU64::new(0),
            timeline_decimation_level: AtomicU64::new(0),
            http_request_duration_us: Histogram::new(HTTP_LATENCY_BUCKETS_US),
            trial_duration_us: Histogram::new(TRIAL_DURATION_BUCKETS_US),
            job_queue_wait_us: Histogram::new(TRIAL_DURATION_BUCKETS_US),
        }
    }
}

/// Point-in-time gauges owned by the server, passed in at render time.
#[derive(Debug, Clone, Default)]
pub struct Gauges {
    /// Jobs waiting for the executor.
    pub queue_depth: usize,
    /// Settled jobs still addressable under the retention budgets.
    pub jobs_retained: usize,
    /// Bytes the retention byte budget counts for them: results bodies
    /// plus event frames.
    pub jobs_retained_bytes: usize,
    /// HTTP workers currently serving a connection.
    pub http_workers_busy: usize,
    /// Size of the HTTP worker pool.
    pub http_workers: usize,
    /// Cluster board statistics (`None` off-coordinator; the cluster
    /// gauges still render as zeros so the exposition schema is stable).
    pub cluster: Option<BoardStats>,
}

impl Metrics {
    /// Increment a counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Render the text exposition, folding in the cache's counters and the
    /// current gauges.
    pub fn render(&self, cache: &TrialCache, gauges: Gauges) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = format!(
            "disp_http_requests_total {}\n\
             disp_http_errors_total {}\n\
             disp_jobs_submitted_total {}\n\
             disp_jobs_completed_total {}\n\
             disp_jobs_cancelled_total {}\n\
             disp_jobs_failed_total {}\n\
             disp_jobs_evicted_total {}\n\
             disp_trials_executed_total {}\n\
             disp_events_dropped_total {}\n\
             disp_timeline_decimation_level {}\n\
             disp_cache_hits_total {}\n\
             disp_cache_misses_total {}\n\
             disp_cache_entries {}\n\
             disp_cache_bytes {}\n\
             disp_cache_evictions_total {}\n\
             disp_cache_skipped_lines_total {}\n\
             disp_queue_depth {}\n\
             disp_jobs_retained {}\n\
             disp_jobs_retained_bytes {}\n\
             disp_http_workers_busy {}\n\
             disp_http_workers {}\n",
            get(&self.http_requests),
            get(&self.http_errors),
            get(&self.jobs_submitted),
            get(&self.jobs_completed),
            get(&self.jobs_cancelled),
            get(&self.jobs_failed),
            get(&self.jobs_evicted),
            get(&self.trials_executed),
            get(&self.events_dropped),
            get(&self.timeline_decimation_level),
            cache.hits(),
            cache.misses(),
            cache.len(),
            cache.bytes(),
            cache.evictions(),
            cache.skipped_lines(),
            gauges.queue_depth,
            gauges.jobs_retained,
            gauges.jobs_retained_bytes,
            gauges.http_workers_busy,
            gauges.http_workers,
        );
        // Cluster gauges render unconditionally (zeros off-coordinator) so
        // scrapes keep a stable schema; per-worker counters are labeled
        // lines, addressable by their full first token.
        let board = gauges.cluster.clone().unwrap_or_default();
        out.push_str(&format!(
            "disp_cluster_workers {}\n\
             disp_cluster_workers_busy {}\n\
             disp_leases_active {}\n\
             disp_leases_expired_total {}\n",
            board.workers, board.workers_busy, board.leases_active, board.leases_expired,
        ));
        // Fleet-wide execution counters: the sum of every worker's latest
        // cumulative snapshot, piggybacked on leases and heartbeats. Like
        // the cluster gauges they render unconditionally as zeros when the
        // server is not a coordinator.
        out.push_str(&format!(
            "disp_fleet_trials_executed_total {}\n\
             disp_fleet_local_cache_hits_total {}\n\
             disp_fleet_trials_uploaded_total {}\n\
             disp_fleet_batches_completed_total {}\n\
             disp_fleet_batches_abandoned_total {}\n",
            board.fleet.executed,
            board.fleet.local_hits,
            board.fleet.uploaded,
            board.fleet.batches,
            board.fleet.abandoned,
        ));
        for (worker, trials) in &board.per_worker_trials {
            out.push_str(&format!(
                "disp_cluster_worker_trials_total{{worker=\"{worker}\"}} {trials}\n"
            ));
        }
        self.http_request_duration_us
            .render_into("disp_http_request_duration_us", &mut out);
        self.trial_duration_us
            .render_into("disp_trial_duration_us", &mut out);
        self.job_queue_wait_us
            .render_into("disp_job_queue_wait_us", &mut out);
        out
    }
}

/// Parse one metric out of a `/metrics` body (shared by `disp-load` and
/// the integration tests — and a tiny spec of the exposition format).
/// Histogram bucket lines are addressed by their full first token, e.g.
/// `disp_trial_duration_us_bucket{le="+Inf"}`.
pub fn parse_metric(body: &str, name: &str) -> Option<u64> {
    body.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        if n == name {
            v.parse().ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let metrics = Metrics::default();
        let cache = TrialCache::in_memory();
        Metrics::inc(&metrics.http_requests);
        Metrics::inc(&metrics.http_requests);
        Metrics::inc(&metrics.trials_executed);
        Metrics::inc(&metrics.jobs_evicted);
        metrics.events_dropped.fetch_add(9, Ordering::Relaxed);
        metrics
            .timeline_decimation_level
            .store(2, Ordering::Relaxed);
        let text = metrics.render(
            &cache,
            Gauges {
                queue_depth: 3,
                jobs_retained: 5,
                jobs_retained_bytes: 640_000,
                http_workers_busy: 1,
                http_workers: 4,
                cluster: Some(BoardStats {
                    workers: 2,
                    workers_busy: 1,
                    leases_active: 1,
                    leases_expired: 5,
                    per_worker_trials: vec![("w1".into(), 10), ("w2".into(), 7)],
                    fleet: disp_cluster::WorkerStats {
                        executed: 16,
                        local_hits: 4,
                        uploaded: 20,
                        batches: 3,
                        abandoned: 1,
                    },
                }),
            },
        );
        assert_eq!(parse_metric(&text, "disp_http_requests_total"), Some(2));
        assert_eq!(parse_metric(&text, "disp_trials_executed_total"), Some(1));
        assert_eq!(parse_metric(&text, "disp_jobs_evicted_total"), Some(1));
        assert_eq!(parse_metric(&text, "disp_cache_hits_total"), Some(0));
        assert_eq!(parse_metric(&text, "disp_cache_bytes"), Some(0));
        assert_eq!(parse_metric(&text, "disp_cache_evictions_total"), Some(0));
        assert_eq!(
            parse_metric(&text, "disp_cache_skipped_lines_total"),
            Some(0)
        );
        assert_eq!(parse_metric(&text, "disp_queue_depth"), Some(3));
        assert_eq!(parse_metric(&text, "disp_jobs_retained"), Some(5));
        assert_eq!(
            parse_metric(&text, "disp_jobs_retained_bytes"),
            Some(640_000)
        );
        assert_eq!(parse_metric(&text, "disp_http_workers_busy"), Some(1));
        assert_eq!(parse_metric(&text, "disp_http_workers"), Some(4));
        assert_eq!(parse_metric(&text, "disp_cluster_workers"), Some(2));
        assert_eq!(parse_metric(&text, "disp_cluster_workers_busy"), Some(1));
        assert_eq!(parse_metric(&text, "disp_leases_active"), Some(1));
        assert_eq!(parse_metric(&text, "disp_leases_expired_total"), Some(5));
        assert_eq!(parse_metric(&text, "disp_events_dropped_total"), Some(9));
        assert_eq!(
            parse_metric(&text, "disp_timeline_decimation_level"),
            Some(2)
        );
        assert_eq!(
            parse_metric(&text, "disp_fleet_trials_executed_total"),
            Some(16)
        );
        assert_eq!(
            parse_metric(&text, "disp_fleet_local_cache_hits_total"),
            Some(4)
        );
        assert_eq!(
            parse_metric(&text, "disp_fleet_trials_uploaded_total"),
            Some(20)
        );
        assert_eq!(
            parse_metric(&text, "disp_fleet_batches_completed_total"),
            Some(3)
        );
        assert_eq!(
            parse_metric(&text, "disp_fleet_batches_abandoned_total"),
            Some(1)
        );
        assert_eq!(
            parse_metric(&text, "disp_cluster_worker_trials_total{worker=\"w1\"}"),
            Some(10)
        );
        assert_eq!(
            parse_metric(&text, "disp_cluster_worker_trials_total{worker=\"w2\"}"),
            Some(7)
        );
        assert_eq!(parse_metric(&text, "disp_nope"), None);
    }

    #[test]
    fn every_rendered_line_round_trips_through_parse_metric() {
        // The audit that keeps declaration and exposition in sync: every
        // line the exposition emits must be addressable by its first token.
        let metrics = Metrics::default();
        metrics.http_request_duration_us.observe(40);
        metrics.trial_duration_us.observe(2_000);
        metrics.job_queue_wait_us.observe(70_000_000); // past the last bound
        let cache = TrialCache::in_memory();
        let text = metrics.render(&cache, Gauges::default());
        let mut lines = 0;
        for line in text.lines() {
            let (name, value) = line.split_once(' ').expect("name value shape");
            let parsed = parse_metric(&text, name)
                .unwrap_or_else(|| panic!("line {line:?} does not round-trip"));
            // parse_metric returns the *first* line with that token; all
            // first tokens must be unique for the exposition to be usable.
            assert_eq!(
                parsed,
                value.parse::<u64>().unwrap(),
                "duplicate or mismatched token {name}"
            );
            lines += 1;
        }
        // Counters + gauges (incl. 4 cluster gauges and 5 fleet gauges, no
        // per-worker lines under a default board) + 3 histograms ×
        // (buckets + +Inf + sum + count).
        let expected =
            30 + (HTTP_LATENCY_BUCKETS_US.len() + 3) + 2 * (TRIAL_DURATION_BUCKETS_US.len() + 3);
        assert_eq!(lines, expected);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_overflow_lands_in_inf() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [5, 7, 50, 500, 5_000] {
            h.observe(v);
        }
        let mut out = String::new();
        h.render_into("t", &mut out);
        assert_eq!(parse_metric(&out, "t_bucket{le=\"10\"}"), Some(2));
        assert_eq!(parse_metric(&out, "t_bucket{le=\"100\"}"), Some(3));
        assert_eq!(parse_metric(&out, "t_bucket{le=\"1000\"}"), Some(4));
        assert_eq!(parse_metric(&out, "t_bucket{le=\"+Inf\"}"), Some(5));
        assert_eq!(parse_metric(&out, "t_count"), Some(5));
        assert_eq!(parse_metric(&out, "t_sum"), Some(5 + 7 + 50 + 500 + 5_000));
    }
}
