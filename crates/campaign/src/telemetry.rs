//! Live telemetry for campaign execution: structured per-trial events,
//! emitted by engine workers through a bounded channel to a pluggable sink.
//!
//! ## The non-content sidecar rule
//!
//! Trial *results* are content-addressed: the JSONL a campaign checkpoints
//! is a pure function of `(grid, campaign seed)`, byte-identical across
//! thread counts, cache state and interruptions. Wall-clock timing is not
//! content — it varies run to run — so it must never touch the results
//! stream. Telemetry therefore flows through an entirely separate channel
//! and lands in a *sidecar* (`events.jsonl` next to the store, or the
//! service's in-memory event log), the same discipline as the existing
//! `repetitions` rewrite in the serve cache.
//!
//! ## Backpressure
//!
//! Workers emit through a bounded [`std::sync::mpsc::sync_channel`] with
//! [`try_send`](std::sync::mpsc::SyncSender::try_send): a slow sink never
//! blocks the trial engine. Events dropped on a full channel are counted,
//! and [`Telemetry::finish`] delivers a final [`TrialEvent::Overflow`]
//! marker so consumers know the stream is incomplete rather than silently
//! short.
//!
//! ## Trace export
//!
//! This module also hosts the JSONL encoder for
//! [`disp_sim::TraceEvent`] logs (used by `disp-campaign trace` and the
//! service's `GET /trace`), since both the CLI and `disp-serve` sit above
//! this crate.

use disp_analysis::json::{Json, ObjectWriter};
use disp_analysis::TrialRecord;
use disp_sim::{Trace, TraceEvent};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;

/// Bound on in-flight telemetry events: deep enough to absorb bursts from
/// every worker, small enough that a wedged sink costs bounded memory.
pub const TELEMETRY_CHANNEL_BOUND: usize = 1024;

/// One structured event in a trial's lifecycle. Timing lives here and only
/// here — never in the results stream (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum TrialEvent {
    /// A worker began executing a trial.
    Started {
        /// `label#rN` — the store's trial id.
        trial_id: String,
        /// Canonical scenario label.
        label: String,
        /// Repetition index.
        rep: usize,
    },
    /// A trial finished executing.
    Completed {
        /// `label#rN`.
        trial_id: String,
        /// Canonical scenario label.
        label: String,
        /// Repetition index.
        rep: usize,
        /// Wall-clock execution time in microseconds (non-content!).
        wall_micros: u64,
        /// The paper's time measure: rounds (SYNC) or epochs (ASYNC).
        time: u64,
        /// ASYNC scheduler steps (0 for SYNC).
        steps: u64,
        /// Total edge traversals.
        total_moves: u64,
        /// Whether the final configuration is a valid dispersion.
        dispersed: bool,
        /// Id of the cluster worker that executed the trial (`None` for
        /// local execution). Observability only — never part of the
        /// results stream.
        worker: Option<String>,
    },
    /// A trial was satisfied without execution (checkpoint or trial cache).
    Cached {
        /// `label#rN`.
        trial_id: String,
        /// Canonical scenario label.
        label: String,
        /// Repetition index.
        rep: usize,
        /// Rounds/epochs of the cached outcome.
        time: u64,
        /// Total edge traversals of the cached outcome.
        total_moves: u64,
        /// Whether the cached outcome dispersed.
        dispersed: bool,
    },
    /// Terminal marker: `dropped` events were lost to channel backpressure
    /// (the stream is otherwise complete and in order).
    Overflow {
        /// Number of events dropped on the full channel.
        dropped: u64,
    },
}

impl TrialEvent {
    /// The `Started` event for a trial about to execute.
    pub fn started(label: &str, rep: usize) -> TrialEvent {
        TrialEvent::Started {
            trial_id: format!("{label}#r{rep}"),
            label: label.to_string(),
            rep,
        }
    }

    /// The `Completed` event for a freshly executed record.
    pub fn completed(record: &TrialRecord, wall_micros: u64) -> TrialEvent {
        TrialEvent::Completed {
            trial_id: record.trial_id(),
            label: record.point.point_id(),
            rep: record.rep,
            wall_micros,
            time: record.outcome.time(),
            steps: record.outcome.steps,
            total_moves: record.outcome.total_moves,
            dispersed: record.dispersed,
            worker: None,
        }
    }

    /// [`TrialEvent::completed`] tagged with the cluster worker that
    /// executed the trial, so a coordinator's SSE stream shows where each
    /// trial ran.
    pub fn completed_by(record: &TrialRecord, wall_micros: u64, worker: &str) -> TrialEvent {
        match TrialEvent::completed(record, wall_micros) {
            TrialEvent::Completed {
                trial_id,
                label,
                rep,
                wall_micros,
                time,
                steps,
                total_moves,
                dispersed,
                ..
            } => TrialEvent::Completed {
                trial_id,
                label,
                rep,
                wall_micros,
                time,
                steps,
                total_moves,
                dispersed,
                worker: Some(worker.to_string()),
            },
            other => other,
        }
    }

    /// The `Cached` event for a record satisfied without execution.
    pub fn cached(record: &TrialRecord) -> TrialEvent {
        TrialEvent::Cached {
            trial_id: record.trial_id(),
            label: record.point.point_id(),
            rep: record.rep,
            time: record.outcome.time(),
            total_moves: record.outcome.total_moves,
            dispersed: record.dispersed,
        }
    }

    /// The event kind as a stable lowercase tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TrialEvent::Started { .. } => "started",
            TrialEvent::Completed { .. } => "completed",
            TrialEvent::Cached { .. } => "cached",
            TrialEvent::Overflow { .. } => "overflow",
        }
    }

    /// Compact JSONL line (no trailing newline): a JSON object whose first
    /// key, `"event"`, is the [`TrialEvent::kind`] tag, written in one pass.
    pub fn to_json_line(&self) -> String {
        let mut line = String::with_capacity(EVENT_LINE_CAPACITY);
        let mut w = ObjectWriter::new(&mut line);
        w.str("event", self.kind());
        match self {
            TrialEvent::Started {
                trial_id,
                label,
                rep,
            } => {
                w.str("trial_id", trial_id);
                w.str("label", label);
                w.u64("rep", *rep as u64);
            }
            TrialEvent::Completed {
                trial_id,
                label,
                rep,
                wall_micros,
                time,
                steps,
                total_moves,
                dispersed,
                worker,
            } => {
                w.str("trial_id", trial_id);
                w.str("label", label);
                w.u64("rep", *rep as u64);
                w.u64("wall_micros", *wall_micros);
                w.u64("time", *time);
                w.u64("steps", *steps);
                w.u64("total_moves", *total_moves);
                w.bool("dispersed", *dispersed);
                if let Some(worker) = worker {
                    w.str("worker", worker);
                }
            }
            TrialEvent::Cached {
                trial_id,
                label,
                rep,
                time,
                total_moves,
                dispersed,
            } => {
                w.str("trial_id", trial_id);
                w.str("label", label);
                w.u64("rep", *rep as u64);
                w.u64("time", *time);
                w.u64("total_moves", *total_moves);
                w.bool("dispersed", *dispersed);
            }
            TrialEvent::Overflow { dropped } => w.u64("dropped", *dropped),
        }
        w.end();
        line
    }
}

/// Bytes reserved for one event line: a `completed` event of a typical
/// label, its trial id and a worker name.
const EVENT_LINE_CAPACITY: usize = 256;

/// Where telemetry events go. Implementations run on the collector thread,
/// never on engine workers, so they may do I/O freely.
pub trait TelemetrySink {
    /// Consume one event (delivered in channel order).
    fn emit(&mut self, event: &TrialEvent);
}

/// A sink that appends each event as one JSON line to a sidecar file,
/// flushed per event so a watcher (`tail -f`) sees trials as they finish.
pub struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Create (truncate) the sidecar at `path`.
    pub fn create(path: &Path) -> Result<JsonlSink, String> {
        let file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(JsonlSink {
            out: std::io::BufWriter::new(file),
        })
    }
}

impl TelemetrySink for JsonlSink {
    fn emit(&mut self, event: &TrialEvent) {
        // Telemetry must never kill a campaign: sidecar write errors are
        // swallowed (the results stream has its own, stricter writer).
        let _ = writeln!(self.out, "{}", event.to_json_line());
        let _ = self.out.flush();
    }
}

/// A shared, thread-safe sidecar file for flight-recorder timelines
/// (`timelines.jsonl` next to a campaign store). Engine workers append one
/// whole JSONL chunk — header, points, summary — per trial under a mutex,
/// so concurrent trials never interleave lines. Like every sidecar, write
/// errors are swallowed: observability must never kill a campaign, and the
/// results stream has its own stricter writer.
pub struct TimelineSidecar {
    out: std::sync::Mutex<std::io::BufWriter<std::fs::File>>,
}

impl TimelineSidecar {
    /// Create (truncate) the sidecar at `path`.
    pub fn create(path: &Path) -> Result<TimelineSidecar, String> {
        let file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TimelineSidecar {
            out: std::sync::Mutex::new(std::io::BufWriter::new(file)),
        })
    }

    /// Append one trial's complete timeline chunk (already JSONL-encoded,
    /// newline-terminated) atomically, flushed so a watcher sees whole
    /// timelines as trials finish.
    pub fn append(&self, chunk: &str) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(chunk.as_bytes());
            let _ = out.flush();
        }
    }
}

/// A sink that collects events into a vector (tests, small in-memory uses).
#[derive(Default)]
pub struct VecSink {
    events: Arc<std::sync::Mutex<Vec<TrialEvent>>>,
}

impl VecSink {
    /// A new empty sink plus the shared handle to read what it collected.
    pub fn new() -> (VecSink, Arc<std::sync::Mutex<Vec<TrialEvent>>>) {
        let sink = VecSink::default();
        let events = Arc::clone(&sink.events);
        (sink, events)
    }
}

impl TelemetrySink for VecSink {
    fn emit(&mut self, event: &TrialEvent) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Channel payload: events, plus an internal close sentinel so
/// [`Telemetry::finish`] can stop the collector even while worker handles
/// are still alive (their later emissions land on a disconnected channel
/// and are counted as dropped).
enum Wire {
    Event(TrialEvent),
    Close,
}

/// Cloneable worker-side handle: non-blocking emission into the bounded
/// channel. Dropped events are counted, never waited on.
#[derive(Clone)]
pub struct TelemetryHandle {
    tx: SyncSender<Wire>,
    dropped: Arc<AtomicU64>,
}

impl TelemetryHandle {
    /// Emit one event; drops (and counts) it if the channel is full or the
    /// collector is gone. Never blocks.
    pub fn emit(&self, event: TrialEvent) {
        match self.tx.try_send(Wire::Event(event)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Events dropped so far on the full channel.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The telemetry hub: owns the bounded channel and the collector thread
/// that drains it into the sink.
pub struct Telemetry {
    tx: Option<SyncSender<Wire>>,
    dropped: Arc<AtomicU64>,
    collector: Option<std::thread::JoinHandle<()>>,
}

impl Telemetry {
    /// Start a collector thread draining a bounded channel into `sink`.
    pub fn start(sink: Box<dyn TelemetrySink + Send>) -> Telemetry {
        let (tx, rx) = sync_channel::<Wire>(TELEMETRY_CHANNEL_BOUND);
        let collector = std::thread::spawn(move || {
            let mut sink = sink;
            for wire in rx {
                match wire {
                    Wire::Event(event) => sink.emit(&event),
                    Wire::Close => break,
                }
            }
        });
        Telemetry {
            tx: Some(tx),
            dropped: Arc::new(AtomicU64::new(0)),
            collector: Some(collector),
        }
    }

    /// A worker-side emission handle (clone freely across threads).
    pub fn handle(&self) -> TelemetryHandle {
        TelemetryHandle {
            tx: self.tx.as_ref().expect("telemetry not finished").clone(),
            dropped: Arc::clone(&self.dropped),
        }
    }

    /// Flush and shut down: delivers a final [`TrialEvent::Overflow`] if
    /// anything was dropped, closes the channel, joins the collector.
    /// Safe to call while worker handles are still alive — the close
    /// sentinel ends the collector loop without waiting for them to drop.
    /// Returns the number of dropped events.
    pub fn finish(mut self) -> u64 {
        let dropped = self.dropped.load(Ordering::Relaxed);
        if let Some(tx) = self.tx.take() {
            if dropped > 0 {
                // Blocking sends: the collector is still draining, and the
                // marker and sentinel must not themselves be droppable.
                let _ = tx.send(Wire::Event(TrialEvent::Overflow { dropped }));
            }
            let _ = tx.send(Wire::Close);
        }
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
        dropped
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Wire::Close);
        }
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
    }
}

/// Render one [`TraceEvent`] as a JSON object with an `"event"`
/// discriminator (`move` / `cohort_move` / `milestone`).
pub fn trace_event_json(event: &TraceEvent) -> Json {
    match event {
        TraceEvent::Move {
            agent,
            from,
            to,
            port,
            pin,
            time,
        } => Json::Obj(vec![
            ("event".into(), Json::Str("move".into())),
            ("agent".into(), Json::Num(agent.0 as f64)),
            ("from".into(), Json::Num(from.0 as f64)),
            ("to".into(), Json::Num(to.0 as f64)),
            ("port".into(), Json::Num(port.0 as f64)),
            ("pin".into(), Json::Num(pin.0 as f64)),
            ("time".into(), Json::Num(*time as f64)),
        ]),
        TraceEvent::CohortMove {
            driver,
            from,
            to,
            port,
            members,
            time,
        } => Json::Obj(vec![
            ("event".into(), Json::Str("cohort_move".into())),
            ("driver".into(), Json::Num(driver.0 as f64)),
            ("from".into(), Json::Num(from.0 as f64)),
            ("to".into(), Json::Num(to.0 as f64)),
            ("port".into(), Json::Num(port.0 as f64)),
            ("members".into(), Json::Num(*members as f64)),
            ("time".into(), Json::Num(*time as f64)),
        ]),
        TraceEvent::Milestone {
            agent,
            node,
            code,
            time,
        } => Json::Obj(vec![
            ("event".into(), Json::Str("milestone".into())),
            ("agent".into(), Json::Num(agent.0 as f64)),
            ("node".into(), Json::Num(node.0 as f64)),
            ("code".into(), Json::Num(*code as f64)),
            ("time".into(), Json::Num(*time as f64)),
        ]),
    }
}

/// Render a whole trace as JSONL: one event per line, in recording order,
/// followed by a `{"event":"trace_end",...}` summary line carrying the
/// event count, whether the cap truncated the log, and — when it did — how
/// many events were dropped past the cap. Deterministic for a
/// deterministic run, so two exports of the same seed are byte-identical.
pub fn trace_to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for event in trace.events() {
        out.push_str(&trace_event_json(event).to_string_compact());
        out.push('\n');
    }
    let end = Json::Obj(vec![
        ("event".into(), Json::Str("trace_end".into())),
        ("events".into(), Json::Num(trace.events().len() as f64)),
        ("truncated".into(), Json::Bool(trace.truncated())),
        ("dropped".into(), Json::Num(trace.dropped() as f64)),
    ]);
    out.push_str(&end.to_string_compact());
    out.push('\n');
    out
}

/// Render one flight-recorder point as a JSON object. The per-role class
/// histogram becomes a nested object in the protocol's canonical class
/// order (field order is preserved by the in-house [`Json`] writer, so the
/// rendering is deterministic).
pub fn timeline_point_json(point: &disp_sim::TimelinePoint) -> Json {
    Json::Obj(vec![
        ("event".into(), Json::Str("point".into())),
        ("time".into(), Json::Num(point.time as f64)),
        ("settled".into(), Json::Num(point.settled as f64)),
        ("active".into(), Json::Num(point.active as f64)),
        ("parked".into(), Json::Num(point.parked as f64)),
        ("crashed".into(), Json::Num(point.crashed as f64)),
        ("moves".into(), Json::Num(point.moves as f64)),
        ("dead_edges".into(), Json::Num(point.dead_edges as f64)),
        ("batch".into(), Json::Num(point.batch as f64)),
        (
            "classes".into(),
            Json::Obj(
                point
                    .classes
                    .iter()
                    .map(|&(name, count)| (name.to_string(), Json::Num(count as f64)))
                    .collect(),
            ),
        ),
    ])
}

/// Render a recorded [`Timeline`](disp_sim::Timeline) as JSONL: a
/// `timeline_start` header naming the scenario and seed (written with
/// [`Json::from_u64_lossless`], like every seed on the wire, so a timeline
/// replays from its own header), one `point` line per surviving sample,
/// and a `timeline_end` summary with the point count, final stride and
/// decimation level. This single encoder backs
/// both `disp-campaign timeline` and the service's `GET /timeline`, which
/// is what makes the two byte-identical for the same scenario + seed (an
/// acceptance criterion CI pins).
pub fn timeline_to_jsonl(timeline: &disp_sim::Timeline, scenario: &str, seed: u64) -> String {
    let mut out = String::new();
    let start = Json::Obj(vec![
        ("event".into(), Json::Str("timeline_start".into())),
        ("scenario".into(), Json::Str(scenario.to_string())),
        ("seed".into(), Json::from_u64_lossless(seed)),
        ("budget".into(), Json::Num(timeline.budget as f64)),
    ]);
    out.push_str(&start.to_string_compact());
    out.push('\n');
    for point in &timeline.points {
        out.push_str(&timeline_point_json(point).to_string_compact());
        out.push('\n');
    }
    let end = Json::Obj(vec![
        ("event".into(), Json::Str("timeline_end".into())),
        ("points".into(), Json::Num(timeline.points.len() as f64)),
        ("stride".into(), Json::Num(timeline.stride as f64)),
        (
            "decimation_level".into(),
            Json::Num(timeline.decimation_level() as f64),
        ),
    ]);
    out.push_str(&end.to_string_compact());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_graph::{NodeId, Port};
    use disp_sim::AgentId;

    #[test]
    fn events_render_with_discriminators() {
        let ev = TrialEvent::started("line/k4/rooted/sync/probe-dfs", 2);
        let doc = Json::parse(&ev.to_json_line()).unwrap();
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("started"));
        assert_eq!(
            doc.get("trial_id").and_then(Json::as_str),
            Some("line/k4/rooted/sync/probe-dfs#r2")
        );
        let over = TrialEvent::Overflow { dropped: 3 };
        let doc = Json::parse(&over.to_json_line()).unwrap();
        assert_eq!(doc.get("dropped").and_then(Json::as_f64), Some(3.0));
        assert_eq!(over.kind(), "overflow");
    }

    #[test]
    fn event_lines_keep_their_bytes() {
        // Every variant's line, byte for byte, as the sidecar, the SSE
        // stream and the job event log have always carried it.
        let completed = TrialEvent::Completed {
            trial_id: "ring/k8/rooted/sync/ks-dfs#r1".into(),
            label: "ring/k8/rooted/sync/ks-dfs".into(),
            rep: 1,
            wall_micros: 1234,
            time: 17,
            steps: 0,
            total_moves: 40,
            dispersed: true,
            worker: Some("w\"1\n".into()),
        };
        let cached = TrialEvent::Cached {
            trial_id: "a#r0".into(),
            label: "a".into(),
            rep: 0,
            time: 3,
            total_moves: 9_007_199_254_740_993,
            dispersed: false,
        };
        let lines = [
            (
                TrialEvent::started("line/k4/rooted/sync/probe-dfs", 2),
                r#"{"event":"started","trial_id":"line/k4/rooted/sync/probe-dfs#r2","label":"line/k4/rooted/sync/probe-dfs","rep":2}"#,
            ),
            (
                completed,
                r#"{"event":"completed","trial_id":"ring/k8/rooted/sync/ks-dfs#r1","label":"ring/k8/rooted/sync/ks-dfs","rep":1,"wall_micros":1234,"time":17,"steps":0,"total_moves":40,"dispersed":true,"worker":"w\"1\n"}"#,
            ),
            (
                cached,
                r#"{"event":"cached","trial_id":"a#r0","label":"a","rep":0,"time":3,"total_moves":9007199254740992,"dispersed":false}"#,
            ),
            (
                TrialEvent::Overflow { dropped: 7 },
                r#"{"event":"overflow","dropped":7}"#,
            ),
        ];
        for (event, line) in lines {
            assert_eq!(event.to_json_line(), line);
        }
    }

    #[test]
    fn hub_delivers_in_order_and_finish_joins() {
        let (sink, collected) = VecSink::new();
        let telemetry = Telemetry::start(Box::new(sink));
        let handle = telemetry.handle();
        for rep in 0..100 {
            handle.emit(TrialEvent::started("x", rep));
        }
        let dropped = telemetry.finish();
        let events = collected.lock().unwrap();
        // The bound (1024) exceeds 100, so nothing dropped; order preserved.
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 100);
        for (rep, ev) in events.iter().enumerate() {
            assert_eq!(*ev, TrialEvent::started("x", rep));
        }
    }

    #[test]
    fn overflow_is_counted_and_marked() {
        // A sink that blocks until told otherwise, forcing the channel full.
        struct Gate(Arc<std::sync::atomic::AtomicBool>, Arc<AtomicU64>);
        impl TelemetrySink for Gate {
            fn emit(&mut self, event: &TrialEvent) {
                while self.0.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                if let TrialEvent::Overflow { dropped } = event {
                    self.1.store(*dropped, Ordering::SeqCst);
                }
            }
        }
        let hold = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let marker = Arc::new(AtomicU64::new(0));
        let telemetry = Telemetry::start(Box::new(Gate(Arc::clone(&hold), Arc::clone(&marker))));
        let handle = telemetry.handle();
        // Fill the channel (bound + 1 for the event parked in the sink),
        // then some: the rest must drop without blocking.
        for rep in 0..TELEMETRY_CHANNEL_BOUND + 100 {
            handle.emit(TrialEvent::started("x", rep));
        }
        assert!(handle.dropped() > 0);
        let expected = handle.dropped();
        hold.store(false, Ordering::SeqCst);
        let dropped = telemetry.finish();
        assert_eq!(dropped, expected);
        assert_eq!(marker.load(Ordering::SeqCst), expected);
    }

    #[test]
    fn trace_jsonl_round_trips_through_the_json_layer() {
        let mut trace = Trace::new();
        trace.record(TraceEvent::Move {
            agent: AgentId(1),
            from: NodeId(0),
            to: NodeId(2),
            port: Port(1),
            pin: Port(0),
            time: 3,
        });
        trace.record(TraceEvent::Milestone {
            agent: AgentId(1),
            node: NodeId(2),
            code: 1,
            time: 4,
        });
        let jsonl = trace_to_jsonl(&trace);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("event").and_then(Json::as_str), Some("move"));
        assert_eq!(first.get("to").and_then(Json::as_f64), Some(2.0));
        let last = Json::parse(lines[2]).unwrap();
        assert_eq!(last.get("event").and_then(Json::as_str), Some("trace_end"));
        assert_eq!(last.get("truncated").and_then(Json::as_bool), Some(false));
        assert_eq!(last.get("events").and_then(Json::as_f64), Some(2.0));
        assert_eq!(last.get("dropped").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn truncated_trace_end_reports_the_dropped_count() {
        let mut trace = Trace::with_cap(2);
        for time in 0..7 {
            trace.record(TraceEvent::Milestone {
                agent: AgentId(0),
                node: NodeId(0),
                code: 1,
                time,
            });
        }
        let jsonl = trace_to_jsonl(&trace);
        let last = Json::parse(jsonl.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("truncated").and_then(Json::as_bool), Some(true));
        assert_eq!(last.get("dropped").and_then(Json::as_f64), Some(5.0));
    }

    #[test]
    fn timeline_jsonl_has_header_points_and_summary() {
        let tl = disp_sim::Timeline {
            points: vec![
                disp_sim::TimelinePoint {
                    time: 0,
                    settled: 0,
                    active: 4,
                    parked: 0,
                    crashed: 0,
                    moves: 0,
                    dead_edges: 0,
                    batch: 0,
                    classes: vec![("follower", 3), ("settled", 0), ("leader", 1)],
                },
                disp_sim::TimelinePoint {
                    time: 8,
                    settled: 4,
                    active: 0,
                    parked: 4,
                    crashed: 0,
                    moves: 12,
                    dead_edges: 0,
                    batch: 0,
                    classes: vec![("follower", 0), ("settled", 4), ("leader", 0)],
                },
            ],
            stride: 2,
            budget: 4096,
        };
        let jsonl = timeline_to_jsonl(&tl, "ring/k4/rooted/sync/ks-dfs", 7);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        let head = Json::parse(lines[0]).unwrap();
        assert_eq!(
            head.get("event").and_then(Json::as_str),
            Some("timeline_start")
        );
        assert_eq!(
            head.get("scenario").and_then(Json::as_str),
            Some("ring/k4/rooted/sync/ks-dfs")
        );
        assert_eq!(head.get("seed").and_then(Json::as_u64_lossless), Some(7));
        let point = Json::parse(lines[1]).unwrap();
        assert_eq!(point.get("event").and_then(Json::as_str), Some("point"));
        assert_eq!(
            point
                .get("classes")
                .and_then(|c| c.get("follower"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        let end = Json::parse(lines[3]).unwrap();
        assert_eq!(
            end.get("event").and_then(Json::as_str),
            Some("timeline_end")
        );
        assert_eq!(end.get("points").and_then(Json::as_f64), Some(2.0));
        assert_eq!(end.get("stride").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            end.get("decimation_level").and_then(Json::as_f64),
            Some(1.0)
        );
        // Determinism: re-rendering is byte-identical.
        assert_eq!(
            jsonl,
            timeline_to_jsonl(&tl, "ring/k4/rooted/sync/ks-dfs", 7)
        );
    }
}
