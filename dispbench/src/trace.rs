//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name (the layer), the id of the trial or job it belongs
//! to, start and end times and its parent span. Spans are kept in memory
//! and written out when the run ends; the per-layer summary (calls, busy
//! time and self time, which is busy time minus the time of child spans)
//! is computed from them.

use disp_sim::Outcome;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span log. A disabled tracer records nothing, so the
/// untraced run goes through the same code at the cost of a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Close `span` and return its duration in ns (0 when disabled).
    pub fn close(&mut self, span: Open) -> u64 {
        let Some(index) = span.0 else { return 0 };
        let now = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close innermost first");
        self.spans[index].end_ns = now;
        self.spans[index].ns()
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let span = self.open(name, id);
        let out = f();
        self.close(span);
        out
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals, by span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = out.entry(s.name).or_default();
            layer.calls += 1;
            layer.busy_ns += s.ns();
            layer.self_ns += s.ns().saturating_sub(child);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl Layer {
    /// Mean span length in ns (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64
        }
    }
}

/// Span names, in print order. Every traced run prints every layer; a
/// layer the workload does not pass through reads 0 calls.
pub const LAYERS: [&str; 14] = [
    "trial",
    "job",
    "core.build",
    "sim.run",
    "core.verify",
    "analysis.encode",
    "campaign.checkpoint",
    "campaign.run",
    "cluster.insert",
    "cluster.lookup",
    "serve.submit",
    "serve.status",
    "serve.events",
    "serve.results",
];

/// Per-layer numbers that do not come from span times: exact counts and
/// ratios measured where the work happens.
#[derive(Debug, Default, Clone)]
pub struct Facts {
    /// Activations summed over every traced `sim.run` span.
    pub traced_activations: u64,
    /// `Outcome` counters of one pass over the workload's trials.
    pub activations: u64,
    pub steps: u64,
    pub epochs: u64,
    pub moves: u64,
    /// Allocations per trial.
    pub alloc_count: f64,
    pub alloc_bytes: f64,
    pub engine_ms: f64,
    pub steals: f64,
    pub cluster_hit_ratio: f64,
    pub results_mb: f64,
    /// Mean time from a job's submit until its event stream closed.
    pub wait_ms: f64,
    pub queue_wait_us: f64,
    pub trial_us: f64,
    pub executed: f64,
    pub cache_hits: f64,
    pub serve_hit_ratio: f64,
    pub executed_ratio: f64,
    /// Traced over untraced time of the same units, minus one, in %.
    pub overhead_pct: f64,
}

impl Facts {
    /// Add one trial's `Outcome` counters to the exact pass counters.
    pub fn count(&mut self, outcome: &Outcome) {
        self.activations += outcome.activations;
        self.steps += outcome.steps;
        self.epochs += outcome.epochs;
        self.moves += outcome.total_moves;
    }
}

/// The `per_layer` metrics of a traced run.
pub fn per_layer(tracer: &Tracer, facts: &Facts) -> crate::report::Metrics {
    let layers = tracer.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let ms = |name: &str| layer(name).mean_ns() / 1e6;
    let us = |name: &str| layer(name).mean_ns() / 1e3;
    let mut m = crate::report::Metrics::default();
    m.put("core.build_ms", ms("core.build"), "ms");
    m.put("sim.run_ms", ms("sim.run"), "ms");
    let per_activation = if facts.traced_activations == 0 {
        0.0
    } else {
        layer("sim.run").busy_ns as f64 / facts.traced_activations as f64
    };
    m.put("sim.ns_per_activation", per_activation, "ns");
    m.put("sim.activations", facts.activations as f64, "count");
    m.put("sim.steps", facts.steps as f64, "count");
    m.put("sim.epochs", facts.epochs as f64, "count");
    m.put("sim.moves", facts.moves as f64, "count");
    m.put("core.verify_ms", ms("core.verify"), "ms");
    m.put("analysis.encode_us", us("analysis.encode"), "us");
    m.put("campaign.checkpoint_us", us("campaign.checkpoint"), "us");
    m.put("campaign.engine_ms", facts.engine_ms, "ms");
    m.put("campaign.steals", facts.steals, "count");
    m.put("alloc.count", facts.alloc_count, "count");
    m.put("alloc.bytes", facts.alloc_bytes, "B");
    m.put("cluster.lookup_us", us("cluster.lookup"), "us");
    m.put("cluster.insert_us", us("cluster.insert"), "us");
    m.put("cluster.hit_ratio", facts.cluster_hit_ratio, "ratio");
    m.put("serve.submit_ms", ms("serve.submit"), "ms");
    m.put("serve.status_ms", ms("serve.status"), "ms");
    m.put("serve.results_ms", ms("serve.results"), "ms");
    m.put("serve.results_mb", facts.results_mb, "MB");
    m.put("serve.wait_ms", facts.wait_ms, "ms");
    m.put("serve.queue_wait_us", facts.queue_wait_us, "us");
    m.put("serve.trial_us", facts.trial_us, "us");
    m.put("serve.executed", facts.executed, "count");
    m.put("serve.cache_hits", facts.cache_hits, "count");
    m.put("serve.hit_ratio", facts.serve_hit_ratio, "ratio");
    m.put("serve.executed_ratio", facts.executed_ratio, "ratio");
    m.put("trace.overhead_pct", facts.overhead_pct, "%");
    m.put("trace.spans", tracer.len() as f64, "count");
    for name in LAYERS {
        let l = layer(name);
        m.put(&format!("{name}.calls"), l.calls as f64, "count");
        m.put(&format!("{name}.busy_ms"), l.busy_ns as f64 / 1e6, "ms");
        m.put(&format!("{name}.self_ms"), l.self_ns as f64 / 1e6, "ms");
    }
    m
}
