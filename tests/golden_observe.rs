//! Observation byte-identity: the event trace and the flight-recorder
//! timeline of every scenario in `tests/golden/observe.labels` must encode
//! to exactly the bytes recorded in `tests/golden/observe.digest`.
//!
//! Trial records pin what a run computes; this file pins what watching it
//! shows. Each label runs once at seed 3 per stream: the trace (event count
//! and FNV-1a of `trace_to_jsonl`) and the timeline at the default budget
//! and at budget 8, which forces decimation (point count and FNV-1a of
//! `timeline_to_jsonl` after its `timeline_start` header, which only echoes
//! the inputs). A run that hits its limit is digested from the partial
//! trace and timeline it leaves behind. `tests/golden/README.md` says how
//! to re-record the file.

use disp_campaign::telemetry::{timeline_to_jsonl, trace_to_jsonl};
use dispersion::core::scenario::{Registry, ScenarioSpec};
use dispersion::sim::{Trace, WorldPool, DEFAULT_TIMELINE_BUDGET};
use std::fmt::Write as _;

const SEED: u64 = 3;
const BUDGETS: [usize; 2] = [DEFAULT_TIMELINE_BUDGET, 8];

fn golden(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The run's trace; a limit-exceeded run yields the events up to the limit.
fn traced(spec: &ScenarioSpec, registry: &Registry) -> Trace {
    let mut trace = Trace::new();
    let _ = spec.run_observed(registry, SEED, &mut WorldPool::new(), &mut trace);
    trace
}

/// The run's timeline under `budget`; a limit-exceeded run yields the
/// partial timeline with its forced final point.
fn timeline(spec: &ScenarioSpec, registry: &Registry, budget: usize) -> dispersion::sim::Timeline {
    let mut recorder = dispersion::sim::TimelineRecorder::with_budget(budget);
    let _ = spec.run_observed(registry, SEED, &mut WorldPool::new(), &mut recorder);
    recorder.finish()
}

/// Three lines per label: the trace, then the timeline at each budget.
fn digest_lines() -> String {
    let registry = Registry::builtin();
    let labels = std::fs::read_to_string(golden("observe.labels")).expect("observe.labels");
    let mut out = String::new();
    for label in labels.lines() {
        let spec = ScenarioSpec::parse(label, &registry).expect("a valid golden label");
        let trace = traced(&spec, &registry);
        let jsonl = trace_to_jsonl(&trace);
        writeln!(
            out,
            "{label} trace events={} fnv={:016x}",
            trace.events().len(),
            fnv1a(jsonl.as_bytes())
        )
        .expect("writing to a String");
        for budget in BUDGETS {
            let tl = timeline(&spec, &registry, budget);
            let jsonl = timeline_to_jsonl(&tl, label, SEED);
            let body = jsonl.split_once('\n').expect("a timeline_start line").1;
            writeln!(
                out,
                "{label} timeline budget={budget} points={} fnv={:016x}",
                tl.points.len(),
                fnv1a(body.as_bytes())
            )
            .expect("writing to a String");
        }
    }
    out
}

#[test]
fn observers_see_the_recorded_streams() {
    let want = std::fs::read_to_string(golden("observe.digest")).expect("observe.digest");
    let got = digest_lines();
    let diff: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  recorded {w}\n  observed {g}"))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "{} of {} observation digests differ ({} recorded, {} observed):\n{}",
        diff.len(),
        got.lines().count(),
        want.lines().count(),
        got.lines().count(),
        diff.join("\n")
    );
}

/// Rewrites `tests/golden/observe.digest` from the current code. Run it
/// only in a change that means to alter trace or timeline bytes.
#[test]
#[ignore = "rewrites tests/golden/observe.digest"]
fn record_observe_digests() {
    std::fs::write(golden("observe.digest"), digest_lines()).expect("write observe.digest");
}
