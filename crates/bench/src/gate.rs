//! The bench regression gate: a checked-in wall-clock baseline
//! (`BENCH_baseline.json`) for the hot paths, and a checker that fails CI
//! when any of them regresses by more than the tolerance (default 25%).
//!
//! The gated workloads:
//!
//! * `probe_star/doubling_probe/128` — `ProbeDfs` on a rooted star,
//!   the doubling-probe micro-benchmark.
//! * `sync_rooted/complete/ks-dfs` — the scan baseline on the complete
//!   graph through `ScenarioSpec::run`.
//! * `scale/line100k/probe-dfs` — the flat-state hot loop itself: a rooted
//!   `k = 10^5` line through the implicit-topology scenario path (cohort
//!   rides + worklist; would take hours, not milliseconds, without them).
//! * `scale/line100k-async-lag4/probe-dfs` — the ASYNC hot path: the same
//!   rooted `k = 10^5` line under the event-driven lagging adversary
//!   (timer wheel + bulk epoch crediting; O(k)-per-step schedule
//!   generation would put this in minutes).
//! * `scale/ring100k/probe-dfs` — the static ring reference for the pair
//!   below.
//! * `scale/ring100k-dyn/probe-dfs` — the same ring under the dynamic
//!   adversary (one edge down per round). Besides the absolute baseline,
//!   the gate enforces a *relative* bound: the dynamic trial must finish
//!   within [`DYN_RING_FACTOR`]× of the static trial measured in the same
//!   run, which caps the cost of the edge-liveness overlay.
//! * `micro/line256x512/probe-dfs` — 512 tiny trials (rooted `k = 256`
//!   line) through the batched campaign engine with a per-batch
//!   `WorldPool`. This is the per-trial-overhead gate: wall clock covers
//!   setup-dominated workloads, and the allocation axis is divided by the
//!   trial count so per-trial churn is visible rather than drowned in a
//!   constant ×512.
//!
//! Measurements are minimums of several full runs — on shared machines
//! the noise is one-sided, so the fastest sample estimates intrinsic cost
//! — and the gate still applies a generous relative threshold on top.

use disp_analysis::json::Json;
use disp_campaign::grid::CampaignSpec;
use disp_campaign::run::run_campaign_batched;
use disp_core::scenario::{Registry, ScenarioSpec, Schedule};
use disp_core::ProbeDfs;
use disp_graph::generators::{self, GraphFamily};
use disp_graph::NodeId;
use disp_sim::{RunConfig, SyncRunner, World, WorldPool};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// One gated workload: a stable id and a closure-free runner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `probe_star/doubling_probe/128`.
    ProbeStar,
    /// `sync_rooted/complete/ks-dfs`.
    ScanComplete,
    /// `scale/line100k/probe-dfs`.
    ScaleLine,
    /// `scale/line100k-async-lag4/probe-dfs`.
    ScaleLineAsync,
    /// `scale/ring100k/probe-dfs`.
    ScaleRing,
    /// `scale/ring100k-dyn/probe-dfs`.
    ScaleRingDyn,
    /// `micro/line256x512/probe-dfs`.
    MicroBatch,
}

// Unit tests run every workload's code path at a small size: at full size
// the `scale/*` and `micro/*` workloads take tens of seconds in a debug
// build. Workload ids and the `bench-gate` binary keep the full sizes.

/// Trials per [`Workload::MicroBatch`] run.
pub const MICRO_TRIALS: usize = if cfg!(test) { 16 } else { 512 };

/// Agents (and nodes) in the `scale/*` workloads.
const SCALE_K: usize = if cfg!(test) { 1_000 } else { 100_000 };

/// Batch size the micro workload hands to the batched campaign engine.
pub const MICRO_BATCH: usize = 32;

/// The micro workload's campaign: [`MICRO_TRIALS`] repetitions of a small
/// rooted `line/k=256` SYNC trial, executed through the trial pipeline
/// ([`run_campaign_batched`]) in batches of [`MICRO_BATCH`] trials, each
/// built in its engine thread's warm world-allocation pool. This is
/// the gate's per-trial-overhead probe: the trials are small enough that
/// setup (graph + world construction, protocol init) is a real fraction of
/// the cost. Shared with the `bench-gate scaling` subcommand, which runs
/// the same campaign across thread counts.
pub fn micro_campaign_spec() -> CampaignSpec {
    CampaignSpec::custom(
        vec![ScenarioSpec::new(GraphFamily::Line, 256, "probe-dfs").with_schedule(Schedule::Sync)],
        MICRO_TRIALS,
        7,
    )
}

/// The dynamic-ring overhead cap: the `ring100k-dyn` trial must finish
/// within this factor of the static `ring100k` trial *measured in the same
/// gate run* (wall-clock noise cancels in the ratio), bounding the cost of
/// the edge-liveness overlay plus the adversary's per-round edge flips.
///
/// Recalibrated from 2.0 when the data-oriented hot-core work cut the
/// static ring's per-round cost by ~25%: the dynamic trial's surplus is
/// mostly *protocol* rounds the cut edges force (waiting out a dead edge),
/// which no overlay optimization removes, so a leaner shared round loop
/// honestly raises the ratio. Measured ~2.2× on the minimum statistic.
pub const DYN_RING_FACTOR: f64 = 2.6;

/// The flight-recorder overhead cap: `scale/line100k` run with a timeline
/// recorder attached must finish within this factor of the same trial
/// without one, *measured in the same gate run* (the ratio cancels
/// wall-clock noise, like the dynamic-ring coupling above). The recorder
/// samples one O(classes) point per round boundary into a fixed budget, so
/// its cost is a constant per round against a Θ(k)-ish round body — the
/// acceptance bound is <5% and in practice the ratio sits at ~1.0.
pub const TIMELINE_FACTOR: f64 = 1.05;

/// Measure [`Workload::ScaleLine`] with and without the flight recorder:
/// `samples` interleaved (plain, recorded) pairs after one warmup of each
/// variant, reporting the pair with the smallest recorded/plain ratio as
/// `(plain_ns, recorded_ns, ratio)`.
///
/// The statistic is the minimum *per-pair* ratio, not the ratio of
/// per-variant minimums: adjacent runs share the host's noise regime (a
/// preemption burst outlasts one ~150 ms pair), so within-pair ratios are
/// far tighter than cross-run minimums on a shared box — the quietest pair
/// estimates the intrinsic overhead, while a real regression shifts every
/// pair and still fails the bound.
pub fn timeline_overhead(samples: usize) -> (f64, f64, f64) {
    let registry = Registry::builtin();
    let spec =
        ScenarioSpec::new(GraphFamily::Line, SCALE_K, "probe-dfs").with_schedule(Schedule::Sync);
    let plain = |spec: &ScenarioSpec| {
        let report = spec.run(&registry, 7).expect("scale line terminates");
        assert!(report.dispersed);
        report.outcome.rounds
    };
    let recorded = |spec: &ScenarioSpec| {
        let mut recorder = disp_sim::TimelineRecorder::new();
        let report = spec
            .run_observed(&registry, 7, &mut disp_sim::WorldPool::new(), &mut recorder)
            .expect("recorded scale line terminates");
        assert!(report.dispersed);
        report.outcome.rounds + recorder.finish().points.len() as u64
    };
    std::hint::black_box(plain(&spec));
    std::hint::black_box(recorded(&spec));
    let mut best = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        std::hint::black_box(plain(&spec));
        let plain_ns = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        std::hint::black_box(recorded(&spec));
        let recorded_ns = start.elapsed().as_nanos() as f64;
        let ratio = recorded_ns / plain_ns;
        if ratio < best.2 {
            best = (plain_ns, recorded_ns, ratio);
        }
    }
    best
}

impl Workload {
    /// All gated workloads, in report order.
    pub fn all() -> [Workload; 7] {
        [
            Workload::ProbeStar,
            Workload::ScanComplete,
            Workload::ScaleLine,
            Workload::ScaleLineAsync,
            Workload::ScaleRing,
            Workload::ScaleRingDyn,
            Workload::MicroBatch,
        ]
    }

    /// Stable id (matches the corresponding bench ids where one exists).
    pub fn id(&self) -> &'static str {
        match self {
            Workload::ProbeStar => "probe_star/doubling_probe/128",
            Workload::ScanComplete => "sync_rooted/complete/ks-dfs",
            Workload::ScaleLine => "scale/line100k/probe-dfs",
            Workload::ScaleLineAsync => "scale/line100k-async-lag4/probe-dfs",
            Workload::ScaleRing => "scale/ring100k/probe-dfs",
            Workload::ScaleRingDyn => "scale/ring100k-dyn/probe-dfs",
            Workload::MicroBatch => "micro/line256x512/probe-dfs",
        }
    }

    /// How many trials one `run_once` executes. Allocation counts are
    /// reported *per trial* — a 512-trial workload measured per run would
    /// drown per-trial churn in a constant ×512, and the whole point of
    /// the micro workload is catching per-trial setup regressions.
    pub fn trials_per_run(&self) -> u64 {
        match self {
            Workload::MicroBatch => MICRO_TRIALS as u64,
            _ => 1,
        }
    }

    /// Execute the workload once, returning a value to keep the optimizer
    /// honest.
    fn run_once(&self, registry: &Registry) -> u64 {
        match self {
            Workload::ProbeStar => {
                let k = 128;
                let g = generators::star(k);
                let mut world = World::new_rooted(g, k, NodeId(0));
                let mut proto = ProbeDfs::new(&world);
                let out = SyncRunner::new(RunConfig::default())
                    .run(&mut world, &mut proto)
                    .expect("probe star terminates");
                out.rounds
            }
            Workload::ScanComplete => {
                let spec = ScenarioSpec::new(GraphFamily::Complete, 96, "ks-dfs")
                    .with_schedule(Schedule::Sync);
                let report = spec.run(registry, 7).expect("scan complete terminates");
                assert!(report.dispersed);
                report.outcome.rounds
            }
            Workload::ScaleLine => {
                let spec = ScenarioSpec::new(GraphFamily::Line, SCALE_K, "probe-dfs")
                    .with_schedule(Schedule::Sync);
                let report = spec.run(registry, 7).expect("scale line terminates");
                assert!(report.dispersed);
                report.outcome.rounds
            }
            Workload::ScaleLineAsync => {
                let spec = ScenarioSpec::new(GraphFamily::Line, SCALE_K, "probe-dfs")
                    .with_schedule(Schedule::AsyncLagging { max_lag: 4 });
                let report = spec.run(registry, 7).expect("scale async line terminates");
                assert!(report.dispersed);
                report.outcome.epochs
            }
            Workload::ScaleRing => {
                let spec = ScenarioSpec::new(GraphFamily::Ring, SCALE_K, "probe-dfs")
                    .with_schedule(Schedule::Sync);
                let report = spec.run(registry, 7).expect("scale ring terminates");
                assert!(report.dispersed);
                report.outcome.rounds
            }
            Workload::ScaleRingDyn => {
                let spec = ScenarioSpec::new(GraphFamily::Ring, SCALE_K, "probe-dfs")
                    .with_schedule(Schedule::Sync)
                    .with_dynamic_ring(1);
                let report = spec
                    .run(registry, 7)
                    .expect("scale dynamic ring terminates");
                assert!(report.dispersed);
                report.outcome.rounds
            }
            Workload::MicroBatch => {
                let spec = micro_campaign_spec();
                let (records, _) = run_campaign_batched(
                    &spec,
                    None,
                    1,
                    MICRO_BATCH,
                    registry,
                    &AtomicBool::new(false),
                    None,
                )
                .expect("micro campaign runs");
                assert_eq!(records.len(), MICRO_TRIALS);
                assert!(records.iter().all(|r| r.dispersed));
                records.iter().map(|r| r.outcome.rounds).sum()
            }
        }
    }

    /// Minimum wall-clock nanoseconds over `samples` runs (after one
    /// warmup). The minimum, not the median: on shared CI hardware the
    /// noise is one-sided (preemption, frequency dips, cache pollution
    /// only ever *add* time), so the fastest sample is the best estimate
    /// of the code's intrinsic cost and the median of a millisecond-scale
    /// workload can read 2× high on a busy host. A genuine regression
    /// shifts the floor itself, which the gate still catches.
    pub fn measure_ns(&self, samples: usize) -> f64 {
        let registry = Registry::builtin();
        std::hint::black_box(self.run_once(&registry));
        (0..samples.max(1))
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(self.run_once(&registry));
                start.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Heap allocations **per trial** of the workload, or `None` when the
    /// crate was built without the `count-allocs` counting allocator.
    /// Workloads are deterministic, so unlike wall-clock this needs no
    /// multi-sample minimum — but it does need the warmup (lazy statics,
    /// thread-local growth) that `measure_ns` also performs. For the
    /// single-trial workloads per-trial equals per-run; the micro workload
    /// divides by [`Workload::trials_per_run`].
    pub fn measure_allocs(&self) -> Option<u64> {
        #[cfg(feature = "count-allocs")]
        {
            let registry = Registry::builtin();
            std::hint::black_box(self.run_once(&registry));
            let before = crate::alloc_counter::current();
            std::hint::black_box(self.run_once(&registry));
            Some((crate::alloc_counter::current() - before) / self.trials_per_run())
        }
        #[cfg(not(feature = "count-allocs"))]
        None
    }
}

/// Measure every gated workload and render the baseline JSON document.
/// Built with `count-allocs`, the document also carries a
/// `workloads_allocs` section (allocations per run); without the feature
/// the section is omitted and `check` skips the allocation comparison.
pub fn record(samples: usize) -> String {
    let entries: Vec<(String, Json)> = Workload::all()
        .iter()
        .map(|w| {
            let ns = w.measure_ns(samples);
            eprintln!("recorded {}: {:.3} ms", w.id(), ns / 1e6);
            (w.id().to_string(), Json::Num(ns))
        })
        .collect();
    let mut fields = vec![
        ("tolerance".into(), Json::Num(0.25)),
        ("samples".into(), Json::Num(samples as f64)),
        ("workloads_ns".into(), Json::Obj(entries)),
    ];
    let allocs: Vec<(String, Json)> = Workload::all()
        .iter()
        .filter_map(|w| {
            w.measure_allocs().map(|allocs| {
                eprintln!("recorded {}: {} alloc(s)", w.id(), allocs);
                (w.id().to_string(), Json::Num(allocs as f64))
            })
        })
        .collect();
    if !allocs.is_empty() {
        fields.push(("workloads_allocs".into(), Json::Obj(allocs)));
    }
    Json::Obj(fields).to_string_compact()
}

/// A single gate comparison result.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Workload id.
    pub id: &'static str,
    /// Baseline nanoseconds.
    pub baseline_ns: f64,
    /// Measured nanoseconds.
    pub measured_ns: f64,
    /// `measured / baseline`.
    pub ratio: f64,
    /// Allocation comparison — `(baseline, measured, ratio)` — present
    /// only when both the baseline and this build carry allocation counts.
    pub allocs: Option<(f64, u64, f64)>,
    /// Whether the wall-clock or allocation ratio exceeds `1 + tolerance`.
    pub regressed: bool,
}

/// Compare fresh measurements against a recorded baseline document.
/// Returns the per-workload rows; any `regressed` row means the gate
/// fails. Allocation counts gate exactly like wall-clock, but only when
/// both sides have them: a baseline recorded without `count-allocs` (or a
/// check built without it) silently skips that comparison rather than
/// failing half the matrix.
pub fn check(baseline_json: &str, samples: usize) -> Result<Vec<GateRow>, String> {
    let doc = Json::parse(baseline_json).map_err(|e| format!("baseline parse error: {e}"))?;
    let tolerance = doc.get("tolerance").and_then(Json::as_f64).unwrap_or(0.25);
    let workloads = doc
        .get("workloads_ns")
        .ok_or("baseline missing workloads_ns")?;
    let baseline_allocs = doc.get("workloads_allocs");
    let mut rows = Vec::new();
    for w in Workload::all() {
        let baseline_ns = workloads
            .get(w.id())
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline missing workload '{}'", w.id()))?;
        let measured_ns = w.measure_ns(samples);
        let ratio = measured_ns / baseline_ns;
        let allocs = match (
            baseline_allocs
                .and_then(|a| a.get(w.id()))
                .and_then(Json::as_f64),
            w.measure_allocs(),
        ) {
            (Some(base), Some(measured)) if base > 0.0 => {
                Some((base, measured, measured as f64 / base))
            }
            _ => None,
        };
        let alloc_regressed = allocs.is_some_and(|(_, _, r)| r > 1.0 + tolerance);
        rows.push(GateRow {
            id: w.id(),
            baseline_ns,
            measured_ns,
            ratio,
            allocs,
            regressed: ratio > 1.0 + tolerance || alloc_regressed,
        });
    }
    apply_dyn_ring_coupling(&mut rows);
    Ok(rows)
}

/// Enforce the [`DYN_RING_FACTOR`] bound between the two ring workloads of
/// one gate run: the dynamic trial regresses when it exceeds the factor
/// times the static trial's *measured* time, regardless of the absolute
/// baseline. Pure arithmetic over the rows, so it is testable without
/// running the 10^5-agent workloads.
fn apply_dyn_ring_coupling(rows: &mut [GateRow]) {
    let static_ns = rows
        .iter()
        .find(|r| r.id == Workload::ScaleRing.id())
        .map(|r| r.measured_ns);
    if let Some(static_ns) = static_ns {
        if let Some(dyn_row) = rows
            .iter_mut()
            .find(|r| r.id == Workload::ScaleRingDyn.id())
        {
            if dyn_row.measured_ns > DYN_RING_FACTOR * static_ns {
                dyn_row.regressed = true;
            }
        }
    }
}

/// One row of the `bench-gate scaling` report: the micro campaign run at
/// one thread count.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Worker thread count handed to the batched campaign engine.
    pub threads: usize,
    /// Wall clock for the full [`MICRO_TRIALS`]-trial campaign: the
    /// minimum over [`SCALING_ROUNDS`] runs.
    pub wall_ns: u64,
    /// Wall clock of the one-thread row divided by this row's.
    pub speedup: f64,
}

/// The `bench-gate scaling` report: the thread-count table and the
/// speedup the host itself allowed two threads in the same run.
#[derive(Debug, Clone)]
pub struct Scaling {
    /// One row per thread count; the first is the one-thread row.
    pub rows: Vec<ScalingRow>,
    /// Wall clock of two copies of the campaign's trials run at once, each
    /// in a plain loop on its own thread outside the engine: the minimum
    /// over [`SCALING_ROUNDS`] pairs.
    pub pair_ns: u64,
    /// The host ceiling: 2 × the one-thread row's wall clock ÷ `pair_ns`,
    /// at most ×2. The copies share nothing — not even the engine, so no
    /// lock or schedule of the engine's can lower it — so this is what two
    /// threads can gain on this host while the run lasts: ×2 on two idle
    /// cores, ×1 when neighbours hold the second one.
    pub ceiling: f64,
}

/// Timed runs per thread count in `bench-gate scaling`, taken in
/// interleaved rounds (every count once per round, then the pair of
/// copies outside the engine) after one untimed warm-up run, so no count
/// is timed only cold or only in one phase of a neighbour's load.
pub const SCALING_ROUNDS: usize = 3;

/// The share of the host ceiling the best multi-thread speedup must reach.
pub const SCALING_SHARE: f64 = 0.8;

/// Below this host ceiling the speed verdict is skipped: the host cannot
/// show a speedup, so it cannot show a missing one either.
pub const MIN_CEILING: f64 = 1.1;

/// Run the micro campaign at one thread and at each of `thread_counts`
/// through the batched engine, plus two copies of its trials at once
/// outside the engine, and return the wall-clock/speedup table with the
/// host ceiling. One untimed warm-up run at one thread comes first; each
/// wall clock is then its fastest of [`SCALING_ROUNDS`] interleaved
/// rounds. Every run's *sorted* trial-record JSON lines must be
/// byte-identical to the warm-up run's — that determinism check holds
/// unconditionally and an `Err` is returned on any divergence. Whether to
/// also gate on the speedups is [`scaling_verdict`]'s call.
pub fn scaling(thread_counts: &[usize]) -> Result<Scaling, String> {
    let registry = Registry::builtin();
    let spec = micro_campaign_spec();
    let counts: Vec<usize> = std::iter::once(1)
        .chain(thread_counts.iter().copied().filter(|&t| t != 1))
        .collect();
    let run = |threads: usize| -> Result<(u64, Vec<String>), String> {
        let start = Instant::now();
        let (records, _) = run_campaign_batched(
            &spec,
            None,
            threads,
            MICRO_BATCH,
            &registry,
            &AtomicBool::new(false),
            None,
        )?;
        let wall_ns = start.elapsed().as_nanos() as u64;
        let mut lines: Vec<String> = records
            .iter()
            .map(disp_analysis::TrialRecord::to_json_line)
            .collect();
        lines.sort();
        Ok((wall_ns, lines))
    };
    // One copy of the campaign's trials in a plain loop on its thread,
    // sharing nothing with the engine or with the other copy.
    let trials = spec.trials();
    let copy = || -> Vec<String> {
        let mut pool = WorldPool::new();
        let mut lines: Vec<String> = trials
            .iter()
            .map(|t| {
                t.point
                    .run_trial_pooled(&registry, t.rep, t.seed, &mut pool, &mut ())
                    .to_json_line()
            })
            .collect();
        lines.sort();
        lines
    };
    let (_, reference) = run(1)?;
    let same = |lines: &[String], what: &str| {
        if lines == reference {
            Ok(())
        } else {
            Err(format!(
                "trial records of {what} differ from threads=1: \
                 the batched engine must be byte-identical across thread counts",
            ))
        }
    };
    let mut best = vec![u64::MAX; counts.len()];
    let mut pair_ns = u64::MAX;
    for _ in 0..SCALING_ROUNDS {
        for (&threads, best) in counts.iter().zip(&mut best) {
            let (wall_ns, lines) = run(threads)?;
            same(&lines, &format!("threads={threads}"))?;
            *best = (*best).min(wall_ns);
        }
        let start = Instant::now();
        let (mine, other) = std::thread::scope(|s| {
            let other = s.spawn(copy);
            (copy(), other.join())
        });
        pair_ns = pair_ns.min(start.elapsed().as_nanos() as u64);
        let other = other.map_err(|_| "a copy outside the engine panicked".to_string())?;
        for lines in [mine, other] {
            same(&lines, "a copy outside the engine")?;
        }
    }
    let rows: Vec<ScalingRow> = counts
        .iter()
        .zip(&best)
        .map(|(&threads, &wall_ns)| ScalingRow {
            threads,
            wall_ns,
            speedup: best[0] as f64 / wall_ns as f64,
        })
        .collect();
    Ok(Scaling {
        rows,
        pair_ns,
        ceiling: (2.0 * best[0] as f64 / pair_ns as f64).min(2.0),
    })
}

/// What `bench-gate scaling` concludes about speed.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The best multi-thread speedup reached its share of the ceiling.
    Pass,
    /// The host cannot show a speedup; why.
    Skip(String),
    /// The engine left the host's parallelism unused; how.
    Fail(String),
}

/// Judge a [`Scaling`] report from a host with `cores` CPUs: the best
/// multi-thread speedup must reach [`SCALING_SHARE`] of the host ceiling
/// measured in the same run. A single core, or a ceiling under
/// [`MIN_CEILING`] (neighbours hold the other cores), skips the verdict;
/// the byte-identity check has already held either way.
pub fn scaling_verdict(report: &Scaling, cores: usize) -> Verdict {
    if cores == 1 {
        return Verdict::Skip("single-core host".into());
    }
    if report.ceiling < MIN_CEILING {
        return Verdict::Skip(format!(
            "host ceiling ×{:.2} is below ×{MIN_CEILING:.1}: the other cores are busy",
            report.ceiling
        ));
    }
    let best = report
        .rows
        .iter()
        .filter(|r| r.threads > 1)
        .map(|r| r.speedup)
        .fold(f64::NEG_INFINITY, f64::max);
    if best.is_finite() && best < SCALING_SHARE * report.ceiling {
        return Verdict::Fail(format!(
            "best multi-thread speedup ×{best:.2} is below {SCALING_SHARE} × the host \
             ceiling ×{:.2} measured in the same run",
            report.ceiling
        ));
    }
    Verdict::Pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_run_and_ids_are_stable() {
        let registry = Registry::builtin();
        assert!(Workload::ProbeStar.run_once(&registry) > 0);
        assert!(Workload::ScanComplete.run_once(&registry) > 0);
        let ids: Vec<_> = Workload::all().iter().map(|w| w.id()).collect();
        assert_eq!(
            ids,
            vec![
                "probe_star/doubling_probe/128",
                "sync_rooted/complete/ks-dfs",
                "scale/line100k/probe-dfs",
                "scale/line100k-async-lag4/probe-dfs",
                "scale/ring100k/probe-dfs",
                "scale/ring100k-dyn/probe-dfs",
                "micro/line256x512/probe-dfs"
            ]
        );
    }

    #[test]
    fn micro_workload_runs_all_trials_and_allocs_are_per_trial() {
        let registry = Registry::builtin();
        assert!(Workload::MicroBatch.run_once(&registry) > 0);
        assert_eq!(Workload::MicroBatch.trials_per_run(), MICRO_TRIALS as u64);
        assert_eq!(Workload::ScaleLine.trials_per_run(), 1);
    }

    #[test]
    fn scaling_times_one_thread_first_and_measures_the_ceiling() {
        let report = scaling(&[2]).unwrap();
        let threads: Vec<usize> = report.rows.iter().map(|r| r.threads).collect();
        assert_eq!(threads, vec![1, 2]);
        assert_eq!(report.rows[0].speedup, 1.0);
        assert!(report.pair_ns > 0);
        assert!(report.ceiling > 0.0 && report.ceiling <= 2.0);
    }

    #[test]
    fn the_scaling_verdict_is_against_the_ceiling_measured_in_the_same_run() {
        let report = |speedup: f64, ceiling: f64| Scaling {
            rows: vec![
                ScalingRow {
                    threads: 1,
                    wall_ns: 100,
                    speedup: 1.0,
                },
                ScalingRow {
                    threads: 2,
                    wall_ns: (100.0 / speedup) as u64,
                    speedup,
                },
            ],
            pair_ns: (200.0 / ceiling) as u64,
            ceiling,
        };
        // Two idle cores: a serialized engine fails, a scaling one passes.
        assert!(matches!(
            scaling_verdict(&report(1.0, 1.9), 2),
            Verdict::Fail(_)
        ));
        assert_eq!(scaling_verdict(&report(1.7, 1.9), 2), Verdict::Pass);
        // Neighbours hold the second core: no speedup is possible, and
        // none is asked for.
        assert!(matches!(
            scaling_verdict(&report(1.0, 1.05), 2),
            Verdict::Skip(_)
        ));
        // A partly busy host asks for its share of what it allowed.
        assert_eq!(scaling_verdict(&report(1.0, 1.2), 2), Verdict::Pass);
        assert!(matches!(
            scaling_verdict(&report(1.0, 1.4), 2),
            Verdict::Fail(_)
        ));
        assert!(matches!(
            scaling_verdict(&report(1.0, 1.9), 1),
            Verdict::Skip(_)
        ));
    }

    #[test]
    fn dyn_ring_coupling_flags_slow_dynamic_rings() {
        let row = |id: &'static str, measured_ns: f64| GateRow {
            id,
            baseline_ns: 1.0,
            measured_ns,
            ratio: 1.0,
            allocs: None,
            regressed: false,
        };
        // Within the factor of the static ring measured in the same run:
        // fine.
        let mut rows = vec![
            row(Workload::ScaleRing.id(), 100.0),
            row(Workload::ScaleRingDyn.id(), DYN_RING_FACTOR * 100.0 - 1.0),
        ];
        apply_dyn_ring_coupling(&mut rows);
        assert!(rows.iter().all(|r| !r.regressed), "{rows:?}");
        // Beyond it: the dynamic row regresses even with a happy baseline.
        let mut rows = vec![
            row(Workload::ScaleRing.id(), 100.0),
            row(Workload::ScaleRingDyn.id(), DYN_RING_FACTOR * 100.0 + 1.0),
        ];
        apply_dyn_ring_coupling(&mut rows);
        assert!(!rows[0].regressed);
        assert!(rows[1].regressed, "{rows:?}");
    }

    #[test]
    fn record_then_check_round_trips_and_passes_against_itself() {
        // A baseline recorded with tiny sampling still parses and a check
        // against a generously inflated copy of itself passes, while a
        // deflated copy fails — the gate's arithmetic, without the noise.
        let doc = Json::Obj(vec![
            ("tolerance".into(), Json::Num(0.25)),
            (
                "workloads_ns".into(),
                Json::Obj(
                    Workload::all()
                        .iter()
                        .map(|w| (w.id().to_string(), Json::Num(1e12)))
                        .collect(),
                ),
            ),
        ]);
        let rows = check(&doc.to_string_compact(), 1).unwrap();
        assert!(rows.iter().all(|r| !r.regressed), "{rows:?}");
        let tiny = Json::Obj(vec![
            ("tolerance".into(), Json::Num(0.25)),
            (
                "workloads_ns".into(),
                Json::Obj(
                    Workload::all()
                        .iter()
                        .map(|w| (w.id().to_string(), Json::Num(1.0)))
                        .collect(),
                ),
            ),
        ]);
        let rows = check(&tiny.to_string_compact(), 1).unwrap();
        assert!(rows.iter().all(|r| r.regressed), "{rows:?}");
        assert!(check("{}", 1).is_err());
    }
}
