//! `campaign-micro`: a grid of several hundred tiny trials through
//! `run_campaign_batched` into a checkpoint store, a fresh campaign seed
//! per pass. Each pass creates the store (set-up), runs the grid cold
//! (every trial executes) and then again over the completed store (every
//! trial is a checkpoint hit).

use crate::alloc::Snapshot;
use crate::grids::{self, BATCH};
use crate::report::{self, Checks, Metrics};
use crate::trace::{Facts, Tracer};
use crate::{trials, Args, THREADS};
use disp_analysis::TrialRecord;
use disp_campaign::grid::{CampaignSpec, TrialSpec};
use disp_campaign::run::run_campaign_batched;
use disp_campaign::telemetry::{Telemetry, TrialEvent, VecSink};
use disp_campaign::{run_campaign, CampaignStore};
use disp_core::scenario::Registry;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Repetitions per scenario.
const REPS: usize = 2;
/// Agent counts of the tiny grid: (6 families x 2 k x 16 scenarios - 5
/// line random walks at k = 64) x 2 repetitions = 374 trials.
const KS: [usize; 2] = [16, 64];

/// The set-up each pass repeats: grid validation and store creation.
fn set_up(
    labels: &[String],
    seed: u64,
    dir: &Path,
) -> Result<(Registry, CampaignSpec, CampaignStore, Vec<TrialSpec>), String> {
    let (registry, spec) = grids::campaign(labels, REPS, seed)?;
    let store = CampaignStore::create(dir, &spec, false)?;
    let grid = spec.trials();
    Ok((registry, spec, store, grid))
}

fn lines(records: &[TrialRecord]) -> Vec<String> {
    records.iter().map(TrialRecord::to_json_line).collect()
}

/// The store's checkpoint holds exactly the returned records.
fn check_store(checks: &mut Checks, store: &CampaignStore, records: &[TrialRecord]) {
    let on_disk = std::fs::read_to_string(store.trials_path()).map_err(|e| e.to_string());
    let mut expected = lines(records);
    expected.sort();
    let ok = on_disk.as_ref().is_ok_and(|text| {
        let mut got: Vec<&str> = text.lines().collect();
        got.sort_unstable();
        got == expected
    });
    checks.check(ok, || {
        format!(
            "checkpoint {} differs from the records",
            store.trials_path().display()
        )
    });
}

/// One engine call, timed in ms.
fn engine(
    spec: &CampaignSpec,
    store: &CampaignStore,
    registry: &Registry,
    telemetry: Option<&disp_campaign::TelemetryHandle>,
) -> Result<(Vec<TrialRecord>, disp_campaign::RunSummary, f64), String> {
    let t = Instant::now();
    let (records, summary) = run_campaign_batched(
        spec,
        Some(store),
        THREADS,
        BATCH,
        registry,
        &AtomicBool::new(false),
        telemetry,
    )?;
    Ok((records, summary, t.elapsed().as_secs_f64() * 1e3))
}

pub fn run(args: &Args) -> Result<(Checks, Metrics), String> {
    let labels = grids::tiny_grid(&KS);
    let work = crate::work_dir(args)?;
    let mut checks = Checks::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut facts = Facts::default();

    // Reference for the first pass: the plain in-memory, one-thread,
    // unbatched engine path.
    let seed0 = grids::derive(args.seed, "campaign", 0);
    let reference = {
        let (registry, spec, _, _) = set_up(&labels, seed0, &work.join("reference"))?;
        let (records, _) = run_campaign(&spec, None, 1, &registry)?;
        for r in &records {
            facts.count(&r.outcome);
        }
        lines(&records)
    };

    let mut setup_s = Vec::new();
    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    let mut per_trial_ms = Vec::new();
    let mut traced = Traced::default();
    let deadline = Instant::now() + args.seconds;
    let mut pass = 0u64;
    while pass == 0 || Instant::now() < deadline {
        let seed = grids::derive(args.seed, "campaign", pass);
        let dir = work.join(format!("pass-{pass}"));
        let t = Instant::now();
        let (registry, spec, store, grid) = set_up(&labels, seed, &dir.join("cold"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        let n = grid.len() as f64;

        // In a traced run the untraced and traced engine calls alternate
        // which goes first.
        let traced_first = tracer.enabled() && pass % 2 == 1;
        if traced_first {
            traced_pass(
                &mut tracer,
                &mut checks,
                &mut traced,
                &labels,
                seed,
                &dir,
                &reference,
                pass,
            )?;
        }
        let (records, summary, ms) = engine(&spec, &store, &registry, None)?;
        cold_ms.push(ms);
        per_trial_ms.push(ms * THREADS as f64 / n);
        grids::check_records(&mut checks, &grid, &records, "cold pass");
        checks.check(
            summary.executed == grid.len() && summary.skipped == 0,
            || format!("cold pass summary {summary:?}"),
        );
        if pass == 0 {
            checks.check(lines(&records) == reference, || {
                "first pass differs from the one-thread in-memory run".into()
            });
        }
        let (again, summary, ms) = engine(&spec, &store, &registry, None)?;
        warm_ms.push(ms);
        checks.check(
            summary.executed == 0 && summary.skipped == grid.len(),
            || format!("warm pass summary {summary:?}"),
        );
        checks.check(lines(&again) == lines(&records), || {
            "warm pass records differ from the cold pass".into()
        });
        check_store(&mut checks, &store, &records);
        if tracer.enabled() && !traced_first {
            traced_pass(
                &mut tracer,
                &mut checks,
                &mut traced,
                &labels,
                seed,
                &dir,
                &reference,
                pass,
            )?;
        }
        std::fs::remove_dir_all(&dir).ok();
        pass += 1;
    }

    if tracer.enabled() {
        (facts.alloc_count, facts.alloc_bytes) =
            replica_allocs(&mut checks, &labels, seed0, &work, &reference)?;
        facts.traced_activations = traced.activations;
        facts.engine_ms = report::mean(&traced.engine_ms);
        facts.steals = report::mean(&traced.steals);
        facts.overhead_pct = (report::mean(&traced.call_ms) / report::mean(&cold_ms) - 1.0) * 100.0;
        std::fs::remove_dir_all(&work).ok();
        crate::write_spans(&tracer, args)?;
        return Ok((checks, crate::trace::per_layer(&tracer, &facts)));
    }
    std::fs::remove_dir_all(&work).ok();
    let mut m = Metrics::default();
    m.put("setup_s", report::median(&setup_s), "s");
    m.put("trial_ms", report::lower_quartile(&per_trial_ms), "ms");
    m.put(
        "trials_per_s",
        reference.len() as f64 / (report::lower_quartile(&cold_ms) / 1e3),
        "1/s",
    );
    m.put("job_cold_ms", report::lower_quartile(&cold_ms), "ms");
    m.put("job_warm_ms", report::median(&warm_ms), "ms");
    Ok((checks, m))
}

/// What the traced passes measured.
#[derive(Default)]
struct Traced {
    /// Wall time of each traced engine call.
    call_ms: Vec<f64>,
    /// Engine call time not spent inside trials, per call.
    engine_ms: Vec<f64>,
    steals: Vec<f64>,
    /// Activations of every replayed trial.
    activations: u64,
}

/// A traced pass: the engine with telemetry under one `campaign.run`
/// span, then the same grid replayed one trial at a time through the
/// split spans plus `analysis.encode` and `campaign.checkpoint`.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    tracer: &mut Tracer,
    checks: &mut Checks,
    traced: &mut Traced,
    labels: &[String],
    seed: u64,
    dir: &Path,
    reference: &[String],
    pass: u64,
) -> Result<(), String> {
    let (registry, spec, store, grid) = set_up(labels, seed, &dir.join("traced"))?;
    let (sink, events) = VecSink::new();
    let telemetry = Telemetry::start(Box::new(sink));
    let span = tracer.open("campaign.run", pass);
    let (records, summary, ms) = engine(&spec, &store, &registry, Some(&telemetry.handle()))?;
    tracer.close(span);
    let dropped = telemetry.finish();
    let trial_us: u64 = events
        .lock()
        .expect("telemetry sink lock")
        .iter()
        .map(|e| match e {
            TrialEvent::Completed { wall_micros, .. } => *wall_micros,
            _ => 0,
        })
        .sum();
    traced.call_ms.push(ms);
    traced
        .engine_ms
        .push(ms - trial_us as f64 / 1e3 / THREADS as f64);
    traced.steals.push(summary.stats.steals as f64);
    checks.check(dropped == 0, || {
        format!("telemetry dropped {dropped} events")
    });
    grids::check_records(checks, &grid, &records, "traced pass");
    if pass == 0 {
        checks.check(lines(&records) == reference, || {
            "traced first pass differs from the reference".into()
        });
    }

    let (_, replica_spec, replica_store, _) = set_up(labels, seed, &dir.join("replica"))?;
    let (replica, _) = replay(tracer, &registry, &replica_spec, &replica_store, pass)?;
    traced.activations += replica.iter().map(|r| r.outcome.activations).sum::<u64>();
    checks.check(lines(&replica) == lines(&records), || {
        "replayed trials differ from the engine's".into()
    });
    Ok(())
}

/// The engine's per-trial path replayed on this thread: a fresh pool per
/// batch of `BATCH`, each record encoded and appended to the checkpoint.
fn replay(
    tracer: &mut Tracer,
    registry: &Registry,
    spec: &CampaignSpec,
    store: &CampaignStore,
    pass: u64,
) -> Result<(Vec<TrialRecord>, Snapshot), String> {
    let writer = store.appender()?;
    trials::replay(
        tracer,
        registry,
        &spec.trials(),
        BATCH,
        pass << 32,
        |tracer, id, record, _| {
            tracer.time("campaign.checkpoint", id, || writer.append(record));
        },
    )
}

/// Allocations per trial of the replayed first-pass grid, taken twice on
/// this thread alone: the two counts must agree exactly.
fn replica_allocs(
    checks: &mut Checks,
    labels: &[String],
    seed: u64,
    work: &Path,
    reference: &[String],
) -> Result<(f64, f64), String> {
    let mut counts = Vec::new();
    for round in 0..2 {
        let (registry, spec, store, _) =
            set_up(labels, seed, &work.join(format!("allocs-{round}")))?;
        let mut off = Tracer::new(false, Instant::now());
        let (records, allocs) = replay(&mut off, &registry, &spec, &store, 0)?;
        counts.push(allocs);
        checks.check(lines(&records) == reference, || {
            "replayed first pass differs from the reference".into()
        });
    }
    checks.check(counts[0] == counts[1], || {
        format!(
            "replay allocations differ: {:?} vs {:?}",
            counts[0], counts[1]
        )
    });
    let n = reference.len() as f64;
    Ok((counts[0].count as f64 / n, counts[0].bytes as f64 / n))
}
