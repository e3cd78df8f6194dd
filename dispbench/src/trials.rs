//! `trials-sync` and `trials-async`: fixed (scenario, seed) units run
//! round-robin on one thread, each pass running every unit once through a
//! fresh `WorldPool` (cold) and once through the unit's own warm pool.

use crate::alloc::Snapshot;
use crate::report::{mean, median, Checks, Metrics};
use crate::trace::{Facts, Tracer};
use crate::{grids, Args};
use disp_analysis::TrialRecord;
use disp_campaign::grid::TrialSpec;
use disp_core::scenario::{Registry, ScenarioError, ScenarioReport, ScenarioSpec};
use disp_core::verify;
use disp_sim::{AgentProtocol, AsyncRunner, Outcome, RunError, SyncRunner, World, WorldPool};
use std::time::Instant;

struct Unit {
    label: &'static str,
    spec: ScenarioSpec,
    seed: u64,
    pool: WorldPool,
    traced_pool: WorldPool,
    reference: Outcome,
    /// Allocations of one warm-pool trial; must repeat exactly.
    warm_alloc: Snapshot,
    warm_ms: Vec<f64>,
}

/// The set-up every pass repeats: registry, scenario parsing and the
/// expansion of the unit list into (scenario, seed) pairs.
fn expand(
    labels: &[&'static str],
    seed: u64,
) -> Result<(Registry, Vec<(ScenarioSpec, u64)>), String> {
    let registry = Registry::builtin();
    let units = labels
        .iter()
        .map(|label| {
            let spec =
                ScenarioSpec::parse(label, &registry).map_err(|e| format!("{label}: {e}"))?;
            Ok((spec, grids::derive(seed, label, 0)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((registry, units))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A trial is correct when it terminated dispersed with exactly the
/// unit's reference outcome.
fn check_trial(
    checks: &mut Checks,
    unit: &Unit,
    report: &Result<ScenarioReport, ScenarioError>,
    path: &str,
) {
    let ok = matches!(report, Ok(r) if r.dispersed && r.outcome.terminated && r.outcome == unit.reference);
    checks.check(ok, || format!("{} ({path}): {report:?}", unit.label));
}

/// The runner `ScenarioSpec::run_pooled` drives, rebuilt from the spec's
/// public parts so the traced run can time it on its own.
fn run_runner(
    spec: &ScenarioSpec,
    world: &mut World,
    protocol: &mut dyn AgentProtocol,
    seed: u64,
) -> Result<Outcome, RunError> {
    let config = spec.run_config(world);
    let (dynamics, crashes) = spec.build_faults(world.num_agents(), seed);
    match spec.build_adversary(world.num_agents(), seed) {
        None => {
            let mut runner = SyncRunner::new(config);
            if let Some(d) = dynamics {
                runner = runner.with_dynamics(d);
            }
            if let Some(c) = crashes {
                runner = runner.with_crashes(c);
            }
            runner.run(world, protocol)
        }
        Some(adversary) => {
            let mut runner = AsyncRunner::new(config, adversary);
            if let Some(d) = dynamics {
                runner = runner.with_dynamics(d);
            }
            if let Some(c) = crashes {
                runner = runner.with_crashes(c);
            }
            runner.run(world, protocol)
        }
    }
}

pub fn run(args: &Args, labels: &[&'static str]) -> Result<(Checks, Metrics), String> {
    let mut checks = Checks::default();
    let origin = Instant::now();

    // The first set-up, then untimed warm-up: every unit's pools are
    // filled and its reference outcome recorded.
    let t = Instant::now();
    let (registry, specs) = expand(labels, args.seed)?;
    let first = specs[0]
        .0
        .run_pooled(&registry, specs[0].1, &mut WorldPool::new());
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut units = Vec::with_capacity(specs.len());
    for ((spec, seed), &label) in specs.into_iter().zip(labels) {
        let mut pool = WorldPool::new();
        let mut traced_pool = WorldPool::new();
        let report = spec
            .run_pooled(&registry, seed, &mut pool)
            .map_err(|e| format!("{label}: {e}"))?;
        spec.run_pooled(&registry, seed, &mut traced_pool)
            .map_err(|e| format!("{label}: {e}"))?;
        let a = Snapshot::now();
        let again = spec.run_pooled(&registry, seed, &mut pool);
        let warm_alloc = a.since();
        let unit = Unit {
            label,
            spec,
            seed,
            pool,
            traced_pool,
            reference: report.outcome.clone(),
            warm_alloc,
            warm_ms: Vec::new(),
        };
        let ok = report.dispersed && report.outcome.terminated;
        checks.check(ok, || format!("{label} (reference): {report:?}"));
        check_trial(&mut checks, &unit, &again, "warm-up");
        units.push(unit);
    }
    check_trial(&mut checks, &units[0], &first, "set-up");

    let mut tracer = Tracer::new(args.trace, origin);
    let mut facts = Facts::default();
    for u in &units {
        facts.count(&u.reference);
    }
    facts.alloc_count =
        units.iter().map(|u| u.warm_alloc.count as f64).sum::<f64>() / units.len() as f64;
    facts.alloc_bytes =
        units.iter().map(|u| u.warm_alloc.bytes as f64).sum::<f64>() / units.len() as f64;

    let mut cold_pass_ms = Vec::new();
    let mut warm_pass_ms = Vec::new();
    let mut pass_rate = Vec::new();
    let mut untraced_ns = 0u64;
    let deadline = Instant::now() + args.seconds;
    let mut pass = 0u64;
    while pass == 0 || Instant::now() < deadline {
        let t = Instant::now();
        let (registry, specs) = expand(labels, args.seed)?;
        let first = specs[0]
            .0
            .run_pooled(&registry, specs[0].1, &mut WorldPool::new());
        setup_s.push(t.elapsed().as_secs_f64());
        check_trial(&mut checks, &units[0], &first, "set-up");

        let began = Instant::now();
        let (mut cold_sum, mut warm_sum) = (0.0, 0.0);
        for (i, u) in units.iter_mut().enumerate() {
            if tracer.enabled() {
                // Each unit runs traced and untraced; which goes first
                // alternates, so neither always runs on caches the other
                // warmed.
                let id = pass * labels.len() as u64 + i as u64;
                for traced in [!pass.is_multiple_of(2), pass.is_multiple_of(2)] {
                    if traced {
                        traced_trial(&mut tracer, &mut checks, &mut facts, &registry, u, id);
                    } else {
                        let t = Instant::now();
                        let report = u.spec.run_pooled(&registry, u.seed, &mut u.pool);
                        untraced_ns += t.elapsed().as_nanos() as u64;
                        check_trial(&mut checks, u, &report, "untraced");
                    }
                }
                continue;
            }
            let t = Instant::now();
            let report = u.spec.run_pooled(&registry, u.seed, &mut WorldPool::new());
            cold_sum += ms_since(t);
            check_trial(&mut checks, u, &report, "cold");

            let a = Snapshot::now();
            let t = Instant::now();
            let report = u.spec.run_pooled(&registry, u.seed, &mut u.pool);
            let warm = ms_since(t);
            let alloc = a.since();
            warm_sum += warm;
            u.warm_ms.push(warm);
            check_trial(&mut checks, u, &report, "warm");
            checks.check(alloc == u.warm_alloc, || {
                format!(
                    "{}: warm trial allocated {alloc:?}, first {:?}",
                    u.label, u.warm_alloc
                )
            });
        }
        pass_rate.push((2 * units.len()) as f64 / began.elapsed().as_secs_f64());
        cold_pass_ms.push(cold_sum);
        warm_pass_ms.push(warm_sum);
        pass += 1;
    }

    if tracer.enabled() {
        let traced_ns = tracer.layers().get("trial").map_or(0, |l| l.busy_ns);
        facts.overhead_pct = (traced_ns as f64 / untraced_ns as f64 - 1.0) * 100.0;
        crate::write_spans(&tracer, args)?;
        return Ok((checks, crate::trace::per_layer(&tracer, &facts)));
    }
    // Per unit first, then over the units, so every unit weighs the same.
    let per_unit: Vec<f64> = units.iter().map(|u| mean(&u.warm_ms)).collect();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("trial_ms", mean(&per_unit), "ms");
    m.put("trials_per_s", mean(&pass_rate), "1/s");
    m.put("job_cold_ms", mean(&cold_pass_ms), "ms");
    m.put("job_warm_ms", mean(&warm_pass_ms), "ms");
    Ok((checks, m))
}

/// `run_pooled` split into its three public steps, each in a span under
/// one `trial` span: returns the outcome and whether the world ended
/// dispersed.
fn split_run(
    tracer: &mut Tracer,
    registry: &Registry,
    spec: &ScenarioSpec,
    seed: u64,
    pool: &mut WorldPool,
    id: u64,
) -> Result<(Outcome, bool), String> {
    let trial = tracer.open("trial", id);
    let built = tracer.time("core.build", id, || spec.build_pooled(registry, seed, pool));
    let (mut world, mut protocol) = match built {
        Ok(pair) => pair,
        Err(e) => {
            tracer.close(trial);
            return Err(format!("{}: {e}", spec.label()));
        }
    };
    let run = tracer.open("sim.run", id);
    let outcome = run_runner(spec, &mut world, protocol.as_mut(), seed);
    tracer.close(run);
    let dispersed = tracer.time("core.verify", id, || {
        verify::is_dispersed_at(&world, spec.min_distance)
    });
    pool.put(world);
    tracer.close(trial);
    let outcome = outcome.map_err(|e| format!("{}: {e}", spec.label()))?;
    Ok((outcome, dispersed))
}

/// A unit's traced trial, checked against its reference outcome.
fn traced_trial(
    tracer: &mut Tracer,
    checks: &mut Checks,
    facts: &mut Facts,
    registry: &Registry,
    u: &mut Unit,
    id: u64,
) {
    let result = split_run(tracer, registry, &u.spec, u.seed, &mut u.traced_pool, id);
    if let Ok((outcome, _)) = &result {
        facts.traced_activations += outcome.activations;
    }
    let ok = matches!(&result, Ok((o, true)) if *o == u.reference);
    checks.check(ok, || format!("{} (traced): {result:?}", u.label));
}

/// One grid trial through the traced split, as the record the campaign
/// engine and the serve executor produce for it.
pub fn replica_trial(
    tracer: &mut Tracer,
    registry: &Registry,
    trial: &TrialSpec,
    pool: &mut WorldPool,
    id: u64,
) -> Result<TrialRecord, String> {
    let spec = &trial.point.scenario;
    let (outcome, dispersed) = split_run(tracer, registry, spec, trial.seed, pool, id)?;
    Ok(TrialRecord {
        point: trial.point.clone(),
        rep: trial.rep,
        seed: trial.seed,
        outcome,
        dispersed,
    })
}

/// A grid replayed one trial at a time on this thread, the way the
/// campaign engine and the serve executor run it: each trial through the
/// split spans and encoded under `analysis.encode`, then handed with its
/// line to `sink` (a checkpoint append, a trial-cache insert). A fresh pool
/// serves each run of `batch` trials. Returns the records and the
/// allocations made inside those calls.
pub fn replay(
    tracer: &mut Tracer,
    registry: &Registry,
    grid: &[TrialSpec],
    batch: usize,
    id_base: u64,
    mut sink: impl FnMut(&mut Tracer, u64, &TrialRecord, &str),
) -> Result<(Vec<TrialRecord>, Snapshot), String> {
    let mut records = Vec::with_capacity(grid.len());
    let mut allocs = Snapshot::default();
    for (b, chunk) in grid.chunks(batch).enumerate() {
        let mut pool = WorldPool::new();
        for (i, trial) in chunk.iter().enumerate() {
            let id = id_base | (b * batch + i) as u64;
            let a = Snapshot::now();
            let record = replica_trial(tracer, registry, trial, &mut pool, id)?;
            let line = tracer.time("analysis.encode", id, || record.to_json_line());
            sink(tracer, id, &record, &line);
            drop(line);
            allocs.add(a.since());
            records.push(record);
        }
    }
    Ok((records, allocs))
}
