//! The scenarios each workload runs, and the seeds derived for them.
//!
//! Trial units are sized so that each takes 3–20 ms on a 2-vCPU x86-64
//! host and none takes more than about a tenth of a pass: the round-robin
//! pass then spreads a slow phase of the host over every unit alike instead
//! of over whichever unit happened to be running.

use crate::report::Checks;
use disp_analysis::TrialRecord;
use disp_campaign::grid::{CampaignSpec, TrialSpec};
use disp_campaign::run::run_campaign_batched;
use disp_core::scenario::{Registry, ScenarioSpec};
use disp_rng::{fnv1a, mix};
use std::sync::atomic::AtomicBool;

/// `trials-sync`: rooted SYNC trials of the paper's algorithm, the
/// doubling-probe DFS and the KS baseline, on implicit (line, torus,
/// hypercube) and materialized (rtree, rreg4, er6) families.
pub const SYNC_UNITS: [&str; 18] = [
    "line/k256/rooted/sync/sync-seeker",
    "torus/k256/rooted/sync/sync-seeker",
    "hypercube/k256/rooted/sync/sync-seeker",
    "rtree/k256/rooted/sync/sync-seeker",
    "rreg4/k256/rooted/sync/sync-seeker",
    "er6/k256/rooted/sync/sync-seeker",
    "line/k8192/rooted/sync/probe-dfs",
    "torus/k8192/rooted/sync/probe-dfs",
    "hypercube/k2048/rooted/sync/probe-dfs",
    "rtree/k2048/rooted/sync/probe-dfs",
    "rreg4/k2048/rooted/sync/probe-dfs",
    "er6/k1024/rooted/sync/probe-dfs",
    "line/k512/rooted/sync/ks-dfs",
    "torus/k512/rooted/sync/ks-dfs",
    "hypercube/k512/rooted/sync/ks-dfs",
    "rtree/k512/rooted/sync/ks-dfs",
    "rreg4/k512/rooted/sync/ks-dfs",
    "er6/k256/rooted/sync/ks-dfs",
];

/// `trials-async`: the same construction under the three ASYNC
/// adversaries, plus one dynamic-ring and one crash-fault world. `ks-dfs`
/// pays ~600 ns per activation under `async-rand0.7`, so its units stay at
/// small k.
pub const ASYNC_UNITS: [&str; 14] = [
    "line/k4096/rooted/async-lag4/probe-dfs",
    "rreg4/k1024/rooted/async-lag4/probe-dfs",
    "torus/k2048/rooted/async-rand0.7/probe-dfs",
    "rtree/k1024/rooted/async-rand0.7/probe-dfs",
    "hypercube/k2048/rooted/async-target4/probe-dfs",
    "er6/k1024/rooted/async-target4/probe-dfs",
    "line/k128/rooted/async-lag4/ks-dfs",
    "hypercube/k128/rooted/async-lag4/ks-dfs",
    "rtree/k128/rooted/async-rand0.7/ks-dfs",
    "er6/k64/rooted/async-rand0.7/ks-dfs",
    "rreg4/k256/rooted/async-target4/ks-dfs",
    "line/k512/rooted/async-target4/ks-dfs",
    "ring/k2048/rooted/async-lag4/dyn-ring1/probe-dfs",
    "er6/k1024/rooted/async-lag4/crash8/random-walk",
];

const TINY_FAMILIES: [&str; 6] = ["line", "torus", "hypercube", "rtree", "rreg4", "er6"];
const ASYNC_SCHEDULES: [&str; 4] = ["async-rr", "async-lag4", "async-rand0.7", "async-target4"];

/// A grid of tiny trials covering every family, schedule and algorithm:
/// 16 scenarios per family and k, except that `random-walk` runs on the
/// line only at k = 16. A random walk needs Θ(k²) rounds to spread over a
/// path, and at k = 64 the default round budget (39,680 rounds) is only
/// about ten times that: one `line/k64/rooted/sync/random-walk` trial in
/// roughly 5,000 seeds ends undispersed at the limit, which would make the
/// benchmark's correctness check fail at random.
pub fn tiny_grid(ks: &[usize]) -> Vec<String> {
    let mut out = Vec::new();
    for family in TINY_FAMILIES {
        for &k in ks {
            let walk = family != "line" || k <= 16;
            for algo in ["sync-seeker", "probe-dfs", "ks-dfs", "random-walk"] {
                if algo != "random-walk" || walk {
                    out.push(format!("{family}/k{k}/rooted/sync/{algo}"));
                }
            }
            for schedule in ASYNC_SCHEDULES {
                for algo in ["probe-dfs", "ks-dfs", "random-walk"] {
                    if algo != "random-walk" || walk {
                        out.push(format!("{family}/k{k}/rooted/{schedule}/{algo}"));
                    }
                }
            }
        }
    }
    out
}

/// The seed of one generated input: a pure function of the workload seed,
/// a stream tag and an index, so the same `--seed` gives the same inputs.
pub fn derive(seed: u64, tag: &str, index: u64) -> u64 {
    mix(&[seed, fnv1a(tag.as_bytes()), index])
}

/// Trials per stolen engine batch, as `disp-campaign run --batch 32`.
pub const BATCH: usize = 32;

/// Parse and validate `labels` into a campaign of `reps` repetitions.
pub fn campaign(
    labels: &[String],
    reps: usize,
    seed: u64,
) -> Result<(Registry, CampaignSpec), String> {
    let registry = Registry::builtin();
    let scenarios = labels
        .iter()
        .map(|label| ScenarioSpec::parse(label, &registry).map_err(|e| format!("{label}: {e}")))
        .collect::<Result<Vec<_>, String>>()?;
    Ok((registry, CampaignSpec::custom(scenarios, reps, seed)))
}

/// The records `run_campaign_batched` returns for `spec` without a store.
pub fn offline(spec: &CampaignSpec, registry: &Registry) -> Result<Vec<TrialRecord>, String> {
    let (records, _) = run_campaign_batched(
        spec,
        None,
        crate::THREADS,
        BATCH,
        registry,
        &AtomicBool::new(false),
        None,
    )?;
    Ok(records)
}

/// Every grid trial present in grid order with its derived seed,
/// terminated and dispersed: one check per slot, plus one for the count.
pub fn check_records(checks: &mut Checks, grid: &[TrialSpec], records: &[TrialRecord], what: &str) {
    checks.check(records.len() == grid.len(), || {
        format!(
            "{what}: {} records for {} trials",
            records.len(),
            grid.len()
        )
    });
    for (trial, record) in grid.iter().zip(records) {
        let ok = record.trial_id() == trial.trial_id()
            && record.seed == trial.seed
            && record.dispersed
            && record.outcome.terminated;
        checks.check(ok, || {
            format!("{what}: {} -> {}", trial.trial_id(), record.to_json_line())
        });
    }
}
