//! The trial pipeline: the one path every trial takes to the simulator —
//! the CLI's `run`/`resume`, the campaign API, `disp-serve` jobs and
//! cluster workers alike.
//!
//! ```text
//! plan     validate every slot against the registry; look each slot up
//!          once in the store; dedupe the misses by trial id
//! execute  cut the misses into contiguous batches; run them on
//!          `parallel_map`, one warm `WorldPool` per engine thread; insert
//!          each fresh record into the store as it finishes
//! assemble the grid in order: held records, fresh ones, repeated slots
//!          filled from their miss; a hole is an error
//! ```
//!
//! [`run_trials`] chains the three stages. The cluster coordinator keeps
//! the plan and assembly stages and swaps execution for its lease board;
//! a cluster worker plans and executes the slots its coordinator lacks.
//! The store is the [`TrialStore`] seam: the campaign checkpoint
//! ([`crate::store::Checkpoint`]) or the service's trial cache.

use crate::engine::{parallel_map, EngineStats};
use crate::grid::{CampaignSpec, TrialSpec};
use crate::store::{CampaignStore, TrialStore};
use crate::telemetry::{timeline_to_jsonl, TelemetryHandle, TimelineSidecar, TrialEvent};
use disp_analysis::TrialRecord;
use disp_core::scenario::Registry;
use disp_sim::{TimelineRecorder, WorldPool};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a pipeline run did.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Slots in the grid.
    pub total: usize,
    /// Slots the store already held.
    pub skipped: usize,
    /// Trials executed in this call (a trial listed twice runs once).
    pub executed: usize,
    /// Wall-clock time of the execution stage.
    pub wall: Duration,
    /// Engine execution counters; [`EngineStats::per_worker`] counts
    /// batches, the stealing unit.
    pub stats: EngineStats,
    /// Whether the cancellation latch cut the run short — `true` means
    /// some slots were neither held nor executed (the checkpoint, if any,
    /// is a valid prefix to `resume` from).
    pub cancelled: bool,
}

/// How a pipeline run executes — today's engine knobs and observers in one
/// value. None of them changes a byte of any record.
#[derive(Clone, Copy)]
pub struct RunOptions<'a> {
    /// Engine worker threads.
    pub threads: usize,
    /// Contiguous misses per stealing unit. Each batch runs sequentially
    /// on one engine thread; `1` steals single trials.
    pub batch: usize,
    /// Cooperative cancellation latch, checked before each trial starts:
    /// a set latch drains the queue in microseconds while trials in
    /// flight finish and reach the store normally.
    pub cancel: Option<&'a AtomicBool>,
    /// Live per-trial events: `cached` for store hits up front, then
    /// `started`/`completed` (with wall-clock micros) per executed trial.
    pub telemetry: Option<&'a TelemetryHandle>,
    /// Flight-recorder sidecar: one decimated timeline chunk per executed
    /// trial, appended as it finishes.
    pub timelines: Option<&'a TimelineSidecar>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            threads: 1,
            batch: 1,
            cancel: None,
            telemetry: None,
            timelines: None,
        }
    }
}

/// How a planned slot gets its record.
#[derive(Debug)]
pub enum Fill {
    /// The store already held it.
    Held(Box<TrialRecord>),
    /// Entry `m` of [`Plan::misses`] produces it.
    Miss(usize),
}

/// A grid after the plan stage: every slot valid, looked up once, and
/// either held or mapped to one distinct miss.
#[derive(Debug)]
pub struct Plan {
    grid: Vec<TrialSpec>,
    fills: Vec<Fill>,
    /// Grid index of each distinct miss's first slot, in grid order.
    misses: Vec<usize>,
}

/// One executed trial: its record and wall-clock micros (non-content).
pub type Fresh = (TrialRecord, u64);

thread_local! {
    /// The warm world pool of each engine thread: every trial a thread runs
    /// is built in the buffers its previous trial left behind. Pooling is
    /// state identity, so it never changes a record.
    static POOL: RefCell<WorldPool> = RefCell::new(WorldPool::new());
}

impl Plan {
    /// The plan stage. Every slot is validated against `registry` — an
    /// illegal combination is a typed error before anything runs — and
    /// looked up once in `store`; a hit is announced on `telemetry` as
    /// [`TrialEvent::Cached`], in grid order. Misses are deduplicated by
    /// trial id: a grid that lists one trial twice executes it once.
    pub fn new(
        grid: Vec<TrialSpec>,
        registry: &Registry,
        store: Option<&dyn TrialStore>,
        telemetry: Option<&TelemetryHandle>,
    ) -> Result<Plan, String> {
        for trial in &grid {
            let scenario = &trial.point.scenario;
            scenario
                .validate(registry)
                .map_err(|e| format!("scenario '{}': {e}", scenario.label()))?;
        }
        let mut misses = Vec::new();
        let mut first: HashMap<String, usize> = HashMap::new();
        let fills = grid
            .iter()
            .enumerate()
            .map(|(slot, trial)| match store.and_then(|s| s.lookup(trial)) {
                Some(record) => {
                    if let Some(telemetry) = telemetry {
                        telemetry.emit(TrialEvent::cached(&record));
                    }
                    Fill::Held(Box::new(record))
                }
                None => Fill::Miss(*first.entry(trial.trial_id()).or_insert_with(|| {
                    misses.push(slot);
                    misses.len() - 1
                })),
            })
            .collect();
        Ok(Plan {
            grid,
            fills,
            misses,
        })
    }

    /// How each slot gets its record, in grid order.
    pub fn fills(&self) -> &[Fill] {
        &self.fills
    }

    /// The distinct trials the store lacks, in grid order.
    pub fn misses(&self) -> impl Iterator<Item = &TrialSpec> {
        self.misses.iter().map(|&slot| &self.grid[slot])
    }

    /// Slots the store held.
    pub fn held(&self) -> usize {
        self.fills
            .iter()
            .filter(|f| matches!(f, Fill::Held(_)))
            .count()
    }

    /// Slots filled from a miss that an earlier slot of the same trial
    /// already accounts for.
    pub fn repeats(&self) -> usize {
        self.grid.len() - self.held() - self.misses.len()
    }

    /// The execution stage: the misses, cut into contiguous batches of
    /// `opts.batch`, stolen by `opts.threads` engine threads, each trial
    /// built in its thread's warm pool. Every fresh record goes into
    /// `store` on the thread that ran it, as soon as it finishes, so a
    /// kill loses at most the trials in flight. Returns one entry per
    /// miss, `None` where the latch stopped the trial from starting.
    pub fn execute(
        &self,
        registry: &Registry,
        store: Option<&dyn TrialStore>,
        opts: &RunOptions,
    ) -> (Vec<Option<Fresh>>, EngineStats) {
        let run_one = |trial: &TrialSpec, pool: &mut WorldPool| -> Option<Fresh> {
            if opts.cancel.is_some_and(|c| c.load(Ordering::SeqCst)) {
                return None;
            }
            if let Some(telemetry) = opts.telemetry {
                telemetry.emit(TrialEvent::started(&trial.point.point_id(), trial.rep));
            }
            let begun = Instant::now();
            let mut recorder = opts.timelines.map(|_| TimelineRecorder::new());
            let (rep, seed) = (trial.rep, trial.seed);
            let record = match recorder.as_mut() {
                Some(rec) => trial.point.run_trial_pooled(registry, rep, seed, pool, rec),
                None => trial
                    .point
                    .run_trial_pooled(registry, rep, seed, pool, &mut ()),
            };
            let wall_micros = begun.elapsed().as_micros() as u64;
            if let (Some(sidecar), Some(recorder)) = (opts.timelines, recorder) {
                let label = trial.point.point_id();
                sidecar.append(&timeline_to_jsonl(&recorder.finish(), &label, seed));
            }
            if let Some(store) = store {
                store.insert(&record);
            }
            if let Some(telemetry) = opts.telemetry {
                telemetry.emit(TrialEvent::completed(&record, wall_micros));
            }
            Some((record, wall_micros))
        };
        let batches: Vec<&[usize]> = self.misses.chunks(opts.batch.max(1)).collect();
        let (nested, stats) = parallel_map(batches, opts.threads, |_, batch| {
            POOL.with_borrow_mut(|pool| {
                batch
                    .iter()
                    .map(|&slot| run_one(&self.grid[slot], pool))
                    .collect::<Vec<_>>()
            })
        });
        (nested.into_iter().flatten().collect(), stats)
    }

    /// The assembly stage: every slot's record in grid order — held
    /// records as looked up, each miss's record (`fresh[m]`, aligned with
    /// [`Plan::misses`]) in every slot it fills. A slot left without a
    /// record is an error naming it, never a silent gap.
    pub fn assemble(self, fresh: Vec<Option<TrialRecord>>) -> Result<Vec<TrialRecord>, String> {
        self.grid
            .iter()
            .zip(self.fills)
            .map(|(trial, fill)| match fill {
                Fill::Held(record) => Ok(*record),
                Fill::Miss(m) => fresh
                    .get(m)
                    .cloned()
                    .flatten()
                    .ok_or_else(|| format!("no record for trial '{}'", trial.trial_id())),
            })
            .collect()
    }
}

/// The whole pipeline over `grid`: plan → execute → assemble, through
/// `store` when given. Returns every slot's record in grid order — held or
/// executed in this call — plus a summary. A cancelled run returns no
/// records (`summary.cancelled`); its store holds what did finish.
pub fn run_trials(
    grid: Vec<TrialSpec>,
    registry: &Registry,
    store: Option<&dyn TrialStore>,
    opts: &RunOptions,
) -> Result<(Vec<TrialRecord>, RunSummary), String> {
    let plan = Plan::new(grid, registry, store, opts.telemetry)?;
    let start = Instant::now();
    let (fresh, stats) = plan.execute(registry, store, opts);
    let executed = fresh.iter().flatten().count();
    let summary = RunSummary {
        total: plan.grid.len(),
        skipped: plan.held(),
        executed,
        wall: start.elapsed(),
        stats,
        cancelled: executed < fresh.len(),
    };
    if summary.cancelled {
        return Ok((Vec::new(), summary));
    }
    let fresh = fresh.into_iter().map(|f| f.map(|(record, _)| record));
    Ok((plan.assemble(fresh.collect())?, summary))
}

/// Execute `spec` on `threads` workers, resolving algorithms through
/// `registry` — pass [`Registry::builtin`] for the paper's algorithms, or
/// a registry extended with your own factories.
///
/// With a store, trials already in its checkpoint are skipped and every
/// finished trial is appended and flushed as it completes; without one the
/// campaign runs purely in memory. Returns the **complete** record set for
/// the grid in deterministic grid order, plus a summary. See
/// [`run_trials`] for the pipeline behind it.
pub fn run_campaign(
    spec: &CampaignSpec,
    store: Option<&CampaignStore>,
    threads: usize,
    registry: &Registry,
) -> Result<(Vec<TrialRecord>, RunSummary), String> {
    run_campaign_batched(
        spec,
        store,
        threads,
        1,
        registry,
        &AtomicBool::new(false),
        None,
    )
}

/// [`run_campaign`] with the remaining engine knobs spelled out: `batch`
/// contiguous trials per stealing unit, a cancellation latch and a
/// live-telemetry handle (see [`RunOptions`]). Results and checkpoints are
/// byte-identical for every thread count, batch size and observer setting.
pub fn run_campaign_batched(
    spec: &CampaignSpec,
    store: Option<&CampaignStore>,
    threads: usize,
    batch: usize,
    registry: &Registry,
    cancel: &AtomicBool,
    telemetry: Option<&TelemetryHandle>,
) -> Result<(Vec<TrialRecord>, RunSummary), String> {
    let checkpoint = store.map(CampaignStore::checkpoint).transpose()?;
    let opts = RunOptions {
        threads,
        batch,
        cancel: Some(cancel),
        telemetry,
        timelines: None,
    };
    let store = checkpoint.as_ref().map(|c| c as &dyn TrialStore);
    run_trials(spec.trials(), registry, store, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Mode;
    use disp_core::scenario::{ScenarioSpec, Schedule};
    use disp_graph::generators::GraphFamily;
    use disp_sim::Placement;

    fn reg() -> Registry {
        Registry::builtin()
    }

    fn tiny_spec(seed: u64) -> CampaignSpec {
        let mut spec = CampaignSpec::table1(Mode::Quick, seed);
        // Shrink to a fast subset: one section, small k only.
        spec.sections.truncate(1);
        spec.sections[0].points.retain(|p| p.scenario.k <= 32);
        spec
    }

    #[test]
    fn in_memory_run_covers_the_grid_in_order() {
        let spec = tiny_spec(3);
        let (records, summary) = run_campaign(&spec, None, 2, &reg()).unwrap();
        assert_eq!(records.len(), summary.total);
        assert_eq!(summary.skipped, 0);
        assert_eq!(summary.executed, summary.total);
        let expected: Vec<String> = spec.trials().iter().map(|t| t.trial_id()).collect();
        let got: Vec<String> = records.iter().map(TrialRecord::trial_id).collect();
        assert_eq!(got, expected);
        assert!(records.iter().all(|r| r.dispersed));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = tiny_spec(4);
        let (a, _) = run_campaign(&spec, None, 1, &reg()).unwrap();
        let (b, _) = run_campaign(&spec, None, 4, &reg()).unwrap();
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        assert_eq!(lines(&a), lines(&b));
    }

    #[test]
    fn checkpointed_run_resumes_without_recomputing() {
        let dir =
            std::env::temp_dir().join(format!("disp-campaign-run-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_spec(5);
        let grid = spec.trials();
        let registry = reg();

        // Simulate a killed run: checkpoint only the first third by hand.
        let store = CampaignStore::create(&dir, &spec, false).unwrap();
        let writer = store.appender().unwrap();
        let prefix = grid.len() / 3;
        for t in &grid[..prefix] {
            writer.append(&t.point.run_trial(&registry, t.rep, t.seed));
        }
        drop(writer);

        let (records, summary) = run_campaign(&spec, Some(&store), 2, &registry).unwrap();
        assert_eq!(summary.total, grid.len());
        assert_eq!(summary.skipped, prefix);
        assert_eq!(summary.executed, grid.len() - prefix);
        assert_eq!(records.len(), grid.len());

        // A second resume has nothing left to do and returns identical data.
        let (again, summary2) = run_campaign(&spec, Some(&store), 2, &registry).unwrap();
        assert_eq!(summary2.executed, 0);
        assert_eq!(summary2.skipped, grid.len());
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        assert_eq!(lines(&records), lines(&again));

        // And the checkpoint file matches an unstored run, line for line.
        let (memory, _) = run_campaign(&spec, None, 1, &registry).unwrap();
        let mut on_disk: Vec<String> = store
            .read_trials()
            .unwrap()
            .records
            .iter()
            .map(TrialRecord::to_json_line)
            .collect();
        let mut in_memory = lines(&memory);
        on_disk.sort();
        in_memory.sort();
        assert_eq!(on_disk, in_memory);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaigns_with_async_schedules_disperse() {
        let spec = CampaignSpec {
            name: "table1".into(),
            mode: Mode::Quick,
            seed: 11,
            sections: vec![crate::grid::Section::new(
                "async-mini",
                "mini async",
                crate::grid::section_points(
                    &[GraphFamily::Star, GraphFamily::RandomTree],
                    &[16],
                    &["ks-dfs", "probe-dfs"],
                    Placement::Rooted,
                    Schedule::AsyncRandom { prob: 0.7 },
                    2,
                ),
            )],
        };
        let (records, _) = run_campaign(&spec, None, 2, &reg()).unwrap();
        assert_eq!(records.len(), 2 * 2 * 2);
        assert!(records.iter().all(|r| r.dispersed));
        assert!(records.iter().all(|r| r.outcome.epochs >= 1));
    }

    #[test]
    fn pre_set_cancel_latch_executes_nothing_and_reports_cancelled() {
        let spec = tiny_spec(6);
        let cancel = AtomicBool::new(true);
        let (records, summary) =
            run_campaign_batched(&spec, None, 2, 1, &reg(), &cancel, None).unwrap();
        assert!(records.is_empty());
        assert_eq!(summary.executed, 0);
        assert!(summary.cancelled);
        assert_eq!(summary.total, spec.trials().len());
    }

    #[test]
    fn cancelled_checkpoint_is_a_resumable_prefix() {
        let dir =
            std::env::temp_dir().join(format!("disp-campaign-cancel-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_spec(7);
        let registry = reg();
        let store = CampaignStore::create(&dir, &spec, false).unwrap();

        // Latch trips after the third completed trial: the rest of the grid
        // must be skipped, and what is on disk must be a clean prefix.
        let cancel = AtomicBool::new(false);
        let done = std::sync::atomic::AtomicUsize::new(0);
        let latching = {
            let cancel = &cancel;
            let done = &done;
            move || {
                if done.fetch_add(1, Ordering::SeqCst) + 1 >= 3 {
                    cancel.store(true, Ordering::SeqCst);
                }
            }
        };
        // Drive the latch from on_done via a wrapper campaign run: use one
        // thread so exactly 3 trials complete before the latch trips.
        let grid = spec.trials();
        let writer = store.appender().unwrap();
        for t in &grid {
            if cancel.load(Ordering::SeqCst) {
                break;
            }
            writer.append(&t.point.run_trial(&registry, t.rep, t.seed));
            latching();
        }
        drop(writer);
        assert!(cancel.load(Ordering::SeqCst));

        // Resuming with a clear latch finishes the grid and matches an
        // uninterrupted run record-for-record.
        let clear = AtomicBool::new(false);
        let (records, summary) =
            run_campaign_batched(&spec, Some(&store), 2, 1, &registry, &clear, None).unwrap();
        assert!(!summary.cancelled);
        assert_eq!(summary.skipped, 3);
        let (full, _) = run_campaign(&spec, None, 1, &registry).unwrap();
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        assert_eq!(lines(&records), lines(&full));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_mode_matches_unbatched_across_thread_counts_and_batch_sizes() {
        let spec = tiny_spec(12);
        let none = AtomicBool::new(false);
        let (reference, _) = run_campaign(&spec, None, 1, &reg()).unwrap();
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        for threads in [1, 4] {
            for batch in [2, 7, 1000] {
                let (records, summary) =
                    run_campaign_batched(&spec, None, threads, batch, &reg(), &none, None).unwrap();
                assert_eq!(
                    lines(&records),
                    lines(&reference),
                    "threads={threads} batch={batch}"
                );
                assert_eq!(summary.executed, reference.len());
                assert!(!summary.cancelled);
            }
        }
    }

    #[test]
    fn batched_checkpoint_resumes_into_identical_records() {
        let dir = std::env::temp_dir().join(format!(
            "disp-campaign-batch-resume-test-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_spec(13);
        let registry = reg();
        let grid = spec.trials();

        // Simulate a mid-batch kill: checkpoint an arbitrary partial subset
        // (not even a prefix — batch completion order is not grid order).
        let store = CampaignStore::create(&dir, &spec, false).unwrap();
        let writer = store.appender().unwrap();
        for t in grid.iter().skip(1).step_by(2) {
            writer.append(&t.point.run_trial(&registry, t.rep, t.seed));
        }
        drop(writer);

        let none = AtomicBool::new(false);
        let (records, summary) =
            run_campaign_batched(&spec, Some(&store), 2, 3, &registry, &none, None).unwrap();
        assert_eq!(summary.skipped, grid.len() / 2);
        let (full, _) = run_campaign(&spec, None, 1, &registry).unwrap();
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        assert_eq!(lines(&records), lines(&full));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timeline_recording_never_changes_results() {
        // Satellite acceptance: `trials.jsonl` content is byte-identical
        // with the flight recorder on and off, across thread counts and
        // batch sizes.
        let spec = tiny_spec(14);
        let (reference, _) = run_campaign(&spec, None, 1, &reg()).unwrap();
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        let dir = std::env::temp_dir().join(format!(
            "disp-campaign-timeline-sidecar-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for threads in [1, 4] {
            for batch in [1, 32] {
                let path = dir.join(format!("timelines-t{threads}-b{batch}.jsonl"));
                let sidecar = TimelineSidecar::create(&path).unwrap();
                let opts = RunOptions {
                    threads,
                    batch,
                    timelines: Some(&sidecar),
                    ..RunOptions::default()
                };
                let (records, summary) = run_trials(spec.trials(), &reg(), None, &opts).unwrap();
                assert_eq!(
                    lines(&records),
                    lines(&reference),
                    "threads={threads} batch={batch}"
                );
                assert_eq!(summary.executed, reference.len());
                // One whole timeline chunk per executed trial, never
                // interleaved: starts and ends pair up in order.
                let sidecar_text = std::fs::read_to_string(&path).unwrap();
                let starts = sidecar_text
                    .lines()
                    .filter(|l| l.contains("\"timeline_start\""))
                    .count();
                let ends = sidecar_text
                    .lines()
                    .filter(|l| l.contains("\"timeline_end\""))
                    .count();
                assert_eq!(starts, reference.len());
                assert_eq!(ends, reference.len());
                let mut open = false;
                for line in sidecar_text.lines() {
                    if line.contains("\"timeline_start\"") {
                        assert!(!open, "interleaved timeline chunks");
                        open = true;
                    } else if line.contains("\"timeline_end\"") {
                        assert!(open);
                        open = false;
                    }
                }
                assert!(!open);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_trial_listed_twice_runs_once_and_fills_both_slots() {
        let dir = std::env::temp_dir().join(format!(
            "disp-campaign-duplicate-test-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let label = "line/k8/rooted/sync/probe-dfs";
        let scenario = ScenarioSpec::parse(label, &reg()).unwrap();
        let spec = CampaignSpec::custom(vec![scenario.clone(), scenario], 2, 3);
        let store = CampaignStore::create(&dir, &spec, false).unwrap();
        let (records, summary) = run_campaign(&spec, Some(&store), 2, &reg()).unwrap();
        assert_eq!(summary.executed, 2);
        assert_eq!(summary.total, 4);
        let ids: Vec<String> = records.iter().map(TrialRecord::trial_id).collect();
        let expected: Vec<String> = spec.trials().iter().map(|t| t.trial_id()).collect();
        assert_eq!(ids, expected);
        assert_eq!(records[0], records[2]);
        assert_eq!(records[1], records[3]);
        assert_eq!(store.read_trials().unwrap().records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_assembly_fills_held_missed_and_repeated_slots_and_rejects_holes() {
        let spec = tiny_spec(9);
        let mut grid = spec.trials();
        grid.push(grid[0].clone());
        // A store that holds the second slot only.
        struct One(TrialRecord);
        impl TrialStore for One {
            fn lookup(&self, trial: &TrialSpec) -> Option<TrialRecord> {
                (trial.trial_id() == self.0.trial_id()).then(|| self.0.clone())
            }
            fn insert(&self, _: &TrialRecord) {}
        }
        let held = grid[1].point.run_trial(&reg(), grid[1].rep, grid[1].seed);
        let store = One(held.clone());
        let plan = Plan::new(grid.clone(), &reg(), Some(&store), None).unwrap();
        assert_eq!(plan.held(), 1);
        assert_eq!(plan.repeats(), 1);
        assert_eq!(plan.misses().count(), grid.len() - 2);
        let (fresh, _) = plan.execute(&reg(), None, &RunOptions::default());
        let fresh: Vec<Option<TrialRecord>> = fresh.into_iter().map(|f| f.map(|f| f.0)).collect();
        let mut holed = fresh.clone();
        holed[0] = None;
        let err = Plan::new(grid.clone(), &reg(), Some(&store), None)
            .unwrap()
            .assemble(holed)
            .unwrap_err();
        assert!(err.contains(&grid[0].trial_id()), "{err}");
        let records = plan.assemble(fresh).unwrap();
        let (reference, _) = run_campaign(&spec, None, 1, &reg()).unwrap();
        assert_eq!(records[..reference.len()], reference[..]);
        assert_eq!(records[1], held);
        assert_eq!(records.last(), records.first());
    }

    #[test]
    fn invalid_scenarios_fail_before_anything_runs() {
        let spec = CampaignSpec::custom(
            vec![ScenarioSpec::new(GraphFamily::Star, 8, "probe-dfs")
                .with_placement(Placement::ScatteredUniform)],
            1,
            1,
        );
        let err = run_campaign(&spec, None, 1, &reg()).unwrap_err();
        assert!(err.contains("rooted"), "{err}");
    }

    #[test]
    fn placement_campaign_runs_deterministically_across_thread_counts() {
        let mut spec = CampaignSpec::placements(Mode::Quick, 21);
        // Shrink to a fast subset covering every placement × schedule.
        for section in &mut spec.sections {
            section.points.retain(|p| p.scenario.k == 16);
        }
        let (a, _) = run_campaign(&spec, None, 1, &reg()).unwrap();
        let (b, _) = run_campaign(&spec, None, 4, &reg()).unwrap();
        assert!(!a.is_empty());
        assert!(a.iter().all(|r| r.dispersed));
        let lines = |rs: &[TrialRecord]| -> Vec<String> {
            rs.iter().map(TrialRecord::to_json_line).collect()
        };
        assert_eq!(lines(&a), lines(&b));
    }
}
