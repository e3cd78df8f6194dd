//! Experiment points, per-trial execution and aggregation.
//!
//! The unit of work is a **trial**: one `(ExperimentPoint, repetition, seed)`
//! execution producing a [`TrialRecord`]. An [`ExperimentPoint`] is a
//! canonical [`ScenarioSpec`] plus a repetition count — the spec (not a
//! re-encoding of its fragments) is what records carry, what the campaign
//! store checkpoints, and what reports group by. Aggregation
//! ([`Measurement::from_trials`]) is a pure function of trial records, so
//! the streamed JSONL checkpoints of the `disp-campaign` engine (see
//! [`crate::jsonl`]) aggregate exactly like records held in memory.

use crate::json::{ObjectWriter, Reader};
use crate::scenario_json::{read_scenario, write_scenario};
use crate::stats::Summary;
use disp_core::scenario::{Registry, ScenarioSpec, LABEL_CAPACITY};
use disp_sim::{Observer, Outcome};
use std::fmt::Write as _;

/// One point of a sweep: a scenario measured over several repetitions.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// The canonical run description.
    pub scenario: ScenarioSpec,
    /// Number of repetitions (different seeds).
    pub repetitions: usize,
}

/// The result of one trial — the atomic record the campaign engine streams
/// to disk.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// The point this trial belongs to.
    pub point: ExperimentPoint,
    /// Repetition index within the point (`0..point.repetitions`).
    pub rep: usize,
    /// The seed that fully determines this trial (graph instance, placement,
    /// adversary and algorithm-internal randomness).
    pub seed: u64,
    /// Raw measurements.
    pub outcome: Outcome,
    /// Whether the final configuration is a valid dispersion.
    pub dispersed: bool,
}

/// Aggregated result of one experiment point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The point this measurement belongs to.
    pub point: ExperimentPoint,
    /// Realized number of agents.
    pub k: usize,
    /// Realized number of nodes.
    pub n: usize,
    /// Realized number of edges.
    pub m: usize,
    /// Realized maximum degree.
    pub max_degree: usize,
    /// Mean time (rounds for SYNC, epochs for ASYNC) over the repetitions.
    pub time_mean: f64,
    /// Minimum observed time.
    pub time_min: f64,
    /// Maximum observed time.
    pub time_max: f64,
    /// Mean total number of agent moves.
    pub moves_mean: f64,
    /// Largest peak per-agent memory (bits) observed.
    pub peak_memory_bits: usize,
    /// Whether every repetition ended in a valid dispersion.
    pub all_dispersed: bool,
}

impl PartialEq for ExperimentPoint {
    fn eq(&self, other: &Self) -> bool {
        self.scenario == other.scenario && self.repetitions == other.repetitions
    }
}

impl ExperimentPoint {
    /// A point at the given scenario and repetition count.
    pub fn new(scenario: ScenarioSpec, repetitions: usize) -> ExperimentPoint {
        ExperimentPoint {
            scenario,
            repetitions,
        }
    }

    /// The canonical identity string of this point — the scenario's
    /// canonical label, which is stable across runs and releases and is the
    /// checkpoint key of the campaign store.
    pub fn point_id(&self) -> String {
        self.scenario.label()
    }

    /// The checkpoint identity of repetition `rep` of this point: the
    /// canonical label and `#r<rep>`, written in one buffer.
    pub fn trial_id(&self, rep: usize) -> String {
        let mut id = String::with_capacity(LABEL_CAPACITY);
        let _ = write!(id, "{}#r{rep}", self.scenario);
        id
    }

    /// Run one repetition under `seed` and record the result.
    ///
    /// The seed determines everything random about the trial: the graph
    /// instance, the placement, the adversary, and algorithm-internal
    /// randomness. Two calls with the same point and seed produce identical
    /// records regardless of threads, process or execution order.
    ///
    /// A run that exceeds its limits (reachable from user input via the
    /// `/roundsN` / `/stepsN` label segments) is recorded faithfully as a
    /// non-terminated, non-dispersed trial with the partial outcome — one
    /// pathological scenario must not abort a whole campaign.
    ///
    /// # Panics
    /// Panics only if the scenario is invalid for `registry` — campaign
    /// grids are validated up front, so hitting this means the grid
    /// construction is buggy, not the input.
    pub fn run_trial(&self, registry: &Registry, rep: usize, seed: u64) -> TrialRecord {
        self.run_trial_pooled(
            registry,
            rep,
            seed,
            &mut disp_sim::WorldPool::new(),
            &mut (),
        )
    }

    /// [`ExperimentPoint::run_trial`] with a [`disp_sim::WorldPool`] — the
    /// trial's world is built from (and returned to) the pool, so the
    /// trials an engine thread runs allocate world buffers only once — and
    /// `observer` watching the run (a [`disp_sim::TimelineRecorder`] for
    /// the campaign's `--timeline` sidecar, `()` otherwise). Pooling and
    /// observation never change content: the record is byte-identical to
    /// [`ExperimentPoint::run_trial`] of the same seed. A limit-exceeded
    /// run keeps its faithful partial record, and the observer what it saw
    /// up to the limit.
    pub fn run_trial_pooled(
        &self,
        registry: &Registry,
        rep: usize,
        seed: u64,
        pool: &mut disp_sim::WorldPool,
        observer: &mut impl Observer,
    ) -> TrialRecord {
        use disp_core::scenario::ScenarioError;
        use disp_sim::RunError;
        let report = self.scenario.run_observed(registry, seed, pool, observer);
        let (outcome, dispersed) = match report {
            Ok(report) => (report.outcome, report.dispersed),
            Err(ScenarioError::Run(RunError::LimitExceeded { outcome })) => (outcome, false),
            Err(other) => panic!("scenario '{}': {other}", self.scenario.label()),
        };
        TrialRecord {
            point: self.clone(),
            rep,
            seed,
            outcome,
            dispersed,
        }
    }
}

/// Bytes reserved for one record line: the longest lines of the built-in
/// grids (a scenario with occupancy, params or faults, and seven-digit
/// counters) stay under it, so a line is written without regrowing.
const LINE_CAPACITY: usize = 448;

impl TrialRecord {
    /// The checkpoint identity of this trial within its campaign.
    pub fn trial_id(&self) -> String {
        self.point.trial_id(self.rep)
    }

    /// Serialize as one compact JSONL line (no trailing newline), written
    /// in one pass: the scenario in its structured canonical form, the
    /// repetition count and index, the seed in lossless hex, the outcome's
    /// flat fields and the dispersion verdict, in that order.
    pub fn to_json_line(&self) -> String {
        let mut line = String::with_capacity(LINE_CAPACITY);
        self.write_json_line(&mut line);
        line
    }

    /// Append the line [`TrialRecord::to_json_line`] returns to `out`.
    pub fn write_json_line(&self, out: &mut String) {
        let mut w = ObjectWriter::new(out);
        let mut scenario = w.object("scenario");
        write_scenario(&self.point.scenario, &mut scenario);
        scenario.end();
        w.u64("repetitions", self.point.repetitions as u64);
        w.u64("rep", self.rep as u64);
        w.u64_lossless("seed", self.seed);
        let mut outcome = w.object("outcome");
        for (name, value) in self.outcome.flat_fields() {
            outcome.u64(name, value);
        }
        outcome.end();
        w.bool("dispersed", self.dispersed);
        w.end();
    }

    /// Parse a line produced by [`TrialRecord::to_json_line`], in one pass
    /// over the text. Keys may come in any order and with any whitespace;
    /// unknown keys are checked and skipped; of duplicate keys the first
    /// wins. `seed` may be lossless hex or a plain integer, and a scenario
    /// `occupancy` a canonical string or a number.
    pub fn from_json_line(line: &str) -> Result<TrialRecord, String> {
        let mut r = Reader::new(line);
        r.begin_object(0)?;
        let mut scenario = None;
        let mut repetitions = None;
        let mut rep = None;
        let mut seed = None;
        let mut outcome = None;
        let mut dispersed = None;
        while let Some(key) = r.next_key()? {
            match &*key {
                "scenario" if scenario.is_none() => scenario = Some(read_scenario(&mut r, 1)?),
                "repetitions" if repetitions.is_none() => {
                    let value = r.scalar(1)?.as_u64();
                    repetitions = Some(value.ok_or("trial: missing repetitions")?);
                }
                "rep" if rep.is_none() => {
                    rep = Some(r.scalar(1)?.as_u64().ok_or("trial: missing rep")?);
                }
                "seed" if seed.is_none() => {
                    let value = r.scalar(1)?.as_u64_lossless();
                    seed = Some(value.ok_or("trial: missing seed")?);
                }
                "outcome" if outcome.is_none() => outcome = Some(read_outcome(&mut r)?),
                "dispersed" if dispersed.is_none() => {
                    let value = r.scalar(1)?.as_bool();
                    dispersed = Some(value.ok_or("trial: missing dispersed")?);
                }
                _ => r.skip(1)?,
            }
        }
        r.finish()?;
        Ok(TrialRecord {
            point: ExperimentPoint {
                scenario: scenario.ok_or("trial: missing scenario")?,
                repetitions: repetitions.ok_or("trial: missing repetitions")? as usize,
            },
            rep: rep.ok_or("trial: missing rep")? as usize,
            seed: seed.ok_or("trial: missing seed")?,
            outcome: outcome.ok_or("trial: missing outcome")?,
            dispersed: dispersed.ok_or("trial: missing dispersed")?,
        })
    }
}

/// The `outcome` value of a record line: an object holding every name of
/// [`Outcome::FIELDS`] as a non-negative integer (the first of duplicates
/// counts; other keys are skipped).
fn read_outcome(r: &mut Reader) -> Result<Outcome, String> {
    let incomplete = || "trial: incomplete outcome".to_string();
    if r.peek() != Some(b'{') {
        r.scalar(1)?;
        return Err(incomplete());
    }
    r.begin_object(1)?;
    let mut fields: [Option<Option<u64>>; 12] = [None; 12];
    while let Some(key) = r.next_key()? {
        match Outcome::FIELDS.iter().position(|&name| name == key) {
            Some(i) if fields[i].is_none() => fields[i] = Some(r.scalar(2)?.as_u64()),
            _ => r.skip(2)?,
        }
    }
    let mut values = [0; 12];
    for (value, field) in values.iter_mut().zip(fields) {
        *value = field.flatten().ok_or_else(incomplete)?;
    }
    Ok(Outcome::from_fields(values))
}

impl Measurement {
    /// Aggregate trial records of one point. The realized graph shape is
    /// taken from the last record (matching the legacy in-process sweep);
    /// panics if `trials` is empty.
    pub fn from_trials(point: &ExperimentPoint, trials: &[TrialRecord]) -> Measurement {
        assert!(!trials.is_empty(), "cannot aggregate zero trials");
        let times: Vec<f64> = trials.iter().map(|t| t.outcome.time() as f64).collect();
        let moves: Vec<f64> = trials
            .iter()
            .map(|t| t.outcome.total_moves as f64)
            .collect();
        let last = &trials[trials.len() - 1].outcome;
        let t = Summary::of(&times);
        let mv = Summary::of(&moves);
        Measurement {
            point: point.clone(),
            k: last.k,
            n: last.n,
            m: last.m,
            max_degree: last.max_degree,
            time_mean: t.mean,
            time_min: t.min,
            time_max: t.max,
            moves_mean: mv.mean,
            peak_memory_bits: trials
                .iter()
                .map(|t| t.outcome.peak_memory_bits)
                .max()
                .unwrap_or(0),
            all_dispersed: trials.iter().all(|t| t.dispersed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_core::scenario::Schedule;
    use disp_graph::generators::GraphFamily;
    use disp_sim::Placement;

    fn reg() -> Registry {
        Registry::builtin()
    }

    fn small_point(algorithm: &str, schedule: Schedule) -> ExperimentPoint {
        ExperimentPoint::new(
            ScenarioSpec::new(GraphFamily::RandomTree, 16, algorithm).with_schedule(schedule),
            2,
        )
    }

    #[test]
    fn run_trial_is_deterministic_in_the_seed() {
        let registry = reg();
        let p = small_point("probe-dfs", Schedule::AsyncRandom { prob: 0.7 });
        let a = p.run_trial(&registry, 0, 999);
        let b = p.run_trial(&registry, 0, 999);
        let c = p.run_trial(&registry, 0, 1000);
        assert_eq!(a, b);
        assert_eq!(a.outcome, b.outcome);
        assert!(a.seed != c.seed);
    }

    #[test]
    fn trial_records_round_trip_through_jsonl() {
        let registry = reg();
        for schedule in [
            Schedule::Sync,
            Schedule::AsyncRoundRobin,
            Schedule::AsyncRandom { prob: 0.7 },
            Schedule::AsyncLagging { max_lag: 3 },
        ] {
            for placement in [Placement::Rooted, Placement::ScatteredUniform] {
                let mut point = small_point("ks-dfs", schedule);
                point.scenario = point.scenario.with_placement(placement);
                let rec = point.run_trial(&registry, 1, 42);
                let line = rec.to_json_line();
                assert!(!line.contains('\n'));
                let back = TrialRecord::from_json_line(&line).unwrap();
                assert_eq!(back, rec);
                assert_eq!(back.outcome, rec.outcome);
                assert_eq!(back.to_json_line(), line, "serialization is stable");
            }
        }
    }

    #[test]
    fn seeds_above_2_pow_53_survive_the_jsonl_round_trip() {
        // Derived trial seeds are uniform 64-bit mix() outputs, so almost
        // all of them exceed f64's exact-integer range; the wire format
        // must not round them (regression test for the lossless encoding).
        let registry = reg();
        let big = u64::MAX - 12345;
        let rec = small_point("probe-dfs", Schedule::AsyncRandom { prob: 0.7 })
            .run_trial(&registry, 0, big);
        assert_eq!(rec.seed, big);
        let back = TrialRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(back.seed, big);
        // The recorded seed must reproduce the recorded outcome exactly.
        let replay = back.point.run_trial(&registry, back.rep, back.seed);
        assert_eq!(replay.outcome, rec.outcome);
    }

    #[test]
    fn limit_exceeded_trials_are_recorded_not_panics() {
        use disp_core::scenario::Limits;
        // A user-supplied `/rounds20` limit (above the trivial lower bound
        // of 16 for 32 rooted agents on a line, but far below the need)
        // makes the run give up; the trial must come back as a faithful
        // non-terminated record, not abort the campaign.
        let point = ExperimentPoint::new(
            ScenarioSpec::new(GraphFamily::Line, 32, "probe-dfs").with_limits(Limits {
                max_rounds: Some(20),
                max_steps: Some(20),
            }),
            1,
        );
        let rec = point.run_trial(&reg(), 0, 1);
        assert!(!rec.dispersed);
        assert!(!rec.outcome.terminated);
        assert_eq!(rec.outcome.rounds, 20);
        // And it round-trips the store like any other record.
        let back = TrialRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn point_id_is_the_canonical_scenario_label() {
        let p = small_point("probe-dfs", Schedule::AsyncRandom { prob: 0.7 });
        assert_eq!(p.point_id(), "rtree/k16/rooted/async-rand0.7/probe-dfs");
        let spec = ScenarioSpec::from_label(&p.point_id()).unwrap();
        assert_eq!(spec, p.scenario);
    }

    /// Run every repetition of `p` with `run_trial` and aggregate the
    /// records with [`Measurement::from_trials`].
    fn measure(p: &ExperimentPoint, registry: &Registry) -> (Measurement, Vec<TrialRecord>) {
        let trials: Vec<TrialRecord> = (0..p.repetitions)
            .map(|r| p.run_trial(registry, r, 1000 * r as u64 + 17))
            .collect();
        (Measurement::from_trials(p, &trials), trials)
    }

    #[test]
    fn measure_produces_dispersed_results() {
        let (m, _) = measure(&small_point("probe-dfs", Schedule::Sync), &reg());
        assert!(m.all_dispersed);
        assert!(m.time_mean > 0.0);
        assert!(m.peak_memory_bits > 0);
        assert_eq!(m.k, 16);
    }

    #[test]
    fn async_measurement_reports_epochs() {
        let p = small_point("probe-dfs", Schedule::AsyncRandom { prob: 0.6 });
        let (m, trials) = measure(&p, &reg());
        assert!(m.all_dispersed);
        assert!(m.time_mean >= 1.0);
        assert!(trials.iter().all(|t| t.outcome.time() == t.outcome.epochs));
    }

    #[test]
    fn from_trials_aggregates_like_measure() {
        let registry = reg();
        for schedule in [Schedule::Sync, Schedule::AsyncRandom { prob: 0.6 }] {
            let (m, trials) = measure(&small_point("probe-dfs", schedule), &registry);
            let times: Vec<u64> = trials.iter().map(|t| t.outcome.time()).collect();
            assert_eq!(m.time_mean, (times[0] + times[1]) as f64 / 2.0);
            assert_eq!(m.time_min, *times.iter().min().unwrap() as f64);
            assert_eq!(m.time_max, *times.iter().max().unwrap() as f64);
            let peak = trials.iter().map(|t| t.outcome.peak_memory_bits).max();
            assert_eq!(m.peak_memory_bits, peak.unwrap());
            assert_eq!(m.n, trials[1].outcome.n);
        }
    }
}
