//! The protocol **flight recorder**: a constant-space timeline of how a
//! run progresses, sampled at round (SYNC) or epoch (ASYNC) boundaries.
//!
//! Full traces ([`crate::trace`]) are O(steps) and unusable at `n = 10^6`;
//! the quantities that the paper's separations are *about* — settled
//! fraction, role churn, dead-edge pressure — change at boundary
//! granularity and are maintained incrementally by the protocol cores
//! anyway ([`crate::protocol::AgentProtocol::class_counts`]). The recorder
//! samples them into a fixed budget (default [`DEFAULT_TIMELINE_BUDGET`]
//! points) with **deterministic stride-doubling decimation**:
//!
//! * points are recorded at times divisible by the current `stride`
//!   (initially 1);
//! * when the buffer reaches the budget, every point whose time is not
//!   divisible by `2 × stride` is dropped and the stride doubles.
//!
//! Time 0 survives every decimation (`0 mod s = 0` for all `s`), the final
//! point is force-recorded, and which points survive depends only on the
//! sequence of sample times — never on wall clock, thread count, or
//! allocation addresses — so the recorded timeline is a **pure function of
//! the run**. A `10^6`-round run costs the same memory as a 100-round one:
//! the buffer never holds more than `budget + 1` points.

use std::fmt;

/// Default point budget: enough resolution for any plot, small enough that
/// a recorder is always O(1) memory regardless of run length.
pub const DEFAULT_TIMELINE_BUDGET: usize = 4096;

/// One sampled instant of a run, taken at a round/epoch boundary.
///
/// Counts are observations of world + protocol state; recording a point
/// never mutates either (the "observation, never content" rule — results
/// are byte-identical with the recorder on or off).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Boundary time: the round count (SYNC) or epoch count (ASYNC) at
    /// which the sample was taken.
    pub time: u64,
    /// Agents whose protocol class is named `"settled"` (0 when the
    /// protocol does not report class counts).
    pub settled: u64,
    /// Agents on the world's active worklist.
    pub active: u64,
    /// Agents neither active nor crashed (parked by the protocol).
    pub parked: u64,
    /// Agents removed by the crash-fault adversary.
    pub crashed: u64,
    /// Cumulative edge traversals so far.
    pub moves: u64,
    /// Edges currently down under the dynamic-graph adversary (0 in
    /// static worlds).
    pub dead_edges: u64,
    /// Size of the adversary batch executed just before the sample
    /// (0 under the SYNC scheduler and for the initial point).
    pub batch: u64,
    /// Per-role class histogram as reported by
    /// [`crate::protocol::AgentProtocol::class_counts`]: `(name, count)`
    /// pairs in the protocol's canonical order. Empty when the protocol
    /// does not maintain incremental counts.
    pub classes: Vec<(&'static str, u32)>,
}

/// A fixed-budget boundary sampler. Drive it with [`wants`] +
/// [`record`] at boundaries and [`record_final`] once at the end, then
/// take the result with [`finish`].
///
/// [`wants`]: TimelineRecorder::wants
/// [`record`]: TimelineRecorder::record
/// [`record_final`]: TimelineRecorder::record_final
/// [`finish`]: TimelineRecorder::finish
#[derive(Debug, Clone)]
pub struct TimelineRecorder {
    budget: usize,
    stride: u64,
    points: Vec<TimelinePoint>,
}

impl Default for TimelineRecorder {
    fn default() -> Self {
        TimelineRecorder::new()
    }
}

impl TimelineRecorder {
    /// A recorder with the [`DEFAULT_TIMELINE_BUDGET`].
    pub fn new() -> Self {
        TimelineRecorder::with_budget(DEFAULT_TIMELINE_BUDGET)
    }

    /// A recorder bounded at `budget` points (clamped to ≥ 4 so the
    /// decimation always has room to halve).
    pub fn with_budget(budget: usize) -> Self {
        TimelineRecorder {
            budget: budget.max(4),
            stride: 1,
            points: Vec::new(),
        }
    }

    /// The current sampling stride (a power of two; 1 until the first
    /// decimation).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Whether a boundary at `time` should be sampled. Cheap enough for a
    /// per-round check in the hot loop: one modulo and one compare.
    pub fn wants(&self, time: u64) -> bool {
        time.is_multiple_of(self.stride) && self.points.last().is_none_or(|p| p.time != time)
    }

    /// Record a point sampled at a time for which [`wants`] returned
    /// `true`. When the buffer reaches the budget, points off the doubled
    /// stride are dropped and the stride doubles.
    ///
    /// [`wants`]: TimelineRecorder::wants
    pub fn record(&mut self, point: TimelinePoint) {
        debug_assert!(
            point.time.is_multiple_of(self.stride),
            "recorded time {} off stride {}",
            point.time,
            self.stride
        );
        self.points.push(point);
        if self.points.len() >= self.budget {
            let doubled = self.stride * 2;
            self.points.retain(|p| p.time.is_multiple_of(doubled));
            self.stride = doubled;
        }
    }

    /// Force-record the final point of a run regardless of stride. If the
    /// last recorded point has the same time it is replaced (the final
    /// state wins), so times stay strictly increasing.
    pub fn record_final(&mut self, point: TimelinePoint) {
        match self.points.last_mut() {
            Some(last) if last.time == point.time => *last = point,
            _ => self.points.push(point),
        }
    }

    /// Consume the recorder into the finished [`Timeline`].
    pub fn finish(self) -> Timeline {
        Timeline {
            stride: self.stride,
            budget: self.budget,
            points: self.points,
        }
    }
}

/// The finished product of a [`TimelineRecorder`]: the surviving points in
/// strictly increasing time order, plus the stride they ended up on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Surviving sample points, time-sorted. All interior points lie on
    /// `stride`; the final point is exact.
    pub points: Vec<TimelinePoint>,
    /// The sampling stride after the last decimation (a power of two).
    pub stride: u64,
    /// The budget the recorder ran with.
    pub budget: usize,
}

impl Timeline {
    /// How many times the recorder decimated: `log2(stride)`. Exported as
    /// a gauge so lossy-looking timelines are visible on `/metrics`.
    pub fn decimation_level(&self) -> u32 {
        self.stride.trailing_zeros()
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timeline: {} points, stride {}, decimation level {}",
            self.points.len(),
            self.stride,
            self.decimation_level()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(time: u64) -> TimelinePoint {
        TimelinePoint {
            time,
            settled: time / 2,
            active: 10,
            parked: 0,
            crashed: 0,
            moves: time * 3,
            dead_edges: 0,
            batch: 0,
            classes: Vec::new(),
        }
    }

    /// Drive a recorder over `0..=t_max` boundaries the way a runner does.
    fn drive(budget: usize, t_max: u64) -> Timeline {
        let mut rec = TimelineRecorder::with_budget(budget);
        for t in 0..=t_max {
            if rec.wants(t) {
                rec.record(point(t));
            }
        }
        rec.record_final(point(t_max));
        rec.finish()
    }

    #[test]
    fn short_runs_keep_every_boundary() {
        let tl = drive(4096, 100);
        assert_eq!(tl.points.len(), 101);
        assert_eq!(tl.stride, 1);
        assert_eq!(tl.decimation_level(), 0);
        let times: Vec<u64> = tl.points.iter().map(|p| p.time).collect();
        assert_eq!(times, (0..=100).collect::<Vec<_>>());
    }

    #[test]
    fn long_runs_stay_within_budget_plus_final() {
        for t_max in [1_000u64, 10_000, 1_000_000] {
            let tl = drive(64, t_max);
            assert!(
                tl.points.len() <= 64 + 1,
                "t_max={t_max}: {} points exceed budget",
                tl.points.len()
            );
            assert!(tl.stride.is_power_of_two());
            assert!(tl.stride > 1, "t_max={t_max} must have decimated");
        }
    }

    #[test]
    fn first_and_last_points_always_survive() {
        for t_max in [5u64, 63, 64, 65, 4096, 100_000] {
            let tl = drive(16, t_max);
            assert_eq!(tl.points.first().unwrap().time, 0, "t_max={t_max}");
            assert_eq!(tl.points.last().unwrap().time, t_max, "t_max={t_max}");
        }
    }

    #[test]
    fn times_are_strictly_increasing_and_on_stride() {
        let tl = drive(32, 12_345);
        for w in tl.points.windows(2) {
            assert!(w[0].time < w[1].time);
        }
        // All but the forced final point lie on the stride.
        for p in &tl.points[..tl.points.len() - 1] {
            assert_eq!(
                p.time % tl.stride,
                0,
                "time {} off stride {}",
                p.time,
                tl.stride
            );
        }
    }

    #[test]
    fn decimated_timeline_is_a_subsequence_of_the_undecimated_one() {
        // The property-test half of satellite 3, at the unit level: every
        // surviving point appears verbatim in a run recorded with an
        // effectively unbounded budget.
        let t_max = 50_000u64;
        let reference = drive(1 << 20, t_max);
        let decimated = drive(64, t_max);
        let mut ref_iter = reference.points.iter();
        for p in &decimated.points {
            assert!(
                ref_iter.any(|r| r == p),
                "point at t={} missing from (or out of order in) the reference",
                p.time
            );
        }
    }

    #[test]
    fn recording_is_deterministic() {
        let a = drive(64, 99_999);
        let b = drive(64, 99_999);
        assert_eq!(a, b);
    }

    #[test]
    fn final_point_replaces_same_time_sample() {
        let mut rec = TimelineRecorder::with_budget(16);
        rec.record(point(0));
        rec.record(point(1));
        let mut fin = point(1);
        fin.settled = 42;
        rec.record_final(fin);
        let tl = rec.finish();
        assert_eq!(tl.points.len(), 2);
        assert_eq!(tl.points.last().unwrap().settled, 42);
    }

    #[test]
    fn zero_length_run_records_one_point() {
        let tl = drive(16, 0);
        assert_eq!(tl.points.len(), 1);
        assert_eq!(tl.points[0].time, 0);
    }

    #[test]
    fn wants_dedups_and_respects_stride() {
        let mut rec = TimelineRecorder::with_budget(4);
        assert!(rec.wants(0));
        rec.record(point(0));
        assert!(!rec.wants(0), "same boundary must not sample twice");
        for t in 1..=200 {
            if rec.wants(t) {
                rec.record(point(t));
            }
        }
        assert!(rec.stride() > 1);
        assert!(!rec.wants(rec.stride() + 1), "off-stride time refused");
    }
}
