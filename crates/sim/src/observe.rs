//! The one way to watch a trial: an [`Observer`] the runners report to.
//!
//! A runner reports three things, each only where something consumes it:
//!
//! * every move, cohort move and milestone, as a [`TraceEvent`] in the
//!   order it happened (they happen inside [`crate::ActivationCtx`], which
//!   carries the observer as `&mut dyn Observer`);
//! * a [`TimelinePoint`] at each round (SYNC) or epoch (ASYNC) boundary the
//!   observer [wants](Observer::wants_boundary) — the point is built only
//!   then;
//! * the forced final point of a run that succeeds or hits its limit (not
//!   of one an adversary fault ends), when the observer
//!   [wants it](Observer::wants_final).
//!
//! Every hook defaults to a no-op, so `()` is the observer that watches
//! nothing; the runners are generic over the observer, so its boundary
//! hooks compile away. [`Trace`] takes the events and [`TimelineRecorder`]
//! the points. Observation never changes content: an observed run is
//! byte-identical to an unobserved one of the same seed.
//!
//! The observer belongs to the caller, so a run that ends in an error
//! still leaves the partial trace or timeline in it.

use crate::timeline::{TimelinePoint, TimelineRecorder};
use crate::trace::{Trace, TraceEvent};

/// What a runner reports while it drives a trial. See the module docs.
pub trait Observer {
    /// A move, a cohort move or a milestone, in the order it happened.
    fn event(&mut self, _event: TraceEvent) {}

    /// Whether to sample the round/epoch boundary at `time` (the initial
    /// state is the boundary at 0).
    fn wants_boundary(&self, _time: u64) -> bool {
        false
    }

    /// The sampled state at a boundary [`Observer::wants_boundary`]
    /// accepted.
    fn boundary(&mut self, _point: TimelinePoint) {}

    /// Whether to sample the final state of the run.
    fn wants_final(&self) -> bool {
        false
    }

    /// The final state of a run that terminated or hit its limit.
    fn final_point(&mut self, _point: TimelinePoint) {}
}

/// Watches nothing.
impl Observer for () {}

/// Records every event, up to its cap.
impl Observer for Trace {
    fn event(&mut self, event: TraceEvent) {
        self.record(event);
    }
}

/// Samples the boundaries its stride selects, plus the final point.
impl Observer for TimelineRecorder {
    fn wants_boundary(&self, time: u64) -> bool {
        self.wants(time)
    }

    fn boundary(&mut self, point: TimelinePoint) {
        self.record(point);
    }

    fn wants_final(&self) -> bool {
        true
    }

    fn final_point(&mut self, point: TimelinePoint) {
        self.record_final(point);
    }
}
