//! Event tracing for debugging and for tests that assert on fine-grained
//! behaviour (e.g. "the seeker met the oscillating settler").

use crate::ids::AgentId;
use disp_graph::{NodeId, Port};

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An agent traversed an edge.
    Move {
        /// The agent that moved.
        agent: AgentId,
        /// Node it left.
        from: NodeId,
        /// Node it arrived at.
        to: NodeId,
        /// Port used at `from`.
        port: Port,
        /// Incoming port observed at `to`.
        pin: Port,
        /// Round (SYNC) or step (ASYNC) at which the move happened.
        time: u64,
    },
    /// A driver moved its whole cohort across an edge (one event for the
    /// `members` rides; the driver's own traversal is a separate
    /// [`TraceEvent::Move`]).
    CohortMove {
        /// The driving agent.
        driver: AgentId,
        /// Node the cohort left.
        from: NodeId,
        /// Node the cohort arrived at.
        to: NodeId,
        /// Port used at `from`.
        port: Port,
        /// Number of riding members charged one move each.
        members: u32,
        /// Round (SYNC) or step (ASYNC) at which the move happened.
        time: u64,
    },
    /// A protocol-defined milestone (settlement, subsumption, phase change…).
    Milestone {
        /// The agent the milestone concerns.
        agent: AgentId,
        /// Node at which it happened.
        node: NodeId,
        /// Protocol-defined code (documented by each protocol).
        code: u32,
        /// Round/step.
        time: u64,
    },
}

/// Default bound on recorded events ([`Trace::new`] uses it): enough
/// for every scale-campaign trial the repo runs, small enough that an
/// accidentally traced 10^6-agent run cannot eat the machine.
pub const DEFAULT_TRACE_CAP: usize = 1 << 20;

/// A bounded-growth event log, filled as an [`Observer`](crate::Observer)
/// of a run. When the cap is reached further events are dropped (never an
/// error) and [`Trace::truncated`] reports the loss.
#[derive(Debug, Clone)]
pub struct Trace {
    cap: usize,
    dropped: u64,
    events: Vec<TraceEvent>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// A trace that records up to [`DEFAULT_TRACE_CAP`] events.
    pub fn new() -> Self {
        Trace::with_cap(DEFAULT_TRACE_CAP)
    }

    /// A trace that records up to `cap` events, then drops the rest and
    /// marks itself [`truncated`](Trace::truncated).
    pub fn with_cap(cap: usize) -> Self {
        Trace {
            cap,
            dropped: 0,
            events: Vec::new(),
        }
    }

    /// The bound on recorded events.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Whether any event was dropped because the cap was reached.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// How many events were dropped after the cap was reached. Exported in
    /// the `trace_end` marker of JSONL trace dumps so consumers can tell
    /// *how* lossy a truncated trace is, not just that it is.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Record an event (dropped once the cap is hit).
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.events.push(event);
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded `Move` events.
    pub fn move_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Move { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_trace_records_and_counts() {
        let mut t = Trace::new();
        t.record(TraceEvent::Move {
            agent: AgentId(0),
            from: NodeId(0),
            to: NodeId(1),
            port: Port(1),
            pin: Port(2),
            time: 3,
        });
        t.record(TraceEvent::Milestone {
            agent: AgentId(0),
            node: NodeId(1),
            code: 9,
            time: 4,
        });
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.move_count(), 1);
        assert!(!t.truncated());
    }

    #[test]
    fn cap_bounds_growth_and_marks_truncation() {
        let mut t = Trace::with_cap(3);
        for i in 0..10 {
            t.record(TraceEvent::Milestone {
                agent: AgentId(0),
                node: NodeId(0),
                code: i,
                time: i as u64,
            });
        }
        assert_eq!(t.events().len(), 3);
        assert!(t.truncated());
        assert_eq!(t.dropped(), 7, "10 recorded, 3 kept, 7 dropped");
        assert_eq!(t.cap(), 3);
        // The retained prefix is the first `cap` events, in order.
        let codes: Vec<u32> = t
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Milestone { code, .. } => *code,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(codes, vec![0, 1, 2]);
    }
}
