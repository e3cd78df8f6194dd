//! # disp-sim
//!
//! Discrete execution engine for mobile-agent algorithms on anonymous
//! port-labeled graphs, following the model of *"Dispersion is (Almost)
//! Optimal under (A)synchrony"* (SPAA 2025).
//!
//! ## Model
//!
//! * `k ≤ n` agents with unique IDs live on the nodes of a
//!   [`disp_graph::PortGraph`]. Nodes are memory-less; all persistent state
//!   lives inside agents.
//! * An activated agent performs one **Communicate–Compute–Move (CCM)
//!   cycle**: it reads the memory of co-located agents, computes, optionally
//!   writes to co-located agents, and optionally moves across **one** edge
//!   identified by a local port.
//! * **SYNC**: every agent is activated once per *round*; time = rounds.
//! * **ASYNC**: an adversary activates agents in arbitrary order and
//!   frequency (every agent infinitely often); time is measured in *epochs*,
//!   the minimal intervals in which every agent completes ≥ 1 CCM cycle.
//!
//! ## Pieces
//!
//! * [`World`] — agent positions, co-location index, the movement API that
//!   enforces "at most one edge per activation".
//! * [`AgentProtocol`] — the trait algorithm crates implement; the protocol
//!   owns all per-agent state and is invoked once per activation with an
//!   [`ActivationCtx`] restricted to that agent's local view.
//! * [`SyncRunner`] / [`AsyncRunner`] — drive a protocol to termination under
//!   the two schedulers, producing an [`Outcome`] (rounds, epochs, moves,
//!   peak per-agent memory bits).
//! * [`Observer`] — the one way to watch a run: the event [`Trace`] and the
//!   [`TimelineRecorder`] both implement it, and `()` watches nothing.
//! * [`adversary`] — pluggable ASYNC activation adversaries.
//! * [`fault`] — deterministic fault plans: the [`DynamicAdversary`]
//!   (one seeded edge removed per round, the arXiv 2408.12220 dynamic-ring
//!   model) and the [`CrashPlan`] crash-fault schedule.
//! * [`trip`] — a small reusable "itinerary" helper for the round-trip /
//!   oscillation movement patterns that dispersion algorithms use heavily.
//! * [`bits`] — helpers for accounting persistent agent memory in bits.
//!
//! ## Example
//!
//! ```
//! use disp_graph::prelude::*;
//! use disp_sim::prelude::*;
//!
//! // A protocol in which every agent walks to the port-1 neighbor once.
//! struct OneHop { moved: Vec<bool> }
//! impl AgentProtocol for OneHop {
//!     fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
//!         if !self.moved[agent.index()] && ctx.degree() > 0 {
//!             ctx.move_via(Port(1));
//!             self.moved[agent.index()] = true;
//!         }
//!     }
//!     fn is_terminated(&self) -> bool { self.moved.iter().all(|&m| m) }
//!     fn memory_bits(&self, _agent: AgentId) -> usize { 1 }
//! }
//!
//! let g = generators::ring(5);
//! let mut world = World::new(g, vec![NodeId(0); 3]);
//! let mut proto = OneHop { moved: vec![false; 3] };
//! let outcome = SyncRunner::new(RunConfig::default()).run(&mut world, &mut proto).unwrap();
//! assert_eq!(outcome.rounds, 1);
//! assert_eq!(outcome.total_moves, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod arena;
pub mod bits;
pub mod clock;
pub mod fault;
pub mod ids;
pub mod metrics;
pub mod observe;
pub mod placement;
pub mod protocol;
pub mod runner;
pub mod timeline;
pub mod trace;
pub mod trip;
pub mod world;

pub use adversary::{
    Adversary, AdversaryError, AdversaryKind, LaggingAdversary, RandomSubsetAdversary,
    RoundRobinAdversary, StepView, TargetedAdversary,
};
pub use arena::{AgentSet, ListArena, ListHandle};
pub use clock::Clock;
pub use fault::{CrashPlan, DynamicAdversary};
pub use ids::AgentId;
pub use metrics::{Metrics, Outcome};
pub use observe::Observer;
pub use placement::Placement;
pub use protocol::AgentProtocol;
pub use runner::{AsyncRunner, RunConfig, RunError, SyncRunner};
pub use timeline::{Timeline, TimelinePoint, TimelineRecorder, DEFAULT_TIMELINE_BUDGET};
pub use trace::{Trace, TraceEvent, DEFAULT_TRACE_CAP};
pub use trip::{Trip, TripProgress, TripStatus, TripStep};
pub use world::{ActivationCtx, MoveError, World, WorldPool};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::adversary::{
        Adversary, AdversaryError, AdversaryKind, LaggingAdversary, RandomSubsetAdversary,
        RoundRobinAdversary, StepView, TargetedAdversary,
    };
    pub use crate::bits;
    pub use crate::fault::{CrashPlan, DynamicAdversary};
    pub use crate::ids::AgentId;
    pub use crate::metrics::{Metrics, Outcome};
    pub use crate::observe::Observer;
    pub use crate::placement::Placement;
    pub use crate::protocol::AgentProtocol;
    pub use crate::runner::{AsyncRunner, RunConfig, RunError, SyncRunner};
    pub use crate::timeline::{Timeline, TimelinePoint, TimelineRecorder, DEFAULT_TIMELINE_BUDGET};
    pub use crate::trip::{Trip, TripProgress, TripStatus, TripStep};
    pub use crate::world::{ActivationCtx, MoveError, World};
}
