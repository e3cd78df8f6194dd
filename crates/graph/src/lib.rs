//! # disp-graph
//!
//! Anonymous, port-labeled graph substrate for mobile-agent dispersion.
//!
//! The dispersion literature (and the reproduced paper, *"Dispersion is
//! (Almost) Optimal under (A)synchrony"*, SPAA 2025) models the environment
//! as a simple, undirected, connected graph `G = (V, E)` whose nodes are
//! **anonymous** (no identifiers, no memory) but whose edges are **port
//! labeled**: the `δ_v` edges incident to a node `v` carry distinct local
//! labels `1..=δ_v`, and the two endpoints of an edge label it independently.
//!
//! This crate provides:
//!
//! * [`PortGraph`] — an immutable, validated, CSR-packed port-labeled graph,
//!   with O(1) "follow port `p` out of node `v`" and O(1) "incoming port at
//!   the other endpoint" queries (the latter is what an agent's `pin`
//!   variable is set to after a move).
//! * [`GraphBuilder`] — incremental construction with validation.
//! * [`generators`] — the graph families used throughout the dispersion
//!   literature and by the reproduction harness: lines, rings, stars, trees,
//!   grids, tori, hypercubes, random regular graphs, connected Erdős–Rényi
//!   graphs, complete graphs, barbells, lollipops.
//! * [`liveness`] — the [`EdgeLiveness`] overlay for dynamic worlds: O(1)
//!   per-edge kill/revive with live-degree counters, base port numbering
//!   preserved.
//! * [`properties`] — degrees, BFS distances, eccentricity, diameter,
//!   connectivity.
//! * [`validate`] — the structural invariants of the model, including the
//!   §8.2 ASYNC port restriction needed by the general asynchronous
//!   algorithm.
//!
//! ## Quick example
//!
//! ```
//! use disp_graph::prelude::*;
//!
//! let g = generators::ring(8);
//! assert_eq!(g.num_nodes(), 8);
//! assert_eq!(g.num_edges(), 8);
//! assert_eq!(g.max_degree(), 2);
//!
//! // Follow port 1 out of node 0, then come straight back.
//! let v = NodeId(0);
//! let (u, pin) = g.traverse(v, Port(1));
//! assert_eq!(g.traverse(u, pin).0, v);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod liveness;
pub mod properties;
pub mod topology;
pub mod validate;

pub use builder::GraphBuilder;
pub use graph::PortGraph;
pub use ids::{NodeId, Port};
pub use liveness::EdgeLiveness;
pub use topology::Topology;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::generators;
    pub use crate::graph::PortGraph;
    pub use crate::ids::{NodeId, Port};
    pub use crate::liveness::EdgeLiveness;
    pub use crate::properties;
    pub use crate::topology::Topology;
    pub use crate::validate;
}
