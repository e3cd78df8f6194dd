//! # dispersion
//!
//! Facade crate for the reproduction of *"Dispersion is (Almost) Optimal
//! under (A)synchrony"* (SPAA 2025). It re-exports the workspace crates and
//! hosts the runnable examples and cross-crate integration tests.
//!
//! * [`graph`] — anonymous, port-labeled graphs and generators.
//! * [`sim`] — the mobile-agent execution engine (SYNC rounds, ASYNC
//!   adversaries, epoch accounting, metrics, placement families).
//! * [`core`] — the dispersion algorithms (paper + baselines),
//!   verification and the scenario API (registry + canonical run
//!   descriptions).
//! * [`analysis`] — experiment sweeps, scaling fits, report generation.
//!
//! ```
//! use dispersion::prelude::*;
//!
//! // Scatter 20 agents across a random tree and disperse them
//! // asynchronously — one canonical, round-trippable description.
//! let spec = ScenarioSpec::new(GraphFamily::RandomTree, 20, "ks-dfs")
//!     .with_placement(Placement::ScatteredUniform)
//!     .with_schedule(Schedule::AsyncRandom { prob: 0.7 });
//! assert_eq!(spec.label(), "rtree/k20/scatter/async-rand0.7/ks-dfs");
//! let report = spec.run(&Registry::builtin(), 42).unwrap();
//! assert!(report.dispersed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use disp_analysis as analysis;
pub use disp_core as core;
pub use disp_graph as graph;
pub use disp_sim as sim;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use disp_analysis::{loglog_fit, markdown_table, Summary};
    pub use disp_core::prelude::*;
    pub use disp_core::rooted_sync::SyncConfig;
    pub use disp_core::verify;
    pub use disp_graph::generators::GraphFamily;
    pub use disp_graph::prelude::*;
    pub use disp_sim::prelude::*;
}
