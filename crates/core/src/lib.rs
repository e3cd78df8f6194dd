//! # disp-core
//!
//! Dispersion algorithms from *"Dispersion is (Almost) Optimal under
//! (A)synchrony"* (SPAA 2025), together with the state-of-the-art baselines
//! the paper compares against, running on the [`disp_sim`] agent engine over
//! [`disp_graph`] port-labeled graphs.
//!
//! | Item | Module | Paper reference |
//! |---|---|---|
//! | Group-DFS baseline, `O(min{m,kΔ})` | [`baselines::ks_dfs`] | Kshemkalyani–Sharma, OPODIS'21 |
//! | Doubling-probe DFS (`Async_Probe` + `Guest_See_Off`) | [`probe_dfs`] | Algorithms 3, 4, 8 (Theorem 7.1); under SYNC it reproduces the Sudo et al. DISC'24 baseline |
//! | Empty-node selection | [`empty_node`] | Algorithm 1, Lemma 1 |
//! | Oscillation groups | [`oscillation`] | Lemmas 2–3 |
//! | Seeker-based synchronous probing & the `O(k)` SYNC algorithm | [`rooted_sync`] | Algorithms 2, 5–7 (Theorem 6.1) |
//! | Verification | [`verify`] | dispersion configuration & complexity envelopes |
//! | The scenario API | [`scenario`] | one open, canonical run description for every algorithm/placement/schedule |
//! | Extra registry algorithms | [`extras`] | registry-extension proof (toy random walk) |
//!
//! Runs are described by [`scenario::ScenarioSpec`] — graph family ×
//! placement × schedule × algorithm (from an open
//! [`scenario::Registry`]) × typed params × limits — which round-trips
//! through a canonical label string. See `DESIGN.md` §7.
//!
//! ```
//! use disp_core::scenario::{Registry, ScenarioSpec, Schedule};
//! use disp_graph::generators::GraphFamily;
//! use disp_sim::Placement;
//!
//! let spec = ScenarioSpec::new(GraphFamily::RandomTree, 32, "ks-dfs")
//!     .with_placement(Placement::ScatteredUniform)
//!     .with_schedule(Schedule::AsyncRandom { prob: 0.7 });
//! assert_eq!(spec.label(), "rtree/k32/scatter/async-rand0.7/ks-dfs");
//! let report = spec.run(&Registry::builtin(), 42).unwrap();
//! assert!(report.dispersed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub(crate) mod census;
pub mod empty_node;
pub mod extras;
pub mod oscillation;
pub mod probe_dfs;
pub mod rooted_sync;
pub mod scenario;
pub mod verify;

pub use baselines::ks_dfs::KsDfs;
pub use probe_dfs::ProbeDfs;
pub use rooted_sync::RootedSyncDisp;
pub use scenario::{
    AlgorithmFactory, Limits, ParamValue, Params, Registry, ScenarioError, ScenarioReport,
    ScenarioSpec, Schedule,
};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::baselines::ks_dfs::KsDfs;
    pub use crate::probe_dfs::ProbeDfs;
    pub use crate::rooted_sync::RootedSyncDisp;
    pub use crate::scenario::{
        run_custom, AlgorithmFactory, Limits, ParamValue, Params, Registry, ScenarioError,
        ScenarioReport, ScenarioSpec, Schedule,
    };
    pub use crate::verify::{check_dispersion, check_dispersion_at, is_dispersed, is_dispersed_at};
}
