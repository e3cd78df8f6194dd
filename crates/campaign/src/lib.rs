//! # disp-campaign
//!
//! The parallel, deterministic experiment-orchestration engine for the
//! dispersion reproduction — the one trial pipeline ([`run`]) behind the
//! `disp-campaign` CLI, the harness binaries, `disp-serve` jobs and cluster
//! workers.
//!
//! ## Guarantees
//!
//! * **Determinism** — every trial's seed is derived as
//!   `mix(campaign_seed, fnv1a(canonical scenario label), repetition)`
//!   ([`grid::trial_seed`]), so results are byte-identical for any
//!   `--threads` value, any execution interleaving, and any subset/resume
//!   split of the grid.
//! * **Openness** — grids are made of canonical
//!   `disp_core::scenario::ScenarioSpec`s and algorithms resolve through a
//!   `disp_core::scenario::Registry`, so a new algorithm or placement
//!   reaches every campaign without touching this crate.
//! * **Parallelism** — trials are sharded across a work-stealing thread
//!   pool ([`engine::parallel_map`]); stealing rebalances the wildly uneven
//!   trial costs of a dispersion sweep.
//! * **Crash tolerance** — with a [`store::CampaignStore`], each finished
//!   trial is appended to `trials.jsonl` and flushed before the engine
//!   moves on; `resume` re-opens the directory, verifies the grid
//!   fingerprint and skips everything already on disk.
//!
//! ## Layers
//!
//! * [`engine`] — the generic work-stealing parallel map.
//! * [`grid`] — campaign descriptions (named sections of experiment
//!   points), trial expansion and seed derivation.
//! * [`store`] — the manifest + JSONL checkpoint directory, and the
//!   [`store::TrialStore`] seam the pipeline looks trials up in.
//! * [`run`] — the trial pipeline: plan → execute → assemble.
//! * [`telemetry`] — live per-trial events (bounded channel → pluggable
//!   sink; timing is non-content and lands in a sidecar, never in results).
//! * [`report`] — per-section tables, scaling fits, CSV series.
//! * [`cli`] — the command line of every workspace binary: per-command
//!   flag tables, one parser and the one stdout writer.
//!
//! ## Example
//!
//! ```
//! use disp_campaign::grid::{CampaignSpec, Mode};
//! use disp_campaign::run::run_campaign;
//! use disp_core::scenario::Registry;
//!
//! let mut spec = CampaignSpec::table1(Mode::Quick, 42);
//! spec.sections.truncate(1);
//! spec.sections[0].points.retain(|p| p.scenario.k <= 16); // doc-test sized
//! let (records, summary) = run_campaign(&spec, None, 2, &Registry::builtin()).unwrap();
//! assert_eq!(records.len(), summary.total);
//! assert!(records.iter().all(|r| r.dispersed));
//! ```

// `deny` rather than `forbid`: the `signal` module carries the workspace's
// single, documented unsafe block (registering a SIGINT/SIGTERM handler has
// no safe-Rust expression); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod engine;
pub mod grid;
pub mod report;
pub mod run;
#[allow(unsafe_code)]
pub mod signal;
pub mod store;
pub mod telemetry;

pub use engine::{parallel_map, EngineStats};
pub use grid::{
    full_ks, quick_ks, section_points, trial_seed, CampaignSpec, Mode, Section, SlotId, TrialSpec,
};
pub use run::{run_campaign, run_campaign_batched, run_trials, Plan, RunOptions, RunSummary};
pub use store::{CampaignStore, Checkpoint, Held, Manifest, TrialStore, TrialSummary, TrialWriter};
pub use telemetry::{
    trace_to_jsonl, EventRef, EventSink, JsonlSink, Telemetry, TelemetryHandle, TelemetrySink,
    TrialEvent,
};
