//! # disp-analysis
//!
//! Experiment points, scaling fits and report generation for the dispersion
//! reproduction. The [`experiment`] module defines experiment points
//! (a canonical `ScenarioSpec` × repetitions), runs individual seeded
//! trials and aggregates their records (sweeps run through the
//! `disp-campaign` engine) and holds the one-pass codec of the JSONL
//! record line, [`scenario_json`] is the structured JSON codec for
//! scenarios (labels are the other canonical form), [`jsonl`] streams and
//! merges the trial records the `disp-campaign` engine checkpoints to
//! disk, [`json`] is the minimal dependency-free JSON layer underneath (a
//! value tree, and the one-pass writer and pull reader the record lines
//! use), [`online`] provides
//! constant-space streaming statistics (Welford + P² quantiles) for live
//! campaign observation, [`fit`] estimates log–log
//! scaling exponents so the harness can check the *shape* of the paper's
//! bounds, [`stats`] provides the usual summaries, and [`report`] renders
//! the Markdown and CSV tables of a campaign report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod fit;
pub mod json;
pub mod jsonl;
pub mod online;
pub mod report;
pub mod scenario_json;
pub mod spark;
pub mod stats;

pub use experiment::{ExperimentPoint, Measurement, TrialRecord};
pub use fit::{loglog_fit, LogLogFit};
pub use json::Json;
pub use jsonl::{dedup_trials, merge_trials, read_trials, Ingest};
pub use online::{OnlineStats, P2Quantile, Welford};
pub use report::{
    csv_table, markdown_table, measurement_header, measurement_row, measurement_to_json,
};
pub use scenario_json::{decode_scenario, encode_scenario};
pub use spark::{sparkline, sparkline_scaled, SPARK_RAMP};
pub use stats::Summary;
