//! # energy-analysis — post-hoc analysis of application energy measurements
//!
//! The paper stores per-rank measurement records during the run and analyses
//! them afterwards ("post-hoc analysis ... to avoid perturbing the actual
//! simulation", §2). This crate is that analysis layer:
//!
//! * [`device_breakdown`] — per-device energy attribution with the §2 rules:
//!   GPU *card* counters are counted once per card even when two ranks share an
//!   MI250X card, per-node counters (CPU, memory, node) are counted once per
//!   node, and "Other" is the node remainder (Figure 2);
//! * [`function_breakdown`] — per-function, per-device energy shares
//!   (Figure 3);
//! * [`edp`] — energy-delay products and normalised frequency sweeps
//!   (Figures 4 and 5);
//! * [`validation`] — PMT-vs-Slurm comparison (Figure 1);
//! * [`gallery`] — scenario-gallery emitters: per-scenario analytic
//!   validation and per-stage min-EDP frequency tables;
//! * [`report`] — plain-text/CSV table emitters used by the
//!   experiment binaries;
//! * [`telemetry_report`] — the shared end-of-run telemetry summary tables
//!   (span aggregates, gauges/counters/histograms, per-rank stage energies).

pub mod device_breakdown;
pub mod edp;
pub mod function_breakdown;
pub mod gallery;
pub mod report;
pub mod telemetry_report;
pub mod validation;

pub use device_breakdown::DeviceBreakdown;
pub use edp::{normalized_edp_series, EdpError, EdpPoint};
pub use function_breakdown::{FunctionBreakdown, FunctionDeviceEnergy};
pub use gallery::{ScenarioEdpRow, ScenarioValidationRow, StageFrequencyRow};
pub use report::Table;
pub use telemetry_report::{per_rank_stage_table, telemetry_tables, RankStages};
pub use validation::PmtSlurmComparison;
