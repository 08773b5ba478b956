//! # energy-analysis — post-hoc analysis of application energy measurements
//!
//! The paper stores per-rank measurement records during the run and analyses
//! them afterwards ("post-hoc analysis ... to avoid perturbing the actual
//! simulation", §2). This crate is that analysis layer:
//!
//! * [`device_breakdown`] — one label's row, plus "Other", the node remainder
//!   (Figure 2); its `node_j` is the PMT side of Figure 1;
//! * [`function_breakdown`] — every function's row and its per-device energy
//!   shares (Figure 3);
//! * [`edp`] — energy-delay products and normalised frequency sweeps
//!   (Figures 4 and 5);
//! * [`validation`] — PMT-vs-Slurm comparison (Figure 1);
//! * [`gallery`] — scenario-gallery emitters: per-scenario analytic
//!   validation and per-stage min-EDP frequency tables;
//! * [`report`] — plain-text/CSV table emitters used by the
//!   experiment binaries;
//! * [`telemetry_report`] — the shared end-of-run telemetry summary tables
//!   (span aggregates, gauges/counters/histograms, per-rank stage energies).
//!
//! Figures 1, 2 and 3 read one attribution of the per-rank records, the §2
//! accounting rules, applied in one pass that yields a row per label:
//!
//! 1. node, CPU and memory counters, and the label's calls and time, are
//!    counted once per node, from the first rank on that node that has
//!    records of the label — every rank of a node reads the same counters;
//! 2. a GPU *card* counter (`accelN` / `pm_counters`) is counted once per
//!    card, even where two ranks share an MI250X card;
//! 3. a GPU *die* counter (NVML / ROCm back-ends) is counted once per rank,
//!    for the rank's own die: one rank drives one die.

pub mod device_breakdown;
pub mod edp;
pub mod function_breakdown;
pub mod gallery;
pub mod report;
pub mod telemetry_report;
pub mod validation;

pub use edp::{normalized_edp_series, EdpPoint};
pub use report::Table;
pub use telemetry_report::{per_rank_stage_table, telemetry_tables, RankStages};
