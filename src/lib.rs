//! # energy-aware-sim — umbrella crate
//!
//! Re-exports the public API of the whole workspace so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`pmt`] — the Power Measurement Toolkit (sensors, back-ends, meter,
//!   instrumentation, region observers, reports);
//! * [`hwmodel`] — the simulated CPU+GPU node hardware (power models, DVFS,
//!   virtual sysfs, architecture presets);
//! * [`cluster`] — multi-node/multi-rank runtime and PMT↔hardware adapters;
//! * [`slurm`] — Slurm-like job lifecycle and energy accounting;
//! * [`sphsim`] — the SPH mini-framework (real CPU propagator + paper-scale
//!   campaign executor, both governable through region observers);
//! * [`energy_analysis`] — device/function breakdowns, EDP, validation;
//! * [`autotune`] — the online per-stage DVFS governor: exhaustive/
//!   golden-section/hill-climb search over the DVFS grid, and a
//!   [`pmt::RegionObserver`] governor that hill-climbs each pipeline stage to
//!   the min-EDP frequency of its GPU energy at runtime instead of reading it
//!   off the offline sweep;
//! * [`experiments`] — the per-figure/table experiment campaigns, and
//!   `replicate`, the one binary that regenerates and gates all of them;
//! * [`telemetry`] — dependency-free structured tracing and metrics: spans
//!   with rank/thread tags, counters/gauges/histograms and one Chrome-trace
//!   (Perfetto) file per sink, wired through every layer above.
//!
//! See `examples/` for runnable entry points and `README.md` for the crate
//! map and quickstart.

pub use autotune;
pub use cluster;
pub use energy_analysis;
pub use experiments;
pub use hwmodel;
pub use pmt;
pub use slurm;
pub use sphsim;
pub use telemetry;
