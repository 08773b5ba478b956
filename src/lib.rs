//! # energy-aware-sim — umbrella crate
//!
//! Re-exports the public API of the whole workspace so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`pmt`] — the Power Measurement Toolkit (sensors, back-ends, meter,
//!   instrumentation, region observers, reports);
//! * [`comm`] — the ranks' MPI-like communicator over shared-memory or
//!   socket transports, its wire codec and `run_world`, the one runner of a
//!   world of rank threads; a leaf, it links no other crate of the workspace;
//! * [`hwmodel`] — the simulated machine: CPU+GPU node power models, DVFS,
//!   virtual sysfs, architecture presets, the cluster and its rank mapping,
//!   the PMT sensor adapters and Slurm-like energy accounting; it links
//!   `pmt`, and no communicator;
//! * [`sphsim`] — the SPH mini-app: the instrumented step driver over one or
//!   many ranks, governable through region observers, and the wire codec of
//!   the PMT report a rank gathers at rank 0; it links `pmt` and `comm`, and
//!   nothing of the machine;
//! * [`autotune`] — the online per-stage DVFS governor: exhaustive/
//!   golden-section/hill-climb search over the DVFS grid, and a
//!   [`pmt::RegionObserver`] governor that hill-climbs each pipeline stage to
//!   the min-EDP frequency of its GPU energy at runtime instead of reading it
//!   off the offline sweep;
//! * [`experiments`] — the per-figure/table experiment campaigns, the rank
//!   launcher `run_ranks_with` that places ranks on the machine, the
//!   post-hoc analysis (device/function breakdowns, EDP, validation), and
//!   `replicate`, the one binary that regenerates and gates all of them;
//! * [`telemetry`] — dependency-free structured tracing and metrics: spans
//!   with rank/thread tags, counters/gauges/histograms and one Chrome-trace
//!   (Perfetto) file per sink, wired through every layer above.
//!
//! See `examples/` for runnable entry points and `README.md` for the crate
//! map and quickstart.

pub use autotune;
pub use comm;
pub use experiments;
pub use hwmodel;
pub use pmt;
pub use sphsim;
pub use telemetry;

/// The names the repository benchmark (`perfbench/`) imports from the
/// former `cluster` crate, now split into [`comm`], [`hwmodel`] and
/// [`experiments`] (the rank launcher, [`experiments::campaign::run_ranks_with`]).
///
/// Only the benchmark's own change may edit `perfbench/`; ROADMAP item 1
/// moves its imports to their homes and deletes this module.
pub mod cluster {
    pub use comm::{CollectiveKind, CommStatsRow, CommStatsSnapshot, CommWorld, TransportKind, Wire};
    pub use experiments::campaign::run_ranks_with;
    pub use hwmodel::{Cluster, GpuDiePowerSensor, RankMapping};
}
