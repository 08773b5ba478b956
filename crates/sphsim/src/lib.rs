//! # sphsim — an SPH-EXA-like smoothed particle hydrodynamics mini-framework
//!
//! This crate is the simulation substrate of the reproduction: an SPH code with
//! the same pipeline structure, the same named time-stepping stages and the
//! same profiling hooks as SPH-EXA, so that the measurement methodology of the
//! paper can be applied to it unchanged.
//!
//! Two execution paths share the same stage names and instrumentation:
//!
//! * the **CPU step driver** ([`distributed::DistributedSimulation`]) runs
//!   real SPH physics (octree, density, grad-h, momentum/energy, gravity,
//!   stirring) at laptop-scale particle counts over the ranks of a
//!   `cluster::Comm`, sharded along the Morton curve — per-step halo
//!   exchange, migration and re-balancing inside `DomainDecompAndSync`, a
//!   global Courant timestep via `allreduce_min`, and per-rank per-stage
//!   energy gathering à la the paper's §2. [`propagator::Simulation`] is the
//!   same driver over a one-rank world, where nothing is ever sent: the plain
//!   single-set reference that validates the physics and the hooks. The hot
//!   path is flat: Morton-sorted SoA particle storage, CSR neighbour lists
//!   and a reusable [`workspace::StepWorkspace`] make the per-step neighbour
//!   pipeline allocation-free after warm-up;
//! * the **paper-scale campaign executor** ([`gpu_offload::run_campaign`])
//!   offloads each stage to the simulated GPUs of the `hwmodel`/`cluster`
//!   crates through a calibrated per-stage workload model ([`workload`]),
//!   measures every rank with the `pmt` toolkit and accounts the job with the
//!   `slurm` crate — producing everything Figures 1–5 need.

pub mod boundary;
pub mod celllist;
pub mod distributed;
pub mod domain;
pub mod gpu_offload;
pub mod init;
pub mod kernels;
pub mod morton;
pub mod observables;
pub mod octree;
pub mod parallel;
pub mod particle;
pub mod physics;
pub mod propagator;
pub mod scenario;
pub mod stages;
pub mod workload;
pub mod workspace;

pub use boundary::{dx_periodic, Boundary, MinImage};
pub use celllist::CellGrid;
pub use distributed::{
    run_distributed, run_distributed_campaign, run_distributed_traced, run_distributed_with_transport,
    DistributedCampaignConfig, DistributedCampaignResult, DistributedRankReport, DistributedSimulation, OverlapStats,
    ShardResult,
};
pub use domain::DomainMap;
pub use gpu_offload::{
    run_campaign, run_campaign_governed, run_campaign_with_observers, CampaignConfig, CampaignResult, MAIN_LOOP_LABEL,
};
pub use octree::Octree;
pub use particle::ParticleSet;
pub use physics::neighbors::NeighborLists;
pub use physics::timestep::TimestepBins;
pub use propagator::{Simulation, StepSummary, DEFAULT_REORDER_INTERVAL};
pub use scenario::{CostScale, Scenario, ScenarioRef, ScenarioRegistry, ValidationCheck};
pub use stages::SphStage;
pub use workspace::{NeighborBuildStats, StepWorkspace};
