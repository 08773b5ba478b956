//! # sphsim — an SPH-EXA-like smoothed particle hydrodynamics mini-framework
//!
//! This crate is the simulation substrate of the reproduction: an SPH code with
//! the same pipeline structure, the same named time-stepping stages and the
//! same profiling hooks as SPH-EXA, so that the measurement methodology of the
//! paper can be applied to it unchanged.
//!
//! One execution path, and nothing else: the **CPU step driver**
//! ([`distributed::DistributedSimulation`]) runs real SPH physics (octree,
//! density, grad-h, momentum/energy, gravity, stirring) at laptop-scale
//! particle counts over the ranks of a `comm::Comm`, sharded along the
//! Morton curve — per-step halo exchange, migration and re-balancing inside
//! `DomainDecompAndSync`, a global Courant timestep via `allreduce_min`, and
//! per-rank per-stage energy gathering à la the paper's §2.
//! [`propagator::Simulation`] is the same driver over a one-rank world, where
//! nothing is ever sent: the plain single-set reference that validates the
//! physics and the hooks. The hot path is flat: Morton-sorted SoA particle
//! storage, CSR neighbour lists and a reusable [`workspace::StepWorkspace`]
//! make the per-step neighbour pipeline allocation-free after warm-up.
//!
//! As in the paper, the application is instrumented and knows nothing else:
//! it calls `pmt` around its stages and depends on `comm`, `pmt`, `rand`
//! and `telemetry` only. The **paper-scale campaign executor** — the stages
//! offloaded to the simulated GPUs of `hwmodel` through a calibrated
//! per-stage cost model, accounted by its Slurm model, producing everything
//! Figures 1–5 need — and the metered multi-rank runs of this driver live above it,
//! in `experiments::{gpu_offload, workload, campaign}`. What a scenario
//! contributes to that model (Table 1's sizing, `stage_cost_scale`) stays in
//! its [`Scenario`] row: they are properties of the scenario.

pub mod boundary;
pub mod celllist;
pub mod distributed;
pub mod domain;
pub mod init;
pub mod kernels;
pub mod morton;
pub mod octree;
pub mod parallel;
pub mod particle;
pub mod physics;
pub mod propagator;
pub mod scenario;
pub mod stages;
pub mod workspace;

pub use boundary::{dx_periodic, Boundary, MinImage};
pub use distributed::{run_distributed, DistributedRankReport, DistributedSimulation, OverlapStats};
pub use octree::Octree;
pub use particle::ParticleSet;
pub use physics::timestep::TimestepBins;
pub use propagator::{Simulation, StepSummary};
pub use scenario::{CostScale, Scenario};
pub use stages::SphStage;
pub use workspace::StepWorkspace;
