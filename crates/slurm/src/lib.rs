//! # slurm — resource-manager energy accounting (simulated)
//!
//! The paper validates PMT-measured energy against the only measurement HPC
//! users normally have access to: Slurm's job-level energy accounting
//! (`AcctGatherEnergyType` plugin + `sacct`). This crate reproduces the parts
//! of that pipeline that matter for the comparison (Figure 1):
//!
//! * [`energy_plugin`] — the three accounting back-ends (`ipmi`,
//!   `pm_counters`, `rapl`) reading node-level counters from the simulated
//!   nodes, with the coverage differences of the real plugins (RAPL sees only
//!   CPU+DRAM; IPMI is noisy and coarsely quantised);
//! * [`job`] — the job lifecycle: **energy accounting starts at submission**,
//!   then a setup phase (job launch, allocation of simulation data structures)
//!   runs with idle GPUs, then the application's time-stepping loop, then
//!   teardown. PMT, by contrast, only measures the time-stepping loop — that
//!   window difference is exactly what Figure 1 shows;
//! * [`sacct`] — `sacct`-style consumed-energy records and formatting.

pub mod energy_plugin;
pub mod job;
pub mod sacct;

pub use energy_plugin::AcctGatherEnergyType;
pub use job::SlurmJob;
pub use sacct::SacctRecord;
