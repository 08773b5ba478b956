//! # hwmodel — the simulated machine
//!
//! This crate provides a *power–performance simulator* for CPU+GPU compute nodes.
//! It is the substrate that replaces the physical LUMI-G, CSCS-A100 and miniHPC
//! nodes used in the paper:
//!
//! > *Accurate Measurement of Application-level Energy Consumption for
//! > Energy-Aware Large-Scale Simulations* (SC 2023).
//!
//! The simulator models, per node:
//!
//! * **CPUs** — idle + load-proportional package power ([`cpu`]);
//! * **GPUs** — idle + occupancy- and DVFS-dependent dynamic power, with a
//!   roofline-style kernel execution-time model ([`gpu`], [`kernel`], [`dvfs`]);
//! * **Memory** — idle + bandwidth-proportional power ([`memory`]);
//! * **Auxiliary components** (NIC, fans, board) — the "Other" category of the
//!   paper's Figure 2 ([`aux`]);
//! * a **simulated clock** ([`clock`]) so that hundred-timestep, billion-particle
//!   campaigns can be "executed" in milliseconds of host time while preserving
//!   realistic simulated durations and energies;
//! * a **virtual sysfs** ([`sysfs`]) that materialises Intel RAPL `powercap` and
//!   HPE/Cray `pm_counters` file trees from the live device counters, in exactly
//!   the file formats the real kernel interfaces expose, so that file-parsing
//!   measurement back-ends (crate `pmt`) exercise their real code paths.
//!
//! The paper reads the host side — sockets, DRAM, board — only through
//! node-level counters and varies only the GPU clock, so the host devices
//! have no handles and no clock: one call,
//! [`Node::set_host_load`](node::Node::set_host_load), sets all three loads.
//! Each GPU die is a [`GpuHandle`], with its own occupancy and DVFS clock.
//!
//! Architecture presets for the paper's three systems live in [`arch`].
//!
//! Above the node sit the cluster, the ranks' placement on it and the
//! resource manager's view of it:
//!
//! * [`topology`] — a [`Cluster`]: N simulated nodes of one architecture
//!   sharing one simulated clock;
//! * [`mapping`] — the rank-to-GPU assignment rules, including the MI250X
//!   "one rank drives a GCD but `pm_counters` reports per card" quirk (§2);
//! * [`sensors`] — adapters plugging the simulated hardware into the `pmt`
//!   measurement back-ends: a `pm_counters`-equivalent in-memory node
//!   sensor, a power-only sensor over one GPU die and a `pmt::Clock` over
//!   the simulated clock;
//! * [`job`] — the Slurm-like job lifecycle: **energy accounting starts at
//!   submission**,
//!   then a setup phase (job launch, allocation of simulation data
//!   structures) runs with idle GPUs, then the application's time-stepping
//!   loop, then teardown, and completion yields the job's `sacct` record
//!   (elapsed time and the node counters' `pm_counters` difference, in whole
//!   joules). PMT, by contrast, only measures the time-stepping loop — that
//!   window difference is exactly what Figure 1 shows.
//!
//! Slurm's job-level accounting is the only energy measurement HPC users
//! normally have, and the one the paper validates PMT against (Figure 1).
//!
//! The machine knows no communicator: the launcher that starts one thread
//! per rank with its placement, GPU die and `comm` communicator is
//! `experiments::campaign::run_ranks_with`. The mini-app links none of this:
//! it sees only `pmt` and `comm`.
//!
//! All quantities use SI units (`f64`): seconds, watts, joules, hertz, bytes.
//!
//! ## Quick example
//!
//! ```
//! use hwmodel::arch;
//! use hwmodel::kernel::KernelWorkload;
//!
//! // Build one CSCS-A100-like node (1x EPYC, 4x A100-SXM4).
//! let node = arch::cscs_a100().build();
//! let gpu = &node.gpus()[0];
//!
//! // Launch a kernel on GPU 0 and advance simulated time by its duration.
//! let work = KernelWorkload::new(4.0e12, 2.0e10);
//! let elapsed = gpu.execute(&work);
//! node.advance(elapsed);
//!
//! // Read the node's counters the way Cray `pm_counters` does: the whole
//! // node, the CPU sockets and each GPU card, as (watts, joules).
//! let reading = node.read();
//! let (_, node_j) = reading.node();
//! let (_, card0_j) = reading.card(0);
//! assert!(card0_j > 0.0);
//! assert!(node_j >= card0_j + reading.cpus().1);
//! ```

pub mod arch;
pub mod aux;
pub mod clock;
pub mod cpu;
mod device;
pub mod dvfs;
pub mod gpu;
pub mod job;
pub mod kernel;
pub mod mapping;
pub mod memory;
pub mod node;
pub mod sensors;
pub mod sysfs;
pub mod topology;

pub use clock::SimClock;
pub use dvfs::DvfsModel;
pub use gpu::GpuHandle;
pub use job::{SacctRecord, SlurmJob};
pub use mapping::RankMapping;
pub use node::{Node, NodeBuilder};
pub use sensors::{GpuDiePowerSensor, SimClockAdapter, SimNodeSensor};
pub use sysfs::VirtualSysfs;
pub use topology::Cluster;
