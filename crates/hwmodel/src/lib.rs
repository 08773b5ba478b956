//! # hwmodel — simulated HPC node hardware
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
//! * **CPUs** — idle + per-core dynamic power, frequency-aware ([`cpu`]);
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
//! Architecture presets for the paper's three systems live in [`arch`].
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
//! let gpu = node.gpu(0).unwrap();
//!
//! // Launch a kernel on GPU 0 and advance simulated time by its duration.
//! let work = KernelWorkload::new("MomentumEnergy", 4.0e12, 2.0e10);
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
pub mod kernel;
pub mod memory;
pub mod node;
pub mod noise;
pub mod sysfs;

pub use clock::SimClock;
pub use dvfs::DvfsModel;
pub use gpu::GpuHandle;
pub use node::{Node, NodeBuilder};
pub use sysfs::VirtualSysfs;
