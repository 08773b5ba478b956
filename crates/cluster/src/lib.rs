//! # cluster — simulated multi-node, multi-rank runtime
//!
//! The paper runs SPH-EXA with MPI across many CPU+GPU nodes (up to 48 GPU
//! cards) and measures energy **per MPI rank**. This crate provides the
//! runtime substrate for reproducing that setup on one machine:
//!
//! * [`topology`] — a [`Cluster`]: N simulated nodes of one
//!   architecture sharing one simulated clock;
//! * [`mapping`] — the rank-to-GPU assignment rules, including the MI250X
//!   "one rank drives a GCD but `pm_counters` reports per card" quirk (§2);
//! * [`sensors`] — adapters plugging the simulated hardware into the `pmt`
//!   measurement back-ends: an NVML-like and a ROCm-SMI-like API over simulated
//!   GPUs, a `pm_counters`-equivalent in-memory node sensor, and a
//!   `pmt::Clock` over the simulated clock;
//! * [`comm`] — a tiny MPI-like communicator (barrier, gather, all-reduce,
//!   nonblocking isend/irecv) used to gather per-rank measurement reports;
//! * [`transport`] — the pluggable byte-movers underneath [`comm::Comm`]:
//!   in-process shared-memory channels or a real Unix-socket/TCP mesh with a
//!   hand-rolled length-prefixed wire codec;
//! * [`job`] — a launcher that runs one closure per rank on its own thread,
//!   with its rank context (node, GPU, communicator).

pub mod comm;
pub mod job;
pub mod mapping;
pub mod sensors;
pub mod topology;
pub mod transport;

pub use comm::{CollectiveKind, Comm, CommError, CommStatsRow, CommStatsSnapshot, CommWorld, RecvHandle, SendHandle};
pub use job::{run_ranks_with, RankContext};
pub use mapping::{RankMapping, RankPlacement};
pub use sensors::{GpuDiePowerSensor, SimClockAdapter, SimNodeSensor};
pub use topology::Cluster;
pub use transport::wire::{Wire, WireError, WireReader};
pub use transport::TransportKind;
