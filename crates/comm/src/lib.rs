//! # comm — the ranks' communicator
//!
//! The paper runs SPH-EXA with MPI across many CPU+GPU nodes and gathers the
//! energy measured **per MPI rank** at the end of the run. This crate is the
//! MPI side of that setup, and the only thing the mini-app links besides
//! `pmt`: it knows nothing of the nodes the ranks run on.
//!
//! * [`comm`] — a tiny MPI-like communicator (barrier, gather, all-reduce,
//!   nonblocking isend/irecv) used to gather per-rank measurement reports;
//! * [`transport`] — the pluggable byte-movers underneath [`comm::Comm`]:
//!   in-process shared-memory channels or a real Unix-socket mesh with a
//!   hand-rolled length-prefixed wire codec. The codec covers
//!   `pmt::MeasurementRecord` and `pmt::RankReport`, which is why `pmt` is
//!   this crate's one dependency.
//!
//! The simulated cluster, the rank-to-GPU mapping and the rank launcher live
//! with the machine, in `hwmodel`.

pub mod comm;
pub mod transport;

pub use comm::{CollectiveKind, Comm, CommStatsRow, CommStatsSnapshot, CommWorld, RecvHandle, SendHandle};
pub use transport::wire::{Frame, Wire, WireError, WireReader};
pub use transport::TransportKind;
