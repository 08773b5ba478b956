//! # comm — the ranks' communicator
//!
//! The paper runs SPH-EXA with MPI across many CPU+GPU nodes and gathers the
//! energy measured **per MPI rank** at the end of the run. This crate is the
//! MPI side of that setup, and a leaf of the workspace: it depends on no
//! other crate of it, and knows nothing of the meter or of the nodes the
//! ranks run on.
//!
//! * [`comm`] — a tiny MPI-like communicator (barrier, gather, all-reduce,
//!   nonblocking isend/irecv) used to gather per-rank measurement reports,
//!   and [`run_world`], the one way a world of rank threads is started;
//! * [`transport`] — the pluggable byte-movers underneath [`comm::Comm`]:
//!   in-process shared-memory channels or a real Unix-socket mesh with a
//!   hand-rolled length-prefixed wire codec ([`Wire`]). A type of another
//!   crate travels through its own codec: `sphsim` encodes the PMT report a
//!   rank gathers at rank 0.
//!
//! The simulated cluster and the rank-to-GPU mapping live with the machine,
//! in `hwmodel`; the launcher that places ranks on it, in `experiments`.

pub mod comm;
pub mod transport;

pub use comm::{run_world, CollectiveKind, Comm, CommStatsRow, CommStatsSnapshot, CommWorld, RecvHandle, SendHandle};
pub use transport::wire::{Frame, Wire, WireError, WireReader};
pub use transport::TransportKind;
