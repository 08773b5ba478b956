//! Pluggable transports underneath [`crate::comm::Comm`].
//!
//! `Comm` owns the MPI-flavoured semantics — envelope matching per sender,
//! collectives, the pending queue that fixes the cross-collective race, and
//! the one payload format: every value travels as its [`wire`] encoding, on
//! either backend. A `Transport` only moves those bytes:
//!
//! * `shm::ShmTransport` — in-process `std::sync::mpsc` channels;
//! * `socket::SocketTransport` — Unix domain sockets between ranks that
//!   may live in different processes, one length-prefixed frame per
//!   payload.
//!
//! So a payload whose type disagrees with the receiver's (collective order
//! differing across ranks) is [`CommError::Codec`] on both backends.
//!
//! Both preserve per-sender FIFO ordering, which together with `Comm`'s
//! `(source, class)` envelope matching keeps interleaved collectives and
//! point-to-point traffic from ever cross-talking.
//!
//! Both also keep one failure contract: a peer whose transport is dropped
//! (also while its rank thread unwinds) is [`CommError::PeerDisconnected`] on
//! `Transport::recv` after its last frame, and on `Transport::send` to it.

pub mod shm;
pub mod socket;
pub mod wire;

use std::fmt;
use std::sync::mpsc::Receiver;
use std::sync::Mutex;

/// Which backend a [`crate::comm::CommWorld`] builds its ranks on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process shared-memory channels (ranks are threads).
    Shm,
    /// Unix-domain sockets (ranks may be separate OS processes).
    Socket,
}

impl TransportKind {
    /// Stable lowercase name — the `--transport` CLI value.
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Shm => "shm",
            TransportKind::Socket => "socket",
        }
    }

    /// Parse a `--transport` CLI value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "shm" => Some(TransportKind::Shm),
            "socket" => Some(TransportKind::Socket),
            _ => None,
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Traffic class of a message. `Comm` matches envelopes on
/// `(source, class)`, so collective rounds and in-flight nonblocking
/// point-to-point transfers from the same sender can interleave freely
/// without stealing each other's payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MsgClass {
    /// Part of a collective (gather/broadcast/... round).
    Collective,
    /// An explicit `isend`/`irecv` transfer.
    P2p,
}

impl MsgClass {
    pub(crate) fn wire_tag(self) -> u8 {
        match self {
            MsgClass::Collective => 0,
            MsgClass::P2p => 1,
        }
    }

    pub(crate) fn from_wire_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(MsgClass::Collective),
            1 => Some(MsgClass::P2p),
            _ => None,
        }
    }
}

/// One received message: who sent it, on which class, and its payload (a
/// complete [`wire`] encoding).
#[derive(Debug)]
pub(crate) struct TransportEnvelope {
    pub src: usize,
    pub class: MsgClass,
    pub payload: Vec<u8>,
}

/// What a transport's one receive queue carries.
pub(crate) enum Incoming {
    Env(TransportEnvelope),
    /// The peer is gone; queued behind every frame it sent.
    Down(usize),
}

/// The next envelope on `queue` (behind a `Mutex` to be `Sync`); a `Down`
/// marker is [`CommError::PeerDisconnected`].
pub(crate) fn recv_incoming(queue: &Mutex<Receiver<Incoming>>) -> Result<TransportEnvelope, CommError> {
    let queue = queue.lock().expect("receive queue poisoned");
    match queue.recv().expect("a transport holds a sender to its own queue") {
        Incoming::Env(env) => Ok(env),
        Incoming::Down(peer) => Err(CommError::PeerDisconnected { peer }),
    }
}

/// Communication failure surfaced to callers of the nonblocking API (and,
/// as a panic with context, inside collectives — a rank cannot meaningfully
/// continue a collective with a dead peer).
#[derive(Clone, Debug)]
pub enum CommError {
    /// The peer's connection closed (process exit, crash, or orderly
    /// shutdown) while traffic from it was still expected.
    PeerDisconnected { peer: usize },
    /// A rank index outside `0..size`, or a world of no ranks.
    RankOutOfRange { rank: usize, size: usize },
    /// An OS-level transport failure.
    Io(String),
    /// A payload arrived but failed to decode as the expected type.
    Codec(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerDisconnected { peer } => write!(f, "peer rank {peer} disconnected"),
            CommError::RankOutOfRange { rank, size } => {
                write!(
                    f,
                    "rank {rank} is out of range for a world of {size} rank(s) (0..{size})"
                )
            }
            CommError::Io(e) => write!(f, "transport I/O error: {e}"),
            CommError::Codec(e) => write!(f, "wire codec error: {e}"),
        }
    }
}

impl std::error::Error for CommError {}

/// The byte-moving half of a communicator. Implementations must preserve
/// per-sender FIFO ordering and be safe to drive from multiple threads
/// (collectives and the telemetry emitter both hold `&Comm`).
///
/// Failure contract: a dropped peer is [`CommError::PeerDisconnected`] on
/// `recv` after its last frame, and on `send` to it.
pub(crate) trait Transport: Send + Sync {
    /// This rank's index.
    fn rank(&self) -> usize;
    /// World size.
    fn size(&self) -> usize;
    /// Send one encoded payload to `dest` (self-sends allowed). Must not
    /// wait for `dest` to call `recv`: shm queues the payload, and a socket
    /// write waits only for the peer's reader thread.
    fn send(&self, dest: usize, class: MsgClass, payload: Vec<u8>) -> Result<(), CommError>;
    /// Block until the next envelope from any peer arrives.
    fn recv(&self) -> Result<TransportEnvelope, CommError>;
}
