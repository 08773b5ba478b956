//! Pluggable transports underneath [`crate::comm::Comm`].
//!
//! `Comm` owns the MPI-flavoured semantics — envelope matching per sender,
//! collectives, the pending queue that fixes the cross-collective race — and
//! delegates the actual byte movement to a [`Transport`]:
//!
//! * [`shm::ShmTransport`] — in-process `std::sync::mpsc` channels;
//!   payloads travel as boxed `Any` values, no serialisation.
//! * [`socket::SocketTransport`] — real OS transports (Unix domain sockets
//!   or TCP) between ranks that may live in different processes; payloads
//!   travel through the hand-rolled length-prefixed [`wire`] codec.
//!
//! Both preserve per-sender FIFO ordering, which together with `Comm`'s
//! `(source, class)` envelope matching keeps interleaved collectives and
//! point-to-point traffic from ever cross-talking.
//!
//! Both also keep one failure contract: a peer whose transport is dropped
//! (also while its rank thread unwinds) is [`CommError::PeerDisconnected`] on
//! [`Transport::recv`] after its last frame, and on [`Transport::send`] to it.

pub mod shm;
pub mod socket;
pub mod wire;

use std::any::Any;
use std::fmt;
use std::sync::mpsc::Receiver;
use std::sync::Mutex;

/// Which backend a [`crate::comm::CommWorld`] builds its ranks on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process shared-memory channels (ranks are threads).
    Shm,
    /// Unix-domain or TCP sockets (ranks may be separate OS processes).
    Socket,
}

impl TransportKind {
    /// Stable lowercase name — the `--transport` CLI value and the
    /// `comm.<backend>.*` telemetry segment.
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
pub enum MsgClass {
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

/// A message payload in transit. The shm backend ships values as boxed
/// `Any` (zero-copy within the process); the socket backend ships encoded
/// bytes. [`Transport::local_frames`] tells `Comm` which to produce.
pub enum Frame {
    /// In-process payload: the value itself, boxed.
    Local(Box<dyn Any + Send>),
    /// Cross-process payload: a complete wire-codec encoding.
    Bytes(Vec<u8>),
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Frame::Local(_) => f.write_str("Frame::Local(..)"),
            Frame::Bytes(b) => write!(f, "Frame::Bytes({} bytes)", b.len()),
        }
    }
}

/// One received message: who sent it, on which class, and its payload.
#[derive(Debug)]
pub struct TransportEnvelope {
    pub src: usize,
    pub class: MsgClass,
    pub frame: Frame,
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
    /// An OS-level transport failure.
    Io(String),
    /// A frame arrived but failed to decode.
    Codec(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerDisconnected { peer } => write!(f, "peer rank {peer} disconnected"),
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
/// `recv` after its last frame, and on `send` to it (over sockets, once a
/// write to it has failed).
pub trait Transport: Send + Sync {
    /// Which backend this is (telemetry segment, diagnostics).
    fn kind(&self) -> TransportKind;
    /// This rank's index.
    fn rank(&self) -> usize;
    /// World size.
    fn size(&self) -> usize;
    /// `true` if payloads should travel as [`Frame::Local`] boxed values;
    /// `false` if they must be encoded to [`Frame::Bytes`].
    fn local_frames(&self) -> bool;
    /// Send one frame to `dest` (self-sends allowed). Must not block on the
    /// receiver making progress — sends are buffered.
    fn send(&self, dest: usize, class: MsgClass, frame: Frame) -> Result<(), CommError>;
    /// Block until the next envelope from any peer arrives.
    fn recv(&self) -> Result<TransportEnvelope, CommError>;
}
