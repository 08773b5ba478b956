//! A miniature MPI-like communicator over pluggable transports.
//!
//! SPH-EXA gathers per-rank energy measurements at the end of a run (§2); the
//! experiments here do the same through [`Comm::gather`]. The communicator also
//! provides a barrier, sum/max/min all-reductions, and — new with the real
//! transports — nonblocking point-to-point transfers ([`Comm::isend`] /
//! [`Comm::irecv`]) that the distributed propagator overlaps with compute.
//!
//! `Comm` owns the MPI semantics and the one payload format — every value
//! travels as its hand-rolled wire encoding; the bytes move through a
//! `Transport` chosen by [`TransportKind`]:
//! in-process shared-memory channels (ranks are threads) or Unix-socket
//! streams (ranks may be separate OS processes). A value is encoded once, by
//! [`Wire::into_wire`], and decoded once, by [`Wire::from_frame`]; a
//! [`Frame`](crate::Frame) its sender already wrote reaches the transport
//! by move, and reaches its receiver as it arrived.
//!
//! Collective calls must be issued in the same order on every rank, exactly as
//! with MPI; there is no tag matching. Envelopes *are* matched by sender and
//! traffic class, though: a receiver drains exactly one message per expected
//! peer and stashes out-of-order arrivals, so a fast rank racing ahead into
//! the next collective cannot corrupt a slower rank still draining the
//! current one — and an in-flight `isend` can never be mistaken for a
//! collective contribution. Each rank's `Comm` is driven from one thread at a
//! time (stats snapshots are safe from anywhere).

use crate::transport::shm::ShmTransport;
use crate::transport::socket::SocketTransport;
use crate::transport::wire::Wire;
use crate::transport::{MsgClass, Transport, TransportEnvelope, TransportKind};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::transport::CommError;

/// The traffic kinds a [`Comm`] counts, one row per collective plus one for
/// the nonblocking point-to-point API.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollectiveKind {
    /// [`Comm::barrier`].
    Barrier,
    /// [`Comm::gather`].
    Gather,
    /// [`Comm::broadcast`].
    Broadcast,
    /// [`Comm::allreduce_sum`] / [`Comm::allreduce_max`] / [`Comm::allreduce_min`].
    Allreduce,
    /// [`Comm::allgather`].
    Allgather,
    /// [`Comm::alltoall`].
    Alltoall,
    /// [`Comm::isend`] / [`Comm::irecv`].
    P2p,
}

impl CollectiveKind {
    /// Stable lowercase label, used in metric names (`comm.<label>.messages`).
    pub fn label(&self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::Alltoall => "alltoall",
            CollectiveKind::P2p => "p2p",
        }
    }

    /// Every kind, in declaration order.
    pub fn all() -> [CollectiveKind; 7] {
        [
            CollectiveKind::Barrier,
            CollectiveKind::Gather,
            CollectiveKind::Broadcast,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
            CollectiveKind::Alltoall,
            CollectiveKind::P2p,
        ]
    }
}

/// Per-rank traffic accounting, one row per [`CollectiveKind`], counted
/// under the collective the *application* called (a barrier's gather and
/// broadcast count under `Barrier`).
///
/// `calls` counts invocations on this rank; `messages` and `bytes` count each
/// frame where it is handed to the transport, self-sends included. Both
/// backends carry the same frames, so they report the same numbers.
#[derive(Default)]
struct CommStats {
    rows: [(AtomicU64, AtomicU64, AtomicU64); 7],
}

impl CommStats {
    /// One call of `kind` on this rank.
    fn record_call(&self, kind: CollectiveKind) {
        self.rows[kind as usize].0.fetch_add(1, Ordering::Relaxed);
    }

    /// One frame of `len` bytes handed to the transport under `kind`.
    fn record_frame(&self, kind: CollectiveKind, len: usize) {
        let (_, messages, bytes) = &self.rows[kind as usize];
        messages.fetch_add(1, Ordering::Relaxed);
        bytes.fetch_add(len as u64, Ordering::Relaxed);
    }

    /// Point-in-time copy of every row.
    fn snapshot(&self) -> CommStatsSnapshot {
        CommStatsSnapshot {
            rows: CollectiveKind::all()
                .into_iter()
                .map(|kind| {
                    let (calls, msgs, bytes) = &self.rows[kind as usize];
                    CommStatsRow {
                        kind,
                        calls: calls.load(Ordering::Relaxed),
                        messages: msgs.load(Ordering::Relaxed),
                        bytes: bytes.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }
}

/// One row of a [`CommStatsSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommStatsRow {
    /// Which collective.
    pub kind: CollectiveKind,
    /// Invocations on this rank.
    pub calls: u64,
    /// Frames this rank handed to the transport.
    pub messages: u64,
    /// Wire bytes of the frames this rank handed to the transport.
    pub bytes: u64,
}

/// Point-in-time copy of a communicator's `CommStats`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommStatsSnapshot {
    /// One row per collective kind, in [`CollectiveKind::all`] order.
    pub rows: Vec<CommStatsRow>,
}

impl CommStatsSnapshot {
    /// The row for `kind`.
    pub fn row(&self, kind: CollectiveKind) -> CommStatsRow {
        self.rows[kind as usize]
    }
}

/// Factory producing one [`Comm`] handle per rank.
pub struct CommWorld;

static SOCKET_WORLD_COUNTER: AtomicU64 = AtomicU64::new(0);

impl CommWorld {
    /// Create communicator handles for `n` ranks over `kind`. The socket
    /// backend builds a real Unix-domain-socket mesh under a fresh
    /// rendezvous directory in the system temp dir — every byte crosses the
    /// OS, even when the ranks are threads of one process.
    pub fn create_with(n: usize, kind: TransportKind) -> Vec<Comm> {
        assert!(n >= 1, "communicator needs at least one rank");
        match kind {
            TransportKind::Shm => ShmTransport::world(n)
                .into_iter()
                .map(|t| Comm::from_transport(Box::new(t)))
                .collect(),
            TransportKind::Socket => {
                let dir = std::env::temp_dir().join(format!(
                    "sph-comm-{}-{}",
                    std::process::id(),
                    SOCKET_WORLD_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                // Connect concurrently: the mesh handshake needs every rank
                // dialling at once.
                let handles: Vec<_> = (0..n)
                    .map(|rank| {
                        let dir = dir.clone();
                        std::thread::spawn(move || SocketTransport::connect(&dir, rank, n))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        let transport = h
                            .join()
                            .expect("socket connect thread panicked")
                            .unwrap_or_else(|e| panic!("socket world setup failed: {e}"));
                        Comm::from_transport(Box::new(transport))
                    })
                    .collect()
            }
        }
    }

    /// Join a multi-process socket world as `rank` of `size`. `dir` is the
    /// rendezvous directory of its Unix domain sockets; every participating
    /// process must call this with the same directory. A `rank` outside
    /// `0..size` is [`CommError::RankOutOfRange`].
    pub fn connect_socket(dir: &Path, rank: usize, size: usize) -> Result<Comm, CommError> {
        Ok(Comm::from_transport(Box::new(SocketTransport::connect(
            dir, rank, size,
        )?)))
    }
}

/// Run `f` once per rank of an `n`-rank world over `transport`, each rank on
/// its own thread with its [`Comm`], and return the results in rank order.
/// The ranks are joined in rank order; the first that panicked fails the
/// world with one panic naming it, once every rank has finished.
pub fn run_world<T: Send>(n: usize, transport: TransportKind, f: impl Fn(Comm) -> T + Sync) -> Vec<T> {
    let f = &f;
    std::thread::scope(|scope| {
        let ranks: Vec<_> = CommWorld::create_with(n, transport)
            .into_iter()
            .map(|comm| scope.spawn(move || f(comm)))
            .collect();
        ranks
            .into_iter()
            .enumerate()
            .map(|(rank, thread)| match thread.join() {
                Ok(result) => result,
                Err(payload) => panic!("rank {rank} panicked: {}", panic_message(&*payload)),
            })
            .collect()
    })
}

/// The text a panic was raised with; empty for a payload that is not text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    match (payload.downcast_ref::<String>(), payload.downcast_ref::<&str>()) {
        (Some(message), _) => message,
        (None, message) => message.copied().unwrap_or(""),
    }
}

/// Completion handle of a nonblocking send. The frame is written when
/// posted; the peer's reader thread drains it — `wait` only reports whether
/// posting succeeded — but the handle must still be waited before the next
/// collective so the communication schedule stays well-ordered (`sphlint`
/// enforces this).
#[must_use = "complete the transfer with wait() before the next collective"]
pub struct SendHandle {
    result: Result<(), CommError>,
}

impl SendHandle {
    /// Complete the send.
    pub fn wait(self) -> Result<(), CommError> {
        self.result
    }
}

/// Completion handle of a nonblocking receive posted by [`Comm::irecv`].
#[must_use = "complete the transfer with wait() before the next collective"]
pub struct RecvHandle<T: Wire> {
    src: usize,
    _payload: PhantomData<fn() -> T>,
}

impl<T: Wire> RecvHandle<T> {
    /// The rank this handle is receiving from.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Block until the matching message arrives and decode it (a
    /// [`Frame`](crate::Frame) is handed over as it arrived). Returns
    /// [`CommError::PeerDisconnected`] — instead of hanging — if the peer's
    /// connection closed before its message arrived, and
    /// [`CommError::Codec`] if the message does not decode as a `T`.
    pub fn wait(self, comm: &Comm) -> Result<T, CommError> {
        comm.try_recv_value(self.src, MsgClass::P2p)
    }
}

/// Per-rank communicator handle.
pub struct Comm {
    transport: Box<dyn Transport>,
    /// Envelopes received while waiting for a specific sender. A rank that
    /// finished collective `k` may already be sending for collective `k + 1`
    /// (or have in-flight `isend` traffic) while we still drain `k`; early
    /// envelopes are parked here until the matching receive comes around.
    pending: Mutex<VecDeque<TransportEnvelope>>,
    /// Peers whose connection the transport reported closed.
    down: Mutex<Vec<bool>>,
    /// Per-collective traffic accounting for this rank.
    stats: CommStats,
}

impl Comm {
    fn from_transport(transport: Box<dyn Transport>) -> Self {
        let size = transport.size();
        Comm {
            transport,
            pending: Mutex::new(VecDeque::new()),
            down: Mutex::new(vec![false; size]),
            stats: CommStats::default(),
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Block until every rank reaches the barrier: a gather + broadcast
    /// round, attributed to Barrier. A dead rank fails it like any other
    /// collective.
    pub fn barrier(&self) {
        let kind = CollectiveKind::Barrier;
        self.stats.record_call(kind);
        let gathered = self.gather_inner(kind, 1u8, 0);
        let _ = self.broadcast_inner(kind, gathered.map(|_| 1u8), 0);
    }

    /// Snapshot of this rank's per-collective traffic counters.
    pub fn stats(&self) -> CommStatsSnapshot {
        self.stats.snapshot()
    }

    /// Hand one frame to the transport, counting it under `kind`.
    fn post(&self, kind: CollectiveKind, dest: usize, class: MsgClass, payload: Vec<u8>) -> Result<(), CommError> {
        self.stats.record_frame(kind, payload.len());
        self.transport.send(dest, class, payload)
    }

    /// One collective frame to `dest`; a failed send panics naming `kind`.
    fn send_bytes(&self, kind: CollectiveKind, dest: usize, payload: Vec<u8>) {
        if let Err(e) = self.post(kind, dest, MsgClass::Collective, payload) {
            panic!("{}: send to rank {dest} failed: {e}", kind.label());
        }
    }

    /// Receive the next envelope from a specific `(sender, class)`, parking
    /// any envelopes other traffic delivered in the meantime. Per-sender
    /// transport FIFO plus `(sender, class)` matching is what keeps
    /// back-to-back collectives — and collectives racing in-flight `isend`
    /// traffic — from cross-talking when ranks run at different speeds.
    fn recv_from(&self, src: usize, class: MsgClass) -> Result<Vec<u8>, CommError> {
        {
            let mut pending = self.pending.lock().expect("pending queue poisoned");
            if let Some(pos) = pending.iter().position(|e| e.src == src && e.class == class) {
                return Ok(pending.remove(pos).expect("position just found").payload);
            }
        }
        if self.down.lock().expect("down set poisoned")[src] {
            return Err(CommError::PeerDisconnected { peer: src });
        }
        loop {
            match self.transport.recv() {
                Ok(env) => {
                    if env.src == src && env.class == class {
                        return Ok(env.payload);
                    }
                    self.pending.lock().expect("pending queue poisoned").push_back(env);
                }
                Err(CommError::PeerDisconnected { peer }) => {
                    self.down.lock().expect("down set poisoned")[peer] = true;
                    if peer == src {
                        return Err(CommError::PeerDisconnected { peer });
                    }
                    // Another peer died; the traffic we are waiting for may
                    // still arrive.
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Receive from `(src, class)` and decode; a payload that is not a `T`
    /// (collective order disagreeing across ranks) is [`CommError::Codec`].
    fn try_recv_value<T: Wire>(&self, src: usize, class: MsgClass) -> Result<T, CommError> {
        T::from_frame(self.recv_from(src, class)?).map_err(|e| CommError::Codec(e.to_string()))
    }

    /// One collective frame from `src`, decoded; a failure panics naming `kind`.
    fn recv_value<T: Wire>(&self, kind: CollectiveKind, src: usize) -> T {
        self.try_recv_value(src, MsgClass::Collective)
            .unwrap_or_else(|e| panic!("{}: receive from rank {src} failed: {e}", kind.label()))
    }

    /// Post a nonblocking send of `value` to `dest`. The frame is written
    /// when posted; the peer's reader thread drains it, so the send never
    /// waits for `dest` to receive. The returned handle's
    /// [`SendHandle::wait`] completes it. Ghost exchange posts these, runs
    /// the interior-row kernels, then waits.
    pub fn isend<T: Wire>(&self, dest: usize, value: T) -> SendHandle {
        self.stats.record_call(CollectiveKind::P2p);
        SendHandle {
            result: self.post(CollectiveKind::P2p, dest, MsgClass::P2p, value.into_wire()),
        }
    }

    /// Post a nonblocking receive from `src`. Matching is by sender and
    /// traffic class, so in-flight point-to-point transfers never collide
    /// with collective envelopes from the same rank.
    pub fn irecv<T: Wire>(&self, src: usize) -> RecvHandle<T> {
        assert!(src < self.size(), "source rank {src} out of range");
        self.stats.record_call(CollectiveKind::P2p);
        RecvHandle {
            src,
            _payload: PhantomData,
        }
    }

    /// Gather one value from every rank at `root`. Returns `Some(values)` (in
    /// rank order) on the root and `None` elsewhere.
    pub fn gather<T: Wire>(&self, value: T, root: usize) -> Option<Vec<T>> {
        self.stats.record_call(CollectiveKind::Gather);
        self.gather_inner(CollectiveKind::Gather, value, root)
    }

    fn gather_inner<T: Wire>(&self, kind: CollectiveKind, value: T, root: usize) -> Option<Vec<T>> {
        assert!(root < self.size(), "root {root} out of range");
        self.send_bytes(kind, root, value.into_wire());
        if self.rank() != root {
            return None;
        }
        Some((0..self.size()).map(|src| self.recv_value(kind, src)).collect())
    }

    /// Broadcast a value from `root` to every rank. Only the root's closure
    /// is invoked — non-root ranks never produce (or pretend to produce) a
    /// value, which is what makes call sites like
    /// `comm.broadcast(0, || expensive_root_only_computation())` safe by
    /// construction.
    pub fn broadcast<T: Wire>(&self, root: usize, value: impl FnOnce() -> T) -> T {
        self.stats.record_call(CollectiveKind::Broadcast);
        let value = (self.rank() == root).then(value);
        self.broadcast_inner(CollectiveKind::Broadcast, value, root)
    }

    fn broadcast_inner<T: Wire>(&self, kind: CollectiveKind, value: Option<T>, root: usize) -> T {
        assert!(root < self.size(), "root {root} out of range");
        if self.rank() == root {
            let value = value.expect("broadcast: root must provide a value");
            // A lone rank encodes nothing: its step stays off the heap.
            if self.size() > 1 {
                let payload = value.to_wire();
                for dest in (0..self.size()).filter(|&dest| dest != root) {
                    self.send_bytes(kind, dest, payload.clone());
                }
            }
            value
        } else {
            self.recv_value(kind, root)
        }
    }

    /// One `f64` reduction: rank 0 reduces every rank's value in rank order —
    /// its own first, which takes no trip through the transport, so a lone
    /// rank reduces without touching the heap — and broadcasts the result.
    fn allreduce(&self, value: f64, reduce: impl FnOnce(&mut dyn Iterator<Item = f64>) -> f64) -> f64 {
        let kind = CollectiveKind::Allreduce;
        self.stats.record_call(kind);
        let reduced = if self.rank() == 0 {
            let peers = (1..self.size()).map(|src| self.recv_value::<f64>(kind, src));
            Some(reduce(&mut std::iter::once(value).chain(peers)))
        } else {
            self.send_bytes(kind, 0, value.into_wire());
            None
        };
        self.broadcast_inner(kind, reduced, 0)
    }

    /// Sum an `f64` across all ranks; every rank receives the result.
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.allreduce(value, |values| values.sum())
    }

    /// Maximum of an `f64` across all ranks; every rank receives the result.
    pub fn allreduce_max(&self, value: f64) -> f64 {
        self.allreduce(value, |values| values.fold(f64::NEG_INFINITY, f64::max))
    }

    /// Minimum of an `f64` across all ranks; every rank receives the result.
    /// This is how the distributed propagator agrees on a global Courant
    /// timestep: each rank reduces over its owned particles, then the world
    /// takes the minimum.
    pub fn allreduce_min(&self, value: f64) -> f64 {
        self.allreduce(value, |values| values.fold(f64::INFINITY, f64::min))
    }

    /// Gather one value from every rank onto *every* rank, in rank order.
    pub fn allgather<T: Wire>(&self, value: T) -> Vec<T> {
        let kind = CollectiveKind::Allgather;
        self.stats.record_call(kind);
        let gathered = self.gather_inner(kind, value, 0);
        self.broadcast_inner(kind, gathered, 0)
    }

    /// Personalised all-to-all: `outgoing[d]` is delivered to rank `d`, and the
    /// returned vector holds one value per source rank (`result[s]` came from
    /// rank `s`). This is the halo-exchange primitive: the ghost layer
    /// travels as one [`Frame`](crate::Frame) per peer, moved in and out.
    pub fn alltoall<T: Wire>(&self, outgoing: Vec<T>) -> Vec<T> {
        let kind = CollectiveKind::Alltoall;
        self.stats.record_call(kind);
        assert_eq!(
            outgoing.len(),
            self.size(),
            "alltoall: need one payload per destination rank"
        );
        for (dest, value) in outgoing.into_iter().enumerate() {
            self.send_bytes(kind, dest, value.into_wire());
        }
        (0..self.size()).map(|src| self.recv_value(kind, src)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    #[test]
    fn single_rank_world_works() {
        let comms = CommWorld::create_with(1, TransportKind::Shm);
        assert_eq!(comms[0].size(), 1);
        assert_eq!(comms[0].gather(5u32, 0), Some(vec![5]));
        assert_eq!(comms[0].allreduce_sum(2.0), 2.0);
    }

    /// Later ranks finish first, yet every world hands back its results in
    /// rank order, on both transports.
    #[test]
    fn run_world_returns_results_in_rank_order() {
        for kind in [TransportKind::Shm, TransportKind::Socket] {
            let ranks = run_world(4, kind, |c| {
                // A baton passed down from the last rank: rank r finishes only
                // once rank r + 1 has handed it on.
                let rank = c.rank();
                if rank + 1 < c.size() {
                    c.irecv::<u8>(rank + 1).wait(&c).expect("the baton arrives");
                }
                if rank > 0 {
                    c.isend(rank - 1, 0u8).wait().expect("the baton is sent");
                }
                (rank, c.size())
            });
            assert_eq!(ranks, [(0, 4), (1, 4), (2, 4), (3, 4)], "{kind}");
        }
    }

    #[test]
    fn a_rank_that_panics_is_named_by_the_world() {
        let payload = std::panic::catch_unwind(|| {
            run_world(3, TransportKind::Shm, |c| {
                if c.rank() == 1 {
                    panic!("boom");
                }
            })
        })
        .expect_err("rank 1 panicked");
        assert_eq!(panic_message(payload.as_ref()), "rank 1 panicked: boom");
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = run_world(4, TransportKind::Shm, |c| c.gather(c.rank() * 10, 0));
        assert_eq!(results[0], Some(vec![0, 10, 20, 30]));
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn allreduce_sum_and_max() {
        let sums = run_world(4, TransportKind::Shm, |c| c.allreduce_sum(c.rank() as f64 + 1.0));
        assert!(sums.iter().all(|&s| (s - 10.0).abs() < 1e-12));
        let maxes = run_world(3, TransportKind::Shm, |c| c.allreduce_max(c.rank() as f64));
        assert!(maxes.iter().all(|&m| (m - 2.0).abs() < 1e-12));
    }

    #[test]
    fn allreduce_min_delivers_global_minimum_to_every_rank() {
        // Courant-style reduction: every rank proposes a local dt, all agree
        // on the smallest one. The min is exact in floating point — no
        // associativity slack.
        let mins = run_world(4, TransportKind::Shm, |c| {
            c.allreduce_min(0.1 * (c.rank() as f64 + 1.0))
        });
        assert!(mins.iter().all(|&m| m == 0.1));
        let single = run_world(1, TransportKind::Shm, |c| c.allreduce_min(0.7));
        assert_eq!(single, vec![0.7]);
        // Negative values reduce just as well.
        let neg = run_world(3, TransportKind::Shm, |c| c.allreduce_min(-(c.rank() as f64)));
        assert!(neg.iter().all(|&m| m == -2.0));
    }

    #[test]
    fn allreduce_min_is_consistent_with_max() {
        let results = run_world(3, TransportKind::Shm, |c| {
            (c.allreduce_min(c.rank() as f64), c.allreduce_max(c.rank() as f64))
        });
        assert!(results.iter().all(|&(lo, hi)| lo == 0.0 && hi == 2.0));
    }

    #[test]
    fn allgather_collects_on_every_rank() {
        let results = run_world(3, TransportKind::Shm, |c| c.allgather(c.rank() * 2));
        assert!(results.iter().all(|r| r == &vec![0, 2, 4]));
    }

    #[test]
    fn alltoall_routes_personalised_payloads() {
        let results = run_world(4, TransportKind::Shm, |c| {
            // Rank r sends (r, d) to destination d.
            let outgoing: Vec<(usize, usize)> = (0..c.size()).map(|d| (c.rank(), d)).collect();
            c.alltoall(outgoing)
        });
        for (dest, incoming) in results.iter().enumerate() {
            for (src, &(from, to)) in incoming.iter().enumerate() {
                assert_eq!((from, to), (src, dest));
            }
        }
    }

    #[test]
    fn repeated_alltoalls_do_not_cross_talk() {
        // Two back-to-back exchanges with different payload shapes: the
        // per-sender matching must keep each exchange's envelopes separate.
        let results = run_world(3, TransportKind::Shm, |c| {
            let first: Vec<Vec<u32>> = (0..c.size()).map(|d| vec![c.rank() as u32; d + 1]).collect();
            let a = c.alltoall(first);
            let second: Vec<Vec<u32>> = (0..c.size()).map(|d| vec![100 + c.rank() as u32; d]).collect();
            let b = c.alltoall(second);
            (a, b)
        });
        for (dest, (a, b)) in results.iter().enumerate() {
            for (src, row) in a.iter().enumerate() {
                assert_eq!(row, &vec![src as u32; dest + 1]);
            }
            for (src, row) in b.iter().enumerate() {
                assert_eq!(row, &vec![100 + src as u32; dest]);
            }
        }
    }

    #[test]
    fn broadcast_delivers_to_all() {
        let results = run_world(3, TransportKind::Shm, |c| c.broadcast(1, || "hello".to_string()));
        assert!(results.iter().all(|r| r == "hello"));
    }

    #[test]
    fn broadcast_invokes_the_producer_only_on_the_root() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let produced = AtomicUsize::new(0);
        let results = run_world(3, TransportKind::Shm, |c| {
            c.broadcast(2, || {
                produced.fetch_add(1, Ordering::SeqCst);
                42u64
            })
        });
        assert!(results.iter().all(|&r| r == 42));
        assert_eq!(produced.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_world(4, TransportKind::Shm, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn isend_irecv_delivers_point_to_point() {
        let results = run_world(3, TransportKind::Shm, |c| {
            // Ring: send to the next rank, receive from the previous.
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let send = c.isend(next, vec![c.rank() as f64; 4]);
            let recv = c.irecv::<Vec<f64>>(prev);
            let got = recv.wait(&c).expect("ring receive");
            send.wait().expect("ring send");
            got
        });
        for (rank, got) in results.iter().enumerate() {
            let prev = (rank + 2) % 3;
            assert_eq!(got, &vec![prev as f64; 4]);
        }
    }

    #[test]
    fn in_flight_p2p_does_not_corrupt_collectives() {
        // An isend posted *before* a collective must not be drained as the
        // collective's contribution: envelope matching is (sender, class).
        let results = run_world(2, TransportKind::Shm, |c| {
            let send = (c.rank() == 0).then(|| c.isend(1, 99u64));
            let sum = c.allreduce_sum(1.0);
            let got = (c.rank() == 1).then(|| c.irecv::<u64>(0).wait(&c).expect("p2p receive"));
            if let Some(send) = send {
                send.wait().expect("p2p send");
            }
            (sum, got)
        });
        assert_eq!(results[0], (2.0, None));
        assert_eq!(results[1], (2.0, Some(99)));
    }

    #[test]
    fn stats_attribute_traffic_to_the_called_collective() {
        let stats = run_world(4, TransportKind::Shm, |c| {
            c.barrier();
            let _ = c.gather(c.rank() as u64, 0);
            let _ = c.broadcast(0, || 1.0f64);
            let _ = c.allreduce_sum(1.0);
            let _ = c.allreduce_min(1.0);
            let _ = c.allgather(c.rank() as u32);
            let _ = c.alltoall(vec![vec![7u8; 3]; c.size()]);
            let (next, prev) = ((c.rank() + 1) % c.size(), (c.rank() + 3) % c.size());
            let send = c.isend(next, vec![1.0f64; 2]);
            c.irecv::<Vec<f64>>(prev).wait(&c).expect("ring receive");
            send.wait().expect("ring send");
            c.stats()
        });
        let (root, leaf) = (&stats[0], &stats[3]);
        // Composed collectives count under their own kind, not the
        // primitives they are built from.
        assert_eq!(root.row(CollectiveKind::Gather).calls, 1);
        assert_eq!(root.row(CollectiveKind::Gather).messages, 1);
        assert_eq!(root.row(CollectiveKind::Broadcast).messages, 3);
        assert_eq!(leaf.row(CollectiveKind::Broadcast).messages, 0);
        assert_eq!(root.row(CollectiveKind::Allreduce).calls, 2);
        // Root: its 3 broadcast sends per reduction; its own value never
        // leaves it (8 while the kept value counted as a send).
        assert_eq!(root.row(CollectiveKind::Allreduce).messages, 6);
        assert_eq!(leaf.row(CollectiveKind::Allreduce).messages, 2);
        assert_eq!(root.row(CollectiveKind::Allgather).calls, 1);
        assert_eq!(leaf.row(CollectiveKind::Alltoall).messages, 4);
        assert_eq!(root.row(CollectiveKind::Barrier).calls, 1);
        assert_eq!(leaf.row(CollectiveKind::P2p).calls, 2);
        // Bytes are the lengths of the frames handed to the transport.
        assert_eq!(root.row(CollectiveKind::Gather).bytes, 8, "its own u64, sent to itself");
        assert_eq!(root.row(CollectiveKind::Broadcast).bytes, 3 * 8);
        assert_eq!(leaf.row(CollectiveKind::Broadcast).bytes, 0);
        assert_eq!(leaf.row(CollectiveKind::Allreduce).bytes, 2 * 8);
        assert_eq!(
            root.row(CollectiveKind::Allreduce).bytes,
            2 * 3 * 8,
            "the root's own value never leaves it"
        );
        assert_eq!(leaf.row(CollectiveKind::Allgather).bytes, 4);
        assert_eq!(
            root.row(CollectiveKind::Allgather).bytes,
            4 + 3 * (8 + 4 * 4),
            "its u32, then the gathered Vec<u32> to 3 peers"
        );
        assert_eq!(leaf.row(CollectiveKind::Alltoall).bytes, 4 * (8 + 3));
        assert_eq!(leaf.row(CollectiveKind::P2p).bytes, 8 + 2 * 8);
        assert_eq!(root.row(CollectiveKind::Barrier).bytes, 4);
        assert_eq!(leaf.row(CollectiveKind::Barrier).bytes, 1);
    }

    /// A [`Frame`](crate::Frame) is its own encoding: it reaches the
    /// transport by move and its receiver as it arrived — over shm the very
    /// allocation the sender wrote, point to point and through `alltoall`.
    #[test]
    fn a_frame_travels_without_being_encoded_again() {
        use crate::Frame;
        let comms = CommWorld::create_with(2, TransportKind::Shm);
        let frame = Frame(vec![1, 2, 3, 4, 5]);
        let sent_at = frame.0.as_ptr();
        comms[0].isend(1, frame).wait().expect("send is buffered");
        let got: Frame = comms[1].irecv(0).wait(&comms[1]).expect("receive");
        assert_eq!((got.0.as_slice(), got.0.as_ptr()), (&[1, 2, 3, 4, 5][..], sent_at));
        assert_eq!(comms[0].stats().row(CollectiveKind::P2p).bytes, 5, "no length prefix");

        let frames = run_world(2, TransportKind::Shm, |c| {
            c.alltoall((0..2).map(|d| Frame(vec![c.rank() as u8; d + 1])).collect())
        });
        for (dest, incoming) in frames.iter().enumerate() {
            for (src, got) in incoming.iter().enumerate() {
                assert_eq!(got.0, vec![src as u8; dest + 1]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn invalid_root_panics() {
        let comms = CommWorld::create_with(2, TransportKind::Shm);
        comms[0].gather(1u8, 5);
    }

    // ---- socket backend -------------------------------------------------

    /// What every rank of the full-suite test returns.
    type SuiteResult = (Option<Vec<u64>>, f64, f64, Vec<u32>, Vec<Vec<f64>>, String);

    /// The full collective suite over a real Unix-socket mesh: same calls,
    /// same results as the shm world — every payload crosses the OS through
    /// the wire codec.
    #[test]
    fn socket_backend_runs_the_full_collective_suite() {
        let results: Vec<SuiteResult> = run_world(4, TransportKind::Socket, |c| {
            c.barrier();
            let gathered = c.gather(c.rank() as u64 * 3, 0);
            let sum = c.allreduce_sum(c.rank() as f64 + 1.0);
            let min = c.allreduce_min(0.5 * (c.rank() as f64 + 1.0));
            let all = c.allgather(c.rank() as u32);
            let rows: Vec<Vec<f64>> = (0..c.size()).map(|d| vec![c.rank() as f64; d + 1]).collect();
            let exchanged = c.alltoall(rows);
            let hello = c.broadcast(2, || format!("from rank {}", c.rank()));
            c.barrier();
            (gathered, sum, min, all, exchanged, hello)
        });
        assert_eq!(results[0].0, Some(vec![0, 3, 6, 9]));
        assert!(results[1..].iter().all(|r| r.0.is_none()));
        for (dest, (_, sum, min, all, exchanged, hello)) in results.iter().enumerate() {
            assert_eq!(*sum, 10.0);
            assert_eq!(*min, 0.5);
            assert_eq!(all, &vec![0, 1, 2, 3]);
            assert_eq!(hello, "from rank 2");
            for (src, row) in exchanged.iter().enumerate() {
                assert_eq!(row, &vec![src as f64; dest + 1]);
            }
        }
    }

    #[test]
    fn socket_backend_point_to_point_round_trips_exact_bits() {
        let payload = vec![0.1f64, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0];
        let received = run_world(2, TransportKind::Socket, |c| match c.rank() {
            0 => c.isend(1, payload.clone()).wait().map(|()| None).expect("send"),
            _ => Some(c.irecv::<Vec<f64>>(0).wait(&c).expect("receive")),
        });
        let got = received[1].as_ref().expect("rank 1 received");
        assert!(got.iter().zip(&payload).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// How long a kill-one-rank test waits before it fails instead of hanging.
    const WATCHDOG: Duration = Duration::from_secs(20);

    /// Run `f` on a thread of its own and hand back its result, its panic, or
    /// — if it is still blocked after [`WATCHDOG`] — a failure naming `kind`.
    fn watchdog<T: Send + 'static>(kind: TransportKind, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || done.send(f()));
        match finished.recv_timeout(WATCHDOG) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => panic!("{kind}: still blocked after {WATCHDOG:?}"),
            Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(handle.join().expect_err("f panicked")),
        }
    }

    /// A send writes its frame on the posting thread and blocks only until
    /// the peer's reader thread takes the bytes, so frames far larger than a
    /// socket buffer cannot deadlock: four ranks each post an 8 MB frame to
    /// every peer before any of them receives, then run an `alltoall` of
    /// 3 MB frames, and every byte arrives, on both transports.
    #[test]
    fn frames_larger_than_a_socket_buffer_cannot_deadlock() {
        use crate::Frame;
        const MB: usize = 1 << 20;
        let holds =
            |frame: &Frame, len: usize, byte: usize| frame.0.len() == len && frame.0.iter().all(|&b| b == byte as u8);
        for kind in [TransportKind::Shm, TransportKind::Socket] {
            watchdog(kind, move || {
                run_world(4, kind, |c| {
                    let (rank, size) = (c.rank(), c.size());
                    let peers = || (0..size).filter(move |&peer| peer != rank);
                    let sends: Vec<SendHandle> =
                        peers().map(|peer| c.isend(peer, Frame(vec![rank as u8; 8 * MB]))).collect();
                    for peer in peers() {
                        let got: Frame = c.irecv(peer).wait(&c).expect("an 8 MB frame arrives");
                        assert!(holds(&got, 8 * MB, peer), "{kind}: rank {rank}'s frame from {peer}");
                    }
                    for send in sends {
                        send.wait().expect("an 8 MB frame is sent");
                    }
                    let got =
                        c.alltoall((0..size).map(|dest| Frame(vec![(rank * size + dest) as u8; 3 * MB])).collect());
                    for (src, frame) in got.iter().enumerate() {
                        assert!(
                            holds(frame, 3 * MB, src * size + rank),
                            "{kind}: rank {rank}'s alltoall frame from {src}"
                        );
                    }
                });
            });
        }
    }

    /// A payload that does not decode as the receiver's type (collective
    /// order disagreeing across ranks) is a codec error on both transports,
    /// not a panic: both carry the same wire bytes.
    #[test]
    fn a_payload_of_the_wrong_type_is_a_codec_error() {
        for kind in [TransportKind::Shm, TransportKind::Socket] {
            watchdog(kind, move || {
                let comms = CommWorld::create_with(2, kind);
                comms[0].isend(1, 7u32).wait().expect("send is buffered");
                let err = comms[1].irecv::<f64>(0).wait(&comms[1]).expect_err("a u32 is not an f64");
                assert!(matches!(err, CommError::Codec(_)), "{kind}: {err}");
            });
        }
    }

    /// The kill-one-peer error path: a rank that disappears turns into a
    /// clean `CommError::PeerDisconnected` on the survivor — not a hang — on
    /// either transport, for a receive from it and for a send to it.
    #[test]
    fn dropped_socket_peer_surfaces_as_disconnect_error() {
        for kind in [TransportKind::Shm, TransportKind::Socket] {
            watchdog(kind, move || {
                // Fresh worlds, so that a send that fails only some of the
                // time fails the test.
                for world in 0..50 {
                    let at = format!("{kind}, world {world}");
                    let mut comms = CommWorld::create_with(2, kind);
                    let survivor = comms.remove(0);
                    drop(comms); // rank 1 departs; its transport tells rank 0
                    let err = survivor.irecv::<f64>(1).wait(&survivor).expect_err("peer is gone");
                    assert!(matches!(err, CommError::PeerDisconnected { peer: 1 }), "{at}: {err}");
                    // The disconnect is sticky: later receives fail immediately too.
                    let err = survivor.irecv::<f64>(1).wait(&survivor).expect_err("still gone");
                    assert!(matches!(err, CommError::PeerDisconnected { peer: 1 }), "{at}: {err}");
                    // The first send fails at once: the peer's `Drop` shut its
                    // end of the stream down, so the write sees a broken pipe.
                    let err = survivor.isend(1, 1.0f64).wait().expect_err("a send to the dropped peer");
                    assert!(matches!(err, CommError::PeerDisconnected { peer: 1 }), "{at}: {err}");
                }
            });
        }
    }

    /// Rank 2 of 4 panics after three rounds of collectives, and its `Comm`
    /// is dropped while its thread unwinds. Rank 0, the root, fails naming
    /// it; ranks 1 and 3 wait on rank 0 and fail naming rank 0 — a cascade,
    /// not a hang, on both transports.
    #[test]
    fn a_rank_that_panics_between_collectives_fails_every_survivor() {
        for kind in [TransportKind::Shm, TransportKind::Socket] {
            let messages: Vec<String> = watchdog(kind, move || {
                let ranks: Vec<_> = CommWorld::create_with(4, kind)
                    .into_iter()
                    .map(|comm| {
                        std::thread::spawn(move || {
                            let rank = comm.rank();
                            for round in 0.. {
                                if rank == 2 && round == 3 {
                                    panic!("rank 2 killed");
                                }
                                comm.allreduce_sum(1.0);
                                comm.allgather(rank as u32);
                            }
                        })
                    })
                    .collect();
                ranks
                    .into_iter()
                    .map(|rank| panic_message(rank.join().expect_err("no rank may finish").as_ref()).to_string())
                    .collect()
            });
            assert_eq!(messages[2], "rank 2 killed", "{kind}");
            assert!(
                messages[0].contains("receive from rank 2 failed: peer rank 2 disconnected"),
                "{kind}: {}",
                messages[0]
            );
            for rank in [1, 3] {
                assert!(
                    messages[rank].contains("peer rank 0 disconnected"),
                    "{kind}, rank {rank}: {}",
                    messages[rank]
                );
            }
        }
    }

    /// A rank outside `0..size`, or a world of no ranks, is a typed error
    /// naming both, returned before the rendezvous directory is created.
    #[test]
    fn a_rank_outside_the_world_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("sph-comm-out-of-range-{}", std::process::id()));
        for (rank, size) in [(0, 0), (2, 2), (5, 3)] {
            let err = CommWorld::connect_socket(&dir, rank, size).err().expect("no such rank");
            assert!(
                matches!(err, CommError::RankOutOfRange { rank: r, size: s } if (r, s) == (rank, size)),
                "{err}"
            );
            assert!(err
                .to_string()
                .contains(&format!("rank {rank} is out of range for a world of {size}")));
        }
        assert!(!dir.exists());
    }
}
