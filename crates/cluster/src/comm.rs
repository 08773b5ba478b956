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
//! in-process shared-memory channels (ranks are threads) or Unix-socket/TCP
//! streams (ranks may be separate OS processes).
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub use crate::transport::CommError;

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

/// Per-rank traffic accounting, one row per [`CollectiveKind`].
///
/// Counts are attributed to the collective the *application* called: the
/// all-reductions and `allgather` are internally composed from gather +
/// broadcast, but their envelopes count under `Allreduce`/`Allgather`, not
/// under the primitives — the per-kind baseline the transport backends are
/// judged against.
///
/// `calls` counts invocations on this rank, `messages` counts envelopes this
/// rank *sent*, and `bytes` approximates their payload as the inline size of
/// the sent value (`size_of::<T>()`); heap contents behind pointers (e.g. the
/// elements of a `Vec` payload) are not chased, so both backends report the
/// same numbers for the same traffic.
#[derive(Default)]
struct CommStats {
    rows: [(AtomicU64, AtomicU64, AtomicU64); 7],
}

impl CommStats {
    fn record(&self, kind: CollectiveKind, messages: u64, bytes: u64) {
        let (calls, msgs, byts) = &self.rows[kind as usize];
        calls.fetch_add(1, Ordering::Relaxed);
        msgs.fetch_add(messages, Ordering::Relaxed);
        byts.fetch_add(bytes, Ordering::Relaxed);
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
    /// Envelopes sent by this rank.
    pub messages: u64,
    /// Approximate payload bytes sent by this rank (inline sizes).
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
    /// Create communicator handles for `n` ranks over the default
    /// shared-memory transport (ranks are threads of this process).
    pub fn create(n: usize) -> Vec<Comm> {
        Self::create_with(n, TransportKind::Shm)
    }

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
                let spec = dir.to_string_lossy().into_owned();
                // Connect concurrently: the mesh handshake needs every rank
                // dialling at once.
                let handles: Vec<_> = (0..n)
                    .map(|rank| {
                        let spec = spec.clone();
                        std::thread::spawn(move || SocketTransport::connect(&spec, rank, n))
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

    /// Join a multi-process socket world as one rank. `spec` is either a
    /// rendezvous directory (Unix domain sockets) or `tcp:<host>:<base_port>`;
    /// every participating process must call this with the same spec.
    pub fn connect_socket(spec: &str, rank: usize, size: usize) -> Result<Comm, CommError> {
        Ok(Comm::from_transport(Box::new(SocketTransport::connect(
            spec, rank, size,
        )?)))
    }
}

/// Completion handle of a nonblocking send. The send itself is buffered by
/// the transport — `wait` only reports whether posting succeeded — but the
/// handle must still be waited before the next collective so the
/// communication schedule stays well-ordered (`sphlint` enforces this).
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

    /// Block until the matching message arrives and decode it. Returns
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

    /// Which transport backend this communicator runs on.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport.kind()
    }

    /// Block until every rank reaches the barrier: a gather + broadcast
    /// round, attributed to Barrier. A dead rank fails it like any other
    /// collective.
    pub fn barrier(&self) {
        let broadcast_sends = if self.rank() == 0 { self.size() as u64 - 1 } else { 0 };
        self.stats
            .record(CollectiveKind::Barrier, 1 + broadcast_sends, 1 + broadcast_sends);
        let gathered = self.gather_inner(1u8, 0);
        let _ = self.broadcast_inner(gathered.map(|_| 1u8), 0);
    }

    /// Snapshot of this rank's per-collective traffic counters.
    pub fn stats(&self) -> CommStatsSnapshot {
        self.stats.snapshot()
    }

    fn send_bytes(&self, dest: usize, class: MsgClass, payload: Vec<u8>, ctx: &str) {
        if let Err(e) = self.transport.send(dest, class, payload) {
            panic!("{ctx}: send to rank {dest} failed: {e}");
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
        T::from_wire(&self.recv_from(src, class)?).map_err(|e| CommError::Codec(e.to_string()))
    }

    fn recv_value<T: Wire>(&self, src: usize, class: MsgClass, ctx: &str) -> T {
        self.try_recv_value(src, class)
            .unwrap_or_else(|e| panic!("{ctx}: receive from rank {src} failed: {e}"))
    }

    /// Post a nonblocking send of `value` to `dest`. The transfer is
    /// buffered by the transport; the returned handle's
    /// [`SendHandle::wait`] completes it. Ghost exchange posts these, runs
    /// the interior-row kernels, then waits.
    pub fn isend<T: Wire>(&self, dest: usize, value: T) -> SendHandle {
        self.stats.record(CollectiveKind::P2p, 1, std::mem::size_of::<T>() as u64);
        SendHandle {
            result: self.transport.send(dest, MsgClass::P2p, value.to_wire()),
        }
    }

    /// Post a nonblocking receive from `src`. Matching is by sender and
    /// traffic class, so in-flight point-to-point transfers never collide
    /// with collective envelopes from the same rank.
    pub fn irecv<T: Wire>(&self, src: usize) -> RecvHandle<T> {
        assert!(src < self.size(), "source rank {src} out of range");
        self.stats.record(CollectiveKind::P2p, 0, 0);
        RecvHandle {
            src,
            _payload: PhantomData,
        }
    }

    /// Gather one value from every rank at `root`. Returns `Some(values)` (in
    /// rank order) on the root and `None` elsewhere.
    pub fn gather<T: Wire>(&self, value: T, root: usize) -> Option<Vec<T>> {
        self.stats.record(CollectiveKind::Gather, 1, std::mem::size_of::<T>() as u64);
        self.gather_inner(value, root)
    }

    fn gather_inner<T: Wire>(&self, value: T, root: usize) -> Option<Vec<T>> {
        assert!(root < self.size(), "root {root} out of range");
        self.send_bytes(root, MsgClass::Collective, value.to_wire(), "gather");
        if self.rank() != root {
            return None;
        }
        Some(
            (0..self.size())
                .map(|src| self.recv_value::<T>(src, MsgClass::Collective, "gather"))
                .collect(),
        )
    }

    /// Broadcast a value from `root` to every rank. Only the root's closure
    /// is invoked — non-root ranks never produce (or pretend to produce) a
    /// value, which is what makes call sites like
    /// `comm.broadcast(0, || expensive_root_only_computation())` safe by
    /// construction.
    pub fn broadcast<T: Wire>(&self, root: usize, value: impl FnOnce() -> T) -> T {
        let sends = if self.rank() == root { self.size() as u64 - 1 } else { 0 };
        self.stats.record(
            CollectiveKind::Broadcast,
            sends,
            sends * std::mem::size_of::<T>() as u64,
        );
        let value = (self.rank() == root).then(value);
        self.broadcast_inner(value, root)
    }

    fn broadcast_inner<T: Wire>(&self, value: Option<T>, root: usize) -> T {
        assert!(root < self.size(), "root {root} out of range");
        if self.rank() == root {
            let value = value.expect("broadcast: root must provide a value");
            // A lone rank encodes nothing: its step stays off the heap.
            if self.size() > 1 {
                let payload = value.to_wire();
                for dest in (0..self.size()).filter(|&dest| dest != root) {
                    self.send_bytes(dest, MsgClass::Collective, payload.clone(), "broadcast");
                }
            }
            value
        } else {
            self.recv_value::<T>(root, MsgClass::Collective, "broadcast")
        }
    }

    /// Count one reduction composed of a gather send plus the root's
    /// broadcast fan-out, attributed to `kind`.
    fn record_composed(&self, kind: CollectiveKind, payload_bytes: u64, broadcast_bytes: u64) {
        let broadcast_sends = if self.rank() == 0 { self.size() as u64 - 1 } else { 0 };
        self.stats.record(
            kind,
            1 + broadcast_sends,
            payload_bytes + broadcast_sends * broadcast_bytes,
        );
    }

    /// One `f64` reduction: rank 0 reduces every rank's value in rank order —
    /// its own first, which takes no trip through the transport, so a lone
    /// rank reduces without touching the heap — and broadcasts the result.
    fn allreduce(&self, value: f64, reduce: impl FnOnce(&mut dyn Iterator<Item = f64>) -> f64) -> f64 {
        self.record_composed(CollectiveKind::Allreduce, 8, 8);
        let reduced = if self.rank() == 0 {
            let peers = (1..self.size()).map(|src| self.recv_value::<f64>(src, MsgClass::Collective, "allreduce"));
            Some(reduce(&mut std::iter::once(value).chain(peers)))
        } else {
            self.send_bytes(0, MsgClass::Collective, value.to_wire(), "allreduce");
            None
        };
        self.broadcast_inner(reduced, 0)
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
        let inline = std::mem::size_of::<T>() as u64;
        self.record_composed(CollectiveKind::Allgather, inline, inline * self.size() as u64);
        let gathered = self.gather_inner(value, 0);
        self.broadcast_inner(gathered, 0)
    }

    /// Personalised all-to-all: `outgoing[d]` is delivered to rank `d`, and the
    /// returned vector holds one value per source rank (`result[s]` came from
    /// rank `s`). This is the halo-exchange primitive.
    pub fn alltoall<T: Wire>(&self, outgoing: Vec<T>) -> Vec<T> {
        self.stats.record(
            CollectiveKind::Alltoall,
            self.size() as u64,
            (self.size() * std::mem::size_of::<T>()) as u64,
        );
        assert_eq!(
            outgoing.len(),
            self.size(),
            "alltoall: need one payload per destination rank"
        );
        for (dest, value) in outgoing.into_iter().enumerate() {
            self.send_bytes(dest, MsgClass::Collective, value.to_wire(), "alltoall");
        }
        (0..self.size())
            .map(|src| self.recv_value::<T>(src, MsgClass::Collective, "alltoall"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    fn run_world<F>(n: usize, f: F) -> Vec<f64>
    where
        F: Fn(&Comm) -> f64 + Sync,
    {
        let comms = CommWorld::create(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = comms.iter().map(|c| s.spawn(|| f(c))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn single_rank_world_works() {
        let comms = CommWorld::create(1);
        assert_eq!(comms[0].size(), 1);
        assert_eq!(comms[0].transport_kind(), TransportKind::Shm);
        assert_eq!(comms[0].gather(5u32, 0), Some(vec![5]));
        assert_eq!(comms[0].allreduce_sum(2.0), 2.0);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let comms = CommWorld::create(4);
        let results: Vec<Option<Vec<usize>>> = std::thread::scope(|s| {
            let handles: Vec<_> = comms.iter().map(|c| s.spawn(|| c.gather(c.rank() * 10, 0))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results[0], Some(vec![0, 10, 20, 30]));
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn allreduce_sum_and_max() {
        let sums = run_world(4, |c| c.allreduce_sum(c.rank() as f64 + 1.0));
        assert!(sums.iter().all(|&s| (s - 10.0).abs() < 1e-12));
        let maxes = run_world(3, |c| c.allreduce_max(c.rank() as f64));
        assert!(maxes.iter().all(|&m| (m - 2.0).abs() < 1e-12));
    }

    #[test]
    fn allreduce_min_delivers_global_minimum_to_every_rank() {
        // Courant-style reduction: every rank proposes a local dt, all agree
        // on the smallest one. The min is exact in floating point — no
        // associativity slack.
        let mins = run_world(4, |c| c.allreduce_min(0.1 * (c.rank() as f64 + 1.0)));
        assert!(mins.iter().all(|&m| m == 0.1));
        let single = run_world(1, |c| c.allreduce_min(0.7));
        assert_eq!(single, vec![0.7]);
        // Negative values reduce just as well.
        let neg = run_world(3, |c| c.allreduce_min(-(c.rank() as f64)));
        assert!(neg.iter().all(|&m| m == -2.0));
    }

    #[test]
    fn allreduce_min_is_consistent_with_max() {
        let comms = CommWorld::create(3);
        let results: Vec<(f64, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .map(|c| s.spawn(|| (c.allreduce_min(c.rank() as f64), c.allreduce_max(c.rank() as f64))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&(lo, hi)| lo == 0.0 && hi == 2.0));
    }

    #[test]
    fn allgather_collects_on_every_rank() {
        let comms = CommWorld::create(3);
        let results: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = comms.iter().map(|c| s.spawn(|| c.allgather(c.rank() * 2))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|r| r == &vec![0, 2, 4]));
    }

    #[test]
    fn alltoall_routes_personalised_payloads() {
        let comms = CommWorld::create(4);
        let results: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .map(|c| {
                    s.spawn(|| {
                        // Rank r sends (r, d) to destination d.
                        let outgoing: Vec<(usize, usize)> = (0..c.size()).map(|d| (c.rank(), d)).collect();
                        c.alltoall(outgoing)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
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
        type Exchange = Vec<Vec<u32>>;
        let comms = CommWorld::create(3);
        let results: Vec<(Exchange, Exchange)> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .map(|c| {
                    s.spawn(|| {
                        let first: Vec<Vec<u32>> = (0..c.size()).map(|d| vec![c.rank() as u32; d + 1]).collect();
                        let a = c.alltoall(first);
                        let second: Vec<Vec<u32>> = (0..c.size()).map(|d| vec![100 + c.rank() as u32; d]).collect();
                        let b = c.alltoall(second);
                        (a, b)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
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
        let comms = CommWorld::create(3);
        let results: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .map(|c| s.spawn(|| c.broadcast(1, || "hello".to_string())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|r| r == "hello"));
    }

    #[test]
    fn broadcast_invokes_the_producer_only_on_the_root() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let produced = AtomicUsize::new(0);
        let comms = CommWorld::create(3);
        let results: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .map(|c| {
                    s.spawn(|| {
                        c.broadcast(2, || {
                            produced.fetch_add(1, Ordering::SeqCst);
                            42u64
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&r| r == 42));
        assert_eq!(produced.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let comms = CommWorld::create(4);
        std::thread::scope(|s| {
            for c in &comms {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    c.barrier();
                    // After the barrier every rank must observe all increments.
                    assert_eq!(counter.load(Ordering::SeqCst), 4);
                });
            }
        });
    }

    #[test]
    fn isend_irecv_delivers_point_to_point() {
        let comms = CommWorld::create(3);
        let results: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .map(|c| {
                    s.spawn(|| {
                        // Ring: send to the next rank, receive from the previous.
                        let next = (c.rank() + 1) % c.size();
                        let prev = (c.rank() + c.size() - 1) % c.size();
                        let send = c.isend(next, vec![c.rank() as f64; 4]);
                        let recv = c.irecv::<Vec<f64>>(prev);
                        let got = recv.wait(c).expect("ring receive");
                        send.wait().expect("ring send");
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
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
        let comms = CommWorld::create(2);
        let results: Vec<(f64, Option<u64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .map(|c| {
                    s.spawn(|| {
                        let send = (c.rank() == 0).then(|| c.isend(1, 99u64));
                        let sum = c.allreduce_sum(1.0);
                        let got = (c.rank() == 1).then(|| c.irecv::<u64>(0).wait(c).expect("p2p receive"));
                        if let Some(send) = send {
                            send.wait().expect("p2p send");
                        }
                        (sum, got)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results[0], (2.0, None));
        assert_eq!(results[1], (2.0, Some(99)));
    }

    #[test]
    fn stats_attribute_traffic_to_the_called_collective() {
        let comms = CommWorld::create(4);
        std::thread::scope(|s| {
            for c in &comms {
                s.spawn(|| {
                    c.barrier();
                    let _ = c.gather(c.rank() as u64, 0);
                    let _ = c.broadcast(0, || 1.0f64);
                    let _ = c.allreduce_sum(1.0);
                    let _ = c.allreduce_min(1.0);
                    let _ = c.allgather(c.rank() as u32);
                    let _ = c.alltoall(vec![0u8; c.size()]);
                });
            }
        });
        let root = comms[0].stats();
        let leaf = comms[3].stats();
        // Composed collectives count under their own kind, not the
        // primitives they are built from.
        assert_eq!(root.row(CollectiveKind::Gather).calls, 1);
        assert_eq!(root.row(CollectiveKind::Gather).messages, 1);
        assert_eq!(root.row(CollectiveKind::Gather).bytes, 8);
        assert_eq!(root.row(CollectiveKind::Broadcast).messages, 3);
        assert_eq!(leaf.row(CollectiveKind::Broadcast).messages, 0);
        assert_eq!(root.row(CollectiveKind::Allreduce).calls, 2);
        // Root: gather send + 3 broadcast sends, per reduction.
        assert_eq!(root.row(CollectiveKind::Allreduce).messages, 8);
        assert_eq!(leaf.row(CollectiveKind::Allreduce).messages, 2);
        assert_eq!(leaf.row(CollectiveKind::Allreduce).bytes, 16);
        assert_eq!(root.row(CollectiveKind::Allgather).calls, 1);
        assert_eq!(leaf.row(CollectiveKind::Alltoall).messages, 4);
        assert_eq!(leaf.row(CollectiveKind::Alltoall).bytes, 4);
        assert_eq!(root.row(CollectiveKind::Barrier).calls, 1);
    }

    #[test]
    #[should_panic]
    fn invalid_root_panics() {
        let comms = CommWorld::create(2);
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
        let comms = CommWorld::create_with(4, TransportKind::Socket);
        assert!(comms.iter().all(|c| c.transport_kind() == TransportKind::Socket));
        let results: Vec<SuiteResult> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .map(|c| {
                    s.spawn(|| {
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
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
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
        let comms = CommWorld::create_with(2, TransportKind::Socket);
        let payload = vec![0.1f64, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0];
        let expect = payload.clone();
        std::thread::scope(|s| {
            let sender = &comms[0];
            let receiver = &comms[1];
            let payload = payload.clone();
            s.spawn(move || {
                sender.isend(1, payload).wait().expect("send");
            });
            let got = receiver.irecv::<Vec<f64>>(0).wait(receiver).expect("receive");
            assert!(got.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()));
        });
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

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string()),
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
                let mut comms = CommWorld::create_with(2, kind);
                let survivor = comms.remove(0);
                drop(comms); // rank 1 departs; its transport tells rank 0
                let err = survivor.irecv::<f64>(1).wait(&survivor).expect_err("peer is gone");
                assert!(matches!(err, CommError::PeerDisconnected { peer: 1 }), "{kind}: {err}");
                // The disconnect is sticky: later receives fail immediately too.
                let err = survivor.irecv::<f64>(1).wait(&survivor).expect_err("still gone");
                assert!(matches!(err, CommError::PeerDisconnected { peer: 1 }), "{kind}: {err}");
                // A send fails at once on shm; over sockets once the writer
                // has seen the closed stream.
                loop {
                    match survivor.isend(1, 1.0f64).wait() {
                        Err(CommError::PeerDisconnected { peer: 1 }) => break,
                        Ok(()) if kind == TransportKind::Socket => std::thread::sleep(Duration::from_millis(1)),
                        other => panic!("{kind}: a send to the dropped peer gave {other:?}"),
                    }
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
                    .map(|rank| panic_message(rank.join().expect_err("no rank may finish")))
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

    /// Rank `r` of a `tcp:` world binds `base_port + r`: a base port that
    /// leaves no room for the last rank is refused before anything binds.
    #[test]
    fn a_tcp_base_port_without_room_for_every_rank_is_an_error() {
        let err = CommWorld::connect_socket("tcp:127.0.0.1:65535", 1, 2)
            .err()
            .expect("rank 1 has no port");
        assert!(
            matches!(&err, CommError::Io(message) if message.contains("\"65535\" is not a u16 with a port for rank 1")),
            "{err}"
        );
    }
}
