//! Socket transport: ranks over Unix-domain sockets.
//!
//! This is the backend that makes ranks *real* — separate OS processes (or
//! threads, for the in-process test worlds) connected by a full mesh of
//! stream sockets. Frames are length-prefixed:
//!
//! ```text
//! [u32 payload_len (LE)] [u8 class tag] [payload bytes]
//! ```
//!
//! with the payload itself produced by the [`super::wire`] codec.
//!
//! ## Rendezvous
//!
//! Peers find each other through a rendezvous directory: rank `r` binds
//! `rank<r>.sock` inside it, then dials every lower rank (with retry, since
//! peers bind in any order) and accepts from every higher rank; a `u32`
//! rank handshake identifies each accepted connection.
//!
//! ## Threads
//!
//! Per peer, one reader thread that decodes frames into a shared incoming
//! queue. `send` writes each frame on the calling thread, under the peer
//! stream's lock; the peer's reader drains its end into an unbounded queue,
//! so a write waits only for that thread, never for the receiving rank to
//! call `recv`. A reader observing EOF or an I/O error enqueues a `Down`
//! marker; `Comm` turns that into [`CommError::PeerDisconnected`] for anyone
//! still expecting traffic from that rank — the kill-one-peer path returns
//! an error instead of hanging. A failed write to a peer is
//! `PeerDisconnected` too.

use super::{recv_incoming, CommError, Incoming, MsgClass, Transport, TransportEnvelope};
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on a single frame's payload. Far above anything the pipeline
/// ships (the largest frames are whole-shard migrations), low enough that a
/// corrupt length prefix cannot ask for an absurd allocation.
const MAX_FRAME_BYTES: u32 = 1 << 30;

/// How long `connect` keeps retrying a peer that has not bound yet.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
const CONNECT_RETRY: Duration = Duration::from_millis(10);

/// Rank `rank`'s listening socket in the rendezvous directory `dir`.
fn socket_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.sock"))
}

pub(crate) struct SocketTransport {
    rank: usize,
    /// Every peer stream (`None` at `self.rank`); a frame is written whole
    /// under its lock.
    streams: Vec<Option<Mutex<UnixStream>>>,
    /// Loopback for self-sends: feeds the incoming queue directly.
    loopback: Sender<Incoming>,
    incoming: Mutex<Receiver<Incoming>>,
    reader_threads: Vec<JoinHandle<()>>,
    /// Our own listener's socket file, removed on drop.
    listener_path: PathBuf,
}

impl SocketTransport {
    /// Join the world whose rendezvous directory is `dir` as `rank` of
    /// `size`. Blocks until the full peer mesh is connected (every peer must
    /// call this within [`CONNECT_TIMEOUT`]).
    pub(crate) fn connect(dir: &Path, rank: usize, size: usize) -> Result<SocketTransport, CommError> {
        if rank >= size {
            return Err(CommError::RankOutOfRange { rank, size });
        }
        let io_err = |what: &str, e: std::io::Error| CommError::Io(format!("rank {rank}: {what}: {e}"));

        // Bind our own listener first so peers dialling us can retry-connect
        // against a real backlog.
        std::fs::create_dir_all(dir).map_err(|e| io_err("create rendezvous dir", e))?;
        let listener_path = socket_path(dir, rank);
        // A stale socket file from a crashed run would fail the bind.
        let _ = std::fs::remove_file(&listener_path);
        let listener = UnixListener::bind(&listener_path).map_err(|e| io_err("bind unix listener", e))?;

        // Dial every lower rank (retrying until its listener exists), then
        // accept one connection from every higher rank. The u32 handshake
        // tells the acceptor who dialled.
        let mut streams: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let mut stream = Self::dial(dir, peer, rank)?;
            stream
                .write_all(&(rank as u32).to_le_bytes())
                .map_err(|e| io_err("send handshake", e))?;
            *slot = Some(stream);
        }
        for _ in rank + 1..size {
            let mut stream = listener.accept().map_err(|e| io_err("accept peer", e))?.0;
            let mut raw = [0u8; 4];
            stream.read_exact(&mut raw).map_err(|e| io_err("read handshake", e))?;
            let peer = u32::from_le_bytes(raw) as usize;
            if peer <= rank || peer >= size {
                return Err(CommError::Io(format!(
                    "rank {rank}: handshake from out-of-range peer {peer}"
                )));
            }
            if streams[peer].is_some() {
                return Err(CommError::Io(format!("rank {rank}: duplicate handshake from {peer}")));
            }
            streams[peer] = Some(stream);
        }

        // One reader thread per peer.
        let (loopback, incoming) = channel::<Incoming>();
        let mut reader_threads = Vec::new();
        for (peer, slot) in streams.iter().enumerate() {
            let Some(stream) = slot else { continue };
            let reader = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
            let to_incoming = loopback.clone();
            reader_threads.push(std::thread::spawn(move || read_loop(reader, peer, &to_incoming)));
        }

        Ok(SocketTransport {
            rank,
            streams: streams.into_iter().map(|slot| slot.map(Mutex::new)).collect(),
            loopback,
            incoming: Mutex::new(incoming),
            reader_threads,
            listener_path,
        })
    }

    fn dial(dir: &Path, peer: usize, rank: usize) -> Result<UnixStream, CommError> {
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        loop {
            match UnixStream::connect(socket_path(dir, peer)) {
                Ok(stream) => return Ok(stream),
                Err(e) if Instant::now() >= deadline => {
                    return Err(CommError::Io(format!(
                        "rank {rank}: peer {peer} unreachable after {CONNECT_TIMEOUT:?}: {e}"
                    )));
                }
                Err(_) => std::thread::sleep(CONNECT_RETRY),
            }
        }
    }
}

fn read_loop(mut stream: UnixStream, src: usize, out: &Sender<Incoming>) {
    while let Some((class, payload)) = read_frame(&mut stream) {
        let _ = out.send(Incoming::Env(TransportEnvelope { src, class, payload }));
    }
    // EOF, an I/O error or a corrupt header: the peer is gone (cleanly or not).
    let _ = out.send(Incoming::Down(src));
}

fn read_frame(stream: &mut UnixStream) -> Option<(MsgClass, Vec<u8>)> {
    let mut header = [0u8; 5];
    stream.read_exact(&mut header).ok()?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("sized header"));
    let class = MsgClass::from_wire_tag(header[4]).filter(|_| len <= MAX_FRAME_BYTES)?;
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload).ok()?;
    Some((class, payload))
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.streams.len()
    }

    fn send(&self, dest: usize, class: MsgClass, payload: Vec<u8>) -> Result<(), CommError> {
        assert!(dest < self.size(), "destination rank {dest} out of range");
        assert!(
            payload.len() as u64 <= u64::from(MAX_FRAME_BYTES),
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte transport cap",
            payload.len()
        );
        if dest == self.rank {
            let src = self.rank;
            return self
                .loopback
                .send(Incoming::Env(TransportEnvelope { src, class, payload }))
                .map_err(|_| CommError::Io("incoming queue closed".to_string()));
        }
        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4] = class.wire_tag();
        let stream = self.streams[dest].as_ref().expect("peer stream exists");
        // A poisoned lock means a sender panicked mid-frame: the stream is no
        // longer framed. A failed write means the peer is gone.
        let written = stream
            .lock()
            .is_ok_and(|mut stream| stream.write_all(&header).and_then(|()| stream.write_all(&payload)).is_ok());
        written.then_some(()).ok_or(CommError::PeerDisconnected { peer: dest })
    }

    fn recv(&self) -> Result<TransportEnvelope, CommError> {
        recv_incoming(&self.incoming)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // Closing the sockets unblocks our reader threads (their blocking
        // read returns) and delivers EOF to every peer still listening —
        // which is how a departed rank turns into `PeerDisconnected` on the
        // other side instead of a hang. Every frame whose `send` returned is
        // already in the peer's receive buffer, so it arrives ahead of EOF.
        for stream in self.streams.iter_mut().flatten() {
            let stream = stream.get_mut().unwrap_or_else(PoisonError::into_inner);
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in self.reader_threads.drain(..) {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.listener_path);
        if let Some(dir) = self.listener_path.parent() {
            // Best-effort: last rank out removes the rendezvous dir.
            let _ = std::fs::remove_dir(dir);
        }
    }
}
