//! Socket transport: ranks over Unix-domain sockets or TCP.
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
//! Peers find each other through a rendezvous spec:
//!
//! * a filesystem directory — rank `r` binds `rank<r>.sock` inside it
//!   (Unix domain sockets);
//! * `tcp:<host>:<base_port>` — rank `r` binds `<host>:<base_port + r>`.
//!
//! Every rank binds its own listener, then dials every lower rank (with
//! retry, since peers bind in any order) and accepts from every higher
//! rank; a `u32` rank handshake identifies each accepted connection.
//!
//! ## Threads
//!
//! Per peer, one writer thread (fed by an unbounded queue, so `send` never
//! blocks on the network — that is what makes `isend` genuinely
//! nonblocking) and one reader thread that decodes frames into a shared
//! incoming queue. A reader observing EOF or an I/O error enqueues a
//! `Down` marker; `Comm` turns that into [`CommError::PeerDisconnected`]
//! for anyone still expecting traffic from that rank — the kill-one-peer
//! path returns an error instead of hanging. A writer ends when the
//! transport drops its queue, after every queued frame, or at its first
//! failed write; a send to that peer is `PeerDisconnected` from then on.

use super::{recv_incoming, CommError, Incoming, MsgClass, Transport, TransportEnvelope, TransportKind};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on a single frame's payload. Far above anything the pipeline
/// ships (the largest frames are whole-shard migrations), low enough that a
/// corrupt length prefix cannot ask for an absurd allocation.
const MAX_FRAME_BYTES: u32 = 1 << 30;

/// How long `connect` keeps retrying a peer that has not bound yet.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
const CONNECT_RETRY: Duration = Duration::from_millis(10);

/// One peer connection, Unix or TCP.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Parsed rendezvous spec.
enum Rendezvous {
    Unix(PathBuf),
    Tcp { host: String, base_port: u16 },
}

impl Rendezvous {
    fn parse(spec: &str, size: usize) -> Result<Rendezvous, CommError> {
        if let Some(rest) = spec.strip_prefix("tcp:") {
            let (host, port) = rest
                .rsplit_once(':')
                .ok_or_else(|| CommError::Io(format!("tcp rendezvous {spec:?} is not tcp:host:base_port")))?;
            // Rank r binds base_port + r: the last rank's port must exist too.
            let last = size - 1;
            let base_port = port
                .parse::<u16>()
                .ok()
                .filter(|&base| usize::from(base) + last <= usize::from(u16::MAX))
                .ok_or_else(|| {
                    CommError::Io(format!(
                        "tcp base port {port:?} is not a u16 with a port for rank {last}"
                    ))
                })?;
            Ok(Rendezvous::Tcp {
                host: host.to_string(),
                base_port,
            })
        } else {
            Ok(Rendezvous::Unix(PathBuf::from(spec)))
        }
    }

    fn unix_path(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("rank{rank}.sock"))
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
        })
    }
}

/// One queued outgoing frame: its class and its encoded payload.
type OutFrame = (MsgClass, Vec<u8>);

pub(crate) struct SocketTransport {
    rank: usize,
    /// Per-peer writer queues (`None` at `self.rank`).
    writers: Vec<Option<Sender<OutFrame>>>,
    /// Loopback for self-sends: feeds the incoming queue directly.
    loopback: Sender<Incoming>,
    incoming: Mutex<Receiver<Incoming>>,
    /// Shutdown handles onto every peer stream (`None` at `self.rank`).
    streams: Vec<Option<Stream>>,
    reader_threads: Vec<JoinHandle<()>>,
    writer_threads: Vec<JoinHandle<()>>,
    /// Our own Unix listener path, removed on drop.
    unix_listener_path: Option<PathBuf>,
}

impl SocketTransport {
    /// Join the world at `spec` as `rank` of `size`. Blocks until the full
    /// peer mesh is connected (every peer must call this within
    /// [`CONNECT_TIMEOUT`]).
    pub(crate) fn connect(spec: &str, rank: usize, size: usize) -> Result<SocketTransport, CommError> {
        assert!(size > 0, "a communicator needs at least one rank");
        assert!(rank < size, "rank {rank} out of range for size {size}");
        let rendezvous = Rendezvous::parse(spec, size)?;
        let io_err = |what: &str, e: std::io::Error| CommError::Io(format!("rank {rank}: {what}: {e}"));

        // Bind our own listener first so peers dialling us can retry-connect
        // against a real backlog.
        let mut unix_listener_path = None;
        let listener = match &rendezvous {
            Rendezvous::Unix(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| io_err("create rendezvous dir", e))?;
                let path = Rendezvous::unix_path(dir, rank);
                // A stale socket file from a crashed run would fail the bind.
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path).map_err(|e| io_err("bind unix listener", e))?;
                unix_listener_path = Some(path);
                Listener::Unix(l)
            }
            Rendezvous::Tcp { host, base_port } => {
                let addr = format!("{host}:{}", base_port + rank as u16);
                Listener::Tcp(TcpListener::bind(&addr).map_err(|e| io_err("bind tcp listener", e))?)
            }
        };

        // Dial every lower rank (retrying until its listener exists), then
        // accept one connection from every higher rank. The u32 handshake
        // tells the acceptor who dialled.
        let mut streams: Vec<Option<Stream>> = (0..size).map(|_| None).collect();
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let mut stream = Self::dial(&rendezvous, peer, rank)?;
            stream
                .write_all(&(rank as u32).to_le_bytes())
                .map_err(|e| io_err("send handshake", e))?;
            *slot = Some(stream);
        }
        for _ in rank + 1..size {
            let mut stream = listener.accept().map_err(|e| io_err("accept peer", e))?;
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

        // Spin up the per-peer reader/writer threads.
        let (loopback, incoming) = channel::<Incoming>();
        let mut writers: Vec<Option<Sender<OutFrame>>> = (0..size).map(|_| None).collect();
        let mut reader_threads = Vec::new();
        let mut writer_threads = Vec::new();
        for (peer, slot) in streams.iter_mut().enumerate() {
            let Some(stream) = slot else { continue };
            let reader = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
            let writer_stream = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
            let to_incoming = loopback.clone();
            reader_threads.push(std::thread::spawn(move || read_loop(reader, peer, &to_incoming)));
            let (tx, rx) = channel();
            writer_threads.push(std::thread::spawn(move || write_loop(writer_stream, &rx)));
            writers[peer] = Some(tx);
        }

        Ok(SocketTransport {
            rank,
            writers,
            loopback,
            incoming: Mutex::new(incoming),
            streams,
            reader_threads,
            writer_threads,
            unix_listener_path,
        })
    }

    fn dial(rendezvous: &Rendezvous, peer: usize, rank: usize) -> Result<Stream, CommError> {
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        loop {
            let attempt = match rendezvous {
                Rendezvous::Unix(dir) => UnixStream::connect(Rendezvous::unix_path(dir, peer)).map(Stream::Unix),
                Rendezvous::Tcp { host, base_port } => {
                    TcpStream::connect(format!("{host}:{}", base_port + peer as u16)).map(Stream::Tcp)
                }
            };
            match attempt {
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

fn read_loop(mut stream: Stream, src: usize, out: &Sender<Incoming>) {
    while let Some((class, payload)) = read_frame(&mut stream) {
        let _ = out.send(Incoming::Env(TransportEnvelope { src, class, payload }));
    }
    // EOF, an I/O error or a corrupt header: the peer is gone (cleanly or not).
    let _ = out.send(Incoming::Down(src));
}

fn read_frame(stream: &mut Stream) -> Option<(MsgClass, Vec<u8>)> {
    let mut header = [0u8; 5];
    stream.read_exact(&mut header).ok()?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("sized header"));
    let class = MsgClass::from_wire_tag(header[4]).filter(|_| len <= MAX_FRAME_BYTES)?;
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload).ok()?;
    Some((class, payload))
}

fn write_loop(mut stream: Stream, frames: &Receiver<OutFrame>) {
    while let Ok((class, payload)) = frames.recv() {
        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4] = class.wire_tag();
        // A write failure means the peer is gone; its Down marker comes from
        // our reader thread, and dropping `frames` fails every later send.
        if stream.write_all(&header).is_err() || stream.write_all(&payload).is_err() {
            return;
        }
        let _ = stream.flush();
    }
}

impl Transport for SocketTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Socket
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.writers.len()
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
        let writer = self.writers[dest].as_ref().expect("peer writer exists");
        // The writer queue is unbounded: enqueueing never blocks. It is
        // closed once a write to the peer failed.
        writer
            .send((class, payload))
            .map_err(|_| CommError::PeerDisconnected { peer: dest })
    }

    fn recv(&self) -> Result<TransportEnvelope, CommError> {
        recv_incoming(&self.incoming)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // Flush-and-stop the writers first: dropping a queue's sender ends
        // its writer after every already-posted frame, so nothing sent
        // before drop is lost. Joining them cannot deadlock against a live
        // peer — every transport keeps its readers draining until after its
        // own writers have exited.
        self.writers.clear();
        for handle in self.writer_threads.drain(..) {
            let _ = handle.join();
        }
        // Closing the sockets unblocks our reader threads (their blocking
        // read returns) and delivers EOF to every peer still listening —
        // which is how a departed rank turns into `PeerDisconnected` on the
        // other side instead of a hang.
        for stream in self.streams.iter().flatten() {
            stream.shutdown();
        }
        for handle in self.reader_threads.drain(..) {
            let _ = handle.join();
        }
        if let Some(path) = &self.unix_listener_path {
            let _ = std::fs::remove_file(path);
            if let Some(dir) = path.parent() {
                // Best-effort: last rank out removes the rendezvous dir.
                let _ = std::fs::remove_dir(dir);
            }
        }
    }
}
