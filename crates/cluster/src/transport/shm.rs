//! Shared-memory transport: ranks are threads of one process.
//!
//! Every rank holds a `std::sync::mpsc` sender to every rank's (single)
//! receive queue, its own included. Payloads are the same wire bytes the
//! socket backend frames, moved through the channel without another copy.
//! Dropping a transport, which also happens while its rank thread
//! unwinds, posts a `Down` marker to every peer behind everything it
//! sent, and its dropped receiver makes every later send to it fail: peer
//! death is [`CommError::PeerDisconnected`] here exactly as over sockets.

use super::{recv_incoming, CommError, Incoming, MsgClass, Transport, TransportEnvelope, TransportKind};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

pub(crate) struct ShmTransport {
    rank: usize,
    senders: Vec<Sender<Incoming>>,
    receiver: Mutex<Receiver<Incoming>>,
}

impl ShmTransport {
    /// Build a full world of `n` connected transports, index = rank.
    pub(crate) fn world(n: usize) -> Vec<ShmTransport> {
        assert!(n > 0, "a communicator needs at least one rank");
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| ShmTransport {
                rank,
                senders: senders.clone(),
                receiver: Mutex::new(receiver),
            })
            .collect()
    }
}

impl Transport for ShmTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Shm
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.senders.len()
    }

    fn send(&self, dest: usize, class: MsgClass, payload: Vec<u8>) -> Result<(), CommError> {
        assert!(dest < self.size(), "destination rank {dest} out of range");
        let src = self.rank;
        self.senders[dest]
            .send(Incoming::Env(TransportEnvelope { src, class, payload }))
            .map_err(|_| CommError::PeerDisconnected { peer: dest })
    }

    fn recv(&self) -> Result<TransportEnvelope, CommError> {
        recv_incoming(&self.receiver)
    }
}

impl Drop for ShmTransport {
    fn drop(&mut self) {
        for (peer, sender) in self.senders.iter().enumerate() {
            if peer != self.rank {
                // A peer that is gone already needs no notice.
                let _ = sender.send(Incoming::Down(self.rank));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(env: TransportEnvelope) -> (usize, Vec<u8>) {
        (env.src, env.payload)
    }

    #[test]
    fn fifo_order() {
        let world = ShmTransport::world(2);
        for value in [1u8, 2] {
            world[0].send(1, MsgClass::P2p, vec![value]).unwrap();
        }
        assert_eq!(payload(world[1].recv().unwrap()), (0, vec![1]));
        assert_eq!(payload(world[1].recv().unwrap()), (0, vec![2]));
    }

    #[test]
    fn cross_thread_blocking_recv() {
        let mut world = ShmTransport::world(2);
        let receiver = world.pop().unwrap();
        let handle = std::thread::spawn(move || payload(receiver.recv().unwrap()));
        std::thread::sleep(std::time::Duration::from_millis(10));
        world[0].send(1, MsgClass::P2p, vec![99]).unwrap();
        assert_eq!(handle.join().unwrap(), (0, vec![99]));
    }
}
