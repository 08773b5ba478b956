//! What a shard says to its peers during a step: migration, the ghost layer,
//! its mid-step refresh, the rung exchange of the limiter and the gravity
//! gather — and the three messages they put on the wire.
//!
//! Migration and the ghost exchange ship a block of particles as one
//! [`Frame`] per peer: [`encode_block`] writes it straight from the lanes into
//! a buffer sized from the row count before the first byte, `comm` moves it
//! to the transport and back as it is, and [`decode_block`] reads it through a
//! [`WireReader`] straight onto the lanes. No per-particle message is built
//! on either side.
//!
//! [`DistributedSimulation::step`] and `sync` guard every exchange with "are
//! there peers"; a lone rank reaches only the no-gather branch of
//! [`add_gravity_global`].

use super::{DistributedSimulation, DEFAULT_SOFTENING, MAX_LEAF_SIZE};
use crate::kernels::KERNEL_SUPPORT;
use crate::octree::Octree;
use crate::particle::{compact, ParticleSet};
use crate::physics::gravity::{add_gravity_rows, DEFAULT_THETA};
use crate::physics::timestep::TimestepBins;
use comm::{Comm, Frame, RecvHandle, SendHandle, Wire, WireError, WireReader};

/// Wire bytes of one row of a particle block: the `u32` global id, the 20
/// `f64` lanes and the `u8` rung.
const ROW_WIRE_BYTES: usize = 4 + 20 * 8 + 1;

/// Encode `rows` of the set as one particle block: a `u64` row count, then
/// per row the global id, every `f64` lane in [`ParticleSet::lanes`] order,
/// and the rung. The buffer is sized from the row count before the first
/// byte is written and never grows.
///
/// The derivative lanes (`du`, acceleration) ride along because, while the
/// global-dt scheme recomputes them for every particle every step before
/// use, under individual timesteps a frozen particle keeps its last kick's
/// derivatives across substeps — migration must carry them or the migrated
/// particle's state silently diverges from the one-rank trajectory. The rung
/// travels for the same reason (a particle keeps its kick schedule across
/// rank boundaries mid-cycle), and the ghost exchange ships it so receivers
/// can apply the neighbour-rung limiter and the active-set bookkeeping to
/// ghost rows.
fn encode_block(particles: &ParticleSet, ids: &[u32], rows: &[usize]) -> Frame {
    let mut out = Vec::with_capacity(8 + rows.len() * ROW_WIRE_BYTES);
    rows.len().encode(&mut out);
    let lanes = particles.lanes();
    for &i in rows {
        ids[i].encode(&mut out);
        for lane in lanes {
            lane[i].encode(&mut out);
        }
        particles.rung[i].encode(&mut out);
    }
    debug_assert_eq!(out.len(), out.capacity(), "a particle block outgrew its row count");
    Frame(out)
}

/// Append the rows of a particle block written by [`encode_block`] to the
/// lanes, `rung` and `ids`, with a zero `neighbor_count`; returns the row
/// count. A frame shorter than its row count says is rejected before any row
/// is appended, and one longer after.
fn decode_block(particles: &mut ParticleSet, ids: &mut Vec<u32>, frame: &Frame) -> Result<usize, WireError> {
    let mut r = WireReader::new(&frame.0);
    let rows = r.seq_len(ROW_WIRE_BYTES)?;
    for _ in 0..rows {
        ids.push(u32::decode(&mut r)?);
        for lane in particles.lanes_mut() {
            lane.push(f64::decode(&mut r)?);
        }
        particles.rung.push(u8::decode(&mut r)?);
        particles.neighbor_count.push(0);
    }
    r.finish()?;
    Ok(rows)
}

/// Mid-step refresh of the ghost fields the momentum kernel reads:
/// `[ρ, h, P, c, Ω, α]`.
type GhostUpdate = [f64; 6];

/// Per-rank geometry advertised before the halo exchange.
#[derive(Clone, Copy, Debug)]
struct RankMeta {
    min: (f64, f64, f64),
    max: (f64, f64, f64),
    h_max: f64,
    count: usize,
}

impl Wire for RankMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.min, self.max, self.h_max, self.count).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (min, max, h_max, count) = Wire::decode(r)?;
        Ok(Self { min, max, h_max, count })
    }
    fn min_wire_size() -> usize {
        <((f64, f64, f64), (f64, f64, f64), f64, usize)>::min_wire_size()
    }
}

/// One message to and one from every peer, nonblocking. Receives are posted
/// before sends and complete in source-rank order — the order a synchronous
/// alltoall delivers in — so whatever a caller builds from the messages does
/// not depend on timing, and the caller computes between [`Self::post`] and
/// [`Self::complete`] while the wires are busy.
pub(super) struct PeerExchange<T: Wire> {
    sends: Vec<SendHandle>,
    recvs: Vec<RecvHandle<T>>,
}

impl<T: Wire> PeerExchange<T> {
    /// Post a receive from every peer, then send `outgoing(dest)` to each.
    pub(super) fn post(comm: &Comm, mut outgoing: impl FnMut(usize) -> T) -> Self {
        let peers = || (0..comm.size()).filter(|&r| r != comm.rank());
        let recvs = peers().map(|src| comm.irecv(src)).collect();
        let sends = peers().map(|dest| comm.isend(dest, outgoing(dest))).collect();
        Self { sends, recvs }
    }

    /// Hand each peer's message to `incoming(src, message)` in source-rank
    /// order, then reap the sends. `what` names the exchange in the panic a
    /// lost peer raises.
    pub(super) fn complete(self, comm: &Comm, what: &str, mut incoming: impl FnMut(usize, T)) {
        for recv in self.recvs {
            let src = recv.src();
            let message = recv.wait(comm).unwrap_or_else(|e| panic!("peer died during {what}: {e}"));
            incoming(src, message);
        }
        for send in self.sends {
            send.wait().unwrap_or_else(|e| panic!("peer died during {what}: {e}"));
        }
    }
}

/// Wall-clock accounting of the overlapped mid-step ghost exchange,
/// accumulated across a shard's steps.
///
/// Per multi-rank step: `posted_s` covers posting the nonblocking
/// sends/receives, `overlapped_s` is the interval the exchange spent in
/// flight underneath the interior-row momentum kernel, and `waited_s` is the
/// residual blocking wait once the interior rows ran out. A perfectly hidden
/// exchange has `waited_s ≈ 0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverlapStats {
    /// Seconds spent posting the nonblocking ghost exchange.
    pub posted_s: f64,
    /// Seconds the in-flight exchange was covered by interior-row compute.
    pub overlapped_s: f64,
    /// Seconds blocked in the completion wait after interior rows finished.
    pub waited_s: f64,
}

impl OverlapStats {
    /// Fraction of the exchange's total wall footprint hidden under compute:
    /// `overlapped / (posted + overlapped + waited)`. Zero before any
    /// multi-rank step ran.
    pub fn hidden_fraction(&self) -> f64 {
        let total = self.posted_s + self.overlapped_s + self.waited_s;
        if total <= 0.0 {
            return 0.0;
        }
        self.overlapped_s / total
    }

    /// Component-wise sum (for aggregating across ranks).
    pub fn merge(&mut self, other: &OverlapStats) {
        self.posted_s += other.posted_s;
        self.overlapped_s += other.overlapped_s;
        self.waited_s += other.waited_s;
    }
}

/// The in-flight mid-step ghost refresh, between [`post_ghost_refresh`] and
/// [`complete_ghost_refresh`].
pub(super) type GhostRefresh = PeerExchange<Vec<GhostUpdate>>;

impl DistributedSimulation {
    /// Post this rank's owned count to every peer in the background: the
    /// counts feed the next step's rebalance decision, whose wait sits at the
    /// top of the next [`Self::migrate`]. Ownership cannot change in between,
    /// so the completed counts are exactly what a synchronous allgather at
    /// the wait site would have produced. Collectives between steps (say a
    /// caller's `total_energy`) are safe to cross the in-flight handles — the
    /// transport matches per (sender, message class), and these are the only
    /// p2p messages live between steps.
    pub(super) fn post_owned_counts(&mut self) {
        self.pending_counts = Some(PeerExchange::post(&self.comm, |_| self.n_owned));
    }

    /// Re-balance the splitters when the owned counts drifted past the
    /// threshold, then hand every particle whose Morton key now belongs to
    /// another rank over to its new owner.
    pub(super) fn migrate(&mut self) {
        let rank = self.comm.rank();
        let size = self.comm.size();

        // Morton keys of the owned particles in the shared (fixed-box) key
        // space; pure function of position, so every rank agrees on owners.
        let codes: Vec<u64> = (0..self.n_owned)
            .map(|i| {
                self.map
                    .code_of((self.particles.x[i], self.particles.y[i], self.particles.z[i]))
            })
            .collect();

        // Re-balance when populations drifted past the threshold. The
        // decision derives from the owned counts agreed across the world —
        // normally delivered by the background exchange posted at the end of
        // the previous step; the first step, with nothing in flight yet,
        // falls back to the blocking collective.
        let counts = match self.pending_counts.take() {
            Some(pending) => {
                let mut counts = vec![0usize; size];
                counts[rank] = self.n_owned;
                pending.complete(&self.comm, "the population exchange", |src, n| counts[src] = n);
                counts
            }
            None => self.comm.allgather(self.n_owned),
        };
        let total: usize = counts.iter().sum();
        if total > 0 {
            let mean = total as f64 / size as f64;
            let max = counts.iter().copied().max().unwrap_or(0) as f64;
            if max > self.rebalance_threshold * mean {
                let mut all_codes: Vec<u64> = self.comm.allgather(codes.clone()).into_iter().flatten().collect();
                all_codes.sort_unstable();
                self.map.rebalance(&all_codes);
                self.rebalance_count += 1;
            }
        }

        // The keep-set compaction overlaps with the in-flight messages, and
        // the arrivals append in source-rank order, so particle ordering (and
        // hence physics) does not depend on the timing.
        let mut leaving: Vec<Vec<usize>> = vec![Vec::new(); size];
        let mut keep: Vec<usize> = Vec::with_capacity(self.n_owned);
        for (i, &code) in codes.iter().enumerate() {
            let dest = self.map.owner_of_code(code);
            if dest == rank {
                keep.push(i);
            } else {
                leaving[dest].push(i);
            }
        }
        let exchange = PeerExchange::post(&self.comm, |dest| {
            encode_block(&self.particles, &self.ids, &leaving[dest])
        });
        if keep.len() != self.n_owned {
            self.particles.retain_slots(&keep);
            compact(&mut self.ids, &keep);
        }
        exchange.complete(&self.comm, "migration", |src, frame| {
            decode_block(&mut self.particles, &mut self.ids, &frame)
                .unwrap_or_else(|e| panic!("migration: the frame from rank {src} is corrupt: {e}"));
        });
        self.n_owned = self.particles.len();
    }

    /// Advertise this rank's geometry, build the send lists and exchange the
    /// ghost layer: particle i goes to rank b when it can interact with
    /// *some* particle of b, over-approximated as distance-to-bounding-box ≤
    /// 2·max(h_i, h_max_b) — measured *periodically* when the box wraps, so
    /// ghosts cross the wrap seam (the per-axis image minimum never exceeds
    /// the true minimum-image pair distance, keeping the superset guarantee).
    /// The superset is harmless: extra ghosts fall outside every neighbour
    /// search. Ghosts ship at their wrapped coordinates; the receiving rank's
    /// periodic neighbour search and the min-image pair kernels place them on
    /// whichever image interacts — including both sides at once when a rank's
    /// domain touches both faces of an axis.
    pub(super) fn exchange_ghosts(&mut self) {
        let rank = self.comm.rank();
        let boundary = self.particles.boundary;
        let meta = {
            // `sync` dropped the ghost tail and `migrate` reset `n_owned`:
            // the set is exactly the owned block here.
            debug_assert_eq!(self.particles.len(), self.n_owned);
            let (min, max) = self.particles.bounding_box();
            let h_max = self.particles.h[..self.n_owned].iter().copied().fold(0.0, f64::max);
            RankMeta {
                min,
                max,
                h_max,
                count: self.n_owned,
            }
        };
        let metas = self.comm.allgather(meta);
        for list in &mut self.send_lists {
            list.clear();
        }
        for (dest, dest_meta) in metas.iter().enumerate() {
            if dest == rank || dest_meta.count == 0 {
                continue;
            }
            for i in 0..self.n_owned {
                let pos = (self.particles.x[i], self.particles.y[i], self.particles.z[i]);
                let radius = KERNEL_SUPPORT * self.particles.h[i].max(dest_meta.h_max);
                if boundary.dist_sq_to_box(pos, dest_meta.min, dest_meta.max) <= radius * radius {
                    self.send_lists[dest].push(i);
                }
            }
        }
        let outgoing = self
            .send_lists
            .iter()
            .map(|rows| encode_block(&self.particles, &self.ids, rows))
            .collect();
        let incoming = self.comm.alltoall(outgoing);
        self.ghost_counts.clear();
        for (src, frame) in incoming.into_iter().enumerate() {
            let rows = decode_block(&mut self.particles, &mut self.ids, &frame)
                .unwrap_or_else(|e| panic!("the ghost exchange: the frame from rank {src} is corrupt: {e}"));
            self.ghost_counts.push(rows);
        }
    }
}

/// Post the mid-step ghost refresh without blocking: to every peer the fields
/// the momentum kernel reads, in the send-list order of this step's halo
/// exchange. Under `bins` only the entries kicked this substep ship (all of
/// them at a cycle start); [`complete_ghost_refresh`] skips the frozen ghost
/// slots symmetrically: both sides derive activity from the same shipped
/// rungs and the same globally agreed schedule, so the filtered streams stay
/// aligned without any extra header traffic.
pub(super) fn post_ghost_refresh(
    comm: &Comm,
    send_lists: &[Vec<usize>],
    particles: &ParticleSet,
    bins: Option<&TimestepBins>,
) -> GhostRefresh {
    let p = particles;
    PeerExchange::post(comm, |dest| {
        send_lists[dest]
            .iter()
            .filter(|&&i| bins.is_none_or(|b| b.is_active(p.rung[i])))
            .map(|&i| [p.rho[i], p.h[i], p.p[i], p.c[i], p.omega[i], p.alpha[i]])
            .collect()
    })
}

/// Complete a ghost refresh posted by [`post_ghost_refresh`]: walk each
/// source rank's ghost block in tail order (block extents recorded at sync
/// time, blocks stored in source-rank order), write the next update onto
/// every slot whose rung is active this substep (every slot without `bins`),
/// and leave the frozen slots untouched — their owners did not recompute this
/// substep, so the values shipped by this substep's sync are already current.
/// The sender filtered its list by the same rung activity, so the stream and
/// the active slots align entry for entry; the assertions catch any drift.
pub(super) fn complete_ghost_refresh(
    comm: &Comm,
    particles: &mut ParticleSet,
    n_owned: usize,
    ghost_counts: &[usize],
    refresh: GhostRefresh,
    bins: Option<&TimestepBins>,
) {
    let p = particles;
    let mut slot = n_owned;
    refresh.complete(comm, "the ghost refresh", |src, updates| {
        let mut next = updates.iter();
        for _ in 0..ghost_counts[src] {
            if bins.is_none_or(|b| b.is_active(p.rung[slot])) {
                let &[rho, h, pressure, c, omega, alpha] = next.next().expect("ghost refresh under-ran its block");
                (p.rho[slot], p.h[slot], p.p[slot]) = (rho, h, pressure);
                (p.c[slot], p.omega[slot], p.alpha[slot]) = (c, omega, alpha);
            }
            slot += 1;
        }
        assert!(next.next().is_none(), "ghost refresh over-ran its block");
    });
    debug_assert_eq!(slot, p.len(), "ghost refresh out of sync with the ghost tail");
}

/// Ship every rank's owned rungs onto its peers' ghost slots: send-list order
/// on the wire, source-rank block order on the ghost tail — the same
/// alignment the halo exchange established at sync. One call per limiter
/// round keeps the Jacobi iteration reading current neighbour rungs across
/// rank boundaries.
pub(super) fn exchange_ghost_rungs(
    comm: &Comm,
    send_lists: &[Vec<usize>],
    particles: &mut ParticleSet,
    n_owned: usize,
) {
    if comm.size() <= 1 {
        return;
    }
    let outgoing: Vec<Vec<u8>> = send_lists
        .iter()
        .map(|list| list.iter().map(|&i| particles.rung[i]).collect())
        .collect();
    let incoming = comm.alltoall(outgoing);
    let mut slot = n_owned;
    for rungs in &incoming {
        for &k in rungs {
            particles.rung[slot] = k;
            slot += 1;
        }
    }
    debug_assert_eq!(slot, particles.len(), "rung exchange out of sync with the ghost tail");
}

/// Barnes–Hut gravity over the *global* particle distribution, accelerating
/// the owned `rows` of this rank in place; returns their `½ Σ m φ`. The
/// sources are the global `(x, y, z, m)` arrays, and `tree` (the reused node
/// arena) is rebuilt over them here, at every rank count. With peers, the
/// ranks allgather the owned arrays and concatenate them in rank order (the
/// same on every rank, so the tree is too); the allgather and the tree build
/// run on every rank on every (sub)step — the collective schedule must stay
/// in lock-step regardless of local activity. A lone rank's own lanes *are*
/// the global arrays: nothing is copied. Only the given rows are
/// accelerated; frozen particles keep the acceleration of their own last
/// kick.
pub(super) fn add_gravity_global(
    comm: &Comm,
    particles: &mut ParticleSet,
    n_owned: usize,
    tree: &mut Octree,
    rows: Option<&[u32]>,
) -> f64 {
    let p = particles;
    let gathered_sources;
    let (sources, my_start) = if comm.size() > 1 {
        let owned = |field: &[f64]| field[..n_owned].to_vec();
        let gathered = comm.allgather((owned(&p.x), owned(&p.y), owned(&p.z), owned(&p.m)));
        // The block lengths are in the payload: no second collective for the
        // offset of this rank's block.
        let my_start = gathered[..comm.rank()].iter().map(|block| block.0.len()).sum();
        let (mut x, mut y, mut z, mut m) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (gx, gy, gz, gm) in gathered {
            x.extend_from_slice(&gx);
            y.extend_from_slice(&gy);
            z.extend_from_slice(&gz);
            m.extend_from_slice(&gm);
        }
        gathered_sources = (x, y, z, m);
        let (x, y, z, m) = &gathered_sources;
        ((&x[..], &y[..], &z[..], &m[..]), my_start)
    } else {
        ((&p.x[..], &p.y[..], &p.z[..], &p.m[..]), 0)
    };
    let (x, y, z, m) = sources;
    tree.rebuild(x, y, z, m, MAX_LEAF_SIZE);
    let targets = (&mut p.ax[..n_owned], &mut p.ay[..n_owned], &mut p.az[..n_owned]);
    add_gravity_rows(tree, sources, my_start, rows, targets, DEFAULT_THETA, DEFAULT_SOFTENING)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hold `value`'s encoding to its pinned `(length, FNV-1a over the
    /// bytes)` and to decode → encode being the identity on those bytes.
    fn assert_wire_pin<T: Wire>(value: &T, pinned: (usize, u64), what: &str) {
        let bytes = value.to_wire();
        assert_eq!((bytes.len(), fnv1a(&bytes)), pinned, "encoded {what}");
        assert_eq!(bytes.len(), T::min_wire_size(), "{what} is fixed-size");
        let decoded = T::from_wire(&bytes).expect("own bytes decode");
        assert_eq!(decoded.to_wire(), bytes, "decode → encode is the identity on the bytes");
        assert!(
            T::from_wire(&bytes[..bytes.len() - 1]).is_err(),
            "a strict prefix must not decode"
        );
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `n` rows whose lanes read `0.37·k − 1.5 + row` (lane `k`), rung `7 +
    /// row` and global id `0x0102_0304 + row`.
    fn rows(n: usize) -> (ParticleSet, Vec<u32>) {
        let mut particles = ParticleSet::with_capacity(n);
        for row in 0..n {
            for (k, lane) in particles.lanes_mut().into_iter().enumerate() {
                lane.push(0.37 * k as f64 - 1.5 + row as f64);
            }
            particles.neighbor_count.push(0);
            particles.rung.push(7 + row as u8);
        }
        (particles, (0..n as u32).map(|row| 0x0102_0304 + row).collect())
    }

    /// The row bytes of a one-row block are the bytes a particle carried
    /// before blocks were encoded from the lanes: the wire format is pinned.
    #[test]
    fn wire_bytes_of_a_particle_msg_are_pinned() {
        let (mut particles, ids) = rows(1);
        // Raw bits travel: a signed zero and a subnormal must survive.
        (particles.vx[0], particles.ay[0]) = (-0.0, f64::MIN_POSITIVE / 4.0);
        let frame = encode_block(&particles, &ids, &[0]);
        let (count, row) = frame.0.split_at(8);
        assert_eq!(count, 1u64.to_le_bytes(), "the row count");
        assert_eq!((row.len(), fnv1a(row)), (165, 2070815820410229108), "the encoded row");
        let (mut back, mut back_ids) = (ParticleSet::with_capacity(0), Vec::new());
        assert_eq!(decode_block(&mut back, &mut back_ids, &frame), Ok(1));
        assert_eq!(
            encode_block(&back, &back_ids, &[0]),
            frame,
            "decode → encode is the identity on the bytes"
        );
        assert_eq!((back.neighbor_count, back.rung), (vec![0], vec![7]));
    }

    #[test]
    fn an_encoded_ghost_frame_is_written_once_at_its_final_size() {
        let (particles, ids) = rows(5);
        let frame = encode_block(&particles, &ids, &[4, 0, 2]);
        assert_eq!(frame.0.len(), 8 + 3 * ROW_WIRE_BYTES);
        assert_eq!(
            frame.0.capacity(),
            frame.0.len(),
            "the buffer never grew past its row count"
        );
        let (mut back, mut back_ids) = (ParticleSet::with_capacity(0), Vec::new());
        assert_eq!(decode_block(&mut back, &mut back_ids, &frame), Ok(3));
        assert_eq!(back_ids, [ids[4], ids[0], ids[2]]);
        assert_eq!(back.du, [particles.du[4], particles.du[0], particles.du[2]]);
    }

    #[test]
    fn a_block_frame_one_byte_short_or_long_is_rejected() {
        let (particles, ids) = rows(2);
        let Frame(bytes) = encode_block(&particles, &ids, &[0, 1]);
        let short = Frame(bytes[..bytes.len() - 1].to_vec());
        let long = Frame([&bytes[..], &[0]].concat());
        let (mut back, mut back_ids) = (ParticleSet::with_capacity(0), Vec::new());
        assert!(matches!(
            decode_block(&mut back, &mut back_ids, &short),
            Err(WireError::Truncated { .. })
        ));
        assert_eq!((back.len(), back_ids.len()), (0, 0), "a short frame appends no row");
        assert_eq!(
            decode_block(&mut back, &mut back_ids, &long),
            Err(WireError::TrailingBytes(1))
        );
    }

    /// Decoding is total on corrupt frames too: every mutation of a ghost
    /// frame of real particles decodes to rows or to a [`WireError`], never a
    /// panic.
    #[test]
    fn mutated_block_frames_decode_to_rows_or_a_wire_error() {
        use super::super::launcher::tests::{mutate, Rng};
        let kh = crate::scenario::get("KH").unwrap().initial_conditions(64, 7);
        let ids: Vec<u32> = (0..kh.len() as u32).collect();
        let mut rng = Rng(0xB10C_F00D_5EED_CAFE);
        for rows in [vec![], vec![5], vec![63, 0, 17], (0..64).step_by(9).collect()] {
            let Frame(bytes) = encode_block(&kh, &ids, &rows);
            for _ in 0..200 {
                let mutated = Frame(mutate(&mut rng, &bytes));
                let decoded = std::panic::catch_unwind(|| {
                    let (mut back, mut back_ids) = (ParticleSet::with_capacity(0), Vec::new());
                    decode_block(&mut back, &mut back_ids, &mutated).is_ok()
                });
                assert!(
                    decoded.is_ok(),
                    "a block of {} rows panicked on {:?}",
                    rows.len(),
                    mutated.0
                );
            }
        }
    }

    #[test]
    fn wire_bytes_of_a_ghost_update_are_pinned() {
        let update: GhostUpdate = [1.25, 0.031, 2.0e-3, 0.57, 0.98, 0.05];
        assert_wire_pin(&update, (48, 17930355540676866077), "GhostUpdate");
    }

    #[test]
    fn wire_bytes_of_a_rank_meta_are_pinned() {
        let meta = RankMeta {
            min: (-0.5, -0.25, 0.0),
            max: (0.5, 0.75, 1.0),
            h_max: 0.043,
            count: 31_999,
        };
        assert_wire_pin(&meta, (64, 18193235142567817339), "RankMeta");
    }
}
