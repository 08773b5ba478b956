//! Timestep control (`Timestep` stage) and the drift/kick update
//! (`UpdateQuantities` stage), plus the individual (block) timestep machinery:
//! [`TimestepBins`] assigns every particle a power-of-two rung
//! `dt = dt_base / 2^k` from its local Courant/acceleration criterion, limits
//! neighbouring rungs to one level (`|k_i − k_j| ≤ 1` across CSR rows) and
//! schedules which rungs are *active* on each substep of a hierarchical
//! kick-drift cycle.

use crate::parallel::{for_each_row, reduce_row_blocks};
use crate::particle::ParticleSet;
use crate::physics::neighbors::NeighborLists;

/// Courant factor used for the CFL timestep.
const COURANT: f64 = 0.3;

/// The local Courant/acceleration criterion of one particle, **uncapped**:
/// `min(C·h/(c + |v| + ε), C·√(h/|a|))` (the acceleration term only when
/// `|a| > ε`). Shared by the global reduction ([`courant_timestep_prefix`])
/// and the per-particle rung assignment ([`TimestepBins`]) — folding this
/// value into a running minimum is bit-identical to the fused loop it
/// replaced, because `f64::min` is exact and associative on non-NaN input.
#[inline]
fn courant_dt_row(particles: &ParticleSet, i: usize) -> f64 {
    let v = (particles.vx[i].powi(2) + particles.vy[i].powi(2) + particles.vz[i].powi(2)).sqrt();
    let signal = particles.c[i] + v + 1e-12;
    let mut dt = COURANT * particles.h[i] / signal;
    let a = (particles.ax[i].powi(2) + particles.ay[i].powi(2) + particles.az[i].powi(2)).sqrt();
    if a > 1e-12 {
        dt = dt.min(COURANT * (particles.h[i] / a).sqrt());
    }
    dt
}

/// Courant-limited timestep of the first `n` particles of the set: the
/// minimum of `courant_dt_row`, capped by `max_dt` — a parallel min through
/// the row dispatch (the scan sits on the hot path of every step).
///
/// The step driver stores ghost copies behind a rank's owned particles;
/// ghosts carry locally incomplete accelerations and must not shrink the rank's
/// timestep proposal (their owners reduce over them instead).
///
/// An empty prefix (`n = 0`) returns `max_dt` as-is — the cap is the only
/// constraint, and the `1e-12` floor exists to keep a *particle-derived*
/// minimum positive, so it must not touch the degenerate path. `n` beyond the
/// particle count is a caller bug (an owned prefix can never exceed the local
/// set) and trips a debug assertion; release builds clamp defensively.
pub fn courant_timestep_prefix(particles: &ParticleSet, n: usize, max_dt: f64) -> f64 {
    debug_assert!(
        n <= particles.len(),
        "courant_timestep_prefix: prefix {n} exceeds the particle count {}",
        particles.len()
    );
    let n = n.min(particles.len());
    if n == 0 {
        return max_dt;
    }
    // The reduction writes nothing: a lane of `n` unit values (a zero-sized
    // type never touches the heap) gives the dispatch its extent.
    let mut extent = vec![(); n];
    reduce_row_blocks(None, [&mut extent[..]], max_dt, f64::min, |_, _, block_rows| {
        block_rows.fold(max_dt, |dt, i| dt.min(courant_dt_row(particles, i)))
    })
    .max(1e-12)
}

/// Advance positions, velocities and internal energy with a kick-drift
/// (semi-implicit Euler) update, as SPH-EXA's `UpdateQuantities` does: kick
/// `v` and `u`, then drift *every* particle by `dt`.
///
/// Under global timestepping (`bins = None`) every particle is kicked by
/// `dt`. Under individual timesteps `dt` is the substep dt and only the
/// particles whose rung is active this substep are kicked, each by its **own**
/// rung dt; the others keep `v` and `u` untouched bit-wise. Holding `v`
/// piecewise-constant between kicks makes the accumulated drift of a
/// rung-`k` particle over its kick period exactly `v_new · dt_k` — the same
/// position advance the global-dt update performs in one step.
pub fn update_quantities(particles: &mut ParticleSet, dt: f64, bins: Option<&TimestepBins>) {
    let ParticleSet {
        x,
        y,
        z,
        vx,
        vy,
        vz,
        u,
        ax,
        ay,
        az,
        du,
        rung,
        ..
    } = particles;
    let lanes = [x, y, z, vx, vy, vz, u].map(|lane| &mut lane[..]);
    // Block-wise rather than through `for_each_row`: its per-row array of
    // seven lane slots does not inline (`<[T; 7]>::map` stays a call), and
    // with two tiers in the row dispatch that call showed in this stage.
    reduce_row_blocks(
        None,
        lanes,
        0.0,
        |sum, e| sum + e,
        #[inline(always)]
        |base, [x, y, z, vx, vy, vz, u], block_rows| {
            for i in block_rows {
                let k = i - base;
                let kick = bins.map_or(dt, |b| if b.is_active(rung[i]) { b.rung_dt(rung[i]) } else { 0.0 });
                if kick > 0.0 {
                    vx[k] += ax[i] * kick;
                    vy[k] += ay[i] * kick;
                    vz[k] += az[i] * kick;
                    u[k] = (u[k] + du[i] * kick).max(1e-12);
                }
                x[k] += vx[k] * dt;
                y[k] += vy[k] * dt;
                z[k] += vz[k] * dt;
            }
            0.0
        },
    );
}

// ---------------------------------------------------------------------------
// Individual (block) timesteps
// ---------------------------------------------------------------------------

/// Power-of-two individual-timestep state: the cycle plan (`dt_base`, deepest
/// rung, substep phase) plus the scratch buffers of the rung assignment and
/// the neighbour-rung limiter. Per-particle rungs live in the
/// [`ParticleSet::rung`] lane, so they travel with the particle through
/// Morton reorders, rank migration and ghost exchange.
///
/// **Rung assignment.** At the start of each cycle (`phase == 0`) the global
/// minimum `dt_min` of the local criteria (`courant_dt_row`, capped at
/// `max_dt`, floored at `1e-12` — exactly [`courant_timestep_prefix`]) is
/// expanded to `dt_base = dt_min · 2^(B−1)` and halved back under `max_dt`.
/// Each particle takes the *smallest* rung `k` with `dt_base / 2^k ≤ dt_i`,
/// clamped to `B − 1` — well-defined because `dt_base / 2^(B−1) ≤ dt_min`.
///
/// **Limiter.** A raise-only Jacobi iteration
/// `k_i ← max(k_i, max_{j ∈ row(i)} k_j − 1)` runs to its (unique, least)
/// fixpoint, so no pair in the symmetric CSR lists interacts across more than
/// one level. Raise-only + monotone means the step driver can run
/// the same rounds per rank with a ghost-rung exchange in between and reach
/// the identical fixpoint.
///
/// **Schedule.** The deepest rung actually used, `k_deep`, fixes the substep
/// `dt_sub = dt_base / 2^k_deep` and the cycle length `2^k_deep` (so a cycle
/// where every particle sits on rung 0 degenerates to one full step at
/// `dt_base`). Rung `k` is *active* — kicked, with a fresh
/// density/gradh/IAD/momentum pass over its rows — on substeps
/// `phase % 2^(k_deep − k) == 0`; every particle drifts by `dt_sub` on every
/// substep. A particle may *deepen* (raise its rung, clamped at `k_deep`)
/// mid-cycle at its own kick when its fresh criterion demands it; deeper
/// periods divide shallower ones, so the kick schedule stays aligned.
/// Shallowing happens only at the next cycle start, when every rung is
/// reassigned from scratch.
#[derive(Clone, Debug)]
pub struct TimestepBins {
    n_bins: usize,
    dt_base: f64,
    k_deep: u32,
    phase: u32,
    cycles: u64,
    rung_next: Vec<u8>,
}

impl TimestepBins {
    /// Bin structure with `n_bins` power-of-two rungs (`n_bins ≥ 1`; a single
    /// bin reproduces the global-dt scheme). The first substep is a cycle
    /// start.
    pub fn new(n_bins: usize) -> Self {
        assert!(n_bins >= 1, "need at least one timestep bin");
        assert!(n_bins <= 24, "2^(n_bins-1) substeps per cycle must stay sane");
        Self {
            n_bins,
            dt_base: 0.0,
            k_deep: 0,
            phase: 0,
            cycles: 0,
            rung_next: Vec::new(),
        }
    }

    /// Number of cycles planned so far (0 before the first
    /// [`TimestepBins::plan`] — the propagator paces Morton reorders by this,
    /// the binned analogue of the global-dt step counter).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of rungs `B`.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Rung-0 timestep of the current cycle.
    pub(crate) fn dt_base(&self) -> f64 {
        self.dt_base
    }

    /// Deepest rung in use this cycle (fixed by [`TimestepBins::seal`]).
    pub(crate) fn k_deep(&self) -> u32 {
        self.k_deep
    }

    /// Substeps per cycle: `2^k_deep`.
    pub(crate) fn cycle_len(&self) -> u32 {
        1u32 << self.k_deep
    }

    /// True when the next substep starts a new cycle (full rebuild, every
    /// particle active, rungs reassigned).
    pub fn at_cycle_start(&self) -> bool {
        self.phase == 0
    }

    /// The timestep of rung `k`: `dt_base / 2^k` (exact — halving a finite
    /// f64 in this range is lossless).
    pub(crate) fn rung_dt(&self, k: u8) -> f64 {
        self.dt_base / (1u64 << k) as f64
    }

    /// The substep (drift) timestep: the deepest rung's dt.
    pub fn dt_sub(&self) -> f64 {
        self.dt_base / (1u64 << self.k_deep) as f64
    }

    /// True when rung `k` is kicked on the current substep.
    pub(crate) fn is_active(&self, k: u8) -> bool {
        let k = (k as u32).min(self.k_deep);
        self.phase.is_multiple_of(1u32 << (self.k_deep - k))
    }

    /// Start a new cycle: derive `dt_base` from the globally-reduced minimum
    /// criterion (`dt_min = courant_timestep_prefix(...)`, already capped at
    /// `max_dt`) by exact doublings, halved back under `max_dt`. Resets the
    /// phase; `k_deep` is fixed separately by [`TimestepBins::seal`] once the
    /// limited rungs are known.
    pub fn plan(&mut self, dt_min: f64, max_dt: f64) {
        assert!(
            dt_min.is_finite() && dt_min > 0.0,
            "cycle planned from an invalid dt_min {dt_min}"
        );
        let mut dt_base = dt_min;
        for _ in 1..self.n_bins {
            dt_base *= 2.0;
        }
        while dt_base > max_dt && dt_base * 0.5 >= dt_min {
            dt_base *= 0.5;
        }
        self.dt_base = dt_base;
        self.phase = 0;
        self.k_deep = 0;
        self.cycles += 1;
    }

    /// Assign the first `n` particles their unlimited rung — the smallest `k`
    /// with `dt_base / 2^k ≤ dt_i` (`courant_dt_row`), clamped to
    /// `n_bins − 1`. Slots at or past `n` (ghosts) keep their current rung.
    pub fn assign_rungs(&self, particles: &mut ParticleSet, n: usize) {
        let mut rung = std::mem::take(&mut particles.rung);
        let p = &*particles;
        for_each_row(None, [&mut rung[..n]], |i, [rung]| {
            let dt_i = courant_dt_row(p, i);
            let mut k = 0u8;
            let mut dt = self.dt_base;
            while dt > dt_i && (k as usize) < self.n_bins - 1 {
                dt *= 0.5;
                k += 1;
            }
            *rung = k;
        });
        particles.rung = rung;
    }

    /// One raise-only Jacobi round of the neighbour-rung limiter over the
    /// first `n` CSR rows: `k_i ← max(k_i, max_{j ∈ row(i)} k_j − 1)`,
    /// reading every row entry (including ghost slots past `n`). Returns
    /// `None` while a rung changed and, at the fixpoint, the deepest of the
    /// `n` rungs (a rank's local maximum); iterate until then (at most
    /// `n_bins − 1` rounds on a connected set).
    pub fn limiter_round(&mut self, particles: &mut ParticleSet, neighbors: &NeighborLists, n: usize) -> Option<u32> {
        assert!(neighbors.len() >= n, "neighbour lists out of date for the limiter");
        let rung = &mut particles.rung;
        self.rung_next.resize(n, 0);
        for_each_row(None, [&mut self.rung_next[..]], |i, [next]| {
            let mut k = rung[i];
            for &j in neighbors.neighbors(i) {
                let kj = rung[j as usize];
                if kj > k + 1 {
                    k = kj - 1;
                }
            }
            *next = k;
        });
        let (mut changed, mut deepest) = (false, 0);
        for (k, &next) in rung[..n].iter_mut().zip(&self.rung_next) {
            changed |= *k != next;
            deepest = deepest.max(next);
            *k = next;
        }
        (!changed).then_some(deepest as u32)
    }

    /// Fix the deepest rung of the cycle (after limiting; the distributed
    /// propagator passes the `allreduce_max` of the per-rank maxima that the
    /// last [`TimestepBins::limiter_round`] returned).
    pub fn seal(&mut self, k_deep: u32) {
        assert!((k_deep as usize) < self.n_bins, "k_deep {k_deep} out of range");
        self.k_deep = k_deep;
    }

    /// Mid-cycle deepening over `rows` (the active rows of this substep):
    /// raise a particle's rung — never lower it — when its *fresh* criterion
    /// demands a smaller dt, clamped at `k_deep` (the substep size is frozen
    /// for the cycle). The raised rung's period divides the old one and the
    /// current phase is a kick boundary for it, so the schedule stays
    /// aligned; the limiter is re-established at the next cycle start.
    pub(crate) fn deepen(&self, particles: &mut ParticleSet, rows: &[u32]) {
        let mut rung = std::mem::take(&mut particles.rung);
        let p = &*particles;
        for_each_row(Some(rows), [&mut rung[..]], |i, [rung]| {
            let dt_i = courant_dt_row(p, i);
            while self.rung_dt(*rung) > dt_i && (*rung as u32) < self.k_deep {
                *rung += 1;
            }
        });
        particles.rung = rung;
    }

    /// Advance to the next substep of the cycle.
    pub fn advance(&mut self) {
        self.phase = (self.phase + 1) % self.cycle_len();
    }

    /// Collect the indices in `0..n` whose rung is active this substep into
    /// `out` (ascending; the subset CSR builders require sorted rows).
    pub(crate) fn collect_active_rows(&self, particles: &ParticleSet, n: usize, out: &mut Vec<u32>) {
        out.clear();
        for (i, &k) in particles.rung[..n].iter().enumerate() {
            if self.is_active(k) {
                out.push(i as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The criterion over the whole set.
    fn courant_timestep(particles: &ParticleSet, max_dt: f64) -> f64 {
        courant_timestep_prefix(particles, particles.len(), max_dt)
    }

    /// Deepest rung of the set, unlimited.
    fn deepest(particles: &ParticleSet) -> u32 {
        particles.rung.iter().copied().max().unwrap_or(0) as u32
    }

    fn single_particle(vx: f64, c: f64, h: f64) -> ParticleSet {
        let mut p = ParticleSet::with_capacity(1);
        p.push(0.0, 0.0, 0.0, vx, 0.0, 0.0, 1.0, h, 1.0);
        p.c = vec![c];
        p
    }

    #[test]
    fn timestep_shrinks_with_velocity_and_sound_speed() {
        let slow = courant_timestep(&single_particle(0.1, 1.0, 0.1), 1.0);
        let fast = courant_timestep(&single_particle(10.0, 1.0, 0.1), 1.0);
        assert!(fast < slow);
        let stiff = courant_timestep(&single_particle(0.1, 50.0, 0.1), 1.0);
        assert!(stiff < slow);
    }

    #[test]
    fn timestep_respects_cap() {
        let p = single_particle(1e-9, 1e-9, 100.0);
        assert_eq!(courant_timestep(&p, 0.25), 0.25);
    }

    #[test]
    fn acceleration_limits_timestep() {
        let mut p = single_particle(0.0, 0.1, 0.1);
        p.ax = vec![1.0e6];
        let dt = courant_timestep(&p, 1.0);
        assert!(dt < 1e-3);
    }

    #[test]
    fn prefix_variant_ignores_trailing_particles() {
        // Two particles; the second (a "ghost" slot) carries an acceleration
        // that would crush the timestep if it were counted.
        let mut p = single_particle(0.1, 1.0, 0.1);
        p.push(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        p.c = vec![1.0, 1.0];
        p.ax = vec![0.0, 1.0e9];
        let full = courant_timestep(&p, 1.0);
        let owned_only = courant_timestep_prefix(&p, 1, 1.0);
        assert!(full < owned_only, "ghost acceleration must shrink the full reduction");
        assert_eq!(owned_only, courant_timestep(&single_particle(0.1, 1.0, 0.1), 1.0));
        // Empty prefix: only the cap applies.
        assert_eq!(courant_timestep_prefix(&p, 0, 0.25), 0.25);
    }

    #[test]
    fn empty_prefix_returns_the_cap_unclamped() {
        // The 1e-12 floor guards particle-derived minima; the degenerate
        // n = 0 path must hand the cap back untouched, however small.
        let p = single_particle(0.1, 1.0, 0.1);
        assert_eq!(courant_timestep_prefix(&p, 0, 1e-15), 1e-15);
        assert_eq!(courant_timestep(&ParticleSet::default(), 1e-15), 1e-15);
    }

    #[test]
    fn parallel_reduction_matches_serial_scan() {
        // Above the parallel cutoff the chunked min must agree exactly with a
        // serial reference reduction.
        let mut p = ParticleSet::with_capacity(1000);
        for i in 0..1000 {
            let f = i as f64;
            p.push(f, 0.0, 0.0, 0.01 * f, 0.0, 0.0, 1.0, 0.05 + 1e-4 * f, 1.0);
        }
        p.c = (0..1000).map(|i| 0.5 + 1e-3 * i as f64).collect();
        p.ax = (0..1000).map(|i| if i % 7 == 0 { 50.0 } else { 0.0 }).collect();
        let mut expected = 1.0f64;
        for i in 0..1000 {
            let v = (p.vx[i].powi(2) + p.vy[i].powi(2) + p.vz[i].powi(2)).sqrt();
            expected = expected.min(COURANT * p.h[i] / (p.c[i] + v + 1e-12));
            let a = (p.ax[i].powi(2) + p.ay[i].powi(2) + p.az[i].powi(2)).sqrt();
            if a > 1e-12 {
                expected = expected.min(COURANT * (p.h[i] / a).sqrt());
            }
        }
        assert_eq!(courant_timestep(&p, 1.0), expected.max(1e-12));
    }

    #[test]
    fn update_advances_position_velocity_energy() {
        let mut p = single_particle(1.0, 1.0, 0.1);
        p.ax = vec![2.0];
        p.du = vec![0.5];
        update_quantities(&mut p, 0.1, None);
        assert!((p.vx[0] - 1.2).abs() < 1e-12);
        assert!((p.x[0] - 0.12).abs() < 1e-12);
        assert!((p.u[0] - 1.05).abs() < 1e-12);
    }

    #[test]
    fn internal_energy_never_goes_negative() {
        let mut p = single_particle(0.0, 1.0, 0.1);
        p.du = vec![-1.0e9];
        update_quantities(&mut p, 1.0, None);
        assert!(p.u[0] > 0.0);
    }

    // -- TimestepBins -------------------------------------------------------

    /// Two well-separated particle pairs with contrasting sound speeds, so
    /// their Courant criteria land two rungs apart before limiting.
    fn contrast_cloud() -> ParticleSet {
        let mut p = ParticleSet::with_capacity(4);
        for i in 0..2 {
            p.push(0.02 * i as f64, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        }
        for i in 0..2 {
            p.push(10.0 + 0.02 * i as f64, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        }
        p.c = vec![1.0, 1.0, 8.0, 8.0];
        p
    }

    #[test]
    fn plan_keeps_dt_base_a_power_of_two_multiple_under_the_cap() {
        let mut bins = TimestepBins::new(4);
        bins.plan(0.004, 0.05);
        // 0.004 · 2³ = 0.032 ≤ 0.05: no halving needed.
        assert_eq!(bins.dt_base(), 0.032);
        bins.plan(0.02, 0.05);
        // 0.02 · 2³ = 0.16 > 0.05 → halved to 0.04.
        assert_eq!(bins.dt_base(), 0.04);
        assert_eq!(bins.phase, 0);
        // The deepest representable rung still reaches at or below dt_min.
        assert!(bins.rung_dt(3) <= 0.02);
    }

    #[test]
    fn rungs_follow_the_local_criterion_and_limit_to_one_level() {
        let mut p = contrast_cloud();
        let nl = crate::physics::neighbors::find_neighbors(&mut p);
        let dt_min = courant_timestep(&p, 0.05);
        let mut bins = TimestepBins::new(4);
        bins.plan(dt_min, 0.05);
        bins.assign_rungs(&mut p, 4);
        // The stiff pair's criterion is 8× smaller: it must sit deeper.
        assert!(p.rung[2] > p.rung[0]);
        // The stiffest particles take the deepest rung (dt_base/2³ ≤ dt_min).
        assert_eq!(p.rung[2], 3);
        let k_deep = loop {
            if let Some(k) = bins.limiter_round(&mut p, &nl, 4) {
                break k;
            }
        };
        for i in 0..4 {
            for &j in nl.neighbors(i) {
                assert!(
                    (p.rung[i] as i32 - p.rung[j as usize] as i32).abs() <= 1,
                    "limiter violated between {i} and {j}"
                );
            }
        }
        assert_eq!(k_deep, *p.rung.iter().max().unwrap() as u32);
        bins.seal(k_deep);
        assert_eq!(bins.k_deep(), 3);
        assert_eq!(bins.cycle_len(), 8);
        assert_eq!(bins.dt_sub(), bins.dt_base() / 8.0);
    }

    #[test]
    fn all_shallow_rungs_collapse_the_cycle_to_one_substep() {
        // Uniform slow gas: everyone lands on rung 0; k_deep = 0 must give a
        // one-substep cycle at dt_base (not 2^(B-1) crawling substeps).
        let mut p = contrast_cloud();
        p.c = vec![1.0; 4];
        let dt_min = courant_timestep(&p, 0.05);
        let mut bins = TimestepBins::new(4);
        bins.plan(dt_min, 0.05);
        bins.assign_rungs(&mut p, 4);
        bins.seal(deepest(&p));
        assert_eq!(bins.k_deep(), 0);
        assert_eq!(bins.cycle_len(), 1);
        assert_eq!(bins.dt_sub(), bins.dt_base());
        bins.advance();
        assert!(bins.at_cycle_start(), "a length-1 cycle is always at its start");
    }

    #[test]
    fn active_schedule_halves_the_period_per_rung() {
        let mut bins = TimestepBins::new(3);
        bins.plan(0.01, 0.05);
        bins.seal(2);
        let mut kicks = [0u32; 3];
        for _ in 0..bins.cycle_len() {
            for k in 0u8..3 {
                if bins.is_active(k) {
                    kicks[k as usize] += 1;
                }
            }
            bins.advance();
        }
        assert!(bins.at_cycle_start());
        // Rung k is kicked 2^k times per cycle; each kick covers dt_base/2^k.
        assert_eq!(kicks, [1, 2, 4]);
        for k in 0u8..3 {
            let covered = kicks[k as usize] as f64 * bins.rung_dt(k);
            assert!((covered - bins.dt_base()).abs() < 1e-15);
        }
    }

    #[test]
    fn deepen_raises_but_never_lowers_and_clamps_at_k_deep() {
        let mut p = contrast_cloud();
        let mut bins = TimestepBins::new(4);
        bins.plan(courant_timestep(&p, 0.05), 0.05);
        bins.assign_rungs(&mut p, 4);
        bins.seal(deepest(&p));
        // Make particle 0's criterion catastrophically small mid-cycle.
        p.c[0] = 1e6;
        let before_others = p.rung.clone();
        bins.deepen(&mut p, &[0]);
        assert_eq!(bins.k_deep(), 3);
        assert_eq!(p.rung[0] as u32, bins.k_deep(), "deepening clamps at k_deep");
        assert_eq!(&p.rung[1..], &before_others[1..], "only the given rows change");
        // Relaxing the criterion must NOT lower the rung mid-cycle.
        p.c[0] = 1e-6;
        bins.deepen(&mut p, &[0]);
        assert_eq!(p.rung[0] as u32, bins.k_deep());
    }

    #[test]
    fn binned_update_kicks_active_rungs_only_and_drifts_everyone() {
        let mut p = ParticleSet::with_capacity(2);
        p.push(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        p.push(1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        p.ax = vec![4.0, 4.0];
        p.du = vec![0.5, 0.5];
        p.rung = vec![0, 1];
        let mut bins = TimestepBins::new(2);
        bins.plan(0.05, 0.05);
        bins.seal(1);
        // Phase 1 of the 2-substep cycle: only rung 1 is active.
        bins.advance();
        assert!(!bins.is_active(0));
        assert!(bins.is_active(1));
        let dt_sub = bins.dt_sub();
        update_quantities(&mut p, dt_sub, Some(&bins));
        assert_eq!(dt_sub, 0.025);
        // Rung 0 froze its velocity and energy but still drifted.
        assert_eq!(p.vx[0], 1.0);
        assert_eq!(p.u[0], 1.0);
        assert!((p.x[0] - 1.0 * dt_sub).abs() < 1e-15);
        // Rung 1 kicked by its own dt (= dt_sub here) then drifted.
        let v1 = 2.0 + 4.0 * bins.rung_dt(1);
        assert_eq!(p.vx[1], v1);
        assert!((p.x[1] - (1.0 + v1 * dt_sub)).abs() < 1e-15);
        assert!((p.u[1] - (1.0 + 0.5 * bins.rung_dt(1))).abs() < 1e-15);
    }

    #[test]
    fn single_bin_schedule_is_the_global_dt_scheme() {
        let mut p = contrast_cloud();
        let dt_min = courant_timestep(&p, 0.05);
        let mut bins = TimestepBins::new(1);
        bins.plan(dt_min, 0.05);
        bins.assign_rungs(&mut p, 4);
        bins.seal(deepest(&p));
        assert_eq!(bins.dt_base(), dt_min);
        assert_eq!(bins.cycle_len(), 1);
        assert!(p.rung.iter().all(|&k| k == 0));
        assert!(bins.is_active(0));
    }
}
