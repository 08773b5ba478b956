//! Turbulence stirring (`Turbulence` stage).
//!
//! The subsonic-turbulence test case drives the gas with a large-scale,
//! approximately solenoidal forcing field, keeping the RMS Mach number below
//! one. The driver here superposes the 32 Fourier modes with `0 < |k|² ≤ 4`
//! (units of `2π/L`) with deterministic (seeded) random amplitudes and
//! phases, projected to remove the compressive component — a simplified
//! Ornstein–Uhlenbeck stirring module in the spirit of the one used by SPH-EXA:
//!
//! `a(x, t) = strength · Σ_m A_m sin(k_m·x + φ_m + 0.7 t)`.
//!
//! Every wavevector is an integer vector `(kx, ky, kz) ∈ [−2, 2]³` times
//! `2π/L`, so `e^{i k·x}` factors into per-axis powers of `E_a = e^{2πi a/L}`.
//! The evaluator pays one `sin_cos` per axis for `E_a`, one complex square
//! for `E_a²` and conjugates for the negative powers — three `sin_cos` per
//! particle instead of a `sin` per mode. The phase, the `0.7 t` term and
//! `strength` fold into one complex rotation `R_m` per mode per call, so mode
//! `m` adds `A_m · Im(R_m E_x^{kx} E_y^{ky} E_z^{kz})`. The evaluator runs
//! `LANE_WIDTH` particles at a time, modes outer and lanes inner, so the
//! complex products are packed SIMD in both tiers of the row dispatch (the
//! `simd_lanes` test holds it to that); `TurbulenceDriver::acceleration_at`
//! is the same evaluator one lane wide, bit for bit. The tests hold it to the
//! per-mode `sin` form within 1e-13 of the field's rms.
//!
//! [`TurbulenceDriver::apply`] stirs owned rows only: a rank's ghost tail
//! keeps its accelerations untouched, since nobody reads them before the next
//! sync drops the ghosts.

use crate::kernels::LANE_WIDTH;
use crate::parallel::reduce_row_blocks;
use crate::particle::ParticleSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Number of driven modes: the integer wavevectors with `0 < |k|² ≤ 4`.
const N_MODES: usize = 32;

/// A complex number as `(re, im)`.
type Complex = (f64, f64);

/// One driven Fourier mode.
#[derive(Clone, Copy, Debug)]
struct StirMode {
    /// Wavevector in units of `2π/L`, each component in `−2..=2`.
    k: [i8; 3],
    amplitude: [f64; 3],
    /// `e^{iφ}` of the mode's phase `φ`.
    phase: Complex,
}

/// Large-scale solenoidal stirring driver.
#[derive(Clone, Debug)]
pub struct TurbulenceDriver {
    modes: [StirMode; N_MODES],
    box_size: f64,
    strength: f64,
}

impl TurbulenceDriver {
    /// Create a driver for a periodic box of size `box_size`, with forcing
    /// amplitude `strength` and a deterministic `seed`.
    pub fn new(box_size: f64, strength: f64, seed: u64) -> Self {
        assert!(box_size > 0.0 && strength >= 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut modes = Vec::with_capacity(N_MODES);
        // Drive the largest scales: |k| in {1, 2} (units of 2π/L).
        for kx in -2i8..=2 {
            for ky in -2i8..=2 {
                for kz in -2i8..=2 {
                    let k2 = kx * kx + ky * ky + kz * kz;
                    if k2 == 0 || k2 > 4 {
                        continue;
                    }
                    let k = [kx, ky, kz].map(|c| 2.0 * PI * c as f64 / box_size);
                    // Random direction, then project out the component parallel
                    // to k to make the forcing solenoidal (divergence-free).
                    let raw: [f64; 3] = std::array::from_fn(|_| rng.gen_range(-1.0..1.0));
                    let k_norm2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
                    let dot = (raw[0] * k[0] + raw[1] * k[1] + raw[2] * k[2]) / k_norm2;
                    // Weight larger scales more strongly (k⁻²-ish spectrum).
                    let w = 1.0 / k2 as f64;
                    let (sin, cos) = rng.gen_range(0.0..2.0 * PI).sin_cos();
                    modes.push(StirMode {
                        k: [kx, ky, kz],
                        amplitude: std::array::from_fn(|a| (raw[a] - dot * k[a]) * w),
                        phase: (cos, sin),
                    });
                }
            }
        }
        Self {
            modes: modes.try_into().expect("32 integer wavevectors with 0 < |k|² ≤ 4"),
            box_size,
            strength,
        }
    }

    /// Forcing acceleration at a position and time.
    pub(crate) fn acceleration_at(&self, pos: (f64, f64, f64), time: f64) -> (f64, f64, f64) {
        let [[ax], [ay], [az]] = self.forcing(&self.rotations(time), [[pos.0], [pos.1], [pos.2]]);
        (ax, ay, az)
    }

    /// Add the stirring acceleration onto `rows` (`None`: every owned row,
    /// `0..n_owned`) in place. The rows past `n_owned` — a rank's ghost tail —
    /// are never touched.
    pub fn apply(&self, particles: &mut ParticleSet, n_owned: usize, time: f64, rows: Option<&[u32]>) {
        let rot = self.rotations(time);
        let ParticleSet {
            x, y, z, ax, ay, az, ..
        } = particles;
        let pos = [&x[..n_owned], &y[..n_owned], &z[..n_owned]];
        reduce_row_blocks(
            rows,
            [&mut ax[..n_owned], &mut ay[..n_owned], &mut az[..n_owned]],
            0.0,
            |sum, e| sum + e,
            #[inline(always)]
            |base, mut block, block_rows| {
                // Rows in groups of LANE_WIDTH; the last group is padded with
                // its last row, whose repeated lanes are computed but not added.
                let (mut idx, mut live) = ([0; LANE_WIDTH], 0);
                for i in block_rows {
                    idx[live] = i;
                    live += 1;
                    if live == LANE_WIDTH {
                        self.add_lanes(&rot, pos, &idx, LANE_WIDTH, base, &mut block);
                        live = 0;
                    }
                }
                if live > 0 {
                    let last = idx[live - 1];
                    idx[live..].fill(last);
                    self.add_lanes(&rot, pos, &idx, live, base, &mut block);
                }
                0.0
            },
        );
    }

    /// Add the forcing at rows `idx[..live]` onto their slots of a row block
    /// that starts at row `base`.
    #[inline(always)]
    fn add_lanes(
        &self,
        rot: &[Complex; N_MODES],
        pos: [&[f64]; 3],
        idx: &[usize; LANE_WIDTH],
        live: usize,
        base: usize,
        block: &mut [&mut [f64]; 3],
    ) {
        let mut at = [[0.0; LANE_WIDTH]; 3];
        for a in 0..3 {
            for k in 0..LANE_WIDTH {
                at[a][k] = pos[a][idx[k]];
            }
        }
        let forcing = self.forcing(rot, at);
        for a in 0..3 {
            for k in 0..live {
                block[a][idx[k] - base] += forcing[a][k];
            }
        }
    }

    /// `strength · e^{i(φ_m + 0.7 t)}` of every mode: one `sin_cos` per call.
    /// Out of line, once per call: its own packed multiplies must not pass
    /// for the lane loop's in `simd_lanes`.
    #[inline(never)]
    fn rotations(&self, time: f64) -> [Complex; N_MODES] {
        let (sin, cos) = (0.7 * time).sin_cos();
        let (tr, ti) = (self.strength * cos, self.strength * sin);
        self.modes
            .map(|m| (m.phase.0 * tr - m.phase.1 * ti, m.phase.0 * ti + m.phase.1 * tr))
    }

    /// The forcing at `L` points (`pos[axis][lane]`) under the rotations
    /// `rot`: the one evaluator of the driver. Each lane runs the same IEEE
    /// operations in the same order whatever `L` is, so a lane's value does
    /// not depend on the width it ran at.
    #[inline(always)]
    fn forcing<const L: usize>(&self, rot: &[Complex; N_MODES], pos: [[f64; L]; 3]) -> [[f64; L]; 3] {
        // re[axis][p][lane], im[axis][p][lane]: E_axis^(p − 2).
        let wavenumber = 2.0 * PI / self.box_size;
        let (mut re, mut im) = ([[[1.0; L]; 5]; 3], [[[0.0; L]; 5]; 3]);
        for a in 0..3 {
            for k in 0..L {
                let (s, c) = (wavenumber * pos[a][k]).sin_cos();
                let (c2, s2) = (c * c - s * s, 2.0 * c * s);
                (re[a][0][k], re[a][1][k], re[a][3][k], re[a][4][k]) = (c2, c, c, c2);
                (im[a][0][k], im[a][1][k], im[a][3][k], im[a][4][k]) = (-s2, -s, s, s2);
            }
        }
        let mut acc = [[0.0; L]; 3];
        for (mode, &(rr, ri)) in self.modes.iter().zip(rot) {
            let [px, py, pz] = mode.k.map(|c| (c + 2) as usize);
            let (xr, xi) = (&re[0][px], &im[0][px]);
            let (yr, yi) = (&re[1][py], &im[1][py]);
            let (zr, zi) = (&re[2][pz], &im[2][pz]);
            let [amp_x, amp_y, amp_z] = mode.amplitude;
            for k in 0..L {
                // R · E_x^{kx}, then · E_y^{ky}, then the imaginary part of
                // · E_z^{kz}: sin(k·x + φ + 0.7 t), times strength.
                let (pr, pi) = (rr * xr[k] - ri * xi[k], rr * xi[k] + ri * xr[k]);
                let (pr, pi) = (pr * yr[k] - pi * yi[k], pr * yi[k] + pi * yr[k]);
                let s = pr * zi[k] + pi * zr[k];
                acc[0][k] += amp_x * s;
                acc[1][k] += amp_y * s;
                acc[2][k] += amp_z * s;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;

    #[test]
    fn driver_is_deterministic_for_a_seed() {
        let a = TurbulenceDriver::new(1.0, 0.5, 42);
        let b = TurbulenceDriver::new(1.0, 0.5, 42);
        let pa = a.acceleration_at((0.3, 0.4, 0.5), 1.0);
        let pb = b.acceleration_at((0.3, 0.4, 0.5), 1.0);
        assert_eq!(pa, pb);
        let c = TurbulenceDriver::new(1.0, 0.5, 7);
        assert_ne!(pa, c.acceleration_at((0.3, 0.4, 0.5), 1.0));
    }

    #[test]
    fn forcing_scales_with_strength() {
        let weak = TurbulenceDriver::new(1.0, 0.1, 1);
        let strong = TurbulenceDriver::new(1.0, 1.0, 1);
        let pw = weak.acceleration_at((0.2, 0.2, 0.2), 0.0);
        let ps = strong.acceleration_at((0.2, 0.2, 0.2), 0.0);
        assert!((ps.0 / pw.0 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mean_force_over_box_is_small() {
        // A solenoidal low-k field should have a near-zero volume average.
        let d = TurbulenceDriver::new(1.0, 1.0, 3);
        let mut mean = (0.0, 0.0, 0.0);
        let n = 12;
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    let p = (
                        (ix as f64 + 0.5) / n as f64,
                        (iy as f64 + 0.5) / n as f64,
                        (iz as f64 + 0.5) / n as f64,
                    );
                    let a = d.acceleration_at(p, 0.0);
                    mean.0 += a.0;
                    mean.1 += a.1;
                    mean.2 += a.2;
                }
            }
        }
        let count = (n * n * n) as f64;
        let rms_scale = d.acceleration_at((0.25, 0.5, 0.75), 0.0).0.abs().max(0.1);
        assert!((mean.0 / count).abs() < rms_scale);
        assert!(d.modes.len() > 10);
    }

    #[test]
    fn apply_adds_kinetic_stirring() {
        let mut p = lattice_cube(5, 1.0, 1.0, 1.3);
        let d = TurbulenceDriver::new(1.0, 2.0, 11);
        let n = p.len();
        d.apply(&mut p, n, 0.0, None);
        let total_a: f64 = (0..p.len()).map(|i| p.ax[i].abs() + p.ay[i].abs() + p.az[i].abs()).sum();
        assert!(total_a > 0.0);
    }

    /// The per-mode `sin` form the factored evaluator replaced, serial:
    /// `strength · Σ_m A_m sin(k_m·x + φ_m + 0.7 t)`, with `φ_m` read back
    /// from the mode's unit rotation.
    fn reference(d: &TurbulenceDriver, pos: (f64, f64, f64), time: f64) -> [f64; 3] {
        let mut a = [0.0; 3];
        for mode in &d.modes {
            let k = mode.k.map(|c| 2.0 * PI * c as f64 / d.box_size);
            let phase = mode.phase.1.atan2(mode.phase.0);
            let s = (k[0] * pos.0 + k[1] * pos.1 + k[2] * pos.2 + phase + 0.7 * time).sin();
            for (a, amp) in a.iter_mut().zip(mode.amplitude) {
                *a += amp * s;
            }
        }
        a.map(|a| a * d.strength)
    }

    #[test]
    fn factored_modes_match_the_per_mode_sin_reference() {
        // Lattice points, the box's corners (0 and just below L on every
        // axis) and seeded random points, in a unit and a non-unit box, at
        // t = 0 and t ≠ 0.
        for (box_size, strength, seed) in [(1.0, 0.8, 42), (2.5, 1.7, 3)] {
            let d = TurbulenceDriver::new(box_size, strength, seed);
            let below = f64::next_down(box_size);
            let lattice = lattice_cube(9, box_size, 1.0, 1.3);
            let mut points: Vec<(f64, f64, f64)> =
                (0..lattice.len()).map(|i| (lattice.x[i], lattice.y[i], lattice.z[i])).collect();
            for corner in 0..8 {
                let pick = |bit: usize| if corner >> bit & 1 == 1 { below } else { 0.0 };
                points.push((pick(0), pick(1), pick(2)));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            points.extend((0..2000).map(|_| {
                (
                    rng.gen_range(0.0..box_size),
                    rng.gen_range(0.0..box_size),
                    rng.gen_range(0.0..box_size),
                )
            }));
            for time in [0.0, 0.37, 11.5] {
                let want: Vec<[f64; 3]> = points.iter().map(|&p| reference(&d, p, time)).collect();
                let rms = (want.iter().map(|a| a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sum::<f64>()
                    / want.len() as f64)
                    .sqrt();
                assert!(
                    rms > 0.05 * strength,
                    "box {box_size}, t = {time}: a field to compare ({rms})"
                );
                let worst = points
                    .iter()
                    .zip(&want)
                    .map(|(&p, w)| {
                        let got = d.acceleration_at(p, time);
                        [got.0 - w[0], got.1 - w[1], got.2 - w[2]]
                            .map(f64::abs)
                            .into_iter()
                            .fold(0.0, f64::max)
                    })
                    .fold(0.0, f64::max);
                assert!(
                    worst <= 1e-13 * rms,
                    "box {box_size}, t = {time}: off the per-mode sin form by {worst:e} ({:e} of its rms)",
                    worst / rms
                );
            }
        }
    }

    #[test]
    fn apply_stirs_owned_rows_with_the_one_evaluator_and_leaves_the_ghost_tail() {
        // 343 particles, the last 100 standing in for a rank's ghost tail,
        // with non-zero accelerations the stirring must add onto.
        let mut before = lattice_cube(7, 1.0, 1.0, 1.3);
        let (n, n_owned) = (before.len(), before.len() - 100);
        for i in 0..n {
            (before.ax[i], before.ay[i], before.az[i]) = (0.1 * i as f64, -0.2, 0.3);
        }
        let d = TurbulenceDriver::new(1.0, 0.8, 42);
        let time = 0.37;
        let sparse: Vec<u32> = (0..n_owned as u32).filter(|i| i % 3 == 1).collect();
        for rows in [None, Some(&sparse[..])] {
            let mut stirred = before.clone();
            d.apply(&mut stirred, n_owned, time, rows);
            for i in 0..n {
                let lanes = |q: &ParticleSet| [q.ax[i], q.ay[i], q.az[i]].map(f64::to_bits);
                let runs = i < n_owned && rows.is_none_or(|r| r.contains(&(i as u32)));
                let want = if runs {
                    let a = d.acceleration_at((before.x[i], before.y[i], before.z[i]), time);
                    [before.ax[i] + a.0, before.ay[i] + a.1, before.az[i] + a.2].map(f64::to_bits)
                } else {
                    lanes(&before)
                };
                assert_eq!(
                    lanes(&stirred),
                    want,
                    "row {i} (owned {n_owned}, rows {:?})",
                    rows.map(<[u32]>::len)
                );
            }
        }
    }
}
