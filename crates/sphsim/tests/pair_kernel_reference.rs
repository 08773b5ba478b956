//! The four pair kernels against straight serial loops of their formulas in
//! `(r, h)` form — `w_cubic`, `dwdh_cubic`, `grad_w_cubic` and the momentum
//! pair formula with `dw_cubic` at each particle's own `h` — which is what the
//! kernels computed, bit for bit, before they evaluated their shapes in
//! `q = r/h` and kept one accumulator per lane. The kernels may differ from
//! these loops by rounding and by how a row's sum is grouped, nothing else:
//! ρ and Ω within 1e-14 relative per row, every other lane within 1e-12 of
//! that lane's rms.
//!
//! And a CSR index past the set must still panic, in a full chunk and in the
//! tail of a row: the kernels check each chunk's largest index once instead
//! of every read.

use sphsim::kernels::{dw_cubic, dwdh_cubic, grad_w_cubic, w_cubic};
use sphsim::physics::density::compute_density;
use sphsim::physics::gradh::compute_gradh;
use sphsim::physics::iad::compute_div_curl;
use sphsim::physics::momentum::{compute_momentum_energy, MomentumScratch};
use sphsim::physics::neighbors::{NeighborLists, Segment};
use sphsim::{scenario, MinImage, ParticleSet, Simulation, StepWorkspace};

/// The minimum-image separation `r_i − r_j`.
fn separation(p: &ParticleSet, mi: MinImage, i: usize, j: usize) -> (f64, f64, f64) {
    mi.map(p.x[i] - p.x[j], p.y[i] - p.y[j], p.z[i] - p.z[j])
}

fn reference_density(p: &ParticleSet, nl: &NeighborLists, mi: MinImage, i: usize) -> f64 {
    let mut rho = 0.0;
    for &j in nl.neighbors(i) {
        let (dx, dy, dz) = separation(p, mi, i, j as usize);
        rho += p.m[j as usize] * w_cubic((dx * dx + dy * dy + dz * dz).sqrt(), p.h[i]);
    }
    rho
}

fn reference_omega(p: &ParticleSet, nl: &NeighborLists, mi: MinImage, i: usize) -> f64 {
    let mut sum = 0.0;
    for &j in nl.neighbors(i) {
        let (dx, dy, dz) = separation(p, mi, i, j as usize);
        sum += p.m[j as usize] * dwdh_cubic((dx * dx + dy * dy + dz * dz).sqrt(), p.h[i]);
    }
    (1.0 + p.h[i] / (3.0 * p.rho[i].max(1e-30)) * sum).clamp(0.2, 5.0)
}

fn reference_div_curl(p: &ParticleSet, nl: &NeighborLists, mi: MinImage, i: usize) -> (f64, f64) {
    let (mut div, mut curl) = (0.0, (0.0, 0.0, 0.0));
    for &j in nl.neighbors(i) {
        let j = j as usize;
        let (dx, dy, dz) = separation(p, mi, i, j);
        let (dvx, dvy, dvz) = (p.vx[i] - p.vx[j], p.vy[i] - p.vy[j], p.vz[i] - p.vz[j]);
        let (gx, gy, gz) = grad_w_cubic(dx, dy, dz, p.h[i]);
        div -= p.m[j] * (dvx * gx + dvy * gy + dvz * gz);
        curl.0 -= p.m[j] * (dvy * gz - dvz * gy);
        curl.1 -= p.m[j] * (dvz * gx - dvx * gz);
        curl.2 -= p.m[j] * (dvx * gy - dvy * gx);
    }
    let rho = p.rho[i].max(1e-30);
    (
        div / rho,
        (curl.0 * curl.0 + curl.1 * curl.1 + curl.2 * curl.2).sqrt() / rho,
    )
}

fn reference_momentum(p: &ParticleSet, nl: &NeighborLists, mi: MinImage, i: usize) -> [f64; 4] {
    let pref = |k: usize| {
        let rho = p.rho[k].max(1e-30);
        p.p[k] / (p.omega[k] * rho * rho)
    };
    let mut out = [0.0; 4];
    for &j in nl.neighbors(i) {
        let j = j as usize;
        let (dx, dy, dz) = separation(p, mi, i, j);
        let (dvx, dvy, dvz) = (p.vx[i] - p.vx[j], p.vy[i] - p.vy[j], p.vz[i] - p.vz[j]);
        let h_ij = 0.5 * (p.h[i] + p.h[j]);
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 <= (1e-12 * h_ij) * (1e-12 * h_ij) {
            continue; // coincident pair: no direction, no contribution
        }
        let r = r2.sqrt();
        let (dw_i, dw_j) = (dw_cubic(r, p.h[i]), dw_cubic(r, p.h[j]));
        let dw_b = 0.5 * (dw_i + dw_j);
        let v_dot_r = dvx * dx + dvy * dy + dvz * dz;
        let visc = if v_dot_r < 0.0 {
            let mu = h_ij * v_dot_r / (r2 + 0.01 * h_ij * h_ij);
            let c_ij = 0.5 * (p.c[i] + p.c[j]);
            let rho_ij = 0.5 * (p.rho[i].max(1e-30) + p.rho[j].max(1e-30));
            let alpha_ij = 0.5 * (p.alpha[i] + p.alpha[j]);
            (-alpha_ij * c_ij * mu + 2.0 * alpha_ij * mu * mu) / rho_ij
        } else {
            0.0
        };
        let force = (pref(i) * dw_i + pref(j) * dw_j + visc * dw_b) / r;
        out[0] -= p.m[j] * force * dx;
        out[1] -= p.m[j] * force * dy;
        out[2] -= p.m[j] * force * dz;
        out[3] += p.m[j] * (pref(i) * dw_i + 0.5 * visc * dw_b) / r * v_dot_r;
    }
    out
}

/// A state of `name` 3 steps in (N ≈ 1500, seed 7: every lane populated,
/// the flow moving), with particle 1 moved onto particle 0 so one pair is
/// coincident, and its CSR lists.
fn evolved_state(name: &str) -> (ParticleSet, NeighborLists) {
    let mut sim = Simulation::from_scenario(scenario::get(name).unwrap(), 1500, 7);
    sim.run(3);
    let mut p = sim.particles().clone();
    (p.x[1], p.y[1], p.z[1]) = (p.x[0], p.y[0], p.z[0]);
    let mut ws = StepWorkspace::new();
    let n = p.len();
    ws.find_neighbors(&mut p, n, None);
    (p, ws.neighbors().clone())
}

/// `lists` with row `i` cut to `i % 21` entries: rows of every length from 0
/// to 20 — shorter than a chunk, exactly one or two chunks, and with tails of
/// every length. A non-empty row keeps its own particle, as every built row
/// does: its `W(0)` term is what bounds ρ's relative error (a row of only
/// neighbours near `q = 2` would read the rounding of `2 − q`, relative to a
/// sum as small as its terms).
fn short_rows(lists: &NeighborLists) -> NeighborLists {
    let mut entries = Vec::new();
    let mut offsets = vec![0];
    for i in 0..lists.len() {
        let others = lists.neighbors(i).iter().filter(|&&j| j as usize != i);
        let row = std::iter::once(i as u32).chain(others.copied()).take(i % 21);
        entries.extend(row);
        offsets.push(entries.len() as u32);
    }
    one_segment(offsets, entries)
}

/// The lists of `offsets` whose rows back to back are `entries`.
fn one_segment(offsets: Vec<u32>, entries: Vec<u32>) -> NeighborLists {
    NeighborLists {
        offsets,
        segments: vec![Segment {
            entries,
            ..Segment::default()
        }],
    }
}

fn rms(values: &[f64]) -> f64 {
    (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt()
}

/// Largest `|kernel − reference|` over the rows, in units of `scale(reference)`
/// (a per-row scale for a relative gate, the lane's rms otherwise).
fn worst(kernel: &[f64], reference: &[f64], scale: impl Fn(f64) -> f64) -> f64 {
    kernel
        .iter()
        .zip(reference)
        .map(|(k, r)| if k == r { 0.0 } else { (k - r).abs() / scale(*r) })
        .fold(0.0, f64::max)
}

#[test]
fn pair_kernels_match_serial_loops_of_the_r_h_formulas() {
    for name in ["Sedov", "Turb", "Evr"] {
        let (state, full) = evolved_state(name);
        let short = short_rows(&full);
        let lengths: Vec<usize> = (0..full.len())
            .map(|i| full.count(i))
            .chain((0..short.len()).map(|i| short.count(i)))
            .collect();
        assert!(
            lengths.iter().any(|&l| (1..8).contains(&l)),
            "{name}: no row shorter than a chunk"
        );
        assert!(
            lengths.iter().any(|&l| l >= 8 && l % 8 == 0),
            "{name}: no row of whole chunks"
        );
        assert!(
            lengths.iter().any(|&l| l > 8 && l % 8 != 0),
            "{name}: no row with a tail"
        );
        assert!(
            full.neighbors(0).contains(&1),
            "{name}: the coincident pair is not in the lists"
        );
        let mi = MinImage::of(&state.boundary);
        for (lists, which) in [(&full, "full rows"), (&short, "short rows")] {
            let rows = 0..state.len();
            let what = format!("{name}, {which}");

            let mut p = state.clone();
            compute_density(&mut p, lists, None);
            let reference: Vec<f64> = rows.clone().map(|i| reference_density(&state, lists, mi, i)).collect();
            let rho = worst(&p.rho, &reference, f64::abs);
            assert!(rho <= 1e-14, "{what}: ρ off by {rho:e} relative");

            let mut p = state.clone();
            compute_gradh(&mut p, lists, None);
            let reference: Vec<f64> = rows.clone().map(|i| reference_omega(&state, lists, mi, i)).collect();
            let omega = worst(&p.omega, &reference, f64::abs);
            assert!(omega <= 1e-14, "{what}: Ω off by {omega:e} relative");

            let mut p = state.clone();
            compute_div_curl(&mut p, lists, None);
            let reference: Vec<(f64, f64)> = rows.clone().map(|i| reference_div_curl(&state, lists, mi, i)).collect();
            let (div, curl): (Vec<f64>, Vec<f64>) = reference.into_iter().unzip();
            let mut lanes = vec![("div_v", &p.div_v, div), ("curl_v", &p.curl_v, curl)];

            let mut q = state.clone();
            compute_momentum_energy(&mut q, lists, &mut MomentumScratch::default(), None);
            let reference: Vec<[f64; 4]> = rows.clone().map(|i| reference_momentum(&state, lists, mi, i)).collect();
            for (lane, (label, values)) in [("ax", &q.ax), ("ay", &q.ay), ("az", &q.az), ("du", &q.du)]
                .into_iter()
                .enumerate()
            {
                lanes.push((label, values, reference.iter().map(|r| r[lane]).collect()));
            }
            let mut report = format!("{what}: ρ {rho:.1e}, Ω {omega:.1e} relative");
            for (label, kernel, reference) in lanes {
                let scale = rms(&reference);
                assert!(
                    scale > 0.0,
                    "{what}: {label} is zero everywhere — the comparison would be vacuous"
                );
                let off = worst(kernel, &reference, |_| scale);
                assert!(off <= 1e-12, "{what}: {label} off by {off:e} of its rms");
                report += &format!(", {label} {off:.1e}");
            }
            eprintln!("{report} of the rms");
        }
    }
}

/// Run `kernel` on a 27-particle lattice whose row 0 holds the index
/// `n = 27`: as the last of eight entries (a full chunk) or of nine (the
/// tail).
fn run_on_corrupt_lists(in_tail: bool, kernel: fn(&mut ParticleSet, &NeighborLists)) {
    let mut p = sphsim::init::lattice_cube(3, 1.0, 1.0, 1.3);
    let mut indices: Vec<u32> = (0..if in_tail { 8 } else { 7 }).collect();
    indices.push(p.len() as u32);
    let mut offsets = vec![0];
    offsets.resize(p.len() + 1, indices.len() as u32);
    kernel(&mut p, &one_segment(offsets, indices));
}

#[test]
#[should_panic(expected = "neighbour index 27 out of range for 27 particles")]
fn density_panics_on_an_index_past_the_set_in_a_full_chunk() {
    run_on_corrupt_lists(false, |p, nl| compute_density(p, nl, None));
}

#[test]
#[should_panic(expected = "neighbour index 27 out of range for 27 particles")]
fn density_panics_on_an_index_past_the_set_in_the_tail() {
    run_on_corrupt_lists(true, |p, nl| compute_density(p, nl, None));
}

#[test]
#[should_panic(expected = "neighbour index 27 out of range for 27 particles")]
fn gradh_panics_on_an_index_past_the_set_in_a_full_chunk() {
    run_on_corrupt_lists(false, |p, nl| compute_gradh(p, nl, None));
}

#[test]
#[should_panic(expected = "neighbour index 27 out of range for 27 particles")]
fn gradh_panics_on_an_index_past_the_set_in_the_tail() {
    run_on_corrupt_lists(true, |p, nl| compute_gradh(p, nl, None));
}

#[test]
#[should_panic(expected = "neighbour index 27 out of range for 27 particles")]
fn div_curl_panics_on_an_index_past_the_set_in_a_full_chunk() {
    run_on_corrupt_lists(false, |p, nl| compute_div_curl(p, nl, None));
}

#[test]
#[should_panic(expected = "neighbour index 27 out of range for 27 particles")]
fn div_curl_panics_on_an_index_past_the_set_in_the_tail() {
    run_on_corrupt_lists(true, |p, nl| compute_div_curl(p, nl, None));
}

#[test]
#[should_panic(expected = "neighbour index 27 out of range for 27 particles")]
fn momentum_panics_on_an_index_past_the_set_in_a_full_chunk() {
    run_on_corrupt_lists(false, |p, nl| {
        compute_momentum_energy(p, nl, &mut MomentumScratch::default(), None)
    });
}

#[test]
#[should_panic(expected = "neighbour index 27 out of range for 27 particles")]
fn momentum_panics_on_an_index_past_the_set_in_the_tail() {
    run_on_corrupt_lists(true, |p, nl| {
        compute_momentum_energy(p, nl, &mut MomentumScratch::default(), None)
    });
}
