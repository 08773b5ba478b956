//! Self-gravity (`Gravity` stage).
//!
//! Barnes–Hut tree gravity over the octree's node moments (monopole and
//! quadrupole), with `G = 1` in code units (the convention of the Evrard
//! collapse test).

use crate::octree::Octree;
use crate::parallel::{reduce_row_blocks, BlockRows};
use crate::particle::ParticleSet;

/// Default Barnes–Hut opening angle: the largest of 0.5 / 0.55 / 0.6 / 0.65
/// at which the walk's mean acceleration error on collapsing Evrard spheres
/// stays at or under that of the monopole walk it replaced and the maximum
/// under 1e-2 (held by this module's tests).
pub const DEFAULT_THETA: f64 = 0.5;

/// The one gravity kernel. `tree` is built over the sources `(x, y, z, m)`;
/// target row `i` of `ax/ay/az` is source `offset + i` (0 when a set walks its
/// own arrays; the start of the owned block when a distributed rank walks the
/// allgathered global arrays). Every row of `rows` — `None`: all target rows;
/// `Some`: the listed ones, ascending (the active set of an individual-timestep
/// substep) — gets its acceleration added **in place**. Returns
/// `½ Σ_rows m_i φ_i`, the rows' share of the potential energy — all of it
/// when they cover every particle (see [`Octree::gravity_at`]).
///
/// A block of [`reduce_row_blocks`] sums `m_i φ_i` in row order and the block
/// sums fold in block order — so the energy does not depend on the thread
/// count.
pub(crate) fn add_gravity_rows(
    tree: &Octree,
    (x, y, z, m): (&[f64], &[f64], &[f64], &[f64]),
    offset: usize,
    rows: Option<&[u32]>,
    (ax, ay, az): (&mut [f64], &mut [f64], &mut [f64]),
    theta: f64,
    softening: f64,
) -> f64 {
    let sum_phi = |base: usize, [ax, ay, az]: [&mut [f64]; 3], block_rows: BlockRows<'_>| {
        let mut e = 0.0;
        for i in block_rows {
            let s = offset + i;
            let (gx, gy, gz, phi) = tree.gravity_at((x[s], y[s], z[s]), theta, softening, x, y, z, m, s);
            ax[i - base] += gx;
            ay[i - base] += gy;
            az[i - base] += gz;
            e += m[s] * phi;
        }
        e
    };
    0.5 * reduce_row_blocks(rows, [ax, ay, az], 0.0, |sum, e| sum + e, sum_phi)
}

/// `add_gravity_rows` of a particle set onto itself (`tree` built over
/// `particles`): accelerates `rows` in place, returns their `½ Σ m_i φ_i`.
// sphlint::allow(dead-pub, the gravity accuracy harness walks the tree through it)
pub fn add_gravity(
    particles: &mut ParticleSet,
    tree: &Octree,
    theta: f64,
    softening: f64,
    rows: Option<&[u32]>,
) -> f64 {
    let p = particles;
    let targets = (&mut p.ax[..], &mut p.ay[..], &mut p.az[..]);
    add_gravity_rows(tree, (&p.x, &p.y, &p.z, &p.m), 0, rows, targets, theta, softening)
}

/// Total gravitational potential energy `E_pot = -Σ_{i<j} m_i m_j / |r_ij|` of
/// the sources `(x, y, z, m)` by direct summation: the **exact O(N²)
/// reference — for checks, never per step** (the on-demand `total_energy()`
/// methods, on gathered global arrays, and tests). The step driver reports
/// the Gravity walk's estimate ([`add_gravity_rows`]).
pub(crate) fn potential_energy_slices(x: &[f64], y: &[f64], z: &[f64], m: &[f64], softening: f64) -> f64 {
    let n = x.len();
    let mut e = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            let dz = z[i] - z[j];
            let r = (dx * dx + dy * dy + dz * dz + softening * softening).sqrt();
            e -= m[i] * m[j] / r;
        }
    }
    e
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::distributed::{DEFAULT_SOFTENING, MAX_LEAF_SIZE};
    use crate::init::lattice_cube;

    /// [`potential_energy_slices`] of a whole particle set.
    pub(crate) fn potential_energy_direct(particles: &ParticleSet, softening: f64) -> f64 {
        potential_energy_slices(&particles.x, &particles.y, &particles.z, &particles.m, softening)
    }

    fn build_tree(p: &ParticleSet, max_leaf_size: usize) -> Octree {
        Octree::build(&p.x, &p.y, &p.z, &p.m, max_leaf_size)
    }

    #[test]
    fn gravity_pulls_towards_the_centre_of_mass() {
        let mut p = lattice_cube(6, 1.0, 1.0, 1.3);
        let tree = build_tree(&p, 16);
        add_gravity(&mut p, &tree, DEFAULT_THETA, 0.01, None);
        // The particle closest to the corner must be pulled towards the centre
        // (positive components of acceleration).
        let i = (0..p.len())
            .min_by(|&a, &b| (p.x[a] + p.y[a] + p.z[a]).total_cmp(&(p.x[b] + p.y[b] + p.z[b])))
            .unwrap();
        assert!(p.ax[i] > 0.0 && p.ay[i] > 0.0 && p.az[i] > 0.0);
    }

    #[test]
    fn two_body_acceleration_matches_newton() {
        let mut p = ParticleSet::with_capacity(2);
        p.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.1, 0.0);
        p.push(2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.1, 0.0);
        let tree = build_tree(&p, 4);
        add_gravity(&mut p, &tree, 0.0, 0.0, None);
        // a_0 = G m_1 / r² = 5/4, pointing towards +x; a_1 = 3/4 towards -x.
        assert!((p.ax[0] - 1.25).abs() < 1e-9);
        assert!((p.ax[1] + 0.75).abs() < 1e-9);
        assert!(p.ay[0].abs() < 1e-12 && p.az[0].abs() < 1e-12);
    }

    /// Fused `egrav` of a full walk vs the direct pair sum on the same
    /// positions, relative to `|W|`.
    fn egrav_error(p: &mut ParticleSet, theta: f64, softening: f64) -> f64 {
        let tree = build_tree(p, 32);
        let egrav = add_gravity(p, &tree, theta, softening, None);
        let direct = potential_energy_direct(p, softening);
        assert!(direct < 0.0);
        (egrav - direct).abs() / direct.abs()
    }

    fn random_cloud(n: usize, seed: u64) -> ParticleSet {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = ParticleSet::with_capacity(n);
        for _ in 0..n {
            let (x, y, z) = (
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            );
            p.push(x, y, z, 0.0, 0.0, 0.0, rng.gen_range(0.5..1.5), 0.1, 0.0);
        }
        p
    }

    #[test]
    fn fused_potential_matches_the_direct_sum() {
        let evrard = || crate::scenario::get("Evr").unwrap().initial_conditions(2000, 7);
        for (name, mut p) in [("Evr", evrard()), ("cloud", random_cloud(1500, 3))] {
            // Full opening: every interaction is a leaf pair, so only the
            // summation order differs from the direct sum.
            let exact = egrav_error(&mut p, 0.0, 0.02);
            assert!(exact <= 1e-12, "{name}: theta = 0 relative error {exact:e}");
            // The production opening angle: monopole truncation error.
            let approx = egrav_error(&mut p, DEFAULT_THETA, 0.02);
            assert!(approx <= 2e-3, "{name}: theta = 0.5 relative error {approx:e}");
        }
    }

    /// What an opening angle costs on one particle state: mean and maximum over
    /// all rows of `|a(θ) − a(0)| / |a(0)|`, and the `egrav` error of
    /// [`egrav_error`].
    struct WalkError {
        acc_mean: f64,
        acc_max: f64,
        egrav: f64,
    }

    /// Per-row acceleration and `egrav` of a full walk from rest.
    fn full_walk(p: &ParticleSet, tree: &Octree, theta: f64) -> (Vec<[f64; 3]>, f64) {
        let (mut ax, mut ay, mut az) = (vec![0.0; p.len()], vec![0.0; p.len()], vec![0.0; p.len()]);
        let sources = (&p.x[..], &p.y[..], &p.z[..], &p.m[..]);
        let targets = (&mut ax[..], &mut ay[..], &mut az[..]);
        let egrav = add_gravity_rows(tree, sources, 0, None, targets, theta, DEFAULT_SOFTENING);
        ((0..p.len()).map(|i| [ax[i], ay[i], az[i]]).collect(), egrav)
    }

    /// One particle state with what its walks are measured against: the
    /// θ = 0 walk of the same tree (the direct sum) and the direct pair
    /// potential.
    struct WalkReference {
        p: ParticleSet,
        tree: Octree,
        exact: Vec<[f64; 3]>,
        direct: f64,
    }

    impl WalkReference {
        /// An Evrard sphere (seed 7) `steps` steps into its collapse.
        fn evrard(n: usize, steps: u64) -> Self {
            let mut sim = crate::propagator::Simulation::from_scenario(
                crate::scenario::get("Evr").expect("built-in scenario"),
                n,
                7,
            );
            sim.run(steps);
            let p = sim.particles().clone();
            let tree = build_tree(&p, MAX_LEAF_SIZE);
            let (exact, _) = full_walk(&p, &tree, 0.0);
            let direct = potential_energy_direct(&p, DEFAULT_SOFTENING);
            Self { p, tree, exact, direct }
        }

        fn error(&self, theta: f64) -> WalkError {
            let (approx, egrav) = full_walk(&self.p, &self.tree, theta);
            let norm = |a: [f64; 3]| (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
            let (mut sum, mut max) = (0.0, 0.0f64);
            for (approx, &exact) in approx.iter().zip(&self.exact) {
                let rel = norm([0, 1, 2].map(|k| approx[k] - exact[k])) / norm(exact);
                sum += rel;
                max = max.max(rel);
            }
            WalkError {
                acc_mean: sum / self.p.len() as f64,
                acc_max: max,
                egrav: (egrav - self.direct).abs() / self.direct.abs(),
            }
        }
    }

    // The ceilings are what the walk of PR 21 (θ = 0.5, every leaf opened,
    // monopoles) reads on each state, identically in debug and release: mean
    // and `egrav` are its own numbers rounded up in the third digit; the
    // maximum is the 1e-2 every candidate opening angle is held to (its own:
    // 3.38e-3, 3.87e-3 and 5.45e-3).
    const EVR_ICS_2000: WalkError = WalkError {
        acc_mean: 8.88e-4,
        acc_max: 1e-2,
        egrav: 5.74e-5,
    };
    const EVR_5_STEPS_IN_4000: WalkError = WalkError {
        acc_mean: 8.64e-4,
        acc_max: 1e-2,
        egrav: 1.05e-4,
    };
    const EVR_5_STEPS_IN_20000: WalkError = WalkError {
        acc_mean: 1.68e-3,
        acc_max: 1e-2,
        egrav: 4.16e-4,
    };

    /// Holds the walk at [`DEFAULT_THETA`] under every ceiling of every state,
    /// and `DEFAULT_THETA` to the rule it is set by: the largest candidate
    /// whose walk stays under the two acceleration ceilings on every state.
    fn assert_default_theta_is_the_largest_candidate_within(states: &[(&str, WalkReference, WalkError)]) {
        for (what, state, ceiling) in states {
            let e = state.error(DEFAULT_THETA);
            let (mean, max, egrav) = (e.acc_mean, e.acc_max, e.egrav);
            assert!(
                mean <= ceiling.acc_mean && max <= ceiling.acc_max && egrav <= ceiling.egrav,
                "{what}: acceleration error mean {mean:e} max {max:e}, egrav error {egrav:e}"
            );
        }
        let within = |theta: &f64| {
            states.iter().all(|(_, state, ceiling)| {
                let e = state.error(*theta);
                e.acc_mean <= ceiling.acc_mean && e.acc_max <= ceiling.acc_max
            })
        };
        assert_eq!([0.5, 0.55, 0.6, 0.65].into_iter().rfind(within), Some(DEFAULT_THETA));
    }

    #[test]
    fn default_theta_is_the_largest_candidate_under_the_pinned_error_ceilings() {
        assert_default_theta_is_the_largest_candidate_within(&[
            ("Evr ICs, N = 2000", WalkReference::evrard(2000, 0), EVR_ICS_2000),
            (
                "Evr 5 steps in, N = 4000",
                WalkReference::evrard(4000, 5),
                EVR_5_STEPS_IN_4000,
            ),
        ]);
    }

    #[test]
    #[ignore = "N = 20 000 is the benchmark's size: release only (CI's gravity step passes --include-ignored)"]
    fn default_theta_is_the_largest_candidate_at_the_benchmark_size() {
        assert_default_theta_is_the_largest_candidate_within(&[
            ("Evr ICs, N = 2000", WalkReference::evrard(2000, 0), EVR_ICS_2000),
            (
                "Evr 5 steps in, N = 20 000",
                WalkReference::evrard(20_000, 5),
                EVR_5_STEPS_IN_20000,
            ),
        ]);
    }

    #[test]
    fn row_subsets_write_in_place_and_agree_with_the_full_walk() {
        // Large enough to cut several blocks and take the threaded path
        // wherever the host has more than one worker.
        let mut full = random_cloud(3000, 5);
        let tree = build_tree(&full, 32);
        let n = full.len();
        let mut listed = full.clone();
        let mut sparse = full.clone();
        let e_full = add_gravity(&mut full, &tree, DEFAULT_THETA, 0.02, None);

        // Every row, listed: the same accelerations and the same energy, bit
        // for bit — the block partition depends on the row count only.
        let every: Vec<u32> = (0..n as u32).collect();
        let e_listed = add_gravity(&mut listed, &tree, DEFAULT_THETA, 0.02, Some(&every));
        assert_eq!(e_listed.to_bits(), e_full.to_bits());
        assert_eq!(listed.ax, full.ax);
        assert_eq!(listed.ay, full.ay);
        assert_eq!(listed.az, full.az);

        // Every third row: listed rows get the full walk's acceleration, the
        // others are untouched, and the energy is the rows' own share.
        let third: Vec<u32> = (0..n as u32).filter(|i| i % 3 == 1).collect();
        let e_third = add_gravity(&mut sparse, &tree, DEFAULT_THETA, 0.02, Some(&third));
        for i in 0..n {
            let expected = if i % 3 == 1 {
                (full.ax[i], full.ay[i], full.az[i])
            } else {
                (0.0, 0.0, 0.0)
            };
            assert_eq!((sparse.ax[i], sparse.ay[i], sparse.az[i]), expected, "row {i}");
        }
        assert!(e_third < 0.0 && e_third > e_full);
        assert_eq!(add_gravity(&mut sparse, &tree, DEFAULT_THETA, 0.02, Some(&[])), 0.0);
    }

    #[test]
    fn potential_energy_of_pair() {
        let mut p = ParticleSet::with_capacity(2);
        p.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.1, 0.0);
        p.push(4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.1, 0.0);
        let e = potential_energy_direct(&p, 0.0);
        assert!((e + 6.0 / 4.0).abs() < 1e-12);
    }
}
