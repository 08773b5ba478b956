//! Cell-list CSR rows ≡ a brute-force O(n²) union test (`common`): the
//! neighbour search must produce exactly the rows its definition says —
//! as sets, since a row lists its neighbours in stencil-scan order — and the
//! matching neighbour-count diagnostic, from a full build and from a build of
//! a sorted subset alike: on random clouds (mildly and strongly polydisperse),
//! periodic lattices, a wrap-seam tracer, degenerate extents and every
//! registered scenario's initial conditions, for both Open and Periodic
//! boundaries. This is the correctness contract of the one builder
//! `FindNeighbors` has.

mod common;

use common::{assert_matches_the_oracle, assert_periodic_csr_digests_are_pinned};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sphsim::init::lattice_cube;
use sphsim::physics::neighbors::find_neighbors;
use sphsim::scenario::ScenarioRegistry;
use sphsim::{Boundary, ParticleSet};

/// `n` uniformly random particles in the unit box with `h = h_of(u)`,
/// `u` uniform in `[0, 1)`.
fn random_cloud(n: usize, seed: u64, boundary: Boundary, h_of: impl Fn(f64) -> f64) -> ParticleSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = ParticleSet::with_capacity(n);
    for _ in 0..n {
        let (x, y, z) = (rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>());
        p.push(x, y, z, 0.0, 0.0, 0.0, 1.0, h_of(rng.gen::<f64>()), 1.0);
    }
    p.boundary = boundary;
    p
}

#[test]
fn random_clouds_match_open_and_periodic() {
    // h in a 1.8× band — nonuniform enough to exercise the one-sided union.
    let h_of = |u: f64| 0.05 * (1.0 + 0.8 * u);
    for seed in [1u64, 7, 42] {
        let open = random_cloud(600, seed, Boundary::Open, h_of);
        assert_matches_the_oracle(&open, &format!("open cloud seed {seed}"));
        let periodic = random_cloud(600, seed + 100, Boundary::unit_box(), h_of);
        assert_matches_the_oracle(&periodic, &format!("periodic cloud seed {seed}"));
    }
}

#[test]
fn strongly_polydisperse_clouds_match_open_and_periodic() {
    // h log-uniform over a decade: cells sized by the few large supports hold
    // many small-h particles, most union hits are one-sided, and the per-cell
    // reach prune does real work. (The interaction diameter 4 · 0.2 stays
    // inside the periodic box.)
    let h_of = |u: f64| 0.02 * 10f64.powf(u);
    for (seed, boundary) in [(3u64, Boundary::Open), (4, Boundary::unit_box())] {
        let p = random_cloud(600, seed, boundary, h_of);
        let (h_min, h_max) = p.h.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &h| (lo.min(h), hi.max(h)));
        assert!(h_max / h_min >= 8.0, "h spans only {:.1}×", h_max / h_min);
        assert_matches_the_oracle(&p, &format!("polydisperse cloud seed {seed}"));
    }
}

#[test]
fn periodic_lattice_matches() {
    let mut p = lattice_cube(8, 1.0, 1.0, 1.2);
    p.boundary = Boundary::unit_box();
    assert_matches_the_oracle(&p, "periodic lattice");
}

#[test]
fn open_lattice_with_nonuniform_h_matches() {
    let mut p = lattice_cube(7, 1.0, 1.0, 1.2);
    for (i, h) in p.h.iter_mut().enumerate() {
        *h *= 1.0 + 0.7 * ((i % 5) as f64) / 5.0;
    }
    assert_matches_the_oracle(&p, "open lattice, nonuniform h");
}

#[test]
fn wrap_seam_tracers_match() {
    // Particles hugging opposite faces of the box: every neighbourhood
    // crosses the wrap seam, so any stencil-wrapping mistake shows up as a
    // missing (or through-the-box) pair.
    let mut p = ParticleSet::with_capacity(40);
    let mut rng = StdRng::seed_from_u64(9);
    for k in 0..40 {
        let face = k % 2;
        let x = if face == 0 {
            0.002 * (1.0 + rng.gen::<f64>())
        } else {
            1.0 - 0.002 * (1.0 + rng.gen::<f64>())
        };
        let y = rng.gen::<f64>();
        let z = rng.gen::<f64>();
        p.push(x, y, z, 0.0, 0.0, 0.0, 1.0, 0.08, 1.0);
    }
    p.boundary = Boundary::unit_box();
    assert_matches_the_oracle(&p, "wrap-seam tracers");
    // Sanity: the seam actually couples the faces — some lower-face particle
    // must see an upper-face particle.
    let mut q = p.clone();
    let nl = find_neighbors(&mut q);
    let coupled = (0..q.len()).any(|i| q.x[i] < 0.01 && nl.neighbors(i).iter().any(|&j| q.x[j as usize] > 0.99));
    assert!(coupled, "tracer cloud should couple across the seam");
}

#[test]
fn degenerate_extents_build_correct_rows() {
    // An open set's grid spans its bounding box, which has no extent along
    // one, two or all three axes here: a lone particle, coincident particles,
    // a line and a plane.
    let at = |points: &[(f64, f64, f64)]| {
        let mut p = ParticleSet::with_capacity(points.len());
        for (k, &(x, y, z)) in points.iter().enumerate() {
            p.push(x, y, z, 0.0, 0.0, 0.0, 1.0, 0.1 + 0.02 * (k % 3) as f64, 1.0);
        }
        p
    };
    assert_matches_the_oracle(&at(&[(0.3, -1.0, 2.5)]), "one particle");
    assert_matches_the_oracle(&at(&[(0.5, 0.5, 0.5); 5]), "coincident particles");
    let line: Vec<_> = (0..12).map(|k| (0.07 * k as f64, 2.0, -1.0)).collect();
    assert_matches_the_oracle(&at(&line), "collinear particles");
    let plane: Vec<_> = (0..36).map(|k| (0.09 * (k % 6) as f64, 0.11 * (k / 6) as f64, 0.25)).collect();
    assert_matches_the_oracle(&at(&plane), "coplanar particles");
    // All five coincident particles see each other.
    let mut p = at(&[(0.5, 0.5, 0.5); 5]);
    let nl = find_neighbors(&mut p);
    assert!((0..5).all(|i| nl.count(i) == 5));
}

#[test]
fn every_registered_scenario_matches() {
    // The acceptance gate: the oracle's rows on all six registered
    // scenarios' initial conditions (mixed Open / Periodic boundaries).
    let registry = ScenarioRegistry::builtin();
    assert_eq!(registry.len(), 6, "expected the six built-in scenarios");
    for scenario in registry.scenarios() {
        let mut p = scenario.initial_conditions(1500, 42);
        // Compared on wrapped coordinates — the state the step driver hands
        // the search after DomainDecompAndSync.
        p.wrap_positions();
        assert_matches_the_oracle(&p, scenario.short_name());
    }
}

#[test]
fn periodic_csr_bytes_are_pinned_on_the_host_tier() {
    assert_periodic_csr_digests_are_pinned();
}
