//! Cell-list CSR rows ≡ a brute-force O(n²) union test (`common`): the
//! neighbour search must produce exactly the rows its definition says —
//! as sets, since a row lists its neighbours in stencil-scan order — and the
//! matching neighbour-count diagnostic, from a full build and from a build of
//! a sorted subset alike: on random clouds (mildly and strongly polydisperse,
//! and with a few particles far above the bulk `h`), periodic lattices, a
//! wrap-seam tracer, degenerate extents and every scenario's
//! initial conditions, for both Open and Periodic boundaries, and on
//! anisotropic periodic boxes off the origin whose grids have one, two, three
//! and more cells per axis. This is the correctness contract of the one
//! builder `FindNeighbors` has.

mod common;

use common::{
    assert_build_counts_are_pinned, assert_matches_the_oracle, assert_periodic_csr_digests_are_pinned,
    assert_tail_sets_match_the_oracle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sphsim::celllist::CellGrid;
use sphsim::init::lattice_cube;
use sphsim::physics::neighbors::find_neighbors;
use sphsim::scenario;
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
fn anisotropic_periodic_boxes_match_with_one_two_three_and_more_cells_per_axis() {
    // A 1.0 × 0.5 × 0.3 box off the origin. The cell side is 2 · h_q of the
    // 99th-percentile h, `h_bulk` here: the corners and ten more particles
    // sit at it, the bulk below it, and three particles of the tail — under
    // 1 % — above it, at `h_wide`, which sizes a grid with at most two thirds
    // of the cells. So `h_bulk` decides how often each axis wraps onto
    // itself: a stencil names a cell of a one- or two-cell axis more than
    // once, each time under a different image, and the stencil of a tail
    // particle spans `2K + 1` cells of an axis of two or three. One cell
    // needs the interaction diameter within 1e-9 of the edge, the closest
    // the grid admits, so nothing there can span two cells and no cell is
    // wide. On x and z the box reaches less than half an edge above zero, so
    // `x − box_min` of the topmost double rounds to the edge itself and the
    // binning has to clamp it.
    let (lo, edge) = ((-0.75, 2.0, -0.15), (1.0, 0.5, 0.3));
    let hi = (lo.0 + edge.0, lo.1 + edge.1, lo.2 + edge.2);
    let boundary = Boundary::Periodic {
        box_min: lo,
        box_max: hi,
    };
    for (h_bulk, h_wide, dims, wide, seed) in [
        (0.035, 0.07, (14, 7, 4), true, 21u64),
        (0.05, 0.074, (9, 4, 2), true, 22),
        (0.07, 0.075 / (1.0 + 2e-10), (7, 3, 2), true, 23),
        (0.075 / (1.0 + 5e-10), 0.075 / (1.0 + 2e-10), (6, 3, 1), false, 24),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = ParticleSet::with_capacity(517);
        let push =
            |p: &mut ParticleSet, (x, y, z): (f64, f64, f64), h: f64| p.push(x, y, z, 0.0, 0.0, 0.0, 1.0, h, 1.0);
        // The corners of the half-open box: exactly on `box_min`, one ulp
        // below `box_max`, and mixed.
        let top = (hi.0.next_down(), hi.1.next_down(), hi.2.next_down());
        for corner in [lo, top, (lo.0, top.1, lo.2), (top.0, lo.1, top.2)] {
            push(&mut p, corner, h_bulk);
        }
        // Polydisperse bulk: h over a 2.5× band up to h_bulk, then the tail.
        for k in 0..513 {
            let at = (
                lo.0 + edge.0 * rng.gen::<f64>(),
                lo.1 + edge.1 * rng.gen::<f64>(),
                lo.2 + edge.2 * rng.gen::<f64>(),
            );
            let h = match k {
                0..10 => h_bulk,
                10..13 => h_wide,
                _ => h_bulk * (0.4 + 0.6 * rng.gen::<f64>()),
            };
            push(&mut p, at, h);
        }
        p.boundary = boundary;
        let mut grid = CellGrid::new();
        grid.rebuild(&p);
        assert_eq!(grid.total_cells(), dims.0 * dims.1 * dims.2, "h_bulk {h_bulk}");
        assert_eq!(grid.wide_cells() > 0, wide, "h_bulk {h_bulk}: wide cells");
        assert_matches_the_oracle(&p, &format!("anisotropic box, grid {dims:?}"));
    }
}

#[test]
fn tail_particles_match_in_open_and_periodic_boxes_and_on_one_and_two_cell_axes() {
    assert_tail_sets_match_the_oracle();
}

#[test]
fn build_counts_are_pinned_and_split_free_on_the_host_tier() {
    assert_build_counts_are_pinned();
}

/// Sixty-four lattice particles in the unit cube, particle 5 moved to
/// `x = 1.25`.
fn lattice_with_a_stray() -> ParticleSet {
    let mut p = lattice_cube(4, 1.0, 1.0, 1.2);
    p.x[5] = 1.25;
    p
}

#[test]
#[should_panic(expected = "particle 5 of 64 sits at (1.25, ")]
fn out_of_box_position_on_a_periodic_set_panics_naming_the_particle() {
    let mut p = lattice_with_a_stray();
    p.boundary = Boundary::unit_box();
    CellGrid::new().rebuild(&p);
}

#[test]
fn the_same_position_is_fine_on_an_open_set() {
    assert_matches_the_oracle(&lattice_with_a_stray(), "open lattice with a stray");
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
    // The acceptance gate: the oracle's rows on all six
    // scenarios' initial conditions (mixed Open / Periodic boundaries).
    assert_eq!(scenario::all().len(), 6, "expected the six built-in scenarios");
    for scenario in scenario::all() {
        let mut p = scenario.initial_conditions(1500, 42);
        // Compared on wrapped coordinates — the state the step driver hands
        // the search after DomainDecompAndSync.
        p.wrap_positions();
        assert_matches_the_oracle(&p, scenario.short_name);
    }
}

#[test]
fn periodic_csr_bytes_are_pinned_on_the_host_tier() {
    assert_periodic_csr_digests_are_pinned();
}
