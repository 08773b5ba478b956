//! Refactor-equivalence and CSR-invariant tests of the flattened SPH hot path.
//!
//! The golden test runs every scenario twice — once with the
//! particle storage left in construction order, once Morton-reordered every
//! step — and asserts that the physics agrees per particle to 1e-12: the
//! reorder changes memory layout and summation order, never the result beyond
//! floating-point round-off. The CSR tests pin the structural invariants of
//! the flat neighbour lists.

use energy_aware_sim::sphsim::init::lattice_cube;
use energy_aware_sim::sphsim::physics::neighbors::find_neighbors;
use energy_aware_sim::sphsim::scenario;
use energy_aware_sim::sphsim::Simulation;

/// Absolute-or-relative agreement to 1e-12.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn morton_reordered_pipeline_matches_construction_order_on_every_scenario() {
    for scenario in scenario::all() {
        let name = scenario.short_name;
        let mut plain = Simulation::from_scenario(scenario, 400, 7).with_reorder_interval(0);
        let mut sorted = Simulation::from_scenario(scenario, 400, 7).with_reorder_interval(1);
        for _ in 0..3 {
            let a = plain.step();
            let b = sorted.step();
            assert!(close(a.dt, b.dt), "{name}: dt diverged ({} vs {})", a.dt, b.dt);
        }
        let pa = plain.particles();
        let pb = sorted.particles();
        assert_eq!(pa.len(), pb.len());
        for current in 0..pa.len() {
            // `plain` never reorders, so its slot IS the construction index;
            // resolve the same particle in the reordered run through the map.
            assert_eq!(plain.original_index_of(current), current);
            let original = sorted.original_index_of(current);
            for (field, a, b) in [
                ("rho", pa.rho[original], pb.rho[current]),
                ("u", pa.u[original], pb.u[current]),
                ("x", pa.x[original], pb.x[current]),
                ("vx", pa.vx[original], pb.vx[current]),
                ("p", pa.p[original], pb.p[current]),
                ("du", pa.du[original], pb.du[current]),
            ] {
                assert!(
                    close(a, b),
                    "{name}: particle {original} field {field} diverged after 3 steps: {a} vs {b}"
                );
            }
            assert_eq!(
                pa.neighbor_count[original], pb.neighbor_count[current],
                "{name}: neighbour count diverged for particle {original}"
            );
        }
    }
}

#[test]
fn csr_offsets_are_monotone_and_start_at_zero() {
    let mut p = lattice_cube(6, 1.0, 1.0, 1.3);
    let nl = find_neighbors(&mut p);
    assert_eq!(nl.len(), p.len());
    assert_eq!(nl.offsets[0], 0);
    assert!(
        nl.offsets.windows(2).all(|w| w[0] <= w[1]),
        "CSR offsets must be monotone"
    );
    let held: usize = nl.segments.iter().map(|s| s.entries.len()).sum();
    assert_eq!(*nl.offsets.last().unwrap() as usize, held);
}

#[test]
fn csr_rows_include_self() {
    let mut p = lattice_cube(6, 1.0, 1.0, 1.3);
    let nl = find_neighbors(&mut p);
    for i in 0..p.len() {
        assert!(
            nl.neighbors(i).contains(&(i as u32)),
            "particle {i} missing from its own neighbour row"
        );
    }
}

#[test]
fn csr_lists_are_symmetric_on_a_uniform_lattice() {
    // With a uniform smoothing length the search radius 2·h is the same for
    // every particle, so neighbourhood must be symmetric: j ∈ N(i) ⟺ i ∈ N(j).
    let mut p = lattice_cube(6, 1.0, 1.0, 1.3);
    let nl = find_neighbors(&mut p);
    for i in 0..p.len() {
        for &j in nl.neighbors(i) {
            assert!(
                nl.neighbors(j as usize).contains(&(i as u32)),
                "asymmetric neighbourhood: {j} ∈ N({i}) but {i} ∉ N({j})"
            );
        }
    }
}
