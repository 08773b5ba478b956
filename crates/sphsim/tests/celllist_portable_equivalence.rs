//! Portable-tier equivalence: re-runs the cell-list ≡ brute-force contract of
//! `celllist_equivalence` with `SPHSIM_FORCE_PORTABLE_SWEEP` set, so the
//! scalar candidate scan is exercised even on hosts whose runtime dispatch
//! would otherwise always take the AVX2/AVX-512 specializations. Together
//! with `celllist_equivalence` (which runs whatever path the host CPU
//! selects) this pins every sweep implementation to the same rows.
//!
//! The same flag pins the stage kernels' row dispatch to its portable
//! instantiation, so the test then steps a golden that `tests/conservation.rs`
//! pins on whatever tier the host selects (AVX2 on CI): portable ≡ AVX2 ≡
//! golden, bit for bit, for the pair kernels too.
//!
//! Kept as its own test binary: the force flag is read once per process, so
//! it must be set before any sweep or kernel runs and would otherwise leak
//! into the main suite's coverage of the SIMD paths.

mod common;

use common::{
    assert_build_counts_are_pinned, assert_matches_the_oracle, assert_periodic_csr_digests_are_pinned,
    assert_tail_sets_match_the_oracle, slots_in_construction_order,
};
use sphsim::init::lattice_cube;
use sphsim::scenario;
use sphsim::{Boundary, Simulation};

/// The `state_digest` of `tests/conservation.rs`: FNV-1a over the evolved
/// state in construction order, plus the simulation time.
fn state_digest(sim: &Simulation) -> u64 {
    let p = sim.particles();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: f64| {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for i in slots_in_construction_order(sim) {
        for v in [
            p.x[i], p.y[i], p.z[i], p.vx[i], p.vy[i], p.vz[i], p.rho[i], p.u[i], p.p[i], p.du[i], p.h[i], p.alpha[i],
        ] {
            mix(v);
        }
    }
    mix(sim.time());
    h
}

#[test]
fn portable_sweep_matches_brute_force_everywhere() {
    // Must precede the first sweep and the first kernel call in this process
    // — the tier is cached.
    std::env::set_var("SPHSIM_FORCE_PORTABLE_SWEEP", "1");

    // Open, nonuniform h: the portable union test keeps one-sided pairs.
    let mut open = lattice_cube(7, 1.0, 1.0, 1.2);
    for (i, h) in open.h.iter_mut().enumerate() {
        *h *= 1.0 + 0.7 * ((i % 5) as f64) / 5.0;
    }
    assert_matches_the_oracle(&open, "open lattice, nonuniform h, portable");

    // Periodic, bit-uniform h: the portable wrap path, whose union test
    // returns the own-support verdict.
    let mut periodic = lattice_cube(8, 1.0, 1.0, 1.2);
    periodic.boundary = Boundary::unit_box();
    assert_matches_the_oracle(&periodic, "periodic lattice, portable");

    // Every scenario, same as the acceptance gate.
    for scenario in scenario::all() {
        let mut p = scenario.initial_conditions(1500, 42);
        p.wrap_positions();
        assert_matches_the_oracle(&p, scenario.short_name);
    }

    // The sets with a heavy upper tail of h: wide stencils and far cells.
    assert_tail_sets_match_the_oracle();

    // The same periodic CSR bytes and build counts as the host tier's suite
    // holds.
    assert_periodic_csr_digests_are_pinned();
    assert_build_counts_are_pinned();

    // The pair kernels on the portable tier: three steps of the open-box
    // Sedov golden of `tests/conservation.rs` (n = 400, seed 7), which that
    // suite holds on the host's own tier.
    let mut sim = Simulation::from_scenario(scenario::get("Sedov").unwrap(), 400, 7);
    sim.run(3);
    assert_eq!(
        state_digest(&sim),
        0x08e34653bcd31cc7,
        "portable-tier pair kernels moved the pinned Sedov state"
    );
}
