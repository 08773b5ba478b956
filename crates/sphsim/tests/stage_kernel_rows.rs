//! The row contract every stage kernel shares, checked in one table: a
//! kernel takes `rows: Option<&[u32]>` and writes its output lanes in place —
//! `None` is every row, listing every row is bitwise the same thing, a sparse
//! ascending subset touches only its rows and agrees with the full pass on
//! them, and an empty subset is a no-op. (The CSR build over a row subset has
//! its own tests in `physics::neighbors`, `celllist` and the
//! `celllist_equivalence` suite; `update_quantities` always visits every row.)

use sphsim::physics::avswitches::update_av_switches;
use sphsim::physics::density::{compute_density, update_smoothing_length};
use sphsim::physics::eos::apply_eos;
use sphsim::physics::gradh::compute_gradh;
use sphsim::physics::gravity::{add_gravity, DEFAULT_THETA};
use sphsim::physics::iad::compute_div_curl;
use sphsim::physics::momentum::{compute_momentum_energy, MomentumScratch};
use sphsim::physics::turbulence::TurbulenceDriver;
use sphsim::{scenario, Octree, ParticleSet, StepWorkspace, TimestepBins};

type Kernel<'a> = &'a dyn Fn(&mut ParticleSet, Option<&[u32]>);

/// Every `f64` lane plus the rung of row `i`, as bit patterns.
fn row_bits(p: &ParticleSet, i: usize) -> [u64; 21] {
    let lanes = [
        p.x[i],
        p.y[i],
        p.z[i],
        p.vx[i],
        p.vy[i],
        p.vz[i],
        p.m[i],
        p.h[i],
        p.rho[i],
        p.u[i],
        p.p[i],
        p.c[i],
        p.omega[i],
        p.div_v[i],
        p.curl_v[i],
        p.alpha[i],
        p.ax[i],
        p.ay[i],
        p.az[i],
        p.du[i],
    ];
    let mut bits = [p.rung[i] as u64; 21];
    for (slot, v) in bits.iter_mut().zip(lanes) {
        *slot = v.to_bits();
    }
    bits
}

/// A mid-step state of scenario `name` (n ≈ 800, seed 7) with every lane
/// populated but stale, the workspace holding its neighbour lists and the
/// octree `add_gravity` walks: shear the velocities, spread the rungs, run
/// the pipeline once, then move the inputs every kernel reads so each
/// recomputation differs.
fn stale_mid_step_state(name: &str) -> (ParticleSet, StepWorkspace, Octree) {
    let sc = scenario::get(name).unwrap();
    let mut input = sc.initial_conditions(800, 7);
    input.boundary = sc.boundary;
    let n = input.len();
    for i in 0..n {
        input.vx[i] += 0.3 * (7.0 * input.y[i]).sin();
        input.vy[i] += 0.2 * (5.0 * input.z[i]).cos();
        input.rung[i] = (i % 3) as u8;
    }
    let tree = Octree::build(&input.x, &input.y, &input.z, &input.m, 32);
    let mut ws = StepWorkspace::new();
    ws.find_neighbors(&mut input, n, None);
    let nl = ws.neighbors();
    compute_density(&mut input, nl, None);
    compute_gradh(&mut input, nl, None);
    apply_eos(&mut input, None);
    compute_div_curl(&mut input, nl, None);
    compute_momentum_energy(&mut input, nl, &mut MomentumScratch::default(), None);
    for i in 0..n {
        input.h[i] *= 1.03;
        input.u[i] *= 1.1;
        input.vz[i] += 0.1 * (3.0 * input.x[i]).sin();
    }
    (input, ws, tree)
}

#[test]
fn pair_kernel_output_lanes_match_the_pinned_digests() {
    // FNV-1a over the bit patterns of every lane the four pair kernels write
    // (ρ, Ω, ∇·v, |∇×v|, a, du/dt), one full pass each on an open (Sedov) and a
    // periodic (KH) set. Captured on the commit that made the cell list the
    // CSR builder at every size (this n ≈ 800 state used to get octree rows:
    // same neighbours, another order, every lane within 3e-14), and again when
    // the kernels took per-lane sums and shapes in `q = r · (1/h)` (same
    // pairs, regrouped sums; `pair_kernel_reference` holds them to serial
    // loops of the old formulas: ρ and Ω within 1.1e-15 relative, the other
    // lanes within 5e-14 of their rms): no tier of the row dispatch, thread
    // count or row subset may move one bit of any kernel's output. (Same libm
    // caveat as the goldens of `tests/conservation.rs`: the IC generators
    // call sin/cos/cbrt.)
    for (name, golden) in [("Sedov", 0x69398108baf070c2u64), ("KH", 0x226d2c42d3c171ce)] {
        let (mut p, ws, _) = stale_mid_step_state(name);
        let nl = ws.neighbors();
        compute_density(&mut p, nl, None);
        compute_gradh(&mut p, nl, None);
        compute_div_curl(&mut p, nl, None);
        compute_momentum_energy(&mut p, nl, &mut MomentumScratch::default(), None);
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for lane in [&p.rho, &p.omega, &p.div_v, &p.curl_v, &p.ax, &p.ay, &p.az, &p.du] {
            for v in lane {
                digest ^= v.to_bits();
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            digest, golden,
            "{name}: pair-kernel output digest 0x{digest:016x} no longer matches the pinned 0x{golden:016x}"
        );
    }
}

#[test]
fn every_stage_kernel_honours_the_row_contract() {
    // An open blast and a periodic shear box, both large enough to cut
    // several row blocks (and to thread wherever the host has workers).
    for name in ["Sedov", "KH"] {
        let (input, ws, tree) = stale_mid_step_state(name);
        let n = input.len();
        let nl = ws.neighbors();
        let driver = TurbulenceDriver::new(1.0, 0.8, 42);
        let mut bins = TimestepBins::new(3);
        bins.plan(1e-3, 1e-2);
        bins.seal(2);

        let kernels: [(&str, Kernel); 10] = [
            ("compute_density", &|p, rows| compute_density(p, nl, rows)),
            ("update_smoothing_length", &|p, rows| {
                update_smoothing_length(p, 60.0, rows)
            }),
            ("compute_gradh", &|p, rows| compute_gradh(p, nl, rows)),
            ("apply_eos", &|p, rows| apply_eos(p, rows)),
            ("compute_div_curl", &|p, rows| compute_div_curl(p, nl, rows)),
            ("update_av_switches", &|p, rows| update_av_switches(p, 1e-3, None, rows)),
            ("update_av_switches (bins)", &|p, rows| {
                update_av_switches(p, 1e-3, Some(&bins), rows)
            }),
            ("compute_momentum_energy", &|p, rows| {
                compute_momentum_energy(p, nl, &mut MomentumScratch::default(), rows)
            }),
            ("TurbulenceDriver::apply", &|p, rows| driver.apply(p, n, 0.25, rows)),
            ("add_gravity", &|p, rows| {
                add_gravity(p, &tree, DEFAULT_THETA, 0.02, rows);
            }),
        ];
        let every: Vec<u32> = (0..n as u32).collect();
        let sparse: Vec<u32> = (0..n as u32).filter(|i| i % 3 == 1).collect();
        for (kernel_name, kernel) in kernels {
            let what = format!("{kernel_name} on {name}");
            let mut full = input.clone();
            kernel(&mut full, None);
            assert!(
                (0..n).any(|i| row_bits(&full, i) != row_bits(&input, i)),
                "{what}: the full pass changed nothing — the comparison below would be vacuous"
            );

            let mut listed = input.clone();
            kernel(&mut listed, Some(&every));
            let mut subset = input.clone();
            kernel(&mut subset, Some(&sparse));
            let mut untouched = input.clone();
            kernel(&mut untouched, Some(&[]));
            for i in 0..n {
                assert_eq!(
                    row_bits(&listed, i),
                    row_bits(&full, i),
                    "{what}: row {i}, every row listed"
                );
                let expected = if i % 3 == 1 { &full } else { &input };
                assert_eq!(
                    row_bits(&subset, i),
                    row_bits(expected, i),
                    "{what}: row {i}, sparse subset"
                );
                assert_eq!(
                    row_bits(&untouched, i),
                    row_bits(&input, i),
                    "{what}: row {i}, empty subset"
                );
            }
        }
    }
}
