//! Counting-allocator proof of the flat hot path: after warm-up, the whole
//! neighbour pipeline (Morton reorder + cell-grid rebuild + CSR neighbour-list
//! build over every row and over a row subset + interior/halo partition), the
//! rebuild of the Gravity stage's octree (moments included) and the serial path
//! of every stage kernel (density, smoothing length, grad-h, EOS, IAD, AV
//! switches, momentum/energy with its prefactor lanes held across calls, the
//! gravity walk, turbulence, `update_quantities` — over every row and over a
//! row subset) perform **zero** heap allocations per step — and so does what
//! they add up to: whole warm `Simulation::step()` calls on Sedov, Evr and
//! Turb, under global dt and under four dt bins (cycle starts and mid-cycle
//! substeps), driver, Timestep stage and collectives included.
//!
//! This file is its own test binary so the counting global allocator cannot
//! interfere with any other test, and it contains exactly one test so no
//! concurrent test thread can perturb the allocation counter. Everything runs
//! on the calling thread on purpose (the kernel calls stay below the parallel
//! cutoff, the whole steps run at `SPHSIM_THREADS=1`): thread spawns allocate,
//! and what this test pins down is the *pipeline's* allocation behaviour, not
//! the threading substrate's.

use sphsim::init::lattice_cube;
use sphsim::physics::avswitches::update_av_switches;
use sphsim::physics::density::{compute_density, update_smoothing_length};
use sphsim::physics::eos::apply_eos;
use sphsim::physics::gradh::compute_gradh;
use sphsim::physics::gravity::{add_gravity, DEFAULT_THETA};
use sphsim::physics::iad::compute_div_curl;
use sphsim::physics::momentum::{compute_momentum_energy, MomentumScratch};
use sphsim::physics::timestep::update_quantities;
use sphsim::physics::turbulence::TurbulenceDriver;
use sphsim::{Boundary, Octree, ParticleSet, Simulation, StepWorkspace, TimestepBins};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract; we delegate as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract; we delegate as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract; we delegate as-is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// What one warm step under the gate runs, besides the buffers it reuses.
struct Gate {
    origin: Vec<u32>,
    /// Treat the lower half as "owned" so the distributed row partition sees
    /// both interior and halo rows every step.
    n_owned: usize,
    /// An ascending sparse subset: every third row.
    subset: Vec<u32>,
    driver: TurbulenceDriver,
    /// A sealed two-rung cycle, mid-cycle — rung 0 (every particle) frozen.
    bins: TimestepBins,
    /// `h` as the neighbour build saw it (the smoothing-length update must
    /// not compound over the window and grow the CSR rows).
    h: Vec<f64>,
    /// The momentum kernel's prefactor lanes, as the step driver's workspace
    /// holds them across steps.
    momentum: MomentumScratch,
    /// The node arena of the gravity walk, rebuilt every step as the Gravity
    /// stage rebuilds the workspace's.
    tree: Octree,
}

impl Gate {
    /// The gate of a set of `n` particles.
    fn new(n: usize) -> Self {
        let mut bins = TimestepBins::new(2);
        bins.plan(1e-9, 1e-9);
        bins.seal(1);
        bins.advance();
        Self {
            origin: (0..n as u32).collect(),
            n_owned: n / 2,
            subset: (0..n as u32).step_by(3).collect(),
            driver: TurbulenceDriver::new(1.0, 0.8, 42),
            bins,
            h: vec![0.0; n],
            momentum: MomentumScratch::default(),
            tree: Octree::empty(),
        }
    }

    fn step(&mut self, ws: &mut StepWorkspace, p: &mut ParticleSet) {
        ws.reorder_by_morton(p, &mut self.origin);
        let n = p.len();
        ws.find_neighbors(p, n, Some(&self.subset));
        ws.find_neighbors(p, n, None);
        // The arena of the gravity walk below.
        self.tree.rebuild(&p.x, &p.y, &p.z, &p.m, 32);
        ws.partition_rows(self.n_owned, Some(&self.subset[..self.subset.len() / 2]));
        ws.partition_rows(self.n_owned, None);
        self.h.copy_from_slice(&p.h);
        for rows in [None, Some(&self.subset[..])] {
            compute_density(p, ws.neighbors(), rows);
            update_smoothing_length(p, 60.0, rows);
            compute_gradh(p, ws.neighbors(), rows);
            apply_eos(p, rows);
            compute_div_curl(p, ws.neighbors(), rows);
            update_av_switches(p, 1e-3, None, rows);
            update_av_switches(p, 1e-3, Some(&self.bins), rows);
            compute_momentum_energy(p, ws.neighbors(), &mut self.momentum, rows);
            add_gravity(p, &self.tree, DEFAULT_THETA, 0.02, rows);
            let n = p.len();
            self.driver.apply(p, n, 0.0, rows);
        }
        p.h.copy_from_slice(&self.h);
        update_quantities(p, 1e-9, None);
        update_quantities(p, self.bins.dt_sub(), Some(&self.bins));
    }

    /// Warm up (buffers grow to steady-state capacity), then demand an
    /// allocation-free window.
    ///
    /// The counting allocator is process-global, so a libtest harness thread
    /// (e.g. the timeout monitor) can allocate inside the measurement window
    /// under scheduler load. Pipeline allocations are deterministic and would
    /// dirty every attempt; harness noise is transient — so retry, and demand
    /// one attempt whose 25 *consecutive* steps are all allocation-free (long
    /// enough that even low-period amortised-growth regressions land inside
    /// it).
    fn assert_warm_steps_are_allocation_free(&mut self, ws: &mut StepWorkspace, p: &mut ParticleSet, what: &str) {
        for _ in 0..3 {
            self.step(ws, p);
        }
        let clean_attempt = (0..5).any(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for _ in 0..25 {
                self.step(ws, p);
            }
            ALLOCATIONS.load(Ordering::SeqCst) == before
        });
        assert!(
            clean_attempt,
            "the warm {what} must not touch the heap: every 25-step attempt saw allocations"
        );
        // Sanity: the pipeline actually produced neighbour lists.
        let nl = ws.neighbors();
        assert_eq!(nl.len(), p.len());
        assert!(nl.total_entries() > 11 * nl.len());
    }
}

/// Whole steps of `scenario` on `bins` dt bins (1: global dt): after a
/// warm-up long enough for every buffer to reach its steady size (the first
/// Morton re-sorts included), one window of consecutive `step()` calls —
/// holding a cycle start and a mid-cycle substep under bins — must leave the
/// heap alone. Retried like the kernel windows above, and for one more
/// reason: a CSR that outgrows its buffer as the gas clusters dirties one
/// window, not every one.
fn assert_warm_whole_steps_are_allocation_free(scenario: &str, bins: usize) {
    let scenario = sphsim::scenario::get(scenario).unwrap();
    let name = scenario.short_name;
    let mut particles = scenario.initial_conditions(500, 7);
    // One hot particle spreads every scenario over several rungs.
    particles.u[0] *= 1e4;
    let mut sim = Simulation::new(scenario, particles).with_timestep_bins(bins);
    sim.run(24);
    let clean_attempt = (0..5).any(|_| {
        let (mut cycle_starts, mut mid_cycle, mut allocations) = (0, 0, 0);
        while cycle_starts < 2 || (bins > 1 && mid_cycle == 0) {
            let at_start = sim.timestep_bins().is_none_or(TimestepBins::at_cycle_start);
            cycle_starts += u64::from(at_start);
            mid_cycle += u64::from(!at_start);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            sim.step();
            allocations += ALLOCATIONS.load(Ordering::SeqCst) - before;
        }
        allocations == 0
    });
    assert!(
        clean_attempt,
        "warm {name} steps on {bins} dt bin(s) must not touch the heap: every attempt saw allocations"
    );
}

#[test]
fn neighbour_pipeline_allocates_nothing_after_warmup() {
    // Latched by the first kernel call of the process: the whole steps at the
    // end of this test run past the parallel cutoff.
    std::env::set_var("SPHSIM_THREADS", "1");

    // 216 particles: serial path, realistic neighbour counts (~60 interior).
    let mut particles = lattice_cube(6, 1.0, 1.0, 1.2);
    let mut gate = Gate::new(particles.len());
    let mut workspace = StepWorkspace::new();
    gate.assert_warm_steps_are_allocation_free(&mut workspace, &mut particles, "pipeline on the uniform lattice");

    // The same lattice with h spread over 1.5×: the union test keeps
    // one-sided pairs, so the rows come out longer — the buffers grow once
    // more, then stay.
    for (i, h) in particles.h.iter_mut().enumerate() {
        *h *= 1.0 + 0.5 * ((i % 7) as f64) / 7.0;
    }
    gate.assert_warm_steps_are_allocation_free(&mut workspace, &mut particles, "pipeline on the polydisperse lattice");

    // A periodic box of three cells per axis, h spread over 1.1×: every
    // stencil wraps, so every row scans cells through an image shift.
    let mut particles = lattice_cube(6, 1.0, 1.0, 0.9);
    particles.boundary = Boundary::unit_box();
    for (i, h) in particles.h.iter_mut().enumerate() {
        *h *= 1.0 + 0.1 * ((i % 7) as f64) / 7.0;
    }
    gate.assert_warm_steps_are_allocation_free(&mut workspace, &mut particles, "pipeline on the periodic lattice");

    // A 10³ lattice (four cells per axis) with two particles at 4× their h,
    // under 1 % of the set: the grid is sized by the others, so the rebuild
    // selects the quantile and links far cells, and the sweep runs wide
    // stencils and far-cell visits.
    let mut particles = lattice_cube(10, 1.0, 1.0, 1.2);
    particles.h[222] *= 4.0;
    particles.h[777] *= 4.0;
    let mut gate = Gate::new(particles.len());
    gate.assert_warm_steps_are_allocation_free(
        &mut workspace,
        &mut particles,
        "pipeline with a tail of wide particles",
    );
    let n = particles.len();
    workspace.find_neighbors(&mut particles, n, None);
    let build = workspace.neighbor_build_stats();
    assert!(build.wide_cells > 0 && build.far_cells > 0, "no tail: {build:?}");

    for scenario in ["Sedov", "Evr", "Turb"] {
        for bins in [1, 4] {
            assert_warm_whole_steps_are_allocation_free(scenario, bins);
        }
    }
}
