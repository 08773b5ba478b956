//! Shared by the cell-list equivalence suites: a brute-force O(n²) oracle for
//! the CSR neighbour rows, the comparison of a full and a subset build
//! against it, byte digests of periodic builds (the oracle compares rows as
//! sets; the digests pin their order too, across changes and SIMD tiers), and
//! sets with a heavy upper tail of `h` together with the work their builds
//! count, and the construction order a state digest visits particles in.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sphsim::celllist::{find_neighbors_cells, CellGrid};
use sphsim::kernels::KERNEL_SUPPORT;
use sphsim::physics::neighbors::{find_neighbors, NeighborLists, NeighborScratch};
use sphsim::scenario;
use sphsim::{Boundary, MinImage, ParticleSet, Simulation, StepWorkspace};

/// What the neighbour search must produce, by definition: row `i` is the
/// ascending symmetric union `{ j : d² ≤ r_i² or d² ≤ r_j² }` (minimum-image
/// distance, `r = KERNEL_SUPPORT · h`, `i` itself included), and the
/// `neighbor_count` diagnostic counts row `i`'s own support, self excluded.
fn brute_force_rows(p: &ParticleSet) -> (Vec<Vec<u32>>, Vec<u32>) {
    let mi = MinImage::of(&p.boundary);
    let r2: Vec<f64> = p.h.iter().map(|h| (KERNEL_SUPPORT * h) * (KERNEL_SUPPORT * h)).collect();
    let mut rows = Vec::with_capacity(p.len());
    let mut own = Vec::with_capacity(p.len());
    for i in 0..p.len() {
        let mut row = Vec::new();
        let mut in_own_support = 0u32;
        for j in 0..p.len() {
            let d2 = mi.dist_sq(p.x[i] - p.x[j], p.y[i] - p.y[j], p.z[i] - p.z[j]);
            if d2 <= r2[i] || d2 <= r2[j] {
                row.push(j as u32);
            }
            in_own_support += (d2 <= r2[i] && j != i) as u32;
        }
        rows.push(row);
        own.push(in_own_support);
    }
    (rows, own)
}

/// The subset build both checks use: every row `i` with `i % 3 != 1`.
fn build_two_rows_in_three(p: &mut ParticleSet) -> NeighborLists {
    let listed: Vec<u32> = (0..p.len() as u32).filter(|i| i % 3 != 1).collect();
    let mut grid = CellGrid::new();
    grid.rebuild(p);
    let mut nl = NeighborLists::default();
    let n = p.len();
    find_neighbors_cells(p, &grid, n, Some(&listed), &mut nl, &mut NeighborScratch::new());
    nl
}

fn sorted_row(nl: &NeighborLists, i: usize) -> Vec<u32> {
    let mut row = nl.neighbors(i).to_vec();
    row.sort_unstable();
    row
}

/// A full build and a build of a sorted subset (two rows in three) over `p`
/// must both agree with [`brute_force_rows`]: the same row sets without
/// duplicates, the same diagnostic; off the subset, empty rows and an
/// untouched diagnostic.
pub fn assert_matches_the_oracle(p: &ParticleSet, label: &str) {
    let n = p.len();
    let (rows, own) = brute_force_rows(p);

    let mut full = p.clone();
    let nl = find_neighbors(&mut full);
    assert_eq!(nl.len(), n, "{label}: lists do not cover the set");
    for (i, row) in rows.iter().enumerate() {
        let got = sorted_row(&nl, i);
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "{label}: row {i} holds a duplicate"
        );
        for &j in &got {
            assert!(
                nl.neighbors(j as usize).contains(&(i as u32)),
                "{label}: {j} is in row {i} but {i} is not in row {j}"
            );
        }
        assert_eq!(&got, row, "{label}: row {i} of the full build");
    }
    assert_eq!(full.neighbor_count, own, "{label}: diagnostic of the full build");

    let mut subset = p.clone();
    subset.neighbor_count.fill(u32::MAX);
    let nl = build_two_rows_in_three(&mut subset);
    assert_eq!(nl.len(), n, "{label}: subset lists do not cover the set");
    for (i, row) in rows.iter().enumerate() {
        if i % 3 != 1 {
            assert_eq!(&sorted_row(&nl, i), row, "{label}: row {i} of the subset build");
            assert_eq!(
                subset.neighbor_count[i], own[i],
                "{label}: diagnostic of subset row {i}"
            );
        } else {
            assert_eq!(nl.count(i), 0, "{label}: off-subset row {i} must be empty");
            assert_eq!(
                subset.neighbor_count[i],
                u32::MAX,
                "{label}: off-subset diagnostic {i} touched"
            );
        }
    }
}

/// FNV-1a over the CSR bytes, `offsets` then every row in order.
fn csr_digest(nl: &NeighborLists) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in nl.offsets.iter().chain((0..nl.len()).flat_map(|i| nl.neighbors(i))) {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Byte digests of a full build and of a build of two rows in three.
fn csr_digests(p: &ParticleSet) -> (u64, u64) {
    let mut p = p.clone();
    let full = csr_digest(&find_neighbors(&mut p));
    (full, csr_digest(&build_two_rows_in_three(&mut p)))
}

/// Move a set off its initial lattice: a ballistic drift along its own
/// velocity field and a smooth 1.5× spread of `h`, wrapped back into the box —
/// what a few steps do to a periodic box, without stepping it.
fn drifted(mut p: ParticleSet) -> ParticleSet {
    for i in 0..p.len() {
        p.x[i] += 0.08 * p.vx[i];
        p.y[i] += 0.08 * p.vy[i];
        p.z[i] += 0.08 * p.vz[i];
        let phase = std::f64::consts::TAU * (p.x[i] + 2.0 * p.y[i] + 3.0 * p.z[i]);
        p.h[i] *= 1.25 + 0.25 * phase.sin();
    }
    p.wrap_positions();
    p
}

/// The periodic CSR, byte for byte: row order is the summation order of every
/// pair kernel, so a change to the sweep (or a SIMD tier of it) that claims to
/// leave rows alone must reproduce these. Captured on the three periodic
/// scenarios at N = 1500 — their wrapped initial conditions (one lattice with
/// bit-uniform `h`, hence one digest pair) and each [`drifted`] along its own
/// velocity field (`h` spread, so the union test keeps one-sided pairs) — and
/// on a drifted 64 000-particle Turb box, the benchmark's size.
pub fn assert_periodic_csr_digests_are_pinned() {
    let ics = |name: &str, n: usize, seed: u64| {
        let mut p = scenario::get(name).unwrap().initial_conditions(n, seed);
        p.wrap_positions();
        p
    };
    let lattice = (0xc861bb61875ec86d, 0x2bfc4ea5fd1856eb);
    let pinned = [
        ("Turb 1500", ics("Turb", 1500, 42), lattice),
        ("KH 1500", ics("KH", 1500, 42), lattice),
        ("Gresho 1500", ics("Gresho", 1500, 42), lattice),
        (
            "Turb 1500, drifted",
            drifted(ics("Turb", 1500, 42)),
            (0xb9ae12708a20ad10, 0xf2efa4213ca8d286),
        ),
        (
            "KH 1500, drifted",
            drifted(ics("KH", 1500, 42)),
            (0x783ae3a89b4d9e02, 0x7ddaf7f2762cc4a1),
        ),
        (
            "Gresho 1500, drifted",
            drifted(ics("Gresho", 1500, 42)),
            (0xb7913c4d8332c284, 0x79496d4d716c7ce6),
        ),
        (
            "Turb 64000, drifted",
            drifted(ics("Turb", 64_000, 7)),
            (0x977b904fd3bc9a82, 0xecf211ded651cc0f),
        ),
    ];
    let mut mismatches = Vec::new();
    for (label, p, pinned) in &pinned {
        let got = csr_digests(p);
        if got != *pinned {
            mismatches.push(format!(
                "{label}: (0x{:016x}, 0x{:016x}), pinned (0x{:016x}, 0x{:016x})",
                got.0, got.1, pinned.0, pinned.1
            ));
        }
    }
    assert!(mismatches.is_empty(), "periodic CSR bytes moved: {mismatches:#?}");
}

/// A thousand particles in the unit box, the bulk with `h` in
/// `[0.7, 1) · bulk_h`, and nine of the tail — under 1 % of the set, so none
/// sizes a cell: three each at 3×, 5× and 8× `bulk_h`. In a periodic box one
/// 8× and one 5× particle sit on the wrap seam, a corner and an edge (there
/// `8 · 4 · bulk_h` must stay under the edge).
fn tail_cloud(seed: u64, boundary: Boundary, bulk_h: f64) -> ParticleSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = ParticleSet::with_capacity(1000);
    for k in 0..1000 {
        let (x, y, z) = (rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>());
        let h = match k {
            0..3 => 3.0 * bulk_h,
            3..6 => 5.0 * bulk_h,
            6..9 => 8.0 * bulk_h,
            _ => bulk_h * (0.7 + 0.3 * rng.gen::<f64>()),
        };
        p.push(x, y, z, 0.0, 0.0, 0.0, 1.0, h, 1.0);
    }
    if boundary.is_periodic() {
        let top = 1.0f64.next_down();
        (p.x[6], p.y[6], p.z[6]) = (0.0, top, top);
        (p.x[3], p.y[3], p.z[3]) = (top, 0.5, 0.0);
    }
    p.boundary = boundary;
    p
}

/// A 1.0 × 0.4 × 0.3 periodic box off the origin with six cells along x,
/// two along y and one along z: the bulk `h` puts the interaction diameter
/// within 1e-9 of the z edge, the closest the grid admits, and the tail of
/// 1 % sits closer still — past the quantile, yet no support of such a grid
/// can span two cells, so no cell is wide and the tail rows scan 27 cells.
fn tail_on_one_and_two_cell_axes() -> ParticleSet {
    let (lo, edge) = ((-0.5, 1.0, 2.0), (1.0, 0.4, 0.3));
    let bulk_h = 0.3 / (4.0 * (1.0 + 5e-10));
    let mut rng = StdRng::seed_from_u64(31);
    let mut p = ParticleSet::with_capacity(400);
    for k in 0..400 {
        let at = |lo: f64, edge: f64, u: f64| (lo + edge * u).min((lo + edge).next_down());
        let (x, y, z) = (
            at(lo.0, edge.0, rng.gen()),
            at(lo.1, edge.1, rng.gen()),
            at(lo.2, edge.2, rng.gen()),
        );
        let h = match k {
            0..4 => 0.3 / (4.0 * (1.0 + 2e-10)),
            4..40 => bulk_h,
            _ => bulk_h * (0.5 + 0.5 * rng.gen::<f64>()),
        };
        p.push(x, y, z, 0.0, 0.0, 0.0, 1.0, h, 1.0);
    }
    p.boundary = Boundary::Periodic {
        box_min: lo,
        box_max: (lo.0 + edge.0, lo.1 + edge.1, lo.2 + edge.2),
    };
    p
}

/// The tail sets of [`tail_cloud`] (open and periodic) and
/// [`tail_on_one_and_two_cell_axes`] against the oracle, from a full and a
/// subset build, with the grid they were meant to get: its cells, and
/// whether a cell is wide.
pub fn assert_tail_sets_match_the_oracle() {
    let mut ws = StepWorkspace::new();
    for (label, mut p, cells, wide) in [
        ("open tail cloud", tail_cloud(51, Boundary::Open, 0.05), None, true),
        (
            "periodic tail cloud",
            tail_cloud(52, Boundary::unit_box(), 0.03),
            Some(16 * 16 * 16),
            true,
        ),
        (
            "tail on 1- and 2-cell axes",
            tail_on_one_and_two_cell_axes(),
            Some(6 * 2),
            false,
        ),
    ] {
        let n = p.len();
        ws.find_neighbors(&mut p, n, None);
        let stats = ws.neighbor_build_stats();
        assert_eq!(stats.wide_cells > 0, wide, "{label}: wide cells");
        if let Some(cells) = cells {
            assert_eq!(stats.total_cells, cells, "{label}: grid");
        }
        assert_matches_the_oracle(&p, label);
    }
}

/// What the builds of the two [`tail_cloud`]s count — candidates tested, wide
/// cells, far cells visited — pinned: the counts are sums over rows, so they
/// must not depend on the block split or the SIMD tier. The full build runs
/// as many blocks as the host has threads; the same rows built in serial
/// subsets of 200 must count the same.
pub fn assert_build_counts_are_pinned() {
    let mut ws = StepWorkspace::new();
    for (label, mut p, pinned) in [
        (
            "open tail cloud",
            tail_cloud(51, Boundary::Open, 0.05),
            (34_553, 9, 4_429),
        ),
        (
            "periodic tail cloud",
            tail_cloud(52, Boundary::unit_box(), 0.03),
            (10_369, 9, 3_246),
        ),
    ] {
        let n = p.len();
        ws.find_neighbors(&mut p, n, None);
        let full = ws.neighbor_build_stats();
        let (mut candidates, mut far_cells) = (0, 0);
        for first in (0..n as u32).step_by(200) {
            let rows: Vec<u32> = (first..(first + 200).min(n as u32)).collect();
            ws.find_neighbors(&mut p, n, Some(&rows));
            let subset = ws.neighbor_build_stats();
            assert_eq!(subset.wide_cells, full.wide_cells, "{label}: the grid");
            candidates += subset.candidates;
            far_cells += subset.far_cells;
        }
        assert_eq!(
            (candidates, far_cells),
            (full.candidates, full.far_cells),
            "{label}: serial subsets and the full build count differently"
        );
        assert_eq!(
            (full.candidates, full.wide_cells, full.far_cells),
            pinned,
            "{label}: candidates, wide cells, far cells"
        );
    }
}

/// Every particle's storage slot, listed in construction order: `slots[o]`
/// is the slot `s` with `sim.original_index_of(s) == o`. The inverse of the
/// simulation's slot → construction-index map, built once, when a test needs
/// it.
#[allow(dead_code)] // not every test binary sharing this module steps a `Simulation`
pub fn slots_in_construction_order(sim: &Simulation) -> Vec<usize> {
    let mut slots = vec![0; sim.particles().len()];
    for current in 0..slots.len() {
        slots[sim.original_index_of(current)] = current;
    }
    slots
}
