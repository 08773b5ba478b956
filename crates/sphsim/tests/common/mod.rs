//! Shared by the cell-list equivalence suites: a brute-force O(n²) oracle for
//! the CSR neighbour rows, and the comparison of a full and a subset build
//! against it.

use sphsim::celllist::{find_neighbors_cells, CellGrid};
use sphsim::kernels::KERNEL_SUPPORT;
use sphsim::physics::neighbors::{find_neighbors, NeighborLists, NeighborScratch};
use sphsim::{MinImage, ParticleSet};

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
        assert_eq!(&sorted_row(&nl, i), row, "{label}: row {i} of the full build");
    }
    assert_eq!(full.neighbor_count, own, "{label}: diagnostic of the full build");

    let listed: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
    let mut subset = p.clone();
    subset.neighbor_count.fill(u32::MAX);
    let mut grid = CellGrid::new();
    grid.rebuild(&subset);
    let mut nl = NeighborLists::default();
    find_neighbors_cells(&mut subset, &grid, Some(&listed), &mut nl, &mut NeighborScratch::new());
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
