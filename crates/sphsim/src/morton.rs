//! Morton (Z-order) codes.
//!
//! SPH-EXA's Cornerstone octree keys particles by 3D Morton codes; the domain
//! decomposition then splits the sorted key range across ranks so that each
//! rank owns a compact region of space. This module provides 63-bit Morton
//! codes (21 bits per dimension) over a caller-supplied bounding box.

/// Number of bits per dimension in a Morton code.
pub const MORTON_BITS: u32 = 21;

/// Spread the lower 21 bits of `v` so that there are two zero bits between
/// every original bit.
fn spread_bits(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`spread_bits`].
fn compact_bits(v: u64) -> u64 {
    let mut x = v & 0x1249249249249249;
    x = (x ^ (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x ^ (x >> 4)) & 0x100f00f00f00f00f;
    x = (x ^ (x >> 8)) & 0x1f0000ff0000ff;
    x = (x ^ (x >> 16)) & 0x1f00000000ffff;
    x = (x ^ (x >> 32)) & 0x1f_ffff;
    x
}

/// Encode integer cell coordinates (each < 2²¹) into a Morton code.
pub fn encode_cells(ix: u64, iy: u64, iz: u64) -> u64 {
    debug_assert!(ix < (1 << MORTON_BITS) && iy < (1 << MORTON_BITS) && iz < (1 << MORTON_BITS));
    spread_bits(ix) | (spread_bits(iy) << 1) | (spread_bits(iz) << 2)
}

/// Decode a Morton code back into integer cell coordinates.
// sphlint::allow(dead-pub, the inverse tests/property_based.rs round-trips Morton keys through)
pub fn decode_cells(code: u64) -> (u64, u64, u64) {
    (compact_bits(code), compact_bits(code >> 1), compact_bits(code >> 2))
}

/// Map a position inside `[min, max]³` (component-wise) to a Morton code.
/// Positions outside the box are clamped.
///
/// The box is divided into a uniform grid of `2²¹` equal-width cells per
/// dimension: `floor(t · 2²¹)` clamped to `2²¹ − 1`, so a position exactly at
/// `max` lands in the last *full-width* cell. (A previous version divided by
/// `2²¹ − 1` intervals while still allowing index `2²¹ − 1`, which gave the
/// boundary cell zero width and every other cell a slightly skewed extent.)
pub fn encode_position(pos: (f64, f64, f64), min: (f64, f64, f64), max: (f64, f64, f64)) -> u64 {
    let cells = 1u64 << MORTON_BITS;
    let to_cell = |p: f64, lo: f64, hi: f64| -> u64 {
        if hi <= lo {
            return 0;
        }
        let t = ((p - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((t * cells as f64).floor() as u64).min(cells - 1)
    };
    encode_cells(
        to_cell(pos.0, min.0, max.0),
        to_cell(pos.1, min.1, max.1),
        to_cell(pos.2, min.2, max.2),
    )
}

/// Compute Morton codes for a whole particle set given its bounding box.
pub fn encode_all(x: &[f64], y: &[f64], z: &[f64], min: (f64, f64, f64), max: (f64, f64, f64)) -> Vec<u64> {
    (0..x.len()).map(|i| encode_position((x[i], y[i], z[i]), min, max)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_round_trip() {
        for &(x, y, z) in &[
            (0u64, 0, 0),
            (1, 2, 3),
            (100, 2000, 30000),
            (2_097_151, 2_097_151, 2_097_151),
        ] {
            let code = encode_cells(x, y, z);
            assert_eq!(decode_cells(code), (x, y, z));
        }
    }

    #[test]
    fn origin_maps_to_zero() {
        let min = (0.0, 0.0, 0.0);
        let max = (1.0, 1.0, 1.0);
        assert_eq!(encode_position((0.0, 0.0, 0.0), min, max), 0);
    }

    #[test]
    fn codes_are_monotone_along_axes_at_origin() {
        let min = (0.0, 0.0, 0.0);
        let max = (1.0, 1.0, 1.0);
        let a = encode_position((0.1, 0.0, 0.0), min, max);
        let b = encode_position((0.4, 0.0, 0.0), min, max);
        assert!(b > a);
    }

    #[test]
    fn out_of_box_positions_clamp() {
        let min = (0.0, 0.0, 0.0);
        let max = (1.0, 1.0, 1.0);
        let inside = encode_position((1.0, 1.0, 1.0), min, max);
        let outside = encode_position((5.0, 9.0, 2.0), min, max);
        assert_eq!(inside, outside);
    }

    #[test]
    fn boundary_cells_have_uniform_width() {
        let min = (0.0, 0.0, 0.0);
        let max = (1.0, 1.0, 1.0);
        let cells = 1u64 << MORTON_BITS;
        let cell_of = |x: f64| decode_cells(encode_position((x, 0.0, 0.0), min, max)).0;
        // The grid is uniform: t * 2^21 floored, so the midpoint starts cell
        // 2^20 exactly and the first cell boundary sits at 1/2^21.
        assert_eq!(cell_of(0.5), cells / 2);
        assert_eq!(cell_of(0.5 - 1e-9), cells / 2 - 1);
        assert_eq!(cell_of(1.0 / cells as f64), 1);
        assert_eq!(cell_of(0.5 / cells as f64), 0);
        // The position exactly at max maps into the last cell — which has the
        // same width as every other cell, not a zero-width boundary sliver.
        assert_eq!(cell_of(1.0), cells - 1);
        let last_cell_start = (cells - 1) as f64 / cells as f64;
        assert_eq!(cell_of(last_cell_start), cells - 1);
        assert_eq!(cell_of(last_cell_start - 1e-9), cells - 2);
    }

    #[test]
    fn locality_nearby_points_share_prefix() {
        let min = (0.0, 0.0, 0.0);
        let max = (1.0, 1.0, 1.0);
        let a = encode_position((0.5, 0.5, 0.5), min, max);
        let b = encode_position((0.5001, 0.5001, 0.5001), min, max);
        let c = encode_position((0.95, 0.1, 0.9), min, max);
        // Nearby points should differ in fewer leading bits than distant points.
        let diff_ab = (a ^ b).leading_zeros();
        let diff_ac = (a ^ c).leading_zeros();
        assert!(diff_ab >= diff_ac);
    }

    #[test]
    fn encode_all_matches_scalar() {
        let x = vec![0.1, 0.9];
        let y = vec![0.2, 0.8];
        let z = vec![0.3, 0.7];
        let min = (0.0, 0.0, 0.0);
        let max = (1.0, 1.0, 1.0);
        let codes = encode_all(&x, &y, &z, min, max);
        assert_eq!(codes[0], encode_position((0.1, 0.2, 0.3), min, max));
        assert_eq!(codes[1], encode_position((0.9, 0.8, 0.7), min, max));
    }

    #[test]
    fn degenerate_box_does_not_panic() {
        let min = (1.0, 1.0, 1.0);
        let max = (1.0, 2.0, 2.0);
        let code = encode_position((1.0, 1.5, 1.5), min, max);
        let (ix, _, _) = decode_cells(code);
        assert_eq!(ix, 0);
    }
}
