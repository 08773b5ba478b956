//! Scratch fixture: the in-place shape — each row's result is added straight
//! onto its target lanes, block partials live on the stack, nothing is
//! collected.

pub fn add_gravity_rows(ax: &mut [f64], ay: &mut [f64], rows: &[u32], walk: impl Fn(usize) -> (f64, f64, f64)) -> f64 {
    let mut partial = [0.0f64; 16];
    let block = rows.len().div_ceil(16).max(1);
    for (b, out) in partial.iter_mut().enumerate() {
        for &row in rows.iter().skip(b * block).take(block) {
            let i = row as usize;
            let (gx, gy, phi) = walk(i);
            ax[i] += gx;
            ay[i] += gy;
            *out += phi;
        }
    }
    partial.iter().sum()
}
