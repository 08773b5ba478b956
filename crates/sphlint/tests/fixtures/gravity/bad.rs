//! Scratch fixture: the collect-then-scatter shape the gravity stage had —
//! a fresh `Vec` of per-row results on every call, scattered back afterwards.

pub fn add_gravity_rows(ax: &mut [f64], ay: &mut [f64], rows: &[u32], walk: impl Fn(usize) -> (f64, f64)) {
    let acc: Vec<(f64, f64)> = rows.iter().map(|&i| walk(i as usize)).collect();
    let mut touched = Vec::with_capacity(rows.len());
    for (k, (gx, gy)) in acc.into_iter().enumerate() {
        let i = rows[k] as usize;
        ax[i] += gx;
        ay[i] += gy;
        touched.push(i);
    }
}
