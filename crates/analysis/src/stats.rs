//! Small statistics helpers used across the analysis modules.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Minimum; 0 for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min).pipe_finite()
}

/// Maximum; 0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max).pipe_finite()
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}

impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// Normalise every value to the first element (percent of baseline).
/// Returns an empty vector if the first element is zero or missing.
pub fn normalize_to_first(values: &[f64]) -> Vec<f64> {
    match values.first() {
        Some(&first) if first != 0.0 => values.iter().map(|v| v / first).collect(),
        _ => Vec::new(),
    }
}

/// Convert a slice of absolute values into percentages of their sum.
pub fn as_percentages(values: &[f64]) -> Vec<f64> {
    let total: f64 = values.iter().sum();
    if total <= 0.0 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| 100.0 * v / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&v) - 2.5).abs() < 1e-12);
        assert_eq!(min(&v), 1.0);
        assert_eq!(max(&v), 4.0);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(max(&[]), 0.0);
        assert!(normalize_to_first(&[]).is_empty());
        assert!(as_percentages(&[]).is_empty());
    }

    #[test]
    fn normalisation() {
        let v = normalize_to_first(&[4.0, 2.0, 8.0]);
        assert_eq!(v, vec![1.0, 0.5, 2.0]);
        assert!(normalize_to_first(&[0.0, 1.0]).is_empty());
    }

    #[test]
    fn percentages_sum_to_100() {
        let p = as_percentages(&[1.0, 3.0]);
        assert!((p[0] - 25.0).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert_eq!(as_percentages(&[0.0, 0.0]), vec![0.0, 0.0]);
    }
}
