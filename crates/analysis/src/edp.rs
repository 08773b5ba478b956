//! Energy-delay product analysis (Figures 4 and 5).
//!
//! The paper quantifies the frequency-scaling trade-off with the energy-delay
//! product `EDP = E · T`, normalised to the run at the nominal GPU compute
//! frequency (1410 MHz on the A100 nodes).

/// One point of a frequency sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdpPoint {
    /// GPU compute frequency in Hz.
    pub frequency_hz: f64,
    /// Energy in joules.
    pub energy_j: f64,
    /// Time-to-solution in seconds.
    pub time_s: f64,
}

impl EdpPoint {
    /// Energy-delay product in J·s.
    pub fn edp(&self) -> f64 {
        self.energy_j * self.time_s
    }
}

/// Failure modes of [`normalized_edp_series`].
#[derive(Clone, Debug, PartialEq)]
pub enum EdpError {
    /// The sweep contained no points.
    EmptySweep,
    /// The baseline point's EDP is zero or negative, so normalisation is
    /// undefined. Carries the offending point's frequency and EDP.
    NonPositiveBaseline {
        /// Frequency of the baseline point, in Hz.
        frequency_hz: f64,
        /// Its (non-positive) energy-delay product, in J·s.
        edp: f64,
    },
}

impl std::fmt::Display for EdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdpError::EmptySweep => write!(f, "cannot normalise an empty EDP sweep"),
            EdpError::NonPositiveBaseline { frequency_hz, edp } => write!(
                f,
                "baseline point at {:.1} MHz has non-positive EDP {edp}",
                frequency_hz / 1.0e6
            ),
        }
    }
}

impl std::error::Error for EdpError {}

/// Normalise an EDP sweep to the point measured at `baseline_hz` (the nominal
/// frequency). Returns `(frequency_hz, edp / edp_baseline)` pairs in the input
/// order.
///
/// The baseline is the sweep point *nearest* to `baseline_hz`, so sweeps whose
/// grids come from [`DvfsModel::f_step_hz`](hwmodel::DvfsModel) still match
/// even when the requested baseline sits between grid points (the old
/// behaviour silently fell back to the highest frequency whenever the 1 kHz
/// tolerance missed).
pub fn normalized_edp_series(points: &[EdpPoint], baseline_hz: f64) -> Result<Vec<(f64, f64)>, EdpError> {
    let baseline = points
        .iter()
        .min_by(|a, b| {
            let da = (a.frequency_hz - baseline_hz).abs();
            let db = (b.frequency_hz - baseline_hz).abs();
            da.total_cmp(&db)
        })
        .ok_or(EdpError::EmptySweep)?;
    let base_edp = baseline.edp();
    if base_edp <= 0.0 {
        return Err(EdpError::NonPositiveBaseline {
            frequency_hz: baseline.frequency_hz,
            edp: base_edp,
        });
    }
    Ok(points.iter().map(|p| (p.frequency_hz, p.edp() / base_edp)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<EdpPoint> {
        vec![
            EdpPoint {
                frequency_hz: 1410.0e6,
                energy_j: 1000.0,
                time_s: 100.0,
            },
            EdpPoint {
                frequency_hz: 1200.0e6,
                energy_j: 900.0,
                time_s: 105.0,
            },
            EdpPoint {
                frequency_hz: 1005.0e6,
                energy_j: 820.0,
                time_s: 115.0,
            },
        ]
    }

    #[test]
    fn edp_is_energy_times_time() {
        let p = sweep()[0];
        assert_eq!(p.edp(), 100_000.0);
    }

    #[test]
    fn normalisation_uses_the_nominal_point() {
        let series = normalized_edp_series(&sweep(), 1410.0e6).unwrap();
        assert_eq!(series.len(), 3);
        assert!((series[0].1 - 1.0).abs() < 1e-12);
        assert!(series[1].1 < 1.0, "down-scaled EDP should improve in this sweep");
        assert!((series[2].1 - 820.0 * 115.0 / 100_000.0).abs() < 1e-9);
    }

    #[test]
    fn missing_baseline_matches_nearest_point() {
        // 1700 MHz is outside the sweep; the nearest point (1410 MHz) is used.
        let series = normalized_edp_series(&sweep(), 1700.0e6).unwrap();
        assert!((series[0].1 - 1.0).abs() < 1e-12);
        // A baseline between grid points matches the nearest, not the highest.
        let series = normalized_edp_series(&sweep(), 1190.0e6).unwrap();
        assert!((series[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_matching_survives_model_generated_grids() {
        use hwmodel::DvfsModel;
        // Points on the exact A100 grid; the requested baseline is the grid
        // nominal, which the old 1 kHz tolerance also matched — but a baseline
        // 7 MHz off-grid now still matches the nearest grid point.
        let model = DvfsModel::nvidia_a100();
        let points: Vec<EdpPoint> = model
            .supported_range(1305.0e6, model.f_max_hz)
            .into_iter()
            .map(|f| EdpPoint {
                frequency_hz: f,
                energy_j: 1000.0,
                time_s: 100.0,
            })
            .collect();
        let series = normalized_edp_series(&points, 1403.0e6).unwrap();
        assert_eq!(series.len(), points.len());
        assert!(series.iter().all(|(_, n)| (n - 1.0).abs() < 1e-12));
    }

    #[test]
    fn empty_or_degenerate_inputs() {
        assert_eq!(normalized_edp_series(&[], 1410.0e6), Err(EdpError::EmptySweep));
        let zero = vec![EdpPoint {
            frequency_hz: 1410.0e6,
            energy_j: 0.0,
            time_s: 0.0,
        }];
        assert!(matches!(
            normalized_edp_series(&zero, 1410.0e6),
            Err(EdpError::NonPositiveBaseline { .. })
        ));
    }
}
