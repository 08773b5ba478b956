//! Scenario-gallery reporting: per-scenario validation and per-stage min-EDP
//! frequency tables.
//!
//! `replicate`'s `gallery` artefact sweeps every scenario — the
//! analytic validation check on the CPU propagator plus a governed
//! paper-scale campaign — and renders its results through these emitters, so
//! the gallery's output format lives beside the other figure/table pipelines
//! of this crate.

use crate::report::Table;

/// One scenario's analytic-validation outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioValidationRow {
    /// Scenario short name.
    pub scenario: String,
    /// The analytic observable checked.
    pub observable: String,
    /// Measured value.
    pub measured: f64,
    /// Analytic expectation.
    pub expected: f64,
    /// Inclusive acceptance band on the measured value.
    pub acceptance: (f64, f64),
    /// Whether the check passed.
    pub passed: bool,
}

/// One governed stage's tuning outcome for one scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct StageFrequencyRow {
    /// Scenario short name.
    pub scenario: String,
    /// Pipeline-stage label.
    pub stage: String,
    /// Best (min-EDP) frequency found, in Hz.
    pub best_frequency_hz: f64,
    /// Scored observations the search consumed.
    pub observations: usize,
    /// Whether the stage's search converged.
    pub converged: bool,
}

/// One scenario's whole-loop energy/EDP summary under governance.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioEdpRow {
    /// Scenario short name.
    pub scenario: String,
    /// Main-loop energy of the governed run, in joules.
    pub energy_j: f64,
    /// Main-loop duration of the governed run, in seconds.
    pub time_s: f64,
    /// Main-loop energy of the nominal-frequency baseline, in joules.
    pub baseline_energy_j: f64,
    /// Main-loop duration of the nominal-frequency baseline, in seconds.
    pub baseline_time_s: f64,
}

impl ScenarioEdpRow {
    /// Governed EDP in J·s.
    fn edp(&self) -> f64 {
        self.energy_j * self.time_s
    }

    /// Baseline EDP in J·s.
    fn baseline_edp(&self) -> f64 {
        self.baseline_energy_j * self.baseline_time_s
    }

    /// Governed EDP as a fraction of the nominal baseline (< 1 is a win).
    fn edp_ratio(&self) -> f64 {
        let baseline = self.baseline_edp();
        if baseline > 0.0 {
            self.edp() / baseline
        } else {
            f64::NAN
        }
    }
}

/// Render the validation outcomes of every scenario.
pub fn validation_table(rows: &[ScenarioValidationRow]) -> Table {
    let mut t = Table::new(
        "Scenario gallery: analytic validation",
        &["scenario", "observable", "measured", "expected", "accepted", "status"],
    );
    for r in rows {
        t.add_row(&[
            r.scenario.clone(),
            r.observable.clone(),
            format!("{:.4}", r.measured),
            format!("{:.4}", r.expected),
            format!("[{:.4}, {:.4}]", r.acceptance.0, r.acceptance.1),
            if r.passed { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
    t
}

/// Render the per-stage min-EDP frequency table across scenarios.
pub fn stage_frequency_table(rows: &[StageFrequencyRow]) -> Table {
    let mut t = Table::new(
        "Scenario gallery: per-stage min-EDP frequency (online governor)",
        &["scenario", "stage", "best_frequency_MHz", "observations", "converged"],
    );
    for r in rows {
        t.add_row(&[
            r.scenario.clone(),
            r.stage.clone(),
            format!("{:.0}", r.best_frequency_hz / 1.0e6),
            r.observations.to_string(),
            r.converged.to_string(),
        ]);
    }
    t
}

/// Render the per-scenario whole-loop EDP summary.
pub fn scenario_edp_table(rows: &[ScenarioEdpRow]) -> Table {
    let mut t = Table::new(
        "Scenario gallery: governed vs nominal whole-loop EDP",
        &[
            "scenario",
            "energy_kJ",
            "time_s",
            "edp_kJs",
            "baseline_edp_kJs",
            "edp_ratio_%",
        ],
    );
    for r in rows {
        t.add_row(&[
            r.scenario.clone(),
            format!("{:.1}", r.energy_j / 1.0e3),
            format!("{:.1}", r.time_s),
            format!("{:.1}", r.edp() / 1.0e3),
            format!("{:.1}", r.baseline_edp() / 1.0e3),
            format!("{:.1}", r.edp_ratio() * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_table_renders_status() {
        let rows = vec![
            ScenarioValidationRow {
                scenario: "Sedov".into(),
                observable: "shock radius".into(),
                measured: 0.31,
                expected: 0.30,
                acceptance: (0.2, 0.4),
                passed: true,
            },
            ScenarioValidationRow {
                scenario: "Noh".into(),
                observable: "density ratio".into(),
                measured: 2.0,
                expected: 1.0,
                acceptance: (0.75, 1.25),
                passed: false,
            },
        ];
        let t = validation_table(&rows);
        assert_eq!(t.to_csv().lines().count() - 1, 2);
        let text = t.to_text();
        assert!(text.contains("PASS") && text.contains("FAIL"));
    }

    #[test]
    fn frequency_table_reports_megahertz() {
        let rows = vec![StageFrequencyRow {
            scenario: "KH".into(),
            stage: "MomentumEnergy".into(),
            best_frequency_hz: 1.305e9,
            observations: 12,
            converged: true,
        }];
        let t = stage_frequency_table(&rows);
        assert!(t.to_csv().contains("1305"));
    }

    #[test]
    fn edp_ratio_compares_against_baseline() {
        let row = ScenarioEdpRow {
            scenario: "Turb".into(),
            energy_j: 80.0,
            time_s: 10.0,
            baseline_energy_j: 100.0,
            baseline_time_s: 10.0,
        };
        assert!((row.edp_ratio() - 0.8).abs() < 1e-12);
        let t = scenario_edp_table(&[row]);
        assert_eq!(t.to_csv().lines().count() - 1, 1);
    }
}
