//! Unit helpers and human-readable formatting for energy and time.
//!
//! Internally the toolkit works in SI base units (`f64` joules, watts and
//! seconds). This module provides the conversions from the units sensors
//! report in and the formatting used in reports.

/// Microjoules per joule (RAPL counters are in µJ).
const UJ_PER_J: f64 = 1.0e6;
/// Millijoules per joule (NVML total-energy counters are in mJ).
const MJ_MILLI_PER_J: f64 = 1.0e3;

/// Convert microjoules (RAPL) to joules.
pub(crate) fn microjoules_to_joules(uj: f64) -> f64 {
    uj / UJ_PER_J
}

/// Convert millijoules (NVML) to joules.
pub(crate) fn millijoules_to_joules(mj: f64) -> f64 {
    mj / MJ_MILLI_PER_J
}

/// Convert milliwatts (NVML power readings) to watts.
pub(crate) fn milliwatts_to_watts(mw: f64) -> f64 {
    mw / 1.0e3
}

/// Convert microwatts (ROCm SMI power readings) to watts.
pub(crate) fn microwatts_to_watts(uw: f64) -> f64 {
    uw / 1.0e6
}

/// Format an energy with an automatically chosen unit (mJ, J, kJ, MJ, GJ).
pub fn format_energy(joules: f64) -> String {
    let abs = joules.abs();
    if abs >= 1.0e9 {
        format!("{:.2} GJ", joules / 1.0e9)
    } else if abs >= 1.0e6 {
        format!("{:.2} MJ", joules / 1.0e6)
    } else if abs >= 1.0e3 {
        format!("{:.2} kJ", joules / 1.0e3)
    } else if abs >= 1.0 {
        format!("{:.2} J", joules)
    } else {
        format!("{:.2} mJ", joules * 1.0e3)
    }
}

/// Format a duration with an automatically chosen unit (µs, ms, s, min, h).
pub fn format_duration(seconds: f64) -> String {
    if seconds >= 3600.0 {
        format!("{:.2} h", seconds / 3600.0)
    } else if seconds >= 60.0 {
        format!("{:.2} min", seconds / 60.0)
    } else if seconds >= 1.0 {
        format!("{:.2} s", seconds)
    } else if seconds >= 1.0e-3 {
        format!("{:.2} ms", seconds * 1.0e3)
    } else {
        format!("{:.2} µs", seconds * 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensor_unit_conversions() {
        assert!((microjoules_to_joules(1.0e6) - 1.0).abs() < 1e-12);
        assert!((millijoules_to_joules(1.0e3) - 1.0).abs() < 1e-12);
        assert!((milliwatts_to_watts(250_000.0) - 250.0).abs() < 1e-12);
        assert!((microwatts_to_watts(250_000_000.0) - 250.0).abs() < 1e-12);
    }

    #[test]
    fn energy_formatting_picks_units() {
        assert_eq!(format_energy(0.002), "2.00 mJ");
        assert_eq!(format_energy(12.0), "12.00 J");
        assert_eq!(format_energy(12_000.0), "12.00 kJ");
        assert_eq!(format_energy(24.4e6), "24.40 MJ");
        assert_eq!(format_energy(2.0e9), "2.00 GJ");
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(format_duration(8.0e-6), "8.00 µs");
        assert_eq!(format_duration(0.5), "500.00 ms");
        assert_eq!(format_duration(30.0), "30.00 s");
        assert_eq!(format_duration(90.0), "1.50 min");
        assert_eq!(format_duration(7200.0), "2.00 h");
    }
}
