//! Sample types produced by sensors.

use crate::domain::Domain;

/// One reading of one domain.
///
/// A sensor may expose instantaneous power, a cumulative energy counter, or
/// both. The meter prefers cumulative counters (exact, no sampling error) and
/// falls back to integrating power samples when no counter is available —
/// mirroring how the real PMT back-ends behave (RAPL exposes energy counters,
/// NVML primarily exposes power).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DomainSample {
    /// The domain this reading refers to.
    pub domain: Domain,
    /// Instantaneous power in watts, if the sensor provides it.
    pub power_w: Option<f64>,
    /// Cumulative energy in joules since an arbitrary sensor-specific origin,
    /// if the sensor provides it. Must be monotone non-decreasing (back-ends
    /// unwrap hardware counter wrap-around before reporting).
    pub energy_j: Option<f64>,
}

impl DomainSample {
    /// A power-only sample.
    pub fn power(domain: Domain, power_w: f64) -> Self {
        Self {
            domain,
            power_w: Some(power_w),
            energy_j: None,
        }
    }

    /// An energy-counter-only sample.
    pub fn energy(domain: Domain, energy_j: f64) -> Self {
        Self {
            domain,
            power_w: None,
            energy_j: Some(energy_j),
        }
    }

    /// A sample carrying both power and a cumulative energy counter.
    pub fn both(domain: Domain, power_w: f64, energy_j: f64) -> Self {
        Self {
            domain,
            power_w: Some(power_w),
            energy_j: Some(energy_j),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True if the sample carries no usable information.
    fn is_empty(s: &DomainSample) -> bool {
        s.power_w.is_none() && s.energy_j.is_none()
    }

    #[test]
    fn constructors_populate_expected_fields() {
        let d = Domain::gpu(0);
        let p = DomainSample::power(d, 250.0);
        assert_eq!(p.power_w, Some(250.0));
        assert_eq!(p.energy_j, None);
        let e = DomainSample::energy(d, 1.0e3);
        assert_eq!(e.power_w, None);
        assert_eq!(e.energy_j, Some(1.0e3));
        let b = DomainSample::both(d, 250.0, 1.0e3);
        assert!(!is_empty(&b));
    }

    #[test]
    fn empty_sample_detection() {
        let s = DomainSample {
            domain: Domain::node(),
            power_w: None,
            energy_j: None,
        };
        assert!(is_empty(&s));
    }
}
