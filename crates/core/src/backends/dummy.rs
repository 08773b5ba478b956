//! Dummy back-end: a constant (but settable) power source.
//!
//! Useful for tests, examples and for estimating the overhead of the
//! measurement infrastructure itself (the real PMT ships the same back-end for
//! the same reason).

use crate::domain::Domain;
use crate::error::Result;
use crate::sample::DomainSample;
use crate::sensor::Sensor;
use parking_lot::Mutex;

/// A sensor reporting a settable constant power for a single domain.
#[derive(Debug)]
pub struct DummySensor {
    domain: Domain,
    power_w: Mutex<f64>,
}

impl DummySensor {
    /// Create a dummy sensor for `domain` reporting `power_w` watts.
    pub fn new(domain: Domain, power_w: f64) -> Self {
        assert!(power_w >= 0.0, "power must be non-negative");
        Self {
            domain,
            power_w: Mutex::new(power_w),
        }
    }

    /// Change the reported power.
    // sphlint::allow(dead-pub, the dummy sensor's knob that the meter and governor tests turn)
    pub fn set_power(&self, power_w: f64) {
        assert!(power_w >= 0.0, "power must be non-negative");
        *self.power_w.lock() = power_w;
    }

    /// Currently reported power.
    fn power(&self) -> f64 {
        *self.power_w.lock()
    }
}

impl Sensor for DummySensor {
    fn name(&self) -> &str {
        "dummy"
    }

    fn domains(&self) -> Vec<Domain> {
        vec![self.domain]
    }

    fn sample_into(&self, out: &mut Vec<DomainSample>) -> Result<()> {
        out.push(DomainSample::power(self.domain, self.power()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_constant_power() {
        let s = DummySensor::new(Domain::node(), 123.0);
        let samples = s.sample().unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].power_w, Some(123.0));
        assert_eq!(samples[0].energy_j, None);
    }

    #[test]
    fn power_is_settable() {
        let s = DummySensor::new(Domain::gpu(2), 100.0);
        s.set_power(250.0);
        assert_eq!(s.sample().unwrap()[0].power_w, Some(250.0));
        assert_eq!(s.domains(), vec![Domain::gpu(2)]);
    }

    #[test]
    #[should_panic]
    fn negative_power_rejected() {
        DummySensor::new(Domain::node(), -1.0);
    }
}
