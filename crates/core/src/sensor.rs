//! The sensor abstraction.
//!
//! A [`Sensor`] is one source of power/energy readings covering one or more
//! [`Domain`]s. Back-ends (RAPL, Cray `pm_counters`, NVML, ROCm SMI, dummy)
//! implement this trait; the [`crate::meter::PowerMeter`] samples any number of
//! sensors through it. This is the "common interface to a comprehensive set of
//! back-ends" that the paper credits PMT with (§2).
//!
//! # The `sample_into` contract
//!
//! [`Sensor::sample_into`] is the one method a back-end implements to deliver
//! readings, and the meter calls it at every region boundary, so it is written
//! to cost nothing but the read itself:
//!
//! * **append, never clear** — the buffer belongs to the caller and may already
//!   hold the readings of the sensors sampled before this one; a sensor only
//!   pushes. On `Err` whatever it pushed is discarded by the caller;
//! * **no allocation of its own** in steady state — the caller keeps the buffer
//!   (and its capacity) from one poll to the next;
//! * **a stable domain order** — the same domains in the same order on every
//!   call. The meter finds a reading's accumulator by its position in the
//!   buffer and only falls back to a search when the domain at that position
//!   changed, so a sensor that shuffles its output is still measured correctly,
//!   just more slowly;
//! * **no call back into the meter** — the meter holds its state lock while it
//!   reads its sensors.

use crate::domain::Domain;
use crate::error::Result;
use crate::sample::DomainSample;
use std::sync::Arc;

/// A source of power/energy readings.
pub trait Sensor: Send + Sync {
    /// Short back-end name, e.g. `"rapl"`, `"cray_pm_counters"`, `"nvml"`.
    fn name(&self) -> &str;

    /// The measurement domains this sensor exposes. The set must be stable for
    /// the lifetime of the sensor.
    fn domains(&self) -> Vec<Domain>;

    /// Read every domain once and append the readings to `out` (see the
    /// module docs for the contract). The meter attaches timestamps from its
    /// clock.
    fn sample_into(&self, out: &mut Vec<DomainSample>) -> Result<()>;

    /// Read every domain once into a fresh vector — the convenience form of
    /// [`Sensor::sample_into`] for tests, examples and one-off reads.
    fn sample(&self) -> Result<Vec<DomainSample>> {
        let mut out = Vec::new();
        self.sample_into(&mut out)?;
        Ok(out)
    }

    /// Human-readable description for reports.
    fn description(&self) -> String {
        format!("{} ({} domains)", self.name(), self.domains().len())
    }
}

/// Blanket implementation so `Arc<S>` can be used wherever a sensor is expected.
impl<S: Sensor + ?Sized> Sensor for Arc<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn domains(&self) -> Vec<Domain> {
        (**self).domains()
    }

    fn sample_into(&self, out: &mut Vec<DomainSample>) -> Result<()> {
        (**self).sample_into(out)
    }

    fn description(&self) -> String {
        (**self).description()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::dummy::DummySensor;

    #[test]
    fn arc_sensor_delegates() {
        let s = Arc::new(DummySensor::new(Domain::node(), 100.0));
        assert_eq!(Sensor::name(&s), "dummy");
        assert_eq!(Sensor::domains(&s).len(), 1);
        assert_eq!(Sensor::sample(&s).unwrap().len(), 1);
        assert!(Sensor::description(&s).contains("dummy"));
    }

    #[test]
    fn sample_into_appends_behind_what_the_buffer_holds() {
        let first = DummySensor::new(Domain::node(), 100.0);
        let second = Arc::new(DummySensor::new(Domain::cpu(0), 40.0));
        let mut out = Vec::new();
        first.sample_into(&mut out).unwrap();
        second.sample_into(&mut out).unwrap();
        assert_eq!(
            out,
            vec![
                DomainSample::power(Domain::node(), 100.0),
                DomainSample::power(Domain::cpu(0), 40.0)
            ]
        );
    }
}
