//! NVML-style back-end for NVIDIA GPUs.
//!
//! The sensor logic is written against the small [`NvmlApi`] trait rather than
//! the `libnvidia-ml` C library, so that:
//!
//! * the simulated A100s of the `hwmodel` crate can be measured through exactly
//!   the same code path (the `cluster` crate provides the adapter);
//! * unit tests can use an in-memory mock;
//! * a binding to the real library only needs to implement three methods.
//!
//! NVML reports power in **milliwatts** (`nvmlDeviceGetPowerUsage`) and, on
//! Volta and newer, a cumulative energy counter in **millijoules**
//! (`nvmlDeviceGetTotalEnergyConsumption`); the sensor converts both to SI.

use crate::domain::Domain;
use crate::error::{PmtError, Result};
use crate::sample::DomainSample;
use crate::sensor::Sensor;
use crate::units::{millijoules_to_joules, milliwatts_to_watts};
use std::sync::Arc;

/// Minimal NVML-like device query interface.
pub trait NvmlApi: Send + Sync {
    /// Number of GPUs visible to the process.
    fn device_count(&self) -> u32;

    /// Current board power draw of device `index`, in milliwatts.
    fn power_usage_mw(&self, index: u32) -> Result<u64>;

    /// Cumulative energy consumption of device `index` since driver load, in
    /// millijoules. Returns an error on GPUs without the counter.
    fn total_energy_consumption_mj(&self, index: u32) -> Result<u64>;
}

/// Sensor exposing one domain per visible NVIDIA GPU die.
pub struct NvmlSensor {
    api: Arc<dyn NvmlApi>,
    /// Whether the energy counter is available (probed at construction).
    has_energy_counter: bool,
}

impl NvmlSensor {
    /// Create a sensor over an NVML-like API. Fails if no device is visible.
    pub fn new(api: Arc<dyn NvmlApi>) -> Result<Self> {
        let count = api.device_count();
        if count == 0 {
            return Err(PmtError::unavailable("nvml", "no NVIDIA GPU visible"));
        }
        let has_energy_counter = api.total_energy_consumption_mj(0).is_ok();
        Ok(Self {
            api,
            has_energy_counter,
        })
    }
}

impl Sensor for NvmlSensor {
    fn name(&self) -> &str {
        "nvml"
    }

    fn domains(&self) -> Vec<Domain> {
        (0..self.api.device_count()).map(Domain::gpu).collect()
    }

    fn sample_into(&self, out: &mut Vec<DomainSample>) -> Result<()> {
        for i in 0..self.api.device_count() {
            let power_w = milliwatts_to_watts(self.api.power_usage_mw(i)? as f64);
            let energy_j = if self.has_energy_counter {
                Some(millijoules_to_joules(self.api.total_energy_consumption_mj(i)? as f64))
            } else {
                None
            };
            out.push(DomainSample {
                domain: Domain::gpu(i),
                power_w: Some(power_w),
                energy_j,
            });
        }
        Ok(())
    }

    fn description(&self) -> String {
        format!(
            "nvml ({} GPUs, energy counter: {})",
            self.api.device_count(),
            self.has_energy_counter
        )
    }
}

#[cfg(test)]
pub(crate) mod mock {
    use super::*;
    use parking_lot::Mutex;

    /// In-memory NVML mock for unit tests.
    pub struct MockNvml {
        pub power_mw: Mutex<Vec<u64>>,
        pub energy_mj: Mutex<Vec<u64>>,
        pub energy_supported: bool,
    }

    impl MockNvml {
        pub fn new(count: usize, energy_supported: bool) -> Self {
            Self {
                power_mw: Mutex::new(vec![60_000; count]),
                energy_mj: Mutex::new(vec![0; count]),
                energy_supported,
            }
        }
    }

    impl NvmlApi for MockNvml {
        fn device_count(&self) -> u32 {
            self.power_mw.lock().len() as u32
        }

        fn power_usage_mw(&self, index: u32) -> Result<u64> {
            self.power_mw
                .lock()
                .get(index as usize)
                .copied()
                .ok_or_else(|| PmtError::UnknownDomain(format!("gpu{index}")))
        }

        fn total_energy_consumption_mj(&self, index: u32) -> Result<u64> {
            if !self.energy_supported {
                return Err(PmtError::unavailable("nvml", "energy counter not supported"));
            }
            self.energy_mj
                .lock()
                .get(index as usize)
                .copied()
                .ok_or_else(|| PmtError::UnknownDomain(format!("gpu{index}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mock::MockNvml;
    use super::*;

    #[test]
    fn exposes_one_domain_per_gpu() {
        let s = NvmlSensor::new(Arc::new(MockNvml::new(4, true))).unwrap();
        assert_eq!(
            s.domains(),
            vec![Domain::gpu(0), Domain::gpu(1), Domain::gpu(2), Domain::gpu(3)]
        );
        assert!(s.has_energy_counter);
    }

    #[test]
    fn converts_units() {
        let api = Arc::new(MockNvml::new(1, true));
        *api.power_mw.lock() = vec![250_000];
        *api.energy_mj.lock() = vec![3_600_000];
        let s = NvmlSensor::new(api).unwrap();
        let samples = s.sample().unwrap();
        assert!((samples[0].power_w.unwrap() - 250.0).abs() < 1e-12);
        assert!((samples[0].energy_j.unwrap() - 3600.0).abs() < 1e-12);
    }

    #[test]
    fn works_without_energy_counter() {
        let s = NvmlSensor::new(Arc::new(MockNvml::new(2, false))).unwrap();
        assert!(!s.has_energy_counter);
        let samples = s.sample().unwrap();
        assert!(samples.iter().all(|x| x.energy_j.is_none()));
        assert!(samples.iter().all(|x| x.power_w.is_some()));
    }

    #[test]
    fn zero_gpus_is_unavailable() {
        let err = NvmlSensor::new(Arc::new(MockNvml::new(0, true))).err().unwrap();
        assert!(matches!(err, PmtError::BackendUnavailable { .. }));
    }
}
