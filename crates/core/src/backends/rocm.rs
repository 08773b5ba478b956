//! ROCm-SMI-style back-end for AMD GPUs.
//!
//! Like the NVML back-end, the sensor is written against a small trait
//! ([`RocmSmiApi`]) so the same code measures the simulated MI250X GCDs of the
//! `hwmodel` crate, an in-memory mock in tests, or (with a thin binding) the
//! real `rocm_smi_lib`.
//!
//! ROCm SMI reports average socket power in **microwatts**
//! (`rsmi_dev_power_ave_get`) and a cumulative energy counter with a
//! per-device resolution factor (`rsmi_dev_energy_count_get`). One device
//! corresponds to one GCD, i.e. half an MI250X card.

use crate::domain::Domain;
use crate::error::{PmtError, Result};
use crate::sample::DomainSample;
use crate::sensor::Sensor;
use crate::units::microwatts_to_watts;
use std::sync::Arc;

/// Minimal ROCm-SMI-like device query interface.
pub trait RocmSmiApi: Send + Sync {
    /// Number of GPU devices (GCDs) visible to the process.
    fn device_count(&self) -> u32;

    /// Average power of device `index` in microwatts.
    fn power_ave_uw(&self, index: u32) -> Result<u64>;

    /// Cumulative energy counter of device `index`, already converted to
    /// microjoules (the real API returns a raw counter and a resolution; the
    /// binding applies the resolution). Returns an error when unsupported.
    fn energy_count_uj(&self, index: u32) -> Result<u64>;
}

/// Sensor exposing one domain per visible AMD GPU die (GCD).
pub struct RocmSmiSensor {
    api: Arc<dyn RocmSmiApi>,
    has_energy_counter: bool,
}

impl RocmSmiSensor {
    /// Create a sensor over a ROCm-SMI-like API. Fails if no device is visible.
    pub fn new(api: Arc<dyn RocmSmiApi>) -> Result<Self> {
        if api.device_count() == 0 {
            return Err(PmtError::unavailable("rocm_smi", "no AMD GPU visible"));
        }
        let has_energy_counter = api.energy_count_uj(0).is_ok();
        Ok(Self {
            api,
            has_energy_counter,
        })
    }

    /// Whether the devices expose the cumulative energy counter.
    pub fn has_energy_counter(&self) -> bool {
        self.has_energy_counter
    }
}

impl Sensor for RocmSmiSensor {
    fn name(&self) -> &str {
        "rocm_smi"
    }

    fn domains(&self) -> Vec<Domain> {
        (0..self.api.device_count()).map(Domain::gpu).collect()
    }

    fn sample_into(&self, out: &mut Vec<DomainSample>) -> Result<()> {
        for i in 0..self.api.device_count() {
            let power_w = microwatts_to_watts(self.api.power_ave_uw(i)? as f64);
            let energy_j = if self.has_energy_counter {
                Some(self.api.energy_count_uj(i)? as f64 / 1.0e6)
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
            "rocm_smi ({} GCDs, energy counter: {})",
            self.api.device_count(),
            self.has_energy_counter
        )
    }
}

#[cfg(test)]
pub(crate) mod mock {
    use super::*;
    use parking_lot::Mutex;

    /// In-memory ROCm SMI mock for unit tests.
    pub struct MockRocm {
        pub power_uw: Mutex<Vec<u64>>,
        pub energy_uj: Mutex<Vec<u64>>,
        pub energy_supported: bool,
    }

    impl MockRocm {
        pub fn new(count: usize, energy_supported: bool) -> Self {
            Self {
                power_uw: Mutex::new(vec![90_000_000; count]),
                energy_uj: Mutex::new(vec![0; count]),
                energy_supported,
            }
        }
    }

    impl RocmSmiApi for MockRocm {
        fn device_count(&self) -> u32 {
            self.power_uw.lock().len() as u32
        }

        fn power_ave_uw(&self, index: u32) -> Result<u64> {
            self.power_uw
                .lock()
                .get(index as usize)
                .copied()
                .ok_or_else(|| PmtError::UnknownDomain(format!("gpu{index}")))
        }

        fn energy_count_uj(&self, index: u32) -> Result<u64> {
            if !self.energy_supported {
                return Err(PmtError::unavailable("rocm_smi", "no energy counter"));
            }
            self.energy_uj
                .lock()
                .get(index as usize)
                .copied()
                .ok_or_else(|| PmtError::UnknownDomain(format!("gpu{index}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mock::MockRocm;
    use super::*;

    #[test]
    fn one_domain_per_gcd() {
        let s = RocmSmiSensor::new(Arc::new(MockRocm::new(8, true))).unwrap();
        assert_eq!(s.domains().len(), 8);
        assert!(s.has_energy_counter());
    }

    #[test]
    fn converts_microwatts() {
        let api = Arc::new(MockRocm::new(1, true));
        *api.power_uw.lock() = vec![280_000_000];
        *api.energy_uj.lock() = vec![5_000_000];
        let s = RocmSmiSensor::new(api).unwrap();
        let samples = s.sample().unwrap();
        assert!((samples[0].power_w.unwrap() - 280.0).abs() < 1e-12);
        assert!((samples[0].energy_j.unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn power_only_mode() {
        let s = RocmSmiSensor::new(Arc::new(MockRocm::new(2, false))).unwrap();
        assert!(!s.has_energy_counter());
        assert!(s.sample().unwrap().iter().all(|x| x.energy_j.is_none()));
    }

    #[test]
    fn zero_devices_is_unavailable() {
        assert!(RocmSmiSensor::new(Arc::new(MockRocm::new(0, true))).is_err());
    }
}
