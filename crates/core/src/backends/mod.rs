//! Measurement back-ends.
//!
//! Each back-end adapts one platform power interface to the [`crate::sensor::Sensor`]
//! trait:
//!
//! | Back-end | Interface | Domains | Reading |
//! |---|---|---|---|
//! | [`rapl::RaplSensor`] | Linux `powercap` sysfs (`intel-rapl:*`) | CPU packages, DRAM | cumulative energy counter (µJ, wrapping) |
//! | [`pm_counters::CrayPmCountersSensor`] | HPE/Cray `pm_counters` sysfs | node, CPU, memory, GPU *cards* | power + cumulative energy |
//! | [`nvml::NvmlSensor`] | NVML-style API (trait-abstracted) | GPU dies | power (mW) + total energy (mJ) |
//! | [`rocm::RocmSmiSensor`] | ROCm-SMI-style API (trait-abstracted) | GPU dies | power (µW), optional energy counter |
//! | [`dummy::DummySensor`] | none | any single domain | constant/settable power |
//!
//! The NVML and ROCm back-ends talk to a small trait (`NvmlApi` / `RocmSmiApi`)
//! instead of linking vendor libraries, so the same code path runs against the
//! simulated GPUs of the `hwmodel` crate (see the `cluster` crate's adapters) or
//! against a mock in unit tests — and could be bound to the real libraries
//! without touching the sensor logic.

pub mod dummy;
pub mod nvml;
pub mod pm_counters;
pub mod rapl;
pub mod rocm;

pub use dummy::DummySensor;
pub use nvml::NvmlSensor;
pub use pm_counters::CrayPmCountersSensor;
pub use rapl::RaplSensor;
pub use rocm::RocmSmiSensor;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::sensor::Sensor;
    use std::fs;
    use std::sync::Arc;

    #[test]
    fn backend_names_are_stable() {
        let root = std::env::temp_dir().join(format!(
            "pmt-backend-names-{}-{}",
            std::process::id(),
            // sphlint::allow(float-determinism, temp-dir uniquifier; value never reaches an assertion)
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let pcap = root.join("powercap/intel-rapl:0");
        fs::create_dir_all(&pcap).unwrap();
        fs::write(pcap.join("name"), "package-0\n").unwrap();
        fs::write(pcap.join("energy_uj"), "123\n").unwrap();
        fs::write(pcap.join("max_energy_range_uj"), "262143328850\n").unwrap();
        let pm = root.join("pm_counters");
        fs::create_dir_all(&pm).unwrap();
        fs::write(pm.join("power"), "500 W 0 us\n").unwrap();
        fs::write(pm.join("energy"), "1000 J 0 us\n").unwrap();

        let sensors: Vec<Arc<dyn Sensor>> = vec![
            Arc::new(RaplSensor::discover(root.join("powercap")).unwrap()),
            Arc::new(CrayPmCountersSensor::discover(&pm).unwrap()),
            Arc::new(NvmlSensor::new(Arc::new(nvml::mock::MockNvml::new(1, true))).unwrap()),
            Arc::new(RocmSmiSensor::new(Arc::new(rocm::mock::MockRocm::new(1, true))).unwrap()),
            Arc::new(DummySensor::new(Domain::node(), 1.0)),
        ];
        let names: Vec<&str> = sensors.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["rapl", "cray_pm_counters", "nvml", "rocm_smi", "dummy"]);
        fs::remove_dir_all(&root).unwrap();
    }
}
