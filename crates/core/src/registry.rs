//! Back-end registry and auto-discovery.
//!
//! On a real machine one would enumerate which power interfaces exist
//! (`/sys/class/powercap`, `/sys/cray/pm_counters`, NVML, ROCm SMI) and attach
//! a sensor for each. [`discover_sensors`] does exactly that, given a
//! [`PlatformPaths`] description plus optional GPU API handles, ignoring any
//! back-end that is unavailable — the behaviour expected of a portable
//! measurement toolkit.

use crate::backends::nvml::{NvmlApi, NvmlSensor};
use crate::backends::pm_counters::CrayPmCountersSensor;
use crate::backends::rapl::RaplSensor;
use crate::backends::rocm::{RocmSmiApi, RocmSmiSensor};
use crate::error::Result;
use crate::sensor::Sensor;
use std::path::PathBuf;
use std::sync::Arc;

/// Known back-end kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Linux powercap / Intel RAPL.
    Rapl,
    /// HPE/Cray `pm_counters`.
    CrayPmCounters,
    /// NVIDIA NVML.
    Nvml,
    /// AMD ROCm SMI.
    RocmSmi,
    /// Constant dummy source.
    Dummy,
}

impl BackendKind {
    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Rapl => "rapl",
            BackendKind::CrayPmCounters => "cray_pm_counters",
            BackendKind::Nvml => "nvml",
            BackendKind::RocmSmi => "rocm_smi",
            BackendKind::Dummy => "dummy",
        }
    }
}

/// File-system locations of the file-based power interfaces.
#[derive(Clone, Debug)]
pub struct PlatformPaths {
    /// Location of the powercap tree (`/sys/class/powercap` on real systems).
    pub powercap_root: Option<PathBuf>,
    /// Location of the Cray pm_counters tree (`/sys/cray/pm_counters`).
    pub pm_counters_root: Option<PathBuf>,
}

impl PlatformPaths {
    /// Paths of a real Linux system.
    // sphlint::allow(dead-pub, pending deletion)
    pub fn system_defaults() -> Self {
        Self {
            powercap_root: Some(PathBuf::from(crate::backends::rapl::DEFAULT_POWERCAP_ROOT)),
            pm_counters_root: Some(PathBuf::from(crate::backends::pm_counters::DEFAULT_PM_COUNTERS_ROOT)),
        }
    }

    /// No file-based interfaces.
    // sphlint::allow(dead-pub, pending deletion)
    pub fn none() -> Self {
        Self {
            powercap_root: None,
            pm_counters_root: None,
        }
    }

    /// Both trees under a common (virtual) sysfs root, as produced by
    /// `hwmodel::VirtualSysfs`.
    // sphlint::allow(dead-pub, pending deletion)
    pub fn under_virtual_root(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        Self {
            powercap_root: Some(root.join("class/powercap")),
            pm_counters_root: Some(root.join("cray/pm_counters")),
        }
    }
}

/// Result of back-end discovery.
pub struct DiscoveredSensors {
    /// Successfully constructed sensors.
    pub sensors: Vec<Arc<dyn Sensor>>,
    /// Back-ends that were probed but unavailable, with the reason.
    pub unavailable: Vec<(BackendKind, String)>,
}

impl DiscoveredSensors {
    /// Names of the available back-ends.
    pub fn names(&self) -> Vec<String> {
        self.sensors.iter().map(|s| s.name().to_string()).collect()
    }
}

/// Probe every known back-end and return whichever are available.
// sphlint::allow(dead-pub, pending deletion)
pub fn discover_sensors(
    paths: &PlatformPaths,
    nvml: Option<Arc<dyn NvmlApi>>,
    rocm: Option<Arc<dyn RocmSmiApi>>,
) -> DiscoveredSensors {
    let mut sensors: Vec<Arc<dyn Sensor>> = Vec::new();
    let mut unavailable: Vec<(BackendKind, String)> = Vec::new();

    let mut push_result = |kind: BackendKind, result: Result<Arc<dyn Sensor>>| match result {
        Ok(s) => sensors.push(s),
        Err(e) => unavailable.push((kind, e.to_string())),
    };

    let pm_result = match &paths.pm_counters_root {
        Some(root) => CrayPmCountersSensor::discover(root).map(|s| Arc::new(s) as Arc<dyn Sensor>),
        None => Err(crate::error::PmtError::unavailable(
            "cray_pm_counters",
            "no pm_counters path configured",
        )),
    };
    push_result(BackendKind::CrayPmCounters, pm_result);

    let rapl_result = match &paths.powercap_root {
        Some(root) => RaplSensor::discover(root).map(|s| Arc::new(s) as Arc<dyn Sensor>),
        None => Err(crate::error::PmtError::unavailable(
            "rapl",
            "no powercap path configured",
        )),
    };
    push_result(BackendKind::Rapl, rapl_result);

    let nvml_result = match nvml {
        Some(api) => NvmlSensor::new(api).map(|s| Arc::new(s) as Arc<dyn Sensor>),
        None => Err(crate::error::PmtError::unavailable("nvml", "no NVML handle provided")),
    };
    push_result(BackendKind::Nvml, nvml_result);

    let rocm_result = match rocm {
        Some(api) => RocmSmiSensor::new(api).map(|s| Arc::new(s) as Arc<dyn Sensor>),
        None => Err(crate::error::PmtError::unavailable(
            "rocm_smi",
            "no ROCm SMI handle provided",
        )),
    };
    push_result(BackendKind::RocmSmi, rocm_result);

    DiscoveredSensors { sensors, unavailable }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(BackendKind::Rapl.name(), "rapl");
        assert_eq!(BackendKind::CrayPmCounters.name(), "cray_pm_counters");
        assert_eq!(BackendKind::Nvml.name(), "nvml");
        assert_eq!(BackendKind::RocmSmi.name(), "rocm_smi");
        assert_eq!(BackendKind::Dummy.name(), "dummy");
    }

    #[test]
    fn discovery_with_nothing_available_reports_reasons() {
        let found = discover_sensors(&PlatformPaths::none(), None, None);
        assert!(found.sensors.is_empty());
        assert_eq!(found.unavailable.len(), 4);
    }

    #[test]
    fn discovery_finds_file_backends_under_virtual_root() {
        let root = std::env::temp_dir().join(format!(
            "pmt-registry-{}-{}",
            std::process::id(),
            // sphlint::allow(float-determinism, temp-dir uniquifier; value never reaches an assertion)
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        // Build a minimal powercap + pm_counters tree.
        let pcap = root.join("class/powercap/intel-rapl:0");
        fs::create_dir_all(&pcap).unwrap();
        fs::write(pcap.join("name"), "package-0\n").unwrap();
        fs::write(pcap.join("energy_uj"), "123\n").unwrap();
        fs::write(pcap.join("max_energy_range_uj"), "262143328850\n").unwrap();
        let pm = root.join("cray/pm_counters");
        fs::create_dir_all(&pm).unwrap();
        fs::write(pm.join("power"), "500 W 0 us\n").unwrap();
        fs::write(pm.join("energy"), "1000 J 0 us\n").unwrap();

        let found = discover_sensors(&PlatformPaths::under_virtual_root(&root), None, None);
        let names = found.names();
        assert!(names.contains(&"rapl".to_string()));
        assert!(names.contains(&"cray_pm_counters".to_string()));
        assert_eq!(found.unavailable.len(), 2); // nvml + rocm handles missing
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn system_defaults_point_at_sys() {
        let p = PlatformPaths::system_defaults();
        assert!(p.powercap_root.unwrap().starts_with("/sys"));
        assert!(p.pm_counters_root.unwrap().starts_with("/sys"));
    }
}
