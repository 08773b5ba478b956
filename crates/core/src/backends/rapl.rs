//! Intel RAPL back-end (Linux `powercap` framework).
//!
//! RAPL exposes cumulative energy counters per package domain under
//! `/sys/class/powercap/intel-rapl:<pkg>/energy_uj`, with optional sub-domains
//! such as `intel-rapl:<pkg>:0` named `dram`. Counters are in microjoules and
//! wrap around at `max_energy_range_uj`; this back-end unwraps them so that the
//! meter always sees a monotone counter.
//!
//! The back-end works against any directory with that layout — the real
//! `/sys/class/powercap` on a Linux machine, or the virtual tree produced by
//! `hwmodel::VirtualSysfs` in the simulated experiments.

use crate::domain::{Domain, DomainKind};
use crate::error::{PmtError, Result};
use crate::sample::DomainSample;
use crate::sensor::Sensor;
use crate::units::microjoules_to_joules;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone)]
struct RaplDomain {
    domain: Domain,
    energy_file: PathBuf,
    max_range_uj: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct UnwrapState {
    last_raw_uj: u64,
    wraps: u64,
    initialised: bool,
}

/// Sensor reading the Linux powercap (`intel-rapl`) energy counters.
pub struct RaplSensor {
    domains: Vec<RaplDomain>,
    unwrap: Mutex<BTreeMap<Domain, UnwrapState>>,
}

impl RaplSensor {
    /// Discover RAPL domains under `root` (e.g. `/sys/class/powercap`).
    ///
    /// Fails with [`PmtError::BackendUnavailable`] if no `intel-rapl:*` domain
    /// with an `energy_uj` file is found.
    // sphlint::allow(dead-pub, built by file_based_backends_read_the_virtual_sysfs_of_a_running_node, tests/end_to_end_measurement.rs)
    pub fn discover(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref();
        let entries = fs::read_dir(root).map_err(|e| PmtError::io(root, e))?;
        let mut domains = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| PmtError::io(root, e))?;
            let dir_name = entry.file_name().to_string_lossy().to_string();
            if !dir_name.starts_with("intel-rapl:") {
                continue;
            }
            let dir = entry.path();
            let energy_file = dir.join("energy_uj");
            if !energy_file.exists() {
                continue;
            }
            let name = fs::read_to_string(dir.join("name"))
                .map_err(|e| PmtError::io(dir.join("name"), e))?
                .trim()
                .to_string();
            let max_range_uj: u64 = fs::read_to_string(dir.join("max_energy_range_uj"))
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(u64::MAX);
            let domain = if let Some(pkg) = name.strip_prefix("package-") {
                let index: u32 = pkg.parse().map_err(|_| PmtError::parse("RAPL package name", name.clone()))?;
                Domain::cpu(index)
            } else if name == "dram" {
                Domain::memory()
            } else if name == "psys" {
                Domain::node()
            } else {
                // core/uncore sub-domains are subsumed by the package counter.
                continue;
            };
            domains.push(RaplDomain {
                domain,
                energy_file,
                max_range_uj,
            });
        }
        if domains.is_empty() {
            return Err(PmtError::unavailable(
                "rapl",
                format!("no intel-rapl domains with energy_uj under {}", root.display()),
            ));
        }
        domains.sort_by_key(|d| d.domain);
        Ok(Self {
            domains,
            unwrap: Mutex::new(BTreeMap::new()),
        })
    }

    fn read_raw_uj(path: &Path) -> Result<u64> {
        let content = fs::read_to_string(path).map_err(|e| PmtError::io(path, e))?;
        content.trim().parse().map_err(|_| PmtError::parse("energy_uj", content))
    }
}

impl Sensor for RaplSensor {
    fn name(&self) -> &str {
        "rapl"
    }

    fn domains(&self) -> Vec<Domain> {
        self.domains.iter().map(|d| d.domain).collect()
    }

    fn sample_into(&self, out: &mut Vec<DomainSample>) -> Result<()> {
        let mut unwrap = self.unwrap.lock();
        for d in &self.domains {
            let raw = Self::read_raw_uj(&d.energy_file)?;
            let state = unwrap.entry(d.domain).or_default();
            if state.initialised && raw < state.last_raw_uj {
                // The hardware counter wrapped around since the last reading.
                state.wraps += 1;
            }
            state.last_raw_uj = raw;
            state.initialised = true;
            let unwrapped_uj = raw as f64 + state.wraps as f64 * d.max_range_uj as f64;
            out.push(DomainSample::energy(d.domain, microjoules_to_joules(unwrapped_uj)));
        }
        Ok(())
    }

    fn description(&self) -> String {
        let cpus = self.domains.iter().filter(|d| d.domain.kind == DomainKind::Cpu).count();
        let has_dram = self.domains.iter().any(|d| d.domain.kind == DomainKind::Memory);
        format!("rapl ({cpus} package(s), dram: {has_dram})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn make_tree(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pmt-rapl-{tag}-{}-{}",
            std::process::id(),
            // sphlint::allow(float-determinism, temp-dir uniquifier; value never reaches an assertion)
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let pkg0 = dir.join("intel-rapl:0");
        let dram = dir.join("intel-rapl:0:0");
        let pkg1 = dir.join("intel-rapl:1");
        for d in [&pkg0, &dram, &pkg1] {
            fs::create_dir_all(d).unwrap();
            fs::write(d.join("max_energy_range_uj"), "262143328850\n").unwrap();
        }
        fs::write(pkg0.join("name"), "package-0\n").unwrap();
        fs::write(pkg1.join("name"), "package-1\n").unwrap();
        fs::write(dram.join("name"), "dram\n").unwrap();
        fs::write(pkg0.join("energy_uj"), "1000000\n").unwrap();
        fs::write(pkg1.join("energy_uj"), "2000000\n").unwrap();
        fs::write(dram.join("energy_uj"), "500000\n").unwrap();
        dir
    }

    #[test]
    fn discovers_packages_and_dram() {
        let dir = make_tree("discover");
        let sensor = RaplSensor::discover(&dir).unwrap();
        let domains = sensor.domains();
        assert!(domains.contains(&Domain::cpu(0)));
        assert!(domains.contains(&Domain::cpu(1)));
        assert!(domains.contains(&Domain::memory()));
        assert_eq!(domains.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn samples_convert_uj_to_joules() {
        let dir = make_tree("units");
        let sensor = RaplSensor::discover(&dir).unwrap();
        let samples = sensor.sample().unwrap();
        let pkg0 = samples.iter().find(|s| s.domain == Domain::cpu(0)).unwrap();
        assert!((pkg0.energy_j.unwrap() - 1.0).abs() < 1e-12);
        assert!(pkg0.power_w.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwraps_counter_overflow() {
        let dir = make_tree("wrap");
        let sensor = RaplSensor::discover(&dir).unwrap();
        let _ = sensor.sample().unwrap();
        // Simulate a wrap: counter goes down.
        fs::write(dir.join("intel-rapl:0/energy_uj"), "400000\n").unwrap();
        let samples = sensor.sample().unwrap();
        let pkg0 = samples.iter().find(|s| s.domain == Domain::cpu(0)).unwrap();
        // 0.4 J + one full wrap (262143.328850 J) > first reading of 1 J.
        assert!(pkg0.energy_j.unwrap() > 262143.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_tree_reports_unavailable() {
        let err = RaplSensor::discover("/nonexistent/powercap").err().unwrap();
        assert!(matches!(err, PmtError::Io { .. }));
        let empty = std::env::temp_dir().join(format!("pmt-rapl-empty-{}", std::process::id()));
        fs::create_dir_all(&empty).unwrap();
        let err = RaplSensor::discover(&empty).err().unwrap();
        assert!(matches!(err, PmtError::BackendUnavailable { .. }));
        fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn garbage_counter_is_a_parse_error() {
        let dir = make_tree("garbage");
        fs::write(dir.join("intel-rapl:0/energy_uj"), "not-a-number\n").unwrap();
        let sensor = RaplSensor::discover(&dir).unwrap();
        assert!(matches!(sensor.sample(), Err(PmtError::Parse { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }
}
