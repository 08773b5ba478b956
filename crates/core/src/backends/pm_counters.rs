//! HPE/Cray `pm_counters` back-end.
//!
//! HPE/Cray EX nodes (LUMI-G, the CSCS Alps A100 partition) expose out-of-band
//! power telemetry through `/sys/cray/pm_counters/`:
//!
//! | File | Content |
//! |---|---|
//! | `power`, `energy` | whole node |
//! | `cpu_power`, `cpu_energy` | CPU package(s) |
//! | `memory_power`, `memory_energy` | DRAM (not present on every platform) |
//! | `accelN_power`, `accelN_energy` | GPU **card** `N` (two GCDs on MI250X) |
//!
//! Values are formatted as `"<value> W <timestamp> us"` (or `J`). This is the
//! same source Slurm's `pm_counters` energy-gathering plugin uses — which is why
//! the paper can compare PMT against Slurm on these systems, and why the GPU
//! granularity is *cards*, creating the two-GCDs-per-measurement quirk of §2.

use crate::domain::Domain;
use crate::error::{PmtError, Result};
use crate::sample::DomainSample;
use crate::sensor::Sensor;
use std::fs;
use std::path::{Path, PathBuf};

/// One parsed `pm_counters` value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmCounterValue {
    /// Numeric value in the unit given by the file (W or J).
    pub value: f64,
    /// Controller timestamp in microseconds.
    pub timestamp_us: u64,
}

/// Parse the `"<value> <unit> <timestamp> us"` format of a `pm_counters` file.
pub fn parse_pm_counter(content: &str, expected_unit: &str) -> Result<PmCounterValue> {
    let parts: Vec<&str> = content.split_whitespace().collect();
    if parts.len() < 2 {
        return Err(PmtError::parse("pm_counters value", content));
    }
    let value: f64 = parts[0]
        .parse()
        .ok()
        .filter(|v: &f64| v.is_finite())
        .ok_or_else(|| PmtError::parse("pm_counters numeric value", content))?;
    if parts[1] != expected_unit {
        return Err(PmtError::parse(
            format!("pm_counters unit (expected {expected_unit})"),
            content,
        ));
    }
    let timestamp_us = if parts.len() >= 4 && parts[3] == "us" {
        parts[2].parse().unwrap_or(0)
    } else {
        0
    };
    Ok(PmCounterValue { value, timestamp_us })
}

#[derive(Debug, Clone)]
struct CounterPair {
    domain: Domain,
    power_file: Option<PathBuf>,
    energy_file: Option<PathBuf>,
}

/// Sensor reading the HPE/Cray `pm_counters` sysfs tree.
pub struct CrayPmCountersSensor {
    root: PathBuf,
    counters: Vec<CounterPair>,
}

impl CrayPmCountersSensor {
    /// Discover the counters available under `root`
    /// (e.g. `/sys/cray/pm_counters`).
    // sphlint::allow(dead-pub, built by file_based_backends_read_the_virtual_sysfs_of_a_running_node, tests/end_to_end_measurement.rs)
    pub fn discover(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        if !root.is_dir() {
            return Err(PmtError::unavailable(
                "cray_pm_counters",
                format!("{} is not a directory", root.display()),
            ));
        }
        let mut counters = Vec::new();
        let push_pair = |domain: Domain, power: &str, energy: &str, counters: &mut Vec<CounterPair>| {
            let power_file = root.join(power);
            let energy_file = root.join(energy);
            let power_file = power_file.exists().then_some(power_file);
            let energy_file = energy_file.exists().then_some(energy_file);
            if power_file.is_some() || energy_file.is_some() {
                counters.push(CounterPair {
                    domain,
                    power_file,
                    energy_file,
                });
            }
        };

        push_pair(Domain::node(), "power", "energy", &mut counters);
        push_pair(Domain::cpu(0), "cpu_power", "cpu_energy", &mut counters);
        push_pair(Domain::memory(), "memory_power", "memory_energy", &mut counters);
        // Accelerator counters: accel0.. until the first missing index.
        for card in 0..64u32 {
            let power = format!("accel{card}_power");
            let energy = format!("accel{card}_energy");
            if !root.join(&power).exists() && !root.join(&energy).exists() {
                break;
            }
            push_pair(Domain::gpu_card(card), &power, &energy, &mut counters);
        }

        if counters.is_empty() {
            return Err(PmtError::unavailable(
                "cray_pm_counters",
                format!("no pm_counters files under {}", root.display()),
            ));
        }
        Ok(Self { root, counters })
    }

    /// Root directory this sensor reads from.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of GPU cards exposed by this node.
    pub fn gpu_cards(&self) -> usize {
        self.counters
            .iter()
            .filter(|c| c.domain.kind == crate::domain::DomainKind::GpuCard)
            .count()
    }

    fn read_value(path: &Path, unit: &str) -> Result<f64> {
        let content = fs::read_to_string(path).map_err(|e| PmtError::io(path, e))?;
        Ok(parse_pm_counter(&content, unit)?.value)
    }
}

impl Sensor for CrayPmCountersSensor {
    fn name(&self) -> &str {
        "cray_pm_counters"
    }

    fn domains(&self) -> Vec<Domain> {
        self.counters.iter().map(|c| c.domain).collect()
    }

    fn sample_into(&self, out: &mut Vec<DomainSample>) -> Result<()> {
        for c in &self.counters {
            let power_w = match &c.power_file {
                Some(p) => Some(Self::read_value(p, "W")?),
                None => None,
            };
            let energy_j = match &c.energy_file {
                Some(p) => Some(Self::read_value(p, "J")?),
                None => None,
            };
            out.push(DomainSample {
                domain: c.domain,
                power_w,
                energy_j,
            });
        }
        Ok(())
    }

    fn description(&self) -> String {
        format!(
            "cray_pm_counters at {} ({} domains, {} GPU cards)",
            self.root.display(),
            self.counters.len(),
            self.gpu_cards()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainKind;
    use std::fs;

    fn make_tree(tag: &str, cards: u32, with_memory: bool) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pmt-pmc-{tag}-{}-{}",
            std::process::id(),
            // sphlint::allow(float-determinism, temp-dir uniquifier; value never reaches an assertion)
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("power"), "1667 W 1600000000 us\n").unwrap();
        fs::write(dir.join("energy"), "8231076 J 1600000000 us\n").unwrap();
        fs::write(dir.join("cpu_power"), "142 W 1600000000 us\n").unwrap();
        fs::write(dir.join("cpu_energy"), "523412 J 1600000000 us\n").unwrap();
        if with_memory {
            fs::write(dir.join("memory_power"), "54 W 1600000000 us\n").unwrap();
            fs::write(dir.join("memory_energy"), "204112 J 1600000000 us\n").unwrap();
        }
        for c in 0..cards {
            fs::write(
                dir.join(format!("accel{c}_power")),
                format!("{} W 1600000000 us\n", 300 + c),
            )
            .unwrap();
            fs::write(
                dir.join(format!("accel{c}_energy")),
                format!("{} J 1600000000 us\n", 100000 * (c + 1)),
            )
            .unwrap();
        }
        dir
    }

    #[test]
    fn parses_value_unit_timestamp() {
        let v = parse_pm_counter("1667 W 1600000000 us\n", "W").unwrap();
        assert_eq!(v.value, 1667.0);
        assert_eq!(v.timestamp_us, 1_600_000_000);
    }

    #[test]
    fn parse_rejects_wrong_unit_and_garbage() {
        assert!(parse_pm_counter("1667 W 0 us", "J").is_err());
        assert!(parse_pm_counter("", "W").is_err());
        assert!(parse_pm_counter("abc W 0 us", "W").is_err());
    }

    #[test]
    fn parse_rejects_non_finite_values() {
        for content in ["nan W 0 us", "NaN W", "inf J 0 us", "-inf J", "infinity W 0 us"] {
            let unit = if content.contains(" W") { "W" } else { "J" };
            assert!(
                matches!(parse_pm_counter(content, unit), Err(PmtError::Parse { .. })),
                "{content:?} was accepted"
            );
        }
        // A sensor that reads one fails the poll instead of folding it.
        let dir = make_tree("nonfinite", 1, false);
        let s = CrayPmCountersSensor::discover(&dir).unwrap();
        fs::write(dir.join("energy"), "inf J 1600000000 us\n").unwrap();
        assert!(matches!(s.sample(), Err(PmtError::Parse { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_tolerates_missing_timestamp() {
        let v = parse_pm_counter("250 W", "W").unwrap();
        assert_eq!(v.value, 250.0);
        assert_eq!(v.timestamp_us, 0);
    }

    #[test]
    fn discovers_lumi_like_tree() {
        let dir = make_tree("lumi", 4, true);
        let s = CrayPmCountersSensor::discover(&dir).unwrap();
        let domains = s.domains();
        assert!(domains.contains(&Domain::node()));
        assert!(domains.contains(&Domain::cpu(0)));
        assert!(domains.contains(&Domain::memory()));
        assert_eq!(s.gpu_cards(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discovers_tree_without_memory_sensor() {
        let dir = make_tree("nomem", 4, false);
        let s = CrayPmCountersSensor::discover(&dir).unwrap();
        assert!(!s.domains().contains(&Domain::memory()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn samples_report_power_and_energy() {
        let dir = make_tree("sample", 2, true);
        let s = CrayPmCountersSensor::discover(&dir).unwrap();
        let samples = s.sample().unwrap();
        let node = samples.iter().find(|x| x.domain == Domain::node()).unwrap();
        assert_eq!(node.power_w, Some(1667.0));
        assert_eq!(node.energy_j, Some(8_231_076.0));
        let card1 = samples.iter().find(|x| x.domain == Domain::gpu_card(1)).unwrap();
        assert_eq!(card1.power_w, Some(301.0));
        assert_eq!(card1.energy_j, Some(200_000.0));
        assert!(samples.iter().all(|x| x.domain.kind != DomainKind::Gpu));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_root_is_unavailable() {
        let err = CrayPmCountersSensor::discover("/nonexistent/pm_counters").err().unwrap();
        assert!(matches!(err, PmtError::BackendUnavailable { .. }));
    }

    #[test]
    fn accel_enumeration_stops_at_gap() {
        let dir = make_tree("gap", 2, false);
        // accel5 exists but accel2..4 do not -> enumeration must stop at 2 cards.
        fs::write(dir.join("accel5_power"), "300 W 0 us\n").unwrap();
        let s = CrayPmCountersSensor::discover(&dir).unwrap();
        assert_eq!(s.gpu_cards(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
