//! What a child process reports to the parent, its JSON form, and the
//! `/proc` readers and order statistics both sides share.

use energy_aware_sim::telemetry::event::{escape_json, format_f64};
use energy_aware_sim::telemetry::json::{self, Value};
use std::collections::BTreeMap;

/// Named numbers: metric values and counts.
pub type Values = BTreeMap<String, f64>;

/// One correctness check, run after the timed interval.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// One child's result: end-to-end values, per-layer values (traced children),
/// `steps`/`failed_steps`, the checks, and the child's part of the manifest.
#[derive(Default)]
pub struct Report {
    pub values: Values,
    pub checks: Vec<Check>,
    pub manifest: BTreeMap<String, String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Set the per-layer metric `layer.name`.
    pub fn layer(&mut self, layer: &str, name: &str, value: f64) {
        self.set(&crate::spec::key(layer, name), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.manifest.insert(key.to_string(), value.to_string());
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn failed_checks(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"values\":{},\"checks\":{},\"manifest\":{}}}",
            values_json(&self.values),
            checks_json(&self.checks),
            strings_json(&self.manifest)
        )
    }

    pub fn from_json(line: &str) -> Result<Self, String> {
        let doc = json::parse(line).map_err(|e| e.to_string())?;
        let member = |key: &str| doc.get(key).ok_or_else(|| format!("child report lacks {key:?}"));
        let values = numbers(member("values")?);
        let manifest = member("manifest")?
            .as_object()
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect()
            })
            .unwrap_or_default();
        let checks = member("checks")?
            .as_array()
            .unwrap_or_default()
            .iter()
            .map(|c| Check {
                name: c.get("name").and_then(Value::as_str).unwrap_or_default().to_string(),
                ok: c.get("ok") == Some(&Value::Bool(true)),
                detail: c.get("detail").and_then(Value::as_str).unwrap_or_default().to_string(),
            })
            .collect();
        Ok(Self {
            values,
            checks,
            manifest,
        })
    }
}

/// The numeric members of a JSON object.
fn numbers(object: &Value) -> Values {
    object
        .as_object()
        .map(|m| m.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect())
        .unwrap_or_default()
}

pub fn quoted(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

fn values_json(values: &Values) -> String {
    let members: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("{}:{}", quoted(k), format_f64(*v)))
        .collect();
    format!("{{{}}}", members.join(","))
}

pub fn strings_json(map: &BTreeMap<String, String>) -> String {
    let members: Vec<String> = map.iter().map(|(k, v)| format!("{}:{}", quoted(k), quoted(v))).collect();
    format!("{{{}}}", members.join(","))
}

pub fn checks_json(checks: &[Check]) -> String {
    let items: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                quoted(&c.name),
                c.ok,
                quoted(&c.detail)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// User + system CPU seconds of this process, all threads (exited ones
/// included), from `/proc/self/stat`; 0 where there is no procfs.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 (utime, stime) in USER_HZ = 100 ticks per second; the
    // command name in field 2 may contain spaces, so count from its ')'.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them; a single value is all
/// three.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return [sorted.first().copied().unwrap_or(0.0); 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn report_survives_its_json_form() {
        let mut report = Report::default();
        report.set("setup_s", 0.512345678);
        report.note("seed", 7);
        report.check("finite", true, "all \"fields\" finite".to_string());
        report.check("energy_drift", false, "0.7 > 0.3".to_string());
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.get("setup_s"), 0.512345678);
        assert_eq!(back.manifest["seed"], "7");
        assert_eq!(back.failed_checks(), 1);
        assert_eq!(back.checks[0].detail, "all \"fields\" finite");
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
