//! `--compare a.jsonl b.jsonl`: the regression rule of the benchmark applied
//! to two files of record lines (the lines a run prints, collected with `>>`).
//!
//! Per workload and end-to-end metric it prints both medians and quartiles,
//! the relative difference and the bound, and a verdict: `unchanged`,
//! `better`, `worse`, or — where the run-to-run spread of either side exceeds
//! the bound and the sides overlap — `unresolved`. Exact per-layer counts of
//! the traced records must be equal.

use crate::record::{quartiles, Values};
use crate::spec::{is_exact, E2E};
use energy_aware_sim::telemetry::json::{self, Value};
use std::collections::BTreeMap;

/// Metric values per (workload, traced?) → metric → one value per record.
type Samples = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

/// The metric values of one record line.
fn record_metrics(record: &Value) -> Values {
    let entries = record.get("metrics").and_then(Value::as_object);
    entries
        .map(|m| {
            m.iter()
                .filter_map(|(name, entry)| Some((name.clone(), entry.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        // The driver's result lines carry no workload; skip them.
        let Some(workload) = record.get("workload").and_then(|w| w.as_str()) else {
            continue;
        };
        let traced = record.get("trace").and_then(|t| t.as_f64()) == Some(1.0);
        let per_metric = samples.entry((workload.to_string(), traced)).or_default();
        for (name, value) in record_metrics(&record) {
            per_metric.entry(name).or_default().push(value);
        }
    }
    Ok(samples)
}

/// Verdict on one lower-is-better metric from the two sides' samples.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> &'static str {
    let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(a), quartiles(b));
    let spread = ((a3 - a1) / a2).max((b3 - b1) / b2);
    let least = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let most = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let separated = most(b) < least(a) || most(a) < least(b);
    let diff = (b2 - a2) / a2;
    if spread > bound && !separated {
        "unresolved"
    } else if diff > bound {
        "worse"
    } else if diff < -bound {
        "better"
    } else {
        "unchanged"
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<(), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut unequal = 0;
    println!(
        "{:<24} {:<20} {:>10} {:>21} {:>10} {:>21} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "quartiles a", "median b", "quartiles b", "diff", "bound"
    );
    for ((workload, traced), metrics_a) in &a {
        let Some(metrics_b) = b.get(&(workload.clone(), *traced)) else {
            println!("{workload:<24} only in {path_a}");
            continue;
        };
        if !traced {
            for (name, _, bound) in E2E {
                let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                    continue;
                };
                let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(va), quartiles(vb));
                println!(
                    "{workload:<24} {name:<20} {a2:>10.4} {:>21} {b2:>10.4} {:>21} {:>+7.1}% {:>5.0}%  {}",
                    format!("{a1:.4}..{a3:.4}"),
                    format!("{b1:.4}..{b3:.4}"),
                    100.0 * (b2 - a2) / a2,
                    100.0 * bound,
                    verdict(va, vb, bound)
                );
            }
            continue;
        }
        for (name, va) in metrics_a.iter().filter(|(name, _)| is_exact(name)) {
            let vb = metrics_b.get(name).cloned().unwrap_or_default();
            let all: Vec<f64> = va.iter().chain(&vb).copied().collect();
            if all.iter().any(|v| v.to_bits() != all[0].to_bits()) {
                unequal += 1;
                println!("{workload:<24} {name:<20} NOT EQUAL: {va:?} vs {vb:?}");
            }
        }
    }
    println!(
        "exact per-layer counts: {}",
        if unequal == 0 {
            "all equal".to_string()
        } else {
            format!("{unequal} differ")
        }
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdict_follows_the_regression_rule() {
        let steady = [10.0, 10.1, 9.9, 10.05, 9.95];
        assert_eq!(verdict(&steady, &steady, 0.10), "unchanged");
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&steady, &slower, 0.10), "worse");
        assert_eq!(verdict(&slower, &steady, 0.10), "better");
        // A spread wider than the bound with overlapping sides resolves nothing...
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.0];
        assert_eq!(verdict(&noisy, &steady, 0.10), "unresolved");
        // ...unless every run of one side beats every run of the other.
        let far: Vec<f64> = noisy.iter().map(|v| v * 2.0).collect();
        assert_eq!(verdict(&noisy, &far, 0.10), "worse");
    }
}
