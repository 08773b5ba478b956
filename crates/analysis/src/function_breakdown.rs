//! Per-function, per-device energy breakdown (Figure 3).
//!
//! For every instrumented function (pipeline stage) the breakdown reports the
//! energy attributed to the GPU, the CPU and the memory, applying the same
//! de-duplication rules as the device breakdown (cards once per card, node
//! counters once per node). Shares are normalised to the total energy of the
//! device across all functions, which is how the paper states, e.g., that
//! `MomentumEnergy` consumes 25.29 % of the A100 system's GPU energy but
//! 45.8 % on LUMI-G.

use cluster::RankMapping;
use pmt::{Domain, DomainKind, RankReport};
use std::collections::{BTreeMap, BTreeSet};

/// Energy of one function on each device class, in joules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FunctionDeviceEnergy {
    /// Function (stage) label.
    pub label: String,
    /// Summed call count across ranks.
    pub calls: u64,
    /// Summed duration in seconds (per-rank maximum per call is not tracked;
    /// this is the de-duplicated leader-rank duration sum).
    pub time_s: f64,
    /// GPU energy in joules.
    pub gpu_j: f64,
    /// CPU energy in joules.
    pub cpu_j: f64,
    /// Memory energy in joules.
    pub mem_j: f64,
}

impl FunctionDeviceEnergy {
    /// Total attributed energy of the function.
    pub fn total_j(&self) -> f64 {
        self.gpu_j + self.cpu_j + self.mem_j
    }
}

/// Per-function breakdown over a whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FunctionBreakdown {
    /// One entry per function, in first-appearance order.
    pub functions: Vec<FunctionDeviceEnergy>,
}

impl FunctionBreakdown {
    /// Function entry by label.
    pub fn function(&self, label: &str) -> Option<&FunctionDeviceEnergy> {
        self.functions.iter().find(|f| f.label == label)
    }

    /// Total GPU energy across all functions.
    pub fn total_gpu_j(&self) -> f64 {
        self.functions.iter().map(|f| f.gpu_j).sum()
    }

    /// Total CPU energy across all functions.
    pub fn total_cpu_j(&self) -> f64 {
        self.functions.iter().map(|f| f.cpu_j).sum()
    }

    /// Share (0–100 %) of the total GPU energy consumed by one function.
    pub fn gpu_share_percent(&self, label: &str) -> f64 {
        let total = self.total_gpu_j();
        if total <= 0.0 {
            return 0.0;
        }
        100.0 * self.function(label).map(|f| f.gpu_j).unwrap_or(0.0) / total
    }

    /// Share (0–100 %) of the total CPU energy consumed by one function.
    pub fn cpu_share_percent(&self, label: &str) -> f64 {
        let total = self.total_cpu_j();
        if total <= 0.0 {
            return 0.0;
        }
        100.0 * self.function(label).map(|f| f.cpu_j).unwrap_or(0.0) / total
    }

    /// Labels ordered by descending total energy.
    pub fn labels_by_energy(&self) -> Vec<String> {
        let mut labels: Vec<(String, f64)> = self.functions.iter().map(|f| (f.label.clone(), f.total_j())).collect();
        labels.sort_by(|a, b| b.1.total_cmp(&a.1));
        labels.into_iter().map(|(l, _)| l).collect()
    }
}

/// Compute the per-function breakdown from per-rank reports.
///
/// `exclude` lists region labels that are not functions (e.g. the whole-loop
/// region) and must be skipped.
pub fn function_breakdown(reports: &[RankReport], mapping: &RankMapping, exclude: &[&str]) -> FunctionBreakdown {
    let mut order: Vec<String> = Vec::new();
    let mut map: BTreeMap<String, FunctionDeviceEnergy> = BTreeMap::new();
    let mut seen_cards: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut seen_nodes: BTreeSet<usize> = BTreeSet::new();

    for report in reports {
        let Some(placement) = mapping.placement(report.rank) else {
            continue;
        };
        let count_card = seen_cards.insert((placement.node_index, placement.gpu_card));
        let count_node = seen_nodes.insert(placement.node_index);
        for record in &report.records {
            if exclude.contains(&record.label.as_str()) {
                continue;
            }
            let label = record.label.as_str();
            if !map.contains_key(label) {
                order.push(label.to_string());
                let entry = FunctionDeviceEnergy {
                    label: label.to_string(),
                    ..Default::default()
                };
                map.insert(label.to_string(), entry);
            }
            let entry = map.get_mut(label).expect("inserted above");
            if count_node {
                entry.calls += 1;
                entry.time_s += record.duration_s();
                entry.cpu_j += record.energy_by_kind(DomainKind::Cpu);
                entry.mem_j += record.energy(Domain::memory());
            }
            if count_card {
                entry.gpu_j += record.energy(Domain::gpu_card(placement.gpu_card as u32));
                entry.gpu_j += record.energy(Domain::gpu(placement.gpu_die as u32));
            }
        }
    }

    FunctionBreakdown {
        functions: order.into_iter().map(|l| map.remove(&l).unwrap()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Cluster;
    use hwmodel::arch::SystemKind;
    use pmt::{DomainEnergies, MeasurementRecord};

    fn record(label: &str, rank: u32, card: u32, gpu: f64, cpu: f64) -> MeasurementRecord {
        let mut energy = DomainEnergies::new();
        energy.insert(Domain::gpu_card(card), gpu);
        energy.insert(Domain::cpu(0), cpu);
        energy.insert(Domain::node(), gpu + cpu + 10.0);
        MeasurementRecord {
            label: label.into(),
            rank,
            iteration: Some(0),
            start_s: 0.0,
            end_s: 1.0,
            energy_j: energy,
        }
    }

    fn setup(system: SystemKind, nodes: usize) -> (Vec<RankReport>, RankMapping) {
        let cluster = Cluster::new(system, nodes);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let reports = mapping
            .placements()
            .iter()
            .map(|p| RankReport {
                rank: p.rank,
                hostname: p.hostname.clone(),
                records: vec![
                    record("MomentumEnergy", p.rank, p.gpu_card as u32, 100.0, 10.0),
                    record("XMass", p.rank, p.gpu_card as u32, 40.0, 5.0),
                    record("TimeSteppingLoop", p.rank, p.gpu_card as u32, 140.0, 15.0),
                ],
            })
            .collect();
        (reports, mapping)
    }

    #[test]
    fn functions_are_aggregated_with_dedup() {
        let (reports, mapping) = setup(SystemKind::CscsA100, 1);
        let fb = function_breakdown(&reports, &mapping, &["TimeSteppingLoop"]);
        assert_eq!(fb.functions.len(), 2);
        let me = fb.function("MomentumEnergy").unwrap();
        // 4 cards à 100 J.
        assert!((me.gpu_j - 400.0).abs() < 1e-9);
        // CPU counted once per node.
        assert!((me.cpu_j - 10.0).abs() < 1e-9);
        assert!(fb.function("TimeSteppingLoop").is_none());
    }

    #[test]
    fn lumi_gcd_sharing_not_double_counted() {
        let (reports, mapping) = setup(SystemKind::LumiG, 1);
        let fb = function_breakdown(&reports, &mapping, &[]);
        let me = fb.function("MomentumEnergy").unwrap();
        // 4 cards (8 ranks) à 100 J -> 400 J, not 800 J.
        assert!((me.gpu_j - 400.0).abs() < 1e-9);
    }

    #[test]
    fn shares_are_relative_to_device_totals() {
        let (reports, mapping) = setup(SystemKind::CscsA100, 2);
        let fb = function_breakdown(&reports, &mapping, &["TimeSteppingLoop"]);
        let share = fb.gpu_share_percent("MomentumEnergy");
        assert!((share - 100.0 * 100.0 / 140.0).abs() < 1e-6);
        let cpu_share = fb.cpu_share_percent("XMass");
        assert!((cpu_share - 100.0 * 5.0 / 15.0).abs() < 1e-6);
        assert_eq!(fb.labels_by_energy()[0], "MomentumEnergy");
    }

    #[test]
    fn empty_reports_give_empty_breakdown() {
        let cluster = Cluster::new(SystemKind::MiniHpc, 1);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let fb = function_breakdown(&[], &mapping, &[]);
        assert!(fb.functions.is_empty());
        assert_eq!(fb.gpu_share_percent("MomentumEnergy"), 0.0);
    }
}
