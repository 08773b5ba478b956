//! Per-function, per-device energy breakdown (Figure 3), and the one pass
//! that applies the §2 accounting rules (see the crate docs) to every label.
//!
//! Shares are normalised to the total energy of the device across all
//! functions, which is how the paper states, e.g., that `MomentumEnergy`
//! consumes 25.29 % of the A100 system's GPU energy but 45.8 % on LUMI-G.

use hwmodel::RankMapping;
use pmt::report::Label;
use pmt::{Domain, DomainKind, RankReport};
use std::collections::BTreeMap;

/// Time and energy the §2 rules attribute to one region label across a job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FunctionDeviceEnergy {
    /// Region label.
    pub label: String,
    /// Calls, counted on one rank per node.
    pub calls: u64,
    /// Summed duration in seconds, counted on one rank per node.
    pub time_s: f64,
    /// GPU energy in joules (card counters once per card, die counters once
    /// per rank).
    pub gpu_j: f64,
    /// CPU energy in joules (once per node).
    pub cpu_j: f64,
    /// Memory energy in joules (once per node).
    pub mem_j: f64,
    /// Node-level energy in joules (once per node).
    pub node_j: f64,
}

impl FunctionDeviceEnergy {
    /// Total attributed energy of the function.
    fn total_j(&self) -> f64 {
        self.gpu_j + self.cpu_j + self.mem_j
    }
}

/// What one report's records of one label count towards: their row, and
/// whether they count the node's and the card's counters. A rank's decision is
/// the same for every record of a label, so it is made once per label.
#[derive(Clone, Copy)]
struct Decision {
    row: usize,
    counts_node: bool,
    counts_card: bool,
}

/// Apply the §2 rules to every record whose label `keep` accepts: one row per
/// label, in first-appearance order. Every sum runs in (rank, record) order.
pub(crate) fn attribute(
    reports: &[RankReport],
    mapping: &RankMapping,
    keep: impl Fn(&str) -> bool,
) -> Vec<FunctionDeviceEnergy> {
    let mut rows: Vec<FunctionDeviceEnergy> = Vec::new();
    // The rank each (row, node) and each (row, node, card) is counted from:
    // the first one that has records of the row's label.
    let mut node_rank: BTreeMap<(usize, usize), u32> = BTreeMap::new();
    let mut card_rank: BTreeMap<(usize, usize, usize), u32> = BTreeMap::new();
    // What a report's records of one label count towards, decided at the
    // label's first record in the report (None if `keep` refuses the label).
    let mut decisions: Vec<(&Label, Option<Decision>)> = Vec::new();
    for report in reports {
        let Some(placement) = mapping.placement(report.rank) else {
            continue;
        };
        let node = placement.node_index;
        let card = Domain::gpu_card(placement.gpu_card as u32);
        let die = Domain::gpu(placement.gpu_die as u32);
        decisions.clear();
        for record in &report.records {
            let decision = match decisions.iter().find(|(known, _)| **known == record.label) {
                Some(&(_, decision)) => decision,
                None => {
                    let decision = keep(&record.label).then(|| {
                        let row = rows.iter().position(|row| row.label == *record.label).unwrap_or_else(|| {
                            rows.push(FunctionDeviceEnergy {
                                label: record.label.to_string(),
                                ..Default::default()
                            });
                            rows.len() - 1
                        });
                        Decision {
                            row,
                            counts_node: *node_rank.entry((row, node)).or_insert(report.rank) == report.rank,
                            counts_card: *card_rank.entry((row, node, placement.gpu_card)).or_insert(report.rank)
                                == report.rank,
                        }
                    });
                    decisions.push((&record.label, decision));
                    decision
                }
            };
            let Some(decision) = decision else {
                continue;
            };
            let entry = &mut rows[decision.row];
            if decision.counts_node {
                entry.calls += 1;
                entry.time_s += record.duration_s();
                entry.cpu_j += record.energy_by_kind(DomainKind::Cpu);
                entry.mem_j += record.energy(Domain::memory());
                entry.node_j += record.energy(Domain::node());
            }
            if decision.counts_card {
                entry.gpu_j += record.energy(card);
            }
            entry.gpu_j += record.energy(die);
        }
    }
    rows
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
    fn total_gpu_j(&self) -> f64 {
        self.functions.iter().map(|f| f.gpu_j).sum()
    }

    /// Total CPU energy across all functions.
    fn total_cpu_j(&self) -> f64 {
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
    pub(crate) fn cpu_share_percent(&self, label: &str) -> f64 {
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
    FunctionBreakdown {
        functions: attribute(reports, mapping, |label| !exclude.contains(&label)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_breakdown::device_breakdown;
    use hwmodel::arch::SystemKind;
    use hwmodel::Cluster;
    use pmt::{DomainEnergies, MeasurementRecord};

    fn record(label: &str, card: u32, gpu: f64, cpu: f64) -> MeasurementRecord {
        let mut energy = DomainEnergies::new();
        energy.insert(Domain::gpu_card(card), gpu);
        energy.insert(Domain::cpu(0), cpu);
        energy.insert(Domain::node(), gpu + cpu + 10.0);
        MeasurementRecord {
            label: label.into(),
            iteration: Some(0),
            start_s: 0.0,
            end_s: 1.0,
            energy_j: energy,
        }
    }

    fn report(rank: u32, records: Vec<MeasurementRecord>) -> RankReport {
        RankReport {
            rank,
            hostname: String::new(),
            records: records.into(),
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
                    record("MomentumEnergy", p.gpu_card as u32, 100.0, 10.0),
                    record("XMass", p.gpu_card as u32, 40.0, 5.0),
                    record("TimeSteppingLoop", p.gpu_card as u32, 140.0, 15.0),
                ]
                .into(),
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

    #[test]
    fn die_records_on_a_shared_card_count_every_die() {
        // A LUMI-G node: 8 ranks, two per MI250X card, each metering its own
        // GCD through a die-granularity back-end.
        let cluster = Cluster::new(SystemKind::LumiG, 1);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let reports: Vec<RankReport> = mapping
            .placements()
            .iter()
            .map(|p| {
                let mut die = record("MomentumEnergy", 0, 0.0, 0.0);
                die.energy_j = DomainEnergies::new();
                die.energy_j.insert(Domain::gpu(p.gpu_die as u32), 50.0);
                report(p.rank, vec![die])
            })
            .collect();
        let fb = function_breakdown(&reports, &mapping, &[]);
        assert_eq!(fb.function("MomentumEnergy").unwrap().gpu_j, 400.0);
        let b = device_breakdown(&reports, &mapping, "MomentumEnergy");
        assert_eq!(b.gpu_j, 400.0);
    }

    #[test]
    fn a_node_is_counted_from_the_first_rank_that_has_the_label() {
        // One CSCS-A100 node whose rank 0 measured nothing.
        let cluster = Cluster::new(SystemKind::CscsA100, 1);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let card = mapping.placement(1).unwrap().gpu_card as u32;
        let reports = vec![
            report(0, Vec::new()),
            report(
                1,
                vec![
                    record("TimeSteppingLoop", card, 900.0, 90.0),
                    record("XMass", card, 40.0, 5.0),
                ],
            ),
        ];
        // Figure 1's PMT energy and Figure 2's node.
        assert_eq!(device_breakdown(&reports, &mapping, "TimeSteppingLoop").node_j, 1000.0);
        // Figure 3.
        let fb = function_breakdown(&reports, &mapping, &["TimeSteppingLoop"]);
        let xmass = fb.function("XMass").unwrap();
        assert_eq!((xmass.calls, xmass.gpu_j, xmass.cpu_j), (1, 40.0, 5.0));
    }
}
