//! Per-device energy attribution (Figure 2).
//!
//! Implements the measurement-accounting rules of the paper's §2:
//!
//! * GPU energy comes from the card-level counters (`accelN` / `pm_counters`);
//!   on MI250X two ranks drive the two GCDs of one card, so the card counter is
//!   counted **once per card**, not once per rank;
//! * CPU, memory and node counters are identical on every rank of a node, so
//!   they are counted **once per node**;
//! * "Other" is calculated by subtracting GPU, CPU and memory from the
//!   node-level energy. On systems without a memory sensor (CSCS-A100) the
//!   memory energy is therefore folded into "Other", as in the paper.

use cluster::RankMapping;
use pmt::{Domain, DomainKind, RankReport};
use std::collections::BTreeSet;

/// Energy attributed to each device class across the whole job, in joules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceBreakdown {
    /// GPU energy (cards, de-duplicated).
    pub gpu_j: f64,
    /// CPU package energy (per node, de-duplicated).
    pub cpu_j: f64,
    /// Memory energy (per node, de-duplicated; 0 when the platform exposes no
    /// memory sensor).
    pub mem_j: f64,
    /// Everything else: node − (GPU + CPU + MEM).
    pub other_j: f64,
    /// Node-level total energy.
    pub node_j: f64,
}

impl DeviceBreakdown {
    /// Sum of the four attributed categories (equals `node_j` by construction,
    /// up to sensor noise).
    fn attributed_total_j(&self) -> f64 {
        self.gpu_j + self.cpu_j + self.mem_j + self.other_j
    }

    /// Percentages `[GPU, CPU, MEM, Other]` of the attributed total.
    pub fn percentages(&self) -> [f64; 4] {
        let total = self.attributed_total_j();
        if total <= 0.0 {
            return [0.0; 4];
        }
        [
            100.0 * self.gpu_j / total,
            100.0 * self.cpu_j / total,
            100.0 * self.mem_j / total,
            100.0 * self.other_j / total,
        ]
    }

    /// Total in megajoules (the unit of the paper's Figure 2 caption).
    pub fn total_mj(&self) -> f64 {
        self.node_j / 1.0e6
    }
}

/// Compute the device breakdown for one region label (typically the
/// time-stepping loop region) from per-rank reports.
///
/// `label` selects which records are aggregated (e.g. `"TimeSteppingLoop"`);
/// pass `None` to aggregate every record except whole-loop duplicates is not
/// supported — prefer an explicit label.
pub fn device_breakdown(reports: &[RankReport], mapping: &RankMapping, label: &str) -> DeviceBreakdown {
    let mut breakdown = DeviceBreakdown::default();
    let mut seen_nodes: BTreeSet<usize> = BTreeSet::new();
    let mut seen_cards: BTreeSet<(usize, usize)> = BTreeSet::new();

    for report in reports {
        let Some(placement) = mapping.placement(report.rank) else {
            continue;
        };
        let records: Vec<_> = report.records.iter().filter(|r| r.label == label).collect();
        if records.is_empty() {
            continue;
        }

        // Card-level GPU energy: count each physical card once.
        if seen_cards.insert((placement.node_index, placement.gpu_card)) {
            for r in &records {
                breakdown.gpu_j += r.energy(Domain::gpu_card(placement.gpu_card as u32));
                // Die-granularity back-ends (NVML/ROCm) report per-die domains:
                // count this rank's own die.
                breakdown.gpu_j += r.energy(Domain::gpu(placement.gpu_die as u32));
            }
        }

        // Node-level counters: count each node once.
        if seen_nodes.insert(placement.node_index) {
            for r in &records {
                breakdown.cpu_j += r.energy_by_kind(DomainKind::Cpu);
                breakdown.mem_j += r.energy(Domain::memory());
                breakdown.node_j += r.energy(Domain::node());
            }
        }
    }

    breakdown.other_j = (breakdown.node_j - breakdown.gpu_j - breakdown.cpu_j - breakdown.mem_j).max(0.0);
    breakdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Cluster;
    use hwmodel::arch::SystemKind;
    use pmt::{DomainEnergies, MeasurementRecord};

    /// Build synthetic reports: every rank of a node reports the same node/cpu/mem
    /// energy and its card's energy — exactly what the pm_counters sensor yields.
    fn synthetic_reports(system: SystemKind, n_nodes: usize) -> (Vec<RankReport>, RankMapping) {
        let cluster = Cluster::new(system, n_nodes);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let mut reports = Vec::new();
        for p in mapping.placements() {
            let mut energy = DomainEnergies::new();
            energy.insert(Domain::node(), 1000.0);
            energy.insert(Domain::cpu(0), 100.0);
            if cluster.node(p.node_index).spec().has_memory_sensor {
                energy.insert(Domain::memory(), 50.0);
            }
            energy.insert(
                Domain::gpu_card(p.gpu_card as u32),
                700.0 / cluster.node(0).spec().gpu_cards() as f64,
            );
            let record = MeasurementRecord {
                label: "TimeSteppingLoop".into(),
                rank: p.rank,
                iteration: None,
                start_s: 0.0,
                end_s: 10.0,
                energy_j: energy,
            };
            reports.push(RankReport {
                rank: p.rank,
                hostname: p.hostname.clone(),
                records: vec![record],
            });
        }
        (reports, mapping)
    }

    #[test]
    fn node_counters_counted_once_per_node() {
        let (reports, mapping) = synthetic_reports(SystemKind::CscsA100, 2);
        let b = device_breakdown(&reports, &mapping, "TimeSteppingLoop");
        // 2 nodes × 1000 J node-level, not 8 ranks × 1000 J.
        assert!((b.node_j - 2000.0).abs() < 1e-9);
        assert!((b.cpu_j - 200.0).abs() < 1e-9);
    }

    #[test]
    fn lumi_cards_not_double_counted() {
        let (reports, mapping) = synthetic_reports(SystemKind::LumiG, 1);
        let b = device_breakdown(&reports, &mapping, "TimeSteppingLoop");
        // 4 cards à 175 J each = 700 J, even though 8 ranks carry card records.
        assert!((b.gpu_j - 700.0).abs() < 1e-9, "gpu {}", b.gpu_j);
        assert!((b.mem_j - 50.0).abs() < 1e-9);
        // Other = 1000 - 700 - 100 - 50.
        assert!((b.other_j - 150.0).abs() < 1e-9);
        assert!((b.attributed_total_j() - b.node_j).abs() < 1e-9);
    }

    #[test]
    fn missing_memory_sensor_folds_into_other() {
        let (reports, mapping) = synthetic_reports(SystemKind::CscsA100, 1);
        let b = device_breakdown(&reports, &mapping, "TimeSteppingLoop");
        assert_eq!(b.mem_j, 0.0);
        assert!((b.other_j - (1000.0 - 700.0 - 100.0)).abs() < 1e-9);
    }

    #[test]
    fn percentages_sum_to_100() {
        let (reports, mapping) = synthetic_reports(SystemKind::LumiG, 2);
        let b = device_breakdown(&reports, &mapping, "TimeSteppingLoop");
        let p = b.percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!(p[0] > 50.0, "GPU should dominate: {p:?}");
    }

    #[test]
    fn unknown_label_gives_empty_breakdown() {
        let (reports, mapping) = synthetic_reports(SystemKind::CscsA100, 1);
        let b = device_breakdown(&reports, &mapping, "NoSuchRegion");
        assert_eq!(b, DeviceBreakdown::default());
        assert_eq!(b.percentages(), [0.0; 4]);
    }
}
