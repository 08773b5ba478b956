//! Architecture presets for the paper's three test systems (Table 1).
//!
//! | System      | Node hardware                                               | GPU nominal clock |
//! |-------------|--------------------------------------------------------------|-------------------|
//! | LUMI-G      | 1× AMD EPYC 7A53 (64 c, 512 GB), 4× AMD MI250X (8 GCDs, 64 GB each) | 1700 MHz          |
//! | CSCS-A100   | 1× AMD EPYC 7713 (64 c), 4× NVIDIA A100-SXM4-80GB            | 1410 MHz          |
//! | miniHPC     | 2× Intel Xeon Gold 6258R (28 c, 1.5 TB), 2× NVIDIA A100-PCIE-40GB | 1410 MHz          |
//!
//! Peak throughput, bandwidth and power envelopes come from public vendor
//! datasheets; efficiency factors are calibrated so that the relative magnitudes
//! reported in the paper (GPU ≈ 75 % of node energy, LUMI runs drawing more
//! energy than CSCS runs for the same simulation) are reproduced.

use crate::aux::AuxSpec;
use crate::cpu::CpuSpec;
use crate::dvfs::DvfsModel;
use crate::gpu::{GpuSpec, GpuVendor};
use crate::memory::MemorySpec;
use crate::node::{NodeBuilder, NodeSpec};

/// The three systems evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// LUMI-G: AMD EPYC + 4× MI250X (8 GCDs) per node, Cray pm_counters.
    LumiG,
    /// CSCS A100 system: AMD EPYC + 4× A100-SXM4 per node, Cray pm_counters
    /// without a separate memory sensor.
    CscsA100,
    /// University of Basel miniHPC GPU node: 2× Xeon + 2× A100-PCIE, RAPL + NVML,
    /// user-controllable GPU frequency.
    MiniHpc,
}

impl SystemKind {
    /// Human-readable system name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::LumiG => "LUMI-G",
            SystemKind::CscsA100 => "CSCS-A100",
            SystemKind::MiniHpc => "miniHPC",
        }
    }

    /// Node builder for this system.
    pub fn node_builder(&self) -> NodeBuilder {
        match self {
            SystemKind::LumiG => lumi_g(),
            SystemKind::CscsA100 => cscs_a100(),
            SystemKind::MiniHpc => mini_hpc(),
        }
    }

    /// Nominal GPU compute frequency in Hz (the paper's baseline).
    pub fn nominal_gpu_frequency_hz(&self) -> f64 {
        match self {
            SystemKind::LumiG => 1700.0e6,
            SystemKind::CscsA100 | SystemKind::MiniHpc => 1410.0e6,
        }
    }

    /// All systems.
    pub fn all() -> [SystemKind; 3] {
        [SystemKind::LumiG, SystemKind::CscsA100, SystemKind::MiniHpc]
    }
}

/// GPU spec of one AMD MI250X GCD (half card), as installed in LUMI-G.
fn mi250x_gcd() -> GpuSpec {
    GpuSpec {
        name: "MI250X GCD".to_string(),
        vendor: GpuVendor::Amd,
        peak_flops: 23.9e12,
        mem_bandwidth: 1.6e12,
        static_power_w: 30.0,
        clock_power_w: 45.0,
        peak_power_w: 280.0,
        dvfs: DvfsModel::amd_mi250x(),
        memory_freq_hz: 1600.0e6,
        compute_efficiency: 0.50,
        memory_efficiency: 0.70,
        launch_overhead_s: 14.0e-6,
        saturation_parallelism: 90.0e6,
        dies_per_card: 2,
    }
}

/// GPU spec of one NVIDIA A100-SXM4-80GB, as installed in the CSCS A100 system.
fn a100_sxm4_80gb() -> GpuSpec {
    GpuSpec {
        name: "A100-SXM4-80GB".to_string(),
        vendor: GpuVendor::Nvidia,
        peak_flops: 9.7e12,
        mem_bandwidth: 2.0e12,
        static_power_w: 30.0,
        clock_power_w: 50.0,
        peak_power_w: 400.0,
        dvfs: DvfsModel::nvidia_a100(),
        memory_freq_hz: 1593.0e6,
        compute_efficiency: 0.62,
        memory_efficiency: 0.80,
        launch_overhead_s: 8.0e-6,
        saturation_parallelism: 60.0e6,
        dies_per_card: 1,
    }
}

/// GPU spec of one NVIDIA A100-PCIE-40GB, as installed in miniHPC.
fn a100_pcie_40gb() -> GpuSpec {
    GpuSpec {
        name: "A100-PCIE-40GB".to_string(),
        vendor: GpuVendor::Nvidia,
        peak_flops: 9.7e12,
        mem_bandwidth: 1.555e12,
        static_power_w: 20.0,
        clock_power_w: 40.0,
        peak_power_w: 250.0,
        dvfs: DvfsModel::nvidia_a100(),
        memory_freq_hz: 1593.0e6,
        compute_efficiency: 0.60,
        memory_efficiency: 0.78,
        launch_overhead_s: 9.0e-6,
        saturation_parallelism: 60.0e6,
        dies_per_card: 1,
    }
}

/// CPU spec of the AMD EPYC 7A53 "Trento" (LUMI-G host CPU).
fn epyc_7a53() -> CpuSpec {
    CpuSpec {
        name: "AMD EPYC 7A53".to_string(),
        cores: 64,
        idle_power_w: 90.0,
        tdp_w: 280.0,
    }
}

/// CPU spec of the AMD EPYC 7713 (CSCS A100 system host CPU; the paper's
/// Table 1 lists it as "EPYC 7113").
fn epyc_7713() -> CpuSpec {
    CpuSpec {
        name: "AMD EPYC 7713".to_string(),
        cores: 64,
        idle_power_w: 80.0,
        tdp_w: 225.0,
    }
}

/// CPU spec of the Intel Xeon Gold 6258R (miniHPC host CPU).
fn xeon_gold_6258r() -> CpuSpec {
    CpuSpec {
        name: "Intel Xeon Gold 6258R".to_string(),
        cores: 28,
        idle_power_w: 55.0,
        tdp_w: 205.0,
    }
}

/// Node builder for a LUMI-G node: 1× EPYC 7A53, 512 GB, 4× MI250X (8 GCDs),
/// Slingshot NICs, separate memory power sensor.
pub fn lumi_g() -> NodeBuilder {
    let spec = NodeSpec {
        cpus: vec![epyc_7a53()],
        gpus: vec![mi250x_gcd(); 8],
        memory: MemorySpec {
            capacity_bytes: 512.0e9,
            idle_w_per_gb: 0.08,
            active_w_max: 40.0,
        },
        aux: AuxSpec {
            baseline_w: 160.0,
            network_active_w: 100.0,
            psu_loss_fraction: 0.06,
        },
        has_memory_sensor: true,
    };
    NodeBuilder::new(spec)
}

/// Node builder for a CSCS A100 node: 1× EPYC 7713, 4× A100-SXM4-80GB,
/// no separate memory sensor (memory ends up in "Other", as in the paper).
pub fn cscs_a100() -> NodeBuilder {
    let spec = NodeSpec {
        cpus: vec![epyc_7713()],
        gpus: vec![a100_sxm4_80gb(); 4],
        memory: MemorySpec {
            capacity_bytes: 512.0e9,
            idle_w_per_gb: 0.075,
            active_w_max: 35.0,
        },
        aux: AuxSpec {
            baseline_w: 130.0,
            network_active_w: 70.0,
            psu_loss_fraction: 0.06,
        },
        has_memory_sensor: false,
    };
    NodeBuilder::new(spec)
}

/// Node builder for the miniHPC GPU node: 2× Xeon Gold 6258R, 1.5 TB,
/// 2× A100-PCIE-40GB, RAPL + NVML sensors, user-controllable GPU clocks.
pub fn mini_hpc() -> NodeBuilder {
    let spec = NodeSpec {
        cpus: vec![xeon_gold_6258r(), xeon_gold_6258r()],
        gpus: vec![a100_pcie_40gb(); 2],
        memory: MemorySpec {
            capacity_bytes: 1.5e12,
            idle_w_per_gb: 0.04,
            active_w_max: 45.0,
        },
        aux: AuxSpec {
            baseline_w: 90.0,
            network_active_w: 30.0,
            psu_loss_fraction: 0.07,
        },
        has_memory_sensor: true,
    };
    NodeBuilder::new(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_names_match_paper() {
        assert_eq!(SystemKind::LumiG.name(), "LUMI-G");
        assert_eq!(SystemKind::CscsA100.name(), "CSCS-A100");
        assert_eq!(SystemKind::MiniHpc.name(), "miniHPC");
    }

    #[test]
    fn nominal_frequencies_match_table1() {
        assert_eq!(SystemKind::LumiG.nominal_gpu_frequency_hz(), 1700.0e6);
        assert_eq!(SystemKind::CscsA100.nominal_gpu_frequency_hz(), 1410.0e6);
        assert_eq!(SystemKind::MiniHpc.nominal_gpu_frequency_hz(), 1410.0e6);
    }

    #[test]
    fn all_specs_validate() {
        mi250x_gcd().validate();
        a100_sxm4_80gb().validate();
        a100_pcie_40gb().validate();
        epyc_7a53().validate();
        epyc_7713().validate();
        xeon_gold_6258r().validate();
    }

    #[test]
    fn mi250x_card_is_two_gcds() {
        assert_eq!(mi250x_gcd().dies_per_card, 2);
        assert_eq!(a100_sxm4_80gb().dies_per_card, 1);
    }

    #[test]
    fn node_builders_produce_expected_counts() {
        for kind in SystemKind::all() {
            let node = kind.node_builder().build();
            match kind {
                SystemKind::LumiG => {
                    assert_eq!(node.gpus().len(), 8);
                    assert_eq!(node.spec().cpus.len(), 1);
                    assert!(node.spec().has_memory_sensor);
                }
                SystemKind::CscsA100 => {
                    assert_eq!(node.gpus().len(), 4);
                    assert_eq!(node.spec().cpus.len(), 1);
                    assert!(!node.spec().has_memory_sensor);
                }
                SystemKind::MiniHpc => {
                    assert_eq!(node.gpus().len(), 2);
                    assert_eq!(node.spec().cpus.len(), 2);
                }
            }
        }
    }

    #[test]
    fn busy_gpu_dominates_node_power() {
        // The headline observation of Figure 2: GPUs draw ~3/4 of node energy
        // when the simulation is running.
        for kind in [SystemKind::LumiG, SystemKind::CscsA100] {
            let node = kind.node_builder().build();
            for g in node.gpus() {
                g.set_load(0.95);
            }
            node.set_host_load(0.08, 0.3, 0.3);
            let r = node.read();
            let gpu_w: f64 = (0..node.gpus().len()).map(|i| r.gpu(i).0).sum();
            let gpu_share = gpu_w / r.node().0;
            assert!(
                (0.60..0.90).contains(&gpu_share),
                "{}: GPU share {gpu_share} outside the plausible range",
                kind.name()
            );
        }
    }

    #[test]
    fn lumi_node_draws_more_than_cscs_node_at_full_load() {
        let lumi = lumi_g().build();
        let cscs = cscs_a100().build();
        for g in lumi.gpus().iter().chain(cscs.gpus()) {
            g.set_load(1.0);
        }
        let lumi_w = lumi.read().node().0;
        assert!(lumi_w > cscs.read().node().0);
    }

    #[test]
    fn idle_node_power_is_plausible() {
        // Idle LUMI-G node should draw a few hundred watts, not kilowatts.
        let node = lumi_g().build();
        let p = node.read().node().0;
        assert!(p > 300.0 && p < 1800.0, "idle power {p} W implausible");
        assert!(node.gpus()[0].power_w() < 100.0);
    }
}
