//! Per-stage workload model for GPU-offloaded, paper-scale runs.
//!
//! The paper's production runs use 80–150 million particles per GPU — far more
//! than can be time-stepped for real on a laptop. The rule of this
//! reproduction is to substitute what cannot be run with a model of it and
//! measure the model through the same instrumentation: the large-scale
//! campaigns *model* each pipeline stage as a [`KernelWorkload`] (flops,
//! bytes, launches, parallelism) derived from per-particle costs, and execute
//! it on the simulated GPUs of `hwmodel`, which turn it into a duration and a
//! power draw.
//!
//! The per-particle costs are calibrated against the relative per-function
//! times/energies reported in the paper (Figures 3 and 5): `MomentumEnergy`
//! dominates, `IADVelocityDivCurl` and `XMass` follow, `DomainDecompAndSync` is
//! memory/communication-bound. The per-vendor `port_factor` captures the
//! paper's observation that `MomentumEnergy` is relatively more expensive on
//! the AMD GPUs (45.8 % of GPU energy on LUMI-G vs 25.3 % on the A100 system),
//! i.e. the HIP port is less optimised than the CUDA path.

use hwmodel::gpu::GpuVendor;
use hwmodel::kernel::KernelWorkload;
use sphsim::{CostScale, Scenario, SphStage};

/// Mean SPH neighbour count assumed by the cost model.
const MEAN_NEIGHBORS: f64 = 100.0;

/// Per-particle cost of one pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq)]
struct StageCost {
    /// Floating-point operations per particle per call.
    pub flops_per_particle: f64,
    /// Bytes of device-memory traffic per particle per call.
    pub bytes_per_particle: f64,
    /// Number of kernel launches per call.
    pub launches: u32,
    /// Bytes sent over the network per *halo* particle (0 for compute stages).
    pub network_bytes_per_halo_particle: f64,
}

/// Baseline (well-optimised CUDA) per-particle costs of each stage.
fn stage_cost(stage: SphStage) -> StageCost {
    use SphStage::*;
    // Costs reflect the neighbour-gather nature of SPH on GPUs *after the
    // flat-path refactor*: neighbour lists are CSR (two-pass count + fill into
    // reusable buffers, no per-particle list headers) and the particle storage
    // is Morton-sorted every few steps, so every major kernel streams its
    // ~100 neighbours' worth of particle data from spatially local memory
    // instead of gathering across the whole array. Relative to the pre-CSR
    // costs this trims per-particle memory traffic on all neighbour-gather
    // stages (FindNeighbors 2500 → 1900 B, XMass 2500 → 2100 B, Gradh
    // 2000 → 1700 B, IAD 2500 → 2150 B, MomentumEnergy 3000 → 2400 B) while
    // leaving arithmetic essentially unchanged — raising their arithmetic
    // intensity, which is why MomentumEnergy and IADVelocityDivCurl remain the
    // stages that benefit least from clock down-scaling in Figure 5.
    // The cell-list neighbour search (Morton-bucketed 27-cell stencil sweep
    // replacing a per-particle octree query) cuts
    // FindNeighbors again, 3500 → 3000 flops (no tree-descent distance
    // tests against interior nodes) and 1900 → 1700 B (one packed SoA pass
    // over the stencil instead of pointer-chasing leaf blocks); the stage
    // stays compute-leaning (AI ≈ 1.76) because the candidate-pair distance
    // tests dominate either way.
    // DomainDecompAndSync absorbs the amortised Morton re-sort of the 21 SoA
    // fields (one gather + scatter every DEFAULT_REORDER_INTERVAL steps) on
    // top of the key sort and halo exchange; it stays almost purely memory-
    // and network-bound. (The reorder-interval check is hoisted above the
    // key recompute, so non-reorder steps contribute no key-generation
    // traffic to the amortised figure — and the periodic position wrap is a
    // streaming O(N) pass folded into the same budget.)
    //
    // Periodic boundaries do NOT change these baselines: the minimum-image
    // map in the pair kernels is a few fused multiplies per pair (amortised
    // into the existing flop counts), while the real periodic surcharge —
    // wrapped-image tree queries for every support sphere crossing a box
    // face, and wrap-seam ghosts in the halo exchange — scales with the
    // box's surface-to-volume ratio and is charged per scenario through
    // `Scenario::stage_cost_scale` (see the FindNeighbors scales of the
    // periodic box scenarios).
    let (flops, bytes, launches, net) = match stage {
        DomainDecompAndSync => (900.0, 3_300.0, 12, 220.0),
        FindNeighbors => (3_000.0, 1_700.0, 4, 0.0),
        XMass => (5_000.0, 2_100.0, 2, 0.0),
        NormalizationGradh => (3_000.0, 1_700.0, 2, 0.0),
        EquationOfState => (60.0, 120.0, 1, 0.0),
        IADVelocityDivCurl => (10_000.0, 2_150.0, 3, 0.0),
        AVSwitches => (800.0, 600.0, 1, 0.0),
        MomentumEnergy => (15_000.0, 2_400.0, 3, 0.0),
        Gravity => (6_000.0, 1_500.0, 4, 24.0),
        Turbulence => (700.0, 400.0, 1, 0.0),
        Timestep => (40.0, 100.0, 2, 8.0),
        UpdateQuantities => (120.0, 800.0, 1, 0.0),
    };
    StageCost {
        flops_per_particle: flops,
        bytes_per_particle: bytes,
        launches,
        network_bytes_per_halo_particle: net,
    }
}

/// Extra-work factor of the GPU port of a stage on a given vendor relative to
/// the well-optimised baseline (1.0 = fully optimised).
fn port_factor(stage: SphStage, vendor: GpuVendor) -> f64 {
    match vendor {
        GpuVendor::Nvidia => 1.0,
        GpuVendor::Amd => match stage {
            SphStage::MomentumEnergy => 3.0,
            SphStage::IADVelocityDivCurl => 2.0,
            SphStage::FindNeighbors => 1.8,
            SphStage::Gravity => 1.8,
            SphStage::XMass | SphStage::NormalizationGradh => 1.5,
            _ => 1.3,
        },
    }
}

/// CPU busy fraction (driver, MPI progress, host-side orchestration) while a
/// stage executes on the GPU.
pub(crate) fn cpu_load_during(stage: SphStage) -> f64 {
    if stage.is_communication() {
        0.30
    } else {
        0.06
    }
}

/// Memory-bandwidth utilisation of the host DRAM while a stage executes.
pub(crate) fn memory_load_during(stage: SphStage) -> f64 {
    if stage.is_communication() {
        0.35
    } else {
        0.10
    }
}

/// Network utilisation while a stage executes.
pub(crate) fn network_load_during(stage: SphStage) -> f64 {
    if stage.is_communication() {
        0.80
    } else {
        0.05
    }
}

/// Shared workload assembly: baseline stage costs, vendor port factor, and a
/// [`CostScale`] skew applied to flops and bytes independently.
fn build_stage_workload(
    stage: SphStage,
    particles_per_rank: f64,
    vendor: GpuVendor,
    scale: CostScale,
) -> KernelWorkload {
    assert!(particles_per_rank > 0.0);
    let cost = stage_cost(stage);
    // A less optimised port wastes both arithmetic *and* memory traffic
    // (uncoalesced accesses, redundant gathers), so the factor applies to both.
    let factor = port_factor(stage, vendor);
    KernelWorkload::new(
        stage.label(),
        cost.flops_per_particle * factor * scale.flops * particles_per_rank,
        cost.bytes_per_particle * factor * scale.bytes * particles_per_rank,
    )
    .with_parallelism(particles_per_rank)
    .with_launches(cost.launches)
}

/// Build the device workload of one stage for a specific scenario: the
/// baseline costs scaled by the scenario's per-stage
/// [`CostScale`]. Because flops and bytes scale
/// independently, a scenario can shift a stage's arithmetic intensity — and
/// with it the stage's min-EDP frequency, generalising the paper's
/// compute- vs memory-bound observation beyond the Table-1 pair.
pub(crate) fn scenario_stage_workload(
    scenario: &Scenario,
    stage: SphStage,
    particles_per_rank: f64,
    vendor: GpuVendor,
) -> KernelWorkload {
    build_stage_workload(stage, particles_per_rank, vendor, scenario.stage_cost_scale(stage))
}

/// Estimate the number of halo particles per rank for a cube of `n_per_rank`
/// particles with `mean_neighbors` interaction partners — the surface-to-volume
/// model that sizes the communication workload of `DomainDecompAndSync`.
fn estimated_halo_count(n_per_rank: f64, mean_neighbors: f64) -> f64 {
    if n_per_rank <= 0.0 {
        return 0.0;
    }
    // Particles per edge of the rank's cube.
    let per_edge = n_per_rank.cbrt();
    // The halo shell is ~one smoothing-sphere deep on each of the 6 faces.
    let shell_depth = (mean_neighbors.max(1.0)).cbrt();
    6.0 * per_edge * per_edge * shell_depth
}

/// Estimated bytes each rank sends over the network during one call of a
/// communication stage.
fn stage_network_bytes(stage: SphStage, particles_per_rank: f64) -> f64 {
    let cost = stage_cost(stage);
    if cost.network_bytes_per_halo_particle <= 0.0 {
        return 0.0;
    }
    let halos = estimated_halo_count(particles_per_rank, MEAN_NEIGHBORS);
    halos * cost.network_bytes_per_halo_particle
}

/// Effective node-to-node network bandwidth assumed for communication stages,
/// in bytes/second (a Slingshot-class NIC shared by the ranks of a node).
const NETWORK_BANDWIDTH: f64 = 20.0e9;

/// Per-collective latency added to every communication stage, in seconds.
const COMM_LATENCY_PER_STEP: f64 = 2.0e-3;

/// Time a rank spends in network communication for one call of `stage`.
pub(crate) fn stage_comm_time(stage: SphStage, particles_per_rank: f64, n_ranks: usize) -> f64 {
    let bytes = stage_network_bytes(stage, particles_per_rank);
    if bytes <= 0.0 {
        return 0.0;
    }
    let log_ranks = (n_ranks.max(2) as f64).log2();
    bytes / NETWORK_BANDWIDTH + COMM_LATENCY_PER_STEP * log_ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use sphsim::scenario;

    #[test]
    fn momentum_energy_is_the_most_expensive_compute_stage() {
        let me = stage_cost(SphStage::MomentumEnergy).flops_per_particle;
        for stage in SphStage::all() {
            if stage != SphStage::MomentumEnergy {
                assert!(
                    stage_cost(stage).flops_per_particle <= me,
                    "{stage:?} exceeds MomentumEnergy"
                );
            }
        }
    }

    #[test]
    fn domain_sync_is_memory_and_network_bound() {
        let c = stage_cost(SphStage::DomainDecompAndSync);
        assert!(c.bytes_per_particle > c.flops_per_particle);
        assert!(c.network_bytes_per_halo_particle > 0.0);
        assert!(stage_comm_time(SphStage::DomainDecompAndSync, 1.0e8, 16) > 0.0);
        assert_eq!(stage_comm_time(SphStage::MomentumEnergy, 1.0e8, 16), 0.0);
    }

    #[test]
    fn amd_port_factor_penalises_momentum_energy_most() {
        let me = port_factor(SphStage::MomentumEnergy, GpuVendor::Amd);
        for stage in SphStage::all() {
            assert!(port_factor(stage, GpuVendor::Nvidia) == 1.0);
            if stage != SphStage::MomentumEnergy {
                assert!(port_factor(stage, GpuVendor::Amd) <= me);
            }
        }
        assert!(me > 2.0);
    }

    #[test]
    fn csr_era_costs_keep_gather_stages_compute_leaning() {
        // After the CSR + Morton refactor the neighbour-gather stages run at
        // a higher arithmetic intensity (flops/byte) than before, while the
        // sort/halo stage stays firmly memory-bound.
        let ai = |s: SphStage| {
            let c = stage_cost(s);
            c.flops_per_particle / c.bytes_per_particle
        };
        assert!(ai(SphStage::MomentumEnergy) > 5.0);
        assert!(ai(SphStage::IADVelocityDivCurl) > 4.0);
        assert!(ai(SphStage::FindNeighbors) > 1.5);
        assert!(ai(SphStage::DomainDecompAndSync) < 0.5);
    }

    #[test]
    fn workload_scales_linearly_with_particles() {
        let small = build_stage_workload(SphStage::XMass, 1.0e6, GpuVendor::Nvidia, CostScale::UNIT);
        let large = build_stage_workload(SphStage::XMass, 4.0e6, GpuVendor::Nvidia, CostScale::UNIT);
        assert!((large.flops / small.flops - 4.0).abs() < 1e-9);
        assert!((large.bytes / small.bytes - 4.0).abs() < 1e-9);
        assert_eq!(small.launches, large.launches);
        assert_eq!(small.name, "XMass");
    }

    #[test]
    fn whole_step_cost_is_tens_of_kiloflops_per_particle() {
        // Per-particle flops of one whole step: every stage of the pipeline,
        // NVIDIA baseline, the scenario's cost scaling applied.
        let flops_per_particle_per_step = |scenario: &Scenario| -> f64 {
            scenario
                .pipeline()
                .into_iter()
                .map(|s| stage_cost(s).flops_per_particle * scenario.stage_cost_scale(s).flops)
                .sum()
        };
        let turb = flops_per_particle_per_step(scenario::get("Turb").unwrap());
        let evr = flops_per_particle_per_step(scenario::get("Evr").unwrap());
        assert!((20_000.0..120_000.0).contains(&turb), "turbulence {turb}");
        assert!(evr > turb, "gravity makes Evrard steps more expensive per particle");
        for scenario in scenario::all() {
            let flops = flops_per_particle_per_step(scenario);
            assert!(
                (20_000.0..150_000.0).contains(&flops),
                "{}: {flops}",
                scenario.short_name
            );
        }
    }

    #[test]
    fn scenario_cost_scaling_shifts_arithmetic_intensity() {
        let evr = scenario::get("Evr").unwrap();
        let noh = scenario::get("Noh").unwrap();
        let baseline = scenario_stage_workload(evr, SphStage::FindNeighbors, 1.0e6, GpuVendor::Nvidia);
        let clustered = scenario_stage_workload(noh, SphStage::FindNeighbors, 1.0e6, GpuVendor::Nvidia);
        // Noh's central clustering costs more of everything...
        assert!(clustered.flops > baseline.flops);
        assert!(clustered.bytes > baseline.bytes);
        // ...but disproportionately more memory traffic: the stage becomes
        // more memory-bound (lower flops/byte) than the Table-1 baseline.
        assert!(clustered.flops / clustered.bytes < baseline.flops / baseline.bytes);
        // The unit scale (Evrard keeps FindNeighbors at the calibrated
        // baseline — open box, no image-query surcharge) reproduces the
        // baseline workload exactly.
        let plain = build_stage_workload(SphStage::FindNeighbors, 1.0e6, GpuVendor::Nvidia, CostScale::UNIT);
        assert_eq!(baseline.flops, plain.flops);
        assert_eq!(baseline.bytes, plain.bytes);
    }

    #[test]
    fn periodic_scenarios_charge_the_neighbour_stage_for_image_queries() {
        // Every periodic box scenario pays a FindNeighbors surcharge (wrapped
        // image queries + wrap-seam ghosts), skewed towards memory traffic;
        // the open scenarios keep their calibrated baselines un-skewed by
        // periodicity (Sedov/Noh have their own physics-driven scales).
        for scenario in scenario::all() {
            let scale = scenario.stage_cost_scale(SphStage::FindNeighbors);
            if scenario.boundary.is_periodic() {
                assert!(
                    scale.flops > 1.0 && scale.bytes > 1.0,
                    "{}: periodic box must charge FindNeighbors for image queries",
                    scenario.short_name
                );
                assert!(
                    scale.bytes >= scale.flops,
                    "{}: the image surcharge is gather-traffic-leaning",
                    scenario.short_name
                );
            }
        }
        let evr = scenario::get("Evr").unwrap();
        assert_eq!(evr.stage_cost_scale(SphStage::FindNeighbors), CostScale::UNIT);
    }

    #[test]
    fn loads_are_fractions() {
        for stage in SphStage::all() {
            for load in [
                cpu_load_during(stage),
                memory_load_during(stage),
                network_load_during(stage),
            ] {
                assert!((0.0..=1.0).contains(&load));
            }
        }
    }

    #[test]
    fn halo_estimate_scales_sublinearly() {
        let small = estimated_halo_count(1.0e6, 100.0);
        let large = estimated_halo_count(8.0e6, 100.0);
        // 8x the volume -> 4x the surface.
        assert!((large / small - 4.0).abs() < 0.2);
        assert_eq!(estimated_halo_count(0.0, 100.0), 0.0);
    }

    #[test]
    fn comm_time_grows_with_rank_count_and_size() {
        let base = stage_comm_time(SphStage::DomainDecompAndSync, 1.0e8, 8);
        let more_ranks = stage_comm_time(SphStage::DomainDecompAndSync, 1.0e8, 64);
        let more_particles = stage_comm_time(SphStage::DomainDecompAndSync, 4.0e8, 8);
        assert!(more_ranks > base);
        assert!(more_particles > base);
    }
}
