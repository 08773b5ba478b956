//! Adapters between the simulated hardware and the measurement toolkit
//! (`pmt`).
//!
//! | Adapter | Implements | Backed by |
//! |---|---|---|
//! | [`SimClockAdapter`] | `pmt::Clock` | [`SimClock`] |
//! | [`SimNodeSensor`] | `pmt::Sensor` | node / CPU / memory / GPU-card counters, i.e. an in-memory equivalent of Cray `pm_counters` |
//! | [`GpuDiePowerSensor`] | `pmt::Sensor` | one GPU die's modelled power |
//! | `SimNvmlApi` (this module's tests) | `pmt::backends::NvmlApi` | the node's NVIDIA GPU dies |
//! | `SimRocmSmiApi` (this module's tests) | `pmt::backends::RocmSmiApi` | the node's AMD GCDs |
//!
//! Together with the file-based back-ends reading [`crate::VirtualSysfs`]
//! trees, these adapters let the *same* `pmt` measurement code run against the
//! simulator that would run against real hardware.

use crate::{Node, SimClock};
use pmt::clock::Clock;
use pmt::{Domain, DomainSample, Sensor};

/// `pmt::Clock` implementation over the shared simulated clock.
#[derive(Clone)]
pub struct SimClockAdapter {
    clock: SimClock,
}

impl SimClockAdapter {
    /// Wrap a simulated clock.
    pub fn new(clock: SimClock) -> Self {
        Self { clock }
    }
}

impl Clock for SimClockAdapter {
    fn now_s(&self) -> f64 {
        self.clock.now()
    }
}

/// An in-memory `pmt::Sensor` exposing the same domains as Cray `pm_counters`:
/// node, CPU, memory (if the platform has a memory sensor) and one per GPU
/// card — without going through the filesystem. Used for the large
/// experiment campaigns where writing/reading a virtual sysfs on every poll
/// would only add overhead; the file-based path is exercised separately in
/// tests.
///
/// One sample is one [`Node::read`] — one acquisition of the node's lock —
/// and pushes that reading's `node()`, `cpus()`, `memory()` and `card(k)`
/// as they are: the sums and their order are [`crate::node`]'s. The samples
/// come out in a fixed order (node, CPU, memory, then cards by index), which
/// is what lets the meter find each accumulator by position.
pub struct SimNodeSensor {
    node: Node,
}

impl SimNodeSensor {
    /// Create a sensor over `node` reporting GPUs per physical card
    /// (the `pm_counters` convention).
    pub fn per_card(node: Node) -> Self {
        Self { node }
    }
}

impl Sensor for SimNodeSensor {
    fn name(&self) -> &str {
        "sim_node"
    }

    fn domains(&self) -> Vec<Domain> {
        let spec = self.node.spec();
        let mut out = vec![Domain::node(), Domain::cpu(0)];
        if spec.has_memory_sensor {
            out.push(Domain::memory());
        }
        out.extend((0..spec.gpu_cards()).map(|card| Domain::gpu_card(card as u32)));
        out
    }

    fn sample_into(&self, out: &mut Vec<DomainSample>) -> pmt::Result<()> {
        let spec = self.node.spec();
        let r = self.node.read();
        let mut push = |domain, (power_w, energy_j): (f64, f64)| {
            out.push(DomainSample::both(domain, power_w, energy_j));
        };
        push(Domain::node(), r.node());
        push(Domain::cpu(0), r.cpus());
        if spec.has_memory_sensor {
            push(Domain::memory(), r.memory());
        }
        for card in 0..spec.gpu_cards() {
            push(Domain::gpu_card(card as u32), r.card(card));
        }
        Ok(())
    }

    fn description(&self) -> String {
        format!("sim_node over {} (per GPU card)", self.node.hostname())
    }
}

/// A power-only `pmt::Sensor` over one simulated GPU die.
///
/// Unlike [`SimNodeSensor`], which reads the cumulative energy counters of
/// simulated hardware driven by a simulated clock, this sensor reports only
/// the die's *instantaneous modelled power* (a function of its current
/// occupancy and compute frequency). Paired with a wall clock, the meter's
/// trapezoidal integration turns it into modelled-power × real-elapsed-time
/// energy — which is how the distributed CPU-executed runs attribute per-rank
/// per-stage energy while an `autotune` governor retunes the die's frequency
/// between stages.
pub struct GpuDiePowerSensor {
    gpu: crate::GpuHandle,
}

impl GpuDiePowerSensor {
    /// Wrap one GPU die handle.
    pub fn new(gpu: crate::GpuHandle) -> Self {
        Self { gpu }
    }
}

impl Sensor for GpuDiePowerSensor {
    fn name(&self) -> &str {
        "sim_gpu_die_power"
    }

    fn domains(&self) -> Vec<Domain> {
        vec![Domain::gpu(self.gpu.index() as u32)]
    }

    fn sample_into(&self, out: &mut Vec<DomainSample>) -> pmt::Result<()> {
        out.push(DomainSample::power(
            Domain::gpu(self.gpu.index() as u32),
            self.gpu.power_w(),
        ));
        Ok(())
    }

    fn description(&self) -> String {
        format!(
            "sim_gpu_die_power over die {} ({})",
            self.gpu.index(),
            self.gpu.spec().name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{self, SystemKind};
    use crate::gpu::GpuVendor;
    use pmt::backends::nvml::NvmlApi;
    use pmt::backends::rocm::RocmSmiApi;
    use pmt::backends::{NvmlSensor, RocmSmiSensor};
    use pmt::{DomainKind, PmtError, PowerMeter};
    use std::sync::Arc;

    /// NVML-like API over the NVIDIA GPU dies of one simulated node.
    struct SimNvmlApi {
        node: Node,
    }

    impl SimNvmlApi {
        /// Create the adapter. Returns `None` if the node has no NVIDIA GPUs.
        fn new(node: Node) -> Option<Self> {
            let has_nvidia = node.gpus().iter().any(|g| g.spec().vendor == GpuVendor::Nvidia);
            has_nvidia.then_some(Self { node })
        }

        fn gpu(&self, index: u32) -> pmt::Result<&crate::GpuHandle> {
            self.node
                .gpus()
                .get(index as usize)
                .ok_or_else(|| PmtError::UnknownDomain(format!("gpu{index}")))
        }
    }

    impl NvmlApi for SimNvmlApi {
        fn device_count(&self) -> u32 {
            self.node.gpus().len() as u32
        }

        fn power_usage_mw(&self, index: u32) -> pmt::Result<u64> {
            Ok((self.gpu(index)?.power_w() * 1.0e3).round() as u64)
        }

        fn total_energy_consumption_mj(&self, index: u32) -> pmt::Result<u64> {
            Ok((self.gpu(index)?.energy_j() * 1.0e3).round() as u64)
        }
    }

    /// ROCm-SMI-like API over the AMD GCDs of one simulated node.
    struct SimRocmSmiApi {
        node: Node,
    }

    impl SimRocmSmiApi {
        /// Create the adapter. Returns `None` if the node has no AMD GPUs.
        fn new(node: Node) -> Option<Self> {
            let has_amd = node.gpus().iter().any(|g| g.spec().vendor == GpuVendor::Amd);
            has_amd.then_some(Self { node })
        }

        fn gpu(&self, index: u32) -> pmt::Result<&crate::GpuHandle> {
            self.node
                .gpus()
                .get(index as usize)
                .ok_or_else(|| PmtError::UnknownDomain(format!("gcd{index}")))
        }
    }

    impl RocmSmiApi for SimRocmSmiApi {
        fn device_count(&self) -> u32 {
            self.node.gpus().len() as u32
        }

        fn power_ave_uw(&self, index: u32) -> pmt::Result<u64> {
            Ok((self.gpu(index)?.power_w() * 1.0e6).round() as u64)
        }

        fn energy_count_uj(&self, index: u32) -> pmt::Result<u64> {
            Ok((self.gpu(index)?.energy_j() * 1.0e6).round() as u64)
        }
    }

    #[test]
    fn clock_adapter_follows_sim_clock() {
        let sim = SimClock::new();
        let adapter = SimClockAdapter::new(sim.clone());
        sim.advance(3.5);
        assert_eq!(adapter.now_s(), 3.5);
    }

    #[test]
    fn nvml_adapter_only_for_nvidia_nodes() {
        assert!(SimNvmlApi::new(arch::cscs_a100().build()).is_some());
        assert!(SimNvmlApi::new(arch::lumi_g().build()).is_none());
        assert!(SimRocmSmiApi::new(arch::lumi_g().build()).is_some());
        assert!(SimRocmSmiApi::new(arch::mini_hpc().build()).is_none());
    }

    #[test]
    fn nvml_sensor_reads_simulated_gpu() {
        let node = arch::cscs_a100().build();
        node.gpus()[0].set_load(1.0);
        node.advance(10.0);
        let api = Arc::new(SimNvmlApi::new(node.clone()).unwrap());
        let sensor = NvmlSensor::new(api).unwrap();
        let samples = sensor.sample().unwrap();
        assert_eq!(samples.len(), 4);
        // GPU 0 is at full load -> ~400 W and > 0 J.
        assert!(samples[0].power_w.unwrap() > 300.0);
        assert!(samples[0].energy_j.unwrap() > 1000.0);
        // GPU 1 is idle.
        assert!(samples[1].power_w.unwrap() < 100.0);
    }

    #[test]
    fn rocm_sensor_reads_simulated_gcds() {
        let node = arch::lumi_g().build();
        node.gpus()[3].set_load(0.8);
        node.advance(5.0);
        let api = Arc::new(SimRocmSmiApi::new(node).unwrap());
        let sensor = RocmSmiSensor::new(api).unwrap();
        let samples = sensor.sample().unwrap();
        assert_eq!(samples.len(), 8);
        assert!(samples[3].power_w.unwrap() > samples[0].power_w.unwrap());
    }

    #[test]
    fn node_sensor_card_granularity_matches_pm_counters() {
        let node = arch::lumi_g().build();
        let sensor = SimNodeSensor::per_card(node);
        let domains = sensor.domains();
        // node + cpu + mem + 4 cards
        assert_eq!(domains.len(), 7);
        assert!(domains.iter().any(|d| d.kind == DomainKind::GpuCard));
        assert!(!domains.iter().any(|d| d.kind == DomainKind::Gpu));
    }

    #[test]
    fn node_sensor_readings_are_bit_identical_to_the_node_accessors() {
        for system in [SystemKind::LumiG, SystemKind::CscsA100, SystemKind::MiniHpc] {
            let node = system.node_builder().build();
            // Uneven loads and two advances, so no two dies hold the same
            // counter (the setup of hwmodel's association-order test).
            for (i, gpu) in node.gpus().iter().enumerate() {
                gpu.set_load(0.13 + 0.1 * i as f64);
            }
            node.set_host_load(0.37, 0.61, 0.29);
            node.advance(1.0 / 3.0);
            node.gpus()[0].set_compute_frequency(0.7 * node.gpus()[0].spec().dvfs.f_max_hz);
            node.advance(0.7);

            // The reading's values, in the sensor's domain order.
            let bits = |s: &DomainSample| (s.domain, s.power_w.map(f64::to_bits), s.energy_j.map(f64::to_bits));
            let both = |domain, (power_w, energy_j): (f64, f64)| bits(&DomainSample::both(domain, power_w, energy_j));
            let expected = {
                let r = node.read();
                let mut out = vec![both(Domain::node(), r.node()), both(Domain::cpu(0), r.cpus())];
                if node.spec().has_memory_sensor {
                    out.push(both(Domain::memory(), r.memory()));
                }
                for card in 0..node.spec().gpu_cards() {
                    out.push(both(Domain::gpu_card(card as u32), r.card(card)));
                }
                out
            };
            let sensor = SimNodeSensor::per_card(node.clone());
            let read: Vec<_> = sensor.sample().unwrap().iter().map(bits).collect();
            assert_eq!(read, expected, "{}", system.name());
            assert_eq!(sensor.domains(), expected.iter().map(|r| r.0).collect::<Vec<_>>());
        }
    }

    #[test]
    fn die_writers_and_a_node_sampler_share_the_node_lock_without_deadlock_or_drift() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        use std::time::Duration;

        const STEPS: usize = 2_000;
        // Step `k` of die `i`: a load, a clock and an advance that differ
        // from die to die and from step to step.
        fn drive(gpu: &crate::GpuHandle, k: usize) {
            let i = gpu.index();
            let dvfs = &gpu.spec().dvfs;
            gpu.set_load(((i + k) % 11) as f64 / 10.0);
            gpu.set_compute_frequency(
                dvfs.f_min_hz + (dvfs.f_max_hz - dvfs.f_min_hz) * ((7 * k + i) % 13) as f64 / 12.0,
            );
            gpu.advance(1.0e-3 * (1 + (k + i) % 3) as f64);
        }

        let serial = arch::lumi_g().build();
        for gpu in serial.gpus() {
            for k in 0..STEPS {
                drive(gpu, k);
            }
        }

        // One thread per die, and one sampling the node through the sensor
        // until every writer is done; the test thread only waits, so a
        // deadlock fails it instead of hanging it.
        let node = arch::lumi_g().build();
        let shared = node.clone();
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let stop = AtomicBool::new(false);
            let node_energies = std::thread::scope(|scope| {
                let sampler = scope.spawn(|| {
                    let sensor = SimNodeSensor::per_card(shared.clone());
                    let mut out = Vec::new();
                    let mut node_energies = Vec::new();
                    loop {
                        let last = stop.load(Ordering::Acquire);
                        out.clear();
                        sensor.sample_into(&mut out).unwrap();
                        node_energies.push(out[0].energy_j.unwrap());
                        if last {
                            return node_energies;
                        }
                    }
                });
                let writers: Vec<_> = shared
                    .gpus()
                    .iter()
                    .map(|gpu| scope.spawn(move || (0..STEPS).for_each(|k| drive(gpu, k))))
                    .collect();
                for writer in writers {
                    writer.join().unwrap();
                }
                stop.store(true, Ordering::Release);
                sampler.join().unwrap()
            });
            done.send(node_energies).unwrap();
        });
        let node_energies = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("a die writer or the node sampler deadlocked");

        // Every sample saw one consistent state: the node counter never runs back.
        assert!(
            node_energies.windows(2).all(|w| w[0] <= w[1]),
            "node energy ran backwards"
        );
        assert_eq!(node_energies.last().copied(), Some(node.read().node().1));
        for (die, alone) in node.gpus().iter().zip(serial.gpus()) {
            assert_eq!(
                die.energy_j().to_bits(),
                alone.energy_j().to_bits(),
                "die {}",
                die.index()
            );
            assert_eq!(
                die.compute_frequency(),
                alone.compute_frequency(),
                "die {}",
                die.index()
            );
            assert_eq!(die.occupancy(), alone.occupancy(), "die {}", die.index());
        }
    }

    #[test]
    fn node_sensor_appends_behind_another_sensor() {
        let node = arch::lumi_g().build();
        let sensor = SimNodeSensor::per_card(node.clone());
        let mut out = vec![DomainSample::power(Domain::other(), 1.0)];
        sensor.sample_into(&mut out).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(out[0], DomainSample::power(Domain::other(), 1.0));
        let (power_w, energy_j) = node.read().node();
        assert_eq!(out[1], DomainSample::both(Domain::node(), power_w, energy_j));
    }

    #[test]
    fn node_sensor_omits_memory_when_absent() {
        let node = arch::cscs_a100().build();
        let sensor = SimNodeSensor::per_card(node);
        assert!(!sensor.domains().iter().any(|d| d.kind == DomainKind::Memory));
    }

    #[test]
    fn die_power_sensor_tracks_load_and_frequency() {
        let node = arch::mini_hpc().build();
        let gpu = node.gpus()[0].clone();
        let sensor = GpuDiePowerSensor::new(gpu.clone());
        assert_eq!(sensor.domains(), vec![Domain::gpu(0)]);
        let idle = sensor.sample().unwrap()[0].power_w.unwrap();
        gpu.set_load(1.0);
        let busy = sensor.sample().unwrap()[0].power_w.unwrap();
        assert!(busy > idle, "busy {busy} W should exceed idle {idle} W");
        // Down-clocking the die lowers its modelled power.
        let f_min = gpu.spec().dvfs.f_min_hz;
        gpu.set_compute_frequency(f_min);
        let slow = sensor.sample().unwrap()[0].power_w.unwrap();
        assert!(slow < busy, "down-clocked {slow} W should be below nominal {busy} W");
        // The sample is power-only: energy comes from clock integration.
        assert!(sensor.sample().unwrap()[0].energy_j.is_none());
    }

    #[test]
    fn meter_over_node_sensor_measures_region_energy() {
        let cluster = crate::topology::Cluster::new(SystemKind::CscsA100, 1);
        let node = cluster.node(0).clone();
        let meter = PowerMeter::builder()
            .sensor(SimNodeSensor::per_card(node.clone()))
            .clock(SimClockAdapter::new(cluster.clock().clone()))
            .build();
        meter.start_region("step").unwrap();
        for g in node.gpus() {
            g.set_load(1.0);
        }
        cluster.advance(10.0);
        meter.end_region("step").unwrap();
        let record = &meter.records()[0];
        // Four A100s at ~400 W for 10 s ≈ 16 kJ of GPU-card energy.
        let gpu_energy = record.energy_by_kind(DomainKind::GpuCard);
        assert!((12_000.0..20_000.0).contains(&gpu_energy), "gpu energy {gpu_energy}");
        let node_energy = record.energy(Domain::node());
        assert!(node_energy > gpu_energy);
    }
}
