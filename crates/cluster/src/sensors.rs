//! Adapters between the simulated hardware (`hwmodel`) and the measurement
//! toolkit (`pmt`).
//!
//! | Adapter | Implements | Backed by |
//! |---|---|---|
//! | [`SimClockAdapter`] | `pmt::Clock` | `hwmodel::SimClock` |
//! | [`SimNvmlApi`] | `pmt::backends::NvmlApi` | the node's NVIDIA GPU dies |
//! | [`SimRocmSmiApi`] | `pmt::backends::RocmSmiApi` | the node's AMD GCDs |
//! | [`SimNodeSensor`] | `pmt::Sensor` | node / CPU / memory / GPU-card counters, i.e. an in-memory equivalent of Cray `pm_counters` |
//!
//! Together with the file-based back-ends reading `hwmodel::VirtualSysfs`
//! trees, these adapters let the *same* `pmt` measurement code run against the
//! simulator that would run against real hardware.
//!
//! # Association order of the node and card sums
//!
//! [`SimNodeSensor`] is read twice per measured region on every rank, so one
//! read takes each device's `(power, energy)` once, all under one acquisition
//! of the node's lock (`hwmodel::Node::read`), and derives every reported sum
//! from those readings. Floating-point addition does not associate, and the
//! PMT/Slurm ratios of Figure 1 are pinned to the last bit, so the sums are
//! taken in exactly the order the `hwmodel::Node` accessors take them:
//!
//! * node = `(((cpu + gpu) + mem) + aux) · (1 + psu_loss)`, where `cpu` adds
//!   the sockets and `gpu` the dies in index order (`Node::power_w`,
//!   `Node::energy_j`);
//! * GPU card *k* = its dies in index order (`Node::card_power_w`,
//!   `Node::card_energy_j`).
//!
//! `node_sensor_readings_are_bit_identical_to_the_node_accessors` holds the two
//! together.

use hwmodel::device::PowerDevice;
use hwmodel::gpu::GpuVendor;
use hwmodel::{Node, SimClock};
use pmt::backends::nvml::NvmlApi;
use pmt::backends::rocm::RocmSmiApi;
use pmt::clock::Clock;
use pmt::{Domain, DomainSample, PmtError, Sensor};

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

/// NVML-like API over the NVIDIA GPU dies of one simulated node.
pub struct SimNvmlApi {
    node: Node,
}

impl SimNvmlApi {
    /// Create the adapter. Returns `None` if the node has no NVIDIA GPUs.
    pub fn new(node: Node) -> Option<Self> {
        let has_nvidia = node.gpus().iter().any(|g| g.spec().vendor == GpuVendor::Nvidia);
        has_nvidia.then_some(Self { node })
    }

    fn gpu(&self, index: u32) -> pmt::Result<&hwmodel::GpuHandle> {
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
pub struct SimRocmSmiApi {
    node: Node,
}

impl SimRocmSmiApi {
    /// Create the adapter. Returns `None` if the node has no AMD GPUs.
    pub fn new(node: Node) -> Option<Self> {
        let has_amd = node.gpus().iter().any(|g| g.spec().vendor == GpuVendor::Amd);
        has_amd.then_some(Self { node })
    }

    fn gpu(&self, index: u32) -> pmt::Result<&hwmodel::GpuHandle> {
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

/// Granularity at which GPU energy is exposed by a node-level sensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuGranularity {
    /// One domain per physical card (Cray `pm_counters` behaviour; two GCDs
    /// share one domain on MI250X).
    Card,
    /// One domain per die (what NVML/ROCm report).
    Die,
}

/// An in-memory `pmt::Sensor` exposing the same domains as Cray `pm_counters`:
/// node, CPU, memory (if the platform has a memory sensor) and GPU cards —
/// without going through the filesystem. Used for the large experiment
/// campaigns where writing/reading a virtual sysfs on every poll would only add
/// overhead; the file-based path is exercised separately in tests and examples.
///
/// One read takes the node's lock once ([`Node::read`]) and copies each
/// device's stored power and energy exactly once under it — no power model
/// runs at a read: each device's power is refreshed when its load or clock
/// changes — and every value is bit-identical to the `hwmodel::Node` accessor
/// of the same name (see the module docs for the order of the sums). The readings
/// come out in a fixed order (node, CPU, memory, then cards or dies by
/// index), which is what lets the meter find each accumulator by position.
pub struct SimNodeSensor {
    node: Node,
    granularity: GpuGranularity,
}

impl SimNodeSensor {
    /// Create a sensor over `node` reporting GPUs per physical card
    /// (the `pm_counters` convention).
    pub fn per_card(node: Node) -> Self {
        Self {
            node,
            granularity: GpuGranularity::Card,
        }
    }

    /// Create a sensor over `node` reporting GPUs per die.
    pub fn per_die(node: Node) -> Self {
        Self {
            node,
            granularity: GpuGranularity::Die,
        }
    }

    /// The granularity of the GPU domains.
    pub fn granularity(&self) -> GpuGranularity {
        self.granularity
    }
}

impl Sensor for SimNodeSensor {
    fn name(&self) -> &str {
        "sim_node"
    }

    fn domains(&self) -> Vec<Domain> {
        let mut out = vec![Domain::node(), Domain::cpu(0)];
        if self.node.spec().has_memory_sensor {
            out.push(Domain::memory());
        }
        match self.granularity {
            GpuGranularity::Card => {
                for card in 0..self.node.spec().gpu_cards() {
                    out.push(Domain::gpu_card(card as u32));
                }
            }
            GpuGranularity::Die => {
                for die in 0..self.node.gpus().len() {
                    out.push(Domain::gpu(die as u32));
                }
            }
        }
        out
    }

    fn sample_into(&self, out: &mut Vec<DomainSample>) -> pmt::Result<()> {
        let node = &self.node;
        let spec = node.spec();
        let add = |sum: (f64, f64), (power_w, energy_j): (f64, f64)| (sum.0 + power_w, sum.1 + energy_j);

        // The node sample needs every device; its slot is filled in last.
        let node_slot = out.len();
        out.push(DomainSample::both(Domain::node(), 0.0, 0.0));

        let reading = node.read();
        let cpu = (0..spec.cpus.len()).fold((0.0, 0.0), |sum, i| add(sum, reading.cpu(i)));
        out.push(DomainSample::both(Domain::cpu(0), cpu.0, cpu.1));
        let memory = reading.memory();
        if spec.has_memory_sensor {
            out.push(DomainSample::both(Domain::memory(), memory.0, memory.1));
        }

        let mut gpu = (0.0, 0.0);
        match self.granularity {
            GpuGranularity::Card => {
                let cards = node.gpus().chunks(spec.dies_per_card());
                for (card, dies) in cards.enumerate() {
                    let mut card_sum = (0.0, 0.0);
                    for die in dies {
                        let die_reading = reading.gpu(die.index());
                        card_sum = add(card_sum, die_reading);
                        gpu = add(gpu, die_reading);
                    }
                    out.push(DomainSample::both(
                        Domain::gpu_card(card as u32),
                        card_sum.0,
                        card_sum.1,
                    ));
                }
            }
            GpuGranularity::Die => {
                for die in 0..spec.gpus.len() {
                    let (power_w, energy_j) = reading.gpu(die);
                    gpu = add(gpu, (power_w, energy_j));
                    out.push(DomainSample::both(Domain::gpu(die as u32), power_w, energy_j));
                }
            }
        }

        let aux = reading.aux();
        drop(reading);
        let psu = 1.0 + spec.aux.psu_loss_fraction;
        out[node_slot] = DomainSample::both(
            Domain::node(),
            (((cpu.0 + gpu.0) + memory.0) + aux.0) * psu,
            (((cpu.1 + gpu.1) + memory.1) + aux.1) * psu,
        );
        Ok(())
    }

    fn description(&self) -> String {
        format!(
            "sim_node over {} ({:?} GPU granularity)",
            self.node.hostname(),
            self.granularity
        )
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
    gpu: hwmodel::GpuHandle,
}

impl GpuDiePowerSensor {
    /// Wrap one GPU die handle.
    pub fn new(gpu: hwmodel::GpuHandle) -> Self {
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
    use hwmodel::arch::{self, SystemKind};
    use pmt::backends::{NvmlSensor, RocmSmiSensor};
    use pmt::{DomainKind, PowerMeter};
    use std::sync::Arc;

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
        use hwmodel::device::DeviceKind;

        for system in [SystemKind::LumiG, SystemKind::CscsA100, SystemKind::MiniHpc] {
            let node = system.node_builder().build();
            // Uneven loads and two advances, so no two dies hold the same
            // counter and a sum taken in another order would round differently.
            for (i, gpu) in node.gpus().iter().enumerate() {
                gpu.set_load(0.13 + 0.1 * i as f64);
            }
            node.cpus()[0].set_load(0.37);
            node.memory().set_load(0.61);
            node.aux().set_load(0.29);
            node.advance(1.0 / 3.0);
            node.gpus()[0].set_compute_frequency(0.7 * node.gpus()[0].spec().dvfs.f_max_hz);
            node.advance(0.7);

            let bits = |s: &DomainSample| (s.domain, s.power_w.map(f64::to_bits), s.energy_j.map(f64::to_bits));
            let both = |domain, power_w: f64, energy_j: f64| bits(&DomainSample::both(domain, power_w, energy_j));
            let mut shared = vec![both(Domain::node(), node.power_w(), node.energy_j())];
            shared.push(both(
                Domain::cpu(0),
                node.power_by_kind_w(DeviceKind::Cpu),
                node.energy_by_kind_j(DeviceKind::Cpu),
            ));
            if node.spec().has_memory_sensor {
                shared.push(both(
                    Domain::memory(),
                    node.power_by_kind_w(DeviceKind::Memory),
                    node.energy_by_kind_j(DeviceKind::Memory),
                ));
            }

            let mut per_card = shared.clone();
            for card in 0..node.spec().gpu_cards() {
                per_card.push(both(
                    Domain::gpu_card(card as u32),
                    node.card_power_w(card),
                    node.card_energy_j(card),
                ));
            }
            let sensor = SimNodeSensor::per_card(node.clone());
            let read: Vec<_> = sensor.sample().unwrap().iter().map(bits).collect();
            assert_eq!(read, per_card, "{} per card", system.name());
            assert_eq!(sensor.domains(), per_card.iter().map(|r| r.0).collect::<Vec<_>>());

            let mut per_die = shared;
            for (die, gpu) in node.gpus().iter().enumerate() {
                per_die.push(both(Domain::gpu(die as u32), gpu.power_w(), gpu.energy_j()));
            }
            let sensor = SimNodeSensor::per_die(node.clone());
            let read: Vec<_> = sensor.sample().unwrap().iter().map(bits).collect();
            assert_eq!(read, per_die, "{} per die", system.name());
            assert_eq!(sensor.domains(), per_die.iter().map(|r| r.0).collect::<Vec<_>>());
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
        fn drive(gpu: &hwmodel::GpuHandle, k: usize) {
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
        assert_eq!(node_energies.last().copied(), Some(node.energy_j()));
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
        assert_eq!(
            out[1],
            DomainSample::both(Domain::node(), node.power_w(), node.energy_j())
        );
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
        let record = meter.end_region("step").unwrap();
        // Four A100s at ~400 W for 10 s ≈ 16 kJ of GPU-card energy.
        let gpu_energy = record.energy_by_kind(DomainKind::GpuCard);
        assert!((12_000.0..20_000.0).contains(&gpu_energy), "gpu energy {gpu_energy}");
        let node_energy = record.energy(Domain::node());
        assert!(node_energy > gpu_energy);
    }
}
