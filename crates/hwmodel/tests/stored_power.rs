//! A device's power is stored state, refreshed by every write to one of its
//! loads or clocks. Seeded random sequences of every mutator — the host's one
//! `Node::set_host_load`, the node-wide setters and the die mutators — run on
//! a node of each system, and after each call every device's reading —
//! through `Node::read`, and through its handle for a GPU die — must be its
//! power formula on its current inputs, bit for bit, so a mutator that
//! forgets the refresh fails here. The host loads have no read-back: the
//! test tracks the ones it set. Every advance must integrate, to the bit, the
//! joules a read-time evaluation of the formula integrates (`energy +=
//! formula(inputs) · dt`).

use hwmodel::arch;
use hwmodel::kernel::KernelWorkload;
use hwmodel::{Node, NodeBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mutator calls per node and seed.
const CALLS: usize = 3000;

/// The host loads last set on a node: every socket's busy fraction, the
/// DRAM's and the network's utilisation.
#[derive(Clone, Copy, Default)]
struct HostLoads {
    cpu: f64,
    memory: f64,
    network: f64,
}

/// Each device's power formula on its current inputs, in `node_read` order:
/// sockets, dies, memory, aux. The host devices are on `host`.
fn formula_powers(node: &Node, host: HostLoads) -> Vec<f64> {
    let spec = node.spec();
    let mut out: Vec<f64> = spec
        .cpus
        .iter()
        .map(|c| c.idle_power_w + (c.tdp_w - c.idle_power_w) * host.cpu)
        .collect();
    out.extend(node.gpus().iter().map(|g| g.power_at(g.occupancy(), g.compute_frequency())));
    out.push(spec.memory.idle_power_w() + spec.memory.active_w_max * host.memory);
    out.push(spec.aux.baseline_w + spec.aux.network_active_w * host.network);
    out
}

/// Every device's `(power_w, energy_j)` from one `Node::read`.
fn node_read(node: &Node) -> Vec<(f64, f64)> {
    let r = node.read();
    let mut out: Vec<(f64, f64)> = (0..node.spec().cpus.len()).map(|i| r.cpu(i)).collect();
    out.extend((0..node.gpus().len()).map(|i| r.gpu(i)));
    out.push(r.memory());
    out.push(r.aux());
    out
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// A load in `[0, 1]`, its two ends a quarter of the time each.
fn load(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen(),
    }
}

/// A clock request around the DVFS range `[f_min, f_max]`, past either end at times.
fn clock(rng: &mut StdRng, f_min: f64, f_max: f64) -> f64 {
    rng.gen_range(0.5 * f_min..1.2 * f_max)
}

/// Drive `CALLS` random mutator calls and advances on a fresh node of
/// `builder` (a node of `system`), checking the stored power after each and
/// the energy after each advance.
fn drive(system: &str, builder: NodeBuilder, seed: u64) {
    let node = builder.build();
    let n_cpus = node.spec().cpus.len();
    let n_gpus = node.gpus().len();
    let (gpu_min, gpu_max) = {
        let dvfs = &node.gpus()[0].spec().dvfs;
        (dvfs.f_min_hz, dvfs.f_max_hz)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut energy = vec![0.0f64; n_cpus + n_gpus + 2];
    let mut host = HostLoads::default();

    for call in 0..CALLS {
        let die = rng.gen_range(0..n_gpus);
        let what = match rng.gen_range(0..10u32) {
            0 => {
                node.gpus()[die].set_load(load(&mut rng));
                "die set_load"
            }
            1 => {
                node.gpus()[die].set_idle();
                "die set_idle"
            }
            2 => {
                let parallelism = 10f64.powf(rng.gen_range(4.0..9.0));
                let work = KernelWorkload::new(rng.gen_range(1.0e9..1.0e13), rng.gen_range(1.0e8..1.0e12))
                    .with_parallelism(parallelism);
                node.gpus()[die].execute(&work);
                "execute"
            }
            3 => {
                node.gpus()[die].set_compute_frequency(clock(&mut rng, gpu_min, gpu_max));
                "set_compute_frequency"
            }
            4 => {
                host = HostLoads {
                    cpu: load(&mut rng),
                    memory: load(&mut rng),
                    network: load(&mut rng),
                };
                node.set_host_load(host.cpu, host.memory, host.network);
                "set_host_load"
            }
            5 => {
                node.set_gpus_idle();
                "set_gpus_idle"
            }
            6 => {
                node.set_gpu_frequency(clock(&mut rng, gpu_min, gpu_max));
                "set_gpu_frequency"
            }
            7 => {
                host = HostLoads::default();
                node.set_idle();
                "node set_idle"
            }
            8 => {
                let dt = rng.gen_range(0.0..5.0);
                for (e, p) in energy.iter_mut().zip(formula_powers(&node, host)) {
                    *e += p * dt;
                }
                node.advance(dt);
                "node advance"
            }
            _ => {
                let dt = rng.gen_range(0.0..5.0);
                let k = n_cpus + die;
                energy[k] += formula_powers(&node, host)[k] * dt;
                node.gpus()[die].advance(dt);
                "die advance"
            }
        };

        let at = format!("{system}, seed {seed}, call {call} ({what})");
        let formula = bits(formula_powers(&node, host));
        let readings = node_read(&node);
        assert_eq!(bits(readings.iter().map(|r| r.0)), formula, "{at}: power");
        assert_eq!(
            bits(readings.iter().map(|r| r.1)),
            bits(energy.iter().copied()),
            "{at}: energy"
        );
        let dies: Vec<(f64, f64)> = node.gpus().iter().map(|g| (g.power_w(), g.energy_j())).collect();
        assert_eq!(dies, readings[n_cpus..n_cpus + n_gpus], "{at}: die handles");
    }
}

#[test]
fn every_mutator_refreshes_the_stored_power_and_advances_integrate_it() {
    for seed in [1, 2, 3] {
        drive("LUMI-G", arch::lumi_g(), seed);
        drive("CSCS-A100", arch::cscs_a100(), seed);
        drive("miniHPC", arch::mini_hpc(), seed);
    }
}
