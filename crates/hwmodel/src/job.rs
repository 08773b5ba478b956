//! A job on the simulated cluster: the launcher that runs its ranks, and the
//! Slurm-like lifecycle that accounts its energy.
//!
//! [`run_ranks_with`] runs one closure per rank, each on its own thread, with
//! the rank's hardware context and communicator.
//!
//! The decisive detail for the paper's Figure 1: **Slurm's energy window starts
//! at job submission**, so it includes job launch and application setup
//! (allocating the simulation's data structures, reading input, moving data to
//! the GPUs) — phases during which the GPUs are mostly idle but the node still
//! draws hundreds of watts. PMT's window, by contrast, starts when the
//! time-stepping loop begins. [`SlurmJob`] models the full lifecycle so both
//! windows can be computed from the same run.

use crate::energy_plugin::AcctGatherEnergyType;
use crate::mapping::{RankMapping, RankPlacement};
use crate::noise::NoiseModel;
use crate::sacct::SacctRecord;
use crate::topology::Cluster;
use crate::{GpuHandle, Node, SimClock};
use comm::{Comm, CommWorld, TransportKind};
use parking_lot::Mutex;

/// Everything a rank function needs: identity, placement, hardware handles and
/// the communicator.
pub struct RankContext {
    /// Global rank id.
    pub rank: u32,
    /// Total number of ranks.
    pub size: u32,
    /// Placement information (node, die, card sharing).
    pub placement: RankPlacement,
    /// The node this rank runs on (shared handle).
    pub node: Node,
    /// The GPU die this rank drives (shared handle).
    pub gpu: GpuHandle,
    /// The cluster-wide simulated clock.
    pub clock: SimClock,
    /// MPI-like communicator.
    pub comm: Comm,
}

/// Run `f` once per rank of `mapping`, each on its own OS thread, and return
/// the per-rank results in rank order.
///
/// The closure receives a [`RankContext`]; it may use the communicator for
/// barriers/gathers exactly like an MPI program would. `Shm` connects the
/// ranks by in-process channels; `Socket` gives every rank thread a real
/// Unix-socket connection to its peers (the `--transport socket` experiment
/// axis).
pub fn run_ranks_with<T, F>(cluster: &Cluster, mapping: &RankMapping, transport: TransportKind, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(RankContext) -> T + Sync,
{
    let n = mapping.n_ranks();
    let comms = CommWorld::create_with(n, transport);
    let mut contexts: Vec<RankContext> = comms
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let placement = mapping.placement(rank as u32).expect("placement missing").clone();
            let node = cluster.node(placement.node_index).clone();
            let gpu = node.gpu(placement.gpu_die).expect("GPU die missing").clone();
            RankContext {
                rank: rank as u32,
                size: n as u32,
                placement,
                node,
                gpu,
                clock: cluster.clock().clone(),
                comm,
            }
        })
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = contexts.drain(..).map(|ctx| scope.spawn(|| f(ctx))).collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    })
}

/// Phases of a job's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobPhase {
    /// Submitted, accounting started, nothing running yet.
    Pending,
    /// Job launch + application initialisation (GPUs idle).
    Setup,
    /// The application's main (time-stepping) loop.
    Running,
    /// Final I/O and teardown.
    Teardown,
    /// Completed; accounting closed.
    Completed,
}

/// A job under (simulated) Slurm control with energy accounting.
pub struct SlurmJob {
    id: u64,
    name: String,
    cluster: Cluster,
    backend: AcctGatherEnergyType,
    noise: Mutex<NoiseModel>,
    submit_time_s: f64,
    submit_energy_j: Vec<f64>,
    phase: Mutex<JobPhase>,
    end_time_s: Mutex<Option<f64>>,
    end_energy_j: Mutex<Option<Vec<f64>>>,
    main_loop_window: Mutex<Option<(f64, f64)>>,
}

impl SlurmJob {
    /// Submit a job over `cluster`. Energy accounting starts *now*: the plugin
    /// records each node's counter at submission time.
    pub fn submit(id: u64, name: impl Into<String>, cluster: Cluster, backend: AcctGatherEnergyType) -> Self {
        let mut noise = backend.noise(id);
        let submit_energy_j = cluster
            .nodes()
            .iter()
            .map(|n| backend.sample_node_energy_j(n, &mut noise))
            .collect();
        Self {
            id,
            name: name.into(),
            submit_time_s: cluster.clock().now(),
            submit_energy_j,
            cluster,
            backend,
            noise: Mutex::new(noise),
            phase: Mutex::new(JobPhase::Pending),
            end_time_s: Mutex::new(None),
            end_energy_j: Mutex::new(None),
            main_loop_window: Mutex::new(None),
        }
    }

    /// Run the job-launch + application-setup phase for `duration_s` simulated
    /// seconds: CPUs moderately busy (launcher, I/O, building data structures),
    /// GPUs idle — exactly the situation the paper describes when explaining why
    /// the Slurm−PMT gap is dominated by setup.
    pub fn run_setup(&self, duration_s: f64) {
        assert!(duration_s >= 0.0);
        *self.phase.lock() = JobPhase::Setup;
        for node in self.cluster.nodes() {
            for cpu in node.cpus() {
                cpu.set_load(0.25);
            }
            node.memory().set_load(0.2);
            node.aux().set_load(0.1);
            for gpu in node.gpus() {
                gpu.set_idle();
            }
        }
        self.cluster.advance(duration_s);
        self.cluster.set_idle();
    }

    /// Mark the beginning of the application's main loop (what PMT measures).
    pub fn mark_main_loop_start(&self) {
        *self.phase.lock() = JobPhase::Running;
        let now = self.cluster.clock().now();
        let mut window = self.main_loop_window.lock();
        *window = Some((now, window.map(|w| w.1).unwrap_or(now)));
    }

    /// Mark the end of the application's main loop.
    pub fn mark_main_loop_end(&self) {
        *self.phase.lock() = JobPhase::Teardown;
        let now = self.cluster.clock().now();
        let mut window = self.main_loop_window.lock();
        let start = window.map(|w| w.0).unwrap_or(now);
        *window = Some((start, now));
    }

    /// Run the teardown phase (final I/O) for `duration_s` simulated seconds.
    pub fn run_teardown(&self, duration_s: f64) {
        assert!(duration_s >= 0.0);
        *self.phase.lock() = JobPhase::Teardown;
        for node in self.cluster.nodes() {
            for cpu in node.cpus() {
                cpu.set_load(0.15);
            }
            node.aux().set_load(0.2);
        }
        self.cluster.advance(duration_s);
        self.cluster.set_idle();
    }

    /// Close accounting: record the final counters and time.
    pub fn complete(&self) {
        let mut noise = self.noise.lock();
        let end: Vec<f64> = self
            .cluster
            .nodes()
            .iter()
            .map(|n| self.backend.sample_node_energy_j(n, &mut noise))
            .collect();
        *self.end_energy_j.lock() = Some(end);
        *self.end_time_s.lock() = Some(self.cluster.clock().now());
        *self.phase.lock() = JobPhase::Completed;
    }

    /// Total energy consumed between submission and completion according to the
    /// accounting plugin, in joules. Panics if the job is not completed.
    fn consumed_energy_j(&self) -> f64 {
        let end = self.end_energy_j.lock();
        let end = end.as_ref().expect("job not completed");
        end.iter().zip(&self.submit_energy_j).map(|(e, s)| (e - s).max(0.0)).sum()
    }

    /// Produce the `sacct` accounting record. Panics if the job is not completed.
    pub fn sacct(&self) -> SacctRecord {
        let end_time = self.end_time_s.lock().expect("job not completed");
        SacctRecord {
            job_id: self.id,
            job_name: self.name.clone(),
            n_nodes: self.cluster.node_count(),
            elapsed_s: end_time - self.submit_time_s,
            consumed_energy_j: self.consumed_energy_j(),
            state: "COMPLETED".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::SystemKind;

    #[test]
    fn ranks_see_their_own_gpu() {
        let cluster = Cluster::new(SystemKind::CscsA100, 2);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let results = run_ranks_with(&cluster, &mapping, TransportKind::Shm, |ctx| {
            (ctx.rank, ctx.placement.node_index, ctx.gpu.index())
        });
        assert_eq!(results.len(), 8);
        assert_eq!(results[0], (0, 0, 0));
        assert_eq!(results[5], (5, 1, 1));
    }

    #[test]
    fn ranks_can_use_collectives() {
        let cluster = Cluster::new(SystemKind::MiniHpc, 1);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let results = run_ranks_with(&cluster, &mapping, TransportKind::Shm, |ctx| {
            ctx.comm.barrier();
            ctx.comm.allreduce_sum(1.0)
        });
        assert!(results.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn rank_loads_accumulate_on_shared_nodes() {
        let cluster = Cluster::new(SystemKind::LumiG, 1);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        run_ranks_with(&cluster, &mapping, TransportKind::Shm, |ctx| {
            ctx.gpu.set_load(1.0);
        });
        // All 8 GCDs were set busy by their ranks.
        let busy: usize = cluster.node(0).gpus().iter().filter(|g| g.occupancy() > 0.0).count();
        assert_eq!(busy, 8);
        cluster.advance(1.0);
        assert!(cluster.node(0).gpus().iter().all(|g| g.energy_j() > 0.0));
    }

    #[test]
    fn gather_reports_to_rank_zero() {
        let cluster = Cluster::new(SystemKind::CscsA100, 1);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let results = run_ranks_with(&cluster, &mapping, TransportKind::Shm, |ctx| {
            let hostname = ctx.node.hostname().to_string();
            ctx.comm.gather(hostname, 0).map(|v| v.len())
        });
        assert_eq!(results[0], Some(4));
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    fn small_cluster() -> Cluster {
        Cluster::new(SystemKind::CscsA100, 2)
    }

    #[test]
    fn lifecycle_phases_progress() {
        let cluster = small_cluster();
        let job = SlurmJob::submit(1, "test", cluster, AcctGatherEnergyType::PmCounters);
        assert_eq!(*job.phase.lock(), JobPhase::Pending);
        job.run_setup(30.0);
        assert_eq!(*job.phase.lock(), JobPhase::Setup);
        job.mark_main_loop_start();
        assert_eq!(*job.phase.lock(), JobPhase::Running);
        job.cluster.advance(10.0);
        job.mark_main_loop_end();
        job.run_teardown(5.0);
        job.complete();
        assert_eq!(*job.phase.lock(), JobPhase::Completed);
        let (start, end) = job.main_loop_window.lock().unwrap();
        assert!((end - start - 10.0).abs() < 1e-9);
    }

    #[test]
    fn consumed_energy_covers_setup_phase() {
        let cluster = small_cluster();
        let job = SlurmJob::submit(2, "setup-heavy", cluster, AcctGatherEnergyType::PmCounters);
        job.run_setup(60.0);
        job.mark_main_loop_start();
        // Main loop: GPUs fully busy for 10 s.
        for node in job.cluster.nodes() {
            for g in node.gpus() {
                g.set_load(1.0);
            }
        }
        job.cluster.advance(10.0);
        job.cluster.set_idle();
        job.mark_main_loop_end();
        job.complete();

        let total = job.consumed_energy_j();
        // Energy of the main loop alone (node power at full GPU load ~2.2 kW * 10 s * 2 nodes).
        let idle_node_power = 600.0; // rough lower bound for an idle A100 node
        assert!(total > 0.0);
        // The setup phase at ~60 s of idle-ish power must contribute at least
        // the idle node power times its duration.
        assert!(
            total > idle_node_power * 2.0 * 60.0,
            "total {total} J should include the 60 s setup phase"
        );
    }

    #[test]
    fn sacct_record_reflects_job() {
        let cluster = small_cluster();
        let job = SlurmJob::submit(77, "sphexa", cluster, AcctGatherEnergyType::PmCounters);
        job.run_setup(30.0);
        job.mark_main_loop_start();
        job.cluster.advance(70.0);
        job.mark_main_loop_end();
        job.complete();
        let rec = job.sacct();
        assert_eq!(rec.job_id, 77);
        assert_eq!(rec.n_nodes, 2);
        assert!((rec.elapsed_s - 100.0).abs() < 1e-9);
        assert!(rec.consumed_energy_j > 0.0);
        assert_eq!(rec.state, "COMPLETED");
    }

    #[test]
    fn rapl_backend_reports_much_less_than_pm_counters() {
        // Same workload accounted by both back-ends on separate clusters.
        let run = |backend| {
            let cluster = small_cluster();
            let job = SlurmJob::submit(3, "x", cluster, backend);
            for node in job.cluster.nodes() {
                for g in node.gpus() {
                    g.set_load(1.0);
                }
            }
            job.cluster.advance(100.0);
            job.complete();
            job.consumed_energy_j()
        };
        let pm = run(AcctGatherEnergyType::PmCounters);
        let rapl = run(AcctGatherEnergyType::Rapl);
        assert!(rapl < pm * 0.3, "rapl {rapl} vs pm_counters {pm}");
    }

    #[test]
    #[should_panic]
    fn sacct_before_completion_panics() {
        let cluster = small_cluster();
        let job = SlurmJob::submit(4, "x", cluster, AcctGatherEnergyType::Ipmi);
        let _ = job.sacct();
    }
}
