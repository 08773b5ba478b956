//! A job on the simulated cluster: the Slurm-like lifecycle that accounts its
//! energy. The ranks a job runs are started above the machine, by
//! `experiments::campaign::run_ranks_with`: the machine knows no communicator.
//!
//! The decisive detail for the paper's Figure 1: **Slurm's energy window starts
//! at job submission**, so it includes job launch and application setup
//! (allocating the simulation's data structures, reading input, moving data to
//! the GPUs) — phases during which the GPUs are mostly idle but the node still
//! draws hundreds of watts. PMT's window, by contrast, starts when the
//! time-stepping loop begins. [`SlurmJob`] is Slurm's side of that
//! subtraction: it reads the node counters at submission and at completion,
//! through `pm_counters` as on both LUMI-G and the CSCS A100 system, and
//! reports the difference as the job's [`SacctRecord`].

use crate::topology::Cluster;

/// The `sacct` row of a completed job: the only energy figure Slurm gives,
/// one number for the whole job.
#[derive(Clone, Debug, PartialEq)]
pub struct SacctRecord {
    /// Simulated seconds from submission to completion.
    pub elapsed_s: f64,
    /// Energy the node counters accumulated from submission to completion,
    /// joules.
    pub consumed_energy_j: f64,
}

/// A job under (simulated) Slurm control with energy accounting.
pub struct SlurmJob {
    cluster: Cluster,
    submit_time_s: f64,
    submit_energy_j: Vec<f64>,
}

impl SlurmJob {
    /// Submit a job over `cluster`. Energy accounting starts *now*: Slurm
    /// records each node's counter at submission time.
    pub fn submit(cluster: Cluster) -> Self {
        Self {
            submit_time_s: cluster.clock().now(),
            submit_energy_j: pm_counters_j(&cluster),
            cluster,
        }
    }

    /// Run the job-launch + application-setup phase for `duration_s` simulated
    /// seconds: CPUs moderately busy (launcher, I/O, building data structures),
    /// GPUs idle — exactly the situation the paper describes when explaining why
    /// the Slurm−PMT gap is dominated by setup.
    pub fn run_setup(&self, duration_s: f64) {
        assert!(duration_s >= 0.0);
        for node in self.cluster.nodes() {
            node.set_host_load(0.25, 0.2, 0.1);
            node.set_gpus_idle();
        }
        self.cluster.advance(duration_s);
        self.cluster.set_idle();
    }

    /// Run the teardown phase (final I/O) for `duration_s` simulated seconds:
    /// CPUs and network lightly busy, the DRAM left at the load the last
    /// phase gave it.
    pub fn run_teardown(&self, duration_s: f64) {
        assert!(duration_s >= 0.0);
        for node in self.cluster.nodes() {
            node.set_host_load(0.15, node.memory_load(), 0.2);
        }
        self.cluster.advance(duration_s);
        self.cluster.set_idle();
    }

    /// Close accounting: read the counters again and report the job's
    /// `sacct` row.
    pub fn complete(self) -> SacctRecord {
        let end_energy_j = pm_counters_j(&self.cluster);
        SacctRecord {
            elapsed_s: self.cluster.clock().now() - self.submit_time_s,
            consumed_energy_j: end_energy_j
                .iter()
                .zip(&self.submit_energy_j)
                .map(|(e, s)| (e - s).max(0.0))
                .sum(),
        }
    }
}

/// Each node's energy counter as Slurm's `pm_counters` plugin reads it:
/// whole joules, never negative.
fn pm_counters_j(cluster: &Cluster) -> Vec<f64> {
    cluster.nodes().iter().map(|n| n.read().node().1.round().max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::SystemKind;
    use crate::memory;

    fn small_cluster() -> Cluster {
        Cluster::new(SystemKind::CscsA100, 2)
    }

    #[test]
    fn lifecycle_phases_progress() {
        let cluster = small_cluster();
        let job = SlurmJob::submit(cluster.clone());
        job.run_setup(30.0);
        cluster.advance(10.0);
        job.run_teardown(5.0);
        let rec = job.complete();
        assert!((rec.elapsed_s - 45.0).abs() < 1e-9);
        assert!(rec.consumed_energy_j > 0.0);
    }

    #[test]
    fn consumed_energy_covers_setup_phase() {
        let cluster = small_cluster();
        let job = SlurmJob::submit(cluster.clone());
        job.run_setup(60.0);
        // Main loop: GPUs fully busy for 10 s.
        for node in cluster.nodes() {
            for g in node.gpus() {
                g.set_load(1.0);
            }
        }
        cluster.advance(10.0);
        cluster.set_idle();
        let total = job.complete().consumed_energy_j;
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
        let job = SlurmJob::submit(cluster.clone());
        job.run_setup(30.0);
        cluster.advance(70.0);
        let rec = job.complete();
        assert!((rec.elapsed_s - 100.0).abs() < 1e-9);
        assert!(rec.consumed_energy_j > 0.0);
    }

    #[test]
    fn teardown_keeps_the_dram_at_the_load_the_last_phase_left() {
        let cluster = small_cluster();
        let job = SlurmJob::submit(cluster.clone());
        for node in cluster.nodes() {
            node.set_host_load(0.3, 0.7, 0.1);
        }
        job.run_teardown(5.0);
        for node in cluster.nodes() {
            let expected = memory::power(&node.spec().memory, 0.7) * 5.0;
            assert_eq!(
                node.read().memory().1.to_bits(),
                expected.to_bits(),
                "{}",
                node.hostname()
            );
        }
    }

    #[test]
    fn pm_counters_quantises_to_joules() {
        let cluster = Cluster::new(SystemKind::LumiG, 2);
        cluster.advance(0.37); // the counters start off whole joules
        let node_j = || cluster.nodes().iter().map(|n| n.read().node().1).collect::<Vec<_>>();
        let start = node_j();
        let job = SlurmJob::submit(cluster.clone());
        cluster.node(1).gpus()[0].set_load(1.0);
        cluster.advance(1.29);
        let end = node_j();
        let consumed = job.complete().consumed_energy_j;
        assert_eq!(consumed, consumed.round());
        let rounded: f64 = end.iter().zip(&start).map(|(e, s)| e.round() - s.round()).sum();
        assert_eq!(consumed, rounded);
        assert!(end.iter().chain(&start).any(|j| j.fract() != 0.0));
    }
}
