//! What a step tells the telemetry sink once it is done: the health gauges
//! and their baseline, the neighbour and rung histograms, and — once per run —
//! the communication totals.

use super::DistributedSimulation;
use crate::parallel::BlockRows;
use crate::physics::timestep::TimestepBins;
use crate::propagator::StepSummary;
use comm::CollectiveKind;
use telemetry::Telemetry;

/// Bucket bounds of the `health.neighbor_count` histogram (CSR row widths).
const NEIGHBOR_HISTOGRAM_BOUNDS: [f64; 9] = [8.0, 16.0, 32.0, 48.0, 64.0, 96.0, 128.0, 192.0, 256.0];

/// Bucket bounds of the `health.dt_bins` occupancy histogram: one bucket per
/// power-of-two timestep rung (rung `k` lands in bucket `k`; rungs past 7
/// share the overflow bucket).
const DT_BINS_HISTOGRAM_BOUNDS: [f64; 8] = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5];

/// Conserved-quantity reference captured after the first completed step; the
/// per-step health gauges report drift relative to these values.
#[derive(Clone, Copy, Debug)]
pub(super) struct HealthBaseline {
    energy: f64,
    mass: f64,
    momentum: [f64; 3],
    /// Σ m·|v| — the scale momentum drift is normalised by (total momentum is
    /// often ~0 by symmetry, so a relative-to-|P₀| drift would blow up).
    momentum_scale: f64,
}

impl HealthBaseline {
    /// Publish the global health gauges of one completed step — the reported
    /// total energy and `dt`, and the energy, mass and momentum drift against
    /// this baseline — from the step's global conserved quantities.
    fn publish(&self, tel: &Telemetry, summary: &StepSummary, mass: f64, momentum: [f64; 3], momentum_scale: f64) {
        let momentum_drift = {
            let d = [
                momentum[0] - self.momentum[0],
                momentum[1] - self.momentum[1],
                momentum[2] - self.momentum[2],
            ];
            let norm = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            norm / self.momentum_scale.max(momentum_scale).max(1e-12)
        };
        tel.gauge("health", "health.total_energy", 0, summary.total_energy);
        tel.gauge(
            "health",
            "health.energy_drift",
            0,
            (summary.total_energy - self.energy).abs() / self.energy.abs().max(1e-12),
        );
        tel.gauge(
            "health",
            "health.mass_drift",
            0,
            (mass - self.mass).abs() / self.mass.abs().max(1e-12),
        );
        tel.gauge("health", "health.momentum_drift", 0, momentum_drift);
        tel.gauge("health", "health.dt", 0, summary.dt);
    }
}

impl DistributedSimulation {
    /// Publish the per-step health gauges and flush the exporters; no-op
    /// without an enabled sink. Global conserved quantities are agreed
    /// through one extra allgather — collective, but only executed when a
    /// sink is enabled, which every rank decides identically because they
    /// hold the same `Arc` (see [`DistributedSimulation::with_telemetry`]).
    /// The root emits the global drift gauges; every rank reports, under its
    /// own rank tag, its owned/ghost population and the neighbour statistics
    /// of the owned rows built this (sub)step — mid-cycle that is the active
    /// rows only; the rest of the subset CSR is empty — and feeds those rows
    /// into the shared neighbour histogram.
    pub(super) fn emit_step_telemetry(
        &mut self,
        summary: &StepSummary,
        mid_cycle: bool,
        reordered: bool,
        rebalanced: bool,
    ) {
        let Some(tel) = self.telemetry.clone() else {
            return;
        };
        if !tel.enabled() {
            return;
        }
        let rank = self.comm.rank();
        let rank_tag = rank as u32;
        let p = &self.particles;
        let mut local = [0.0f64; 5]; // mass, Px, Py, Pz, Σ m·|v| over owned
        for i in 0..self.n_owned {
            local[0] += p.m[i];
            local[1] += p.m[i] * p.vx[i];
            local[2] += p.m[i] * p.vy[i];
            local[3] += p.m[i] * p.vz[i];
            local[4] += p.m[i] * (p.vx[i] * p.vx[i] + p.vy[i] * p.vy[i] + p.vz[i] * p.vz[i]).sqrt();
        }
        let gathered = self.comm.allgather(local);
        let mut global = [0.0f64; 5];
        for block in &gathered {
            for (g, b) in global.iter_mut().zip(block) {
                *g += b;
            }
        }
        let (mass, momentum, momentum_scale) = (global[0], [global[1], global[2], global[3]], global[4]);
        let baseline = *self.health_baseline.get_or_insert(HealthBaseline {
            energy: summary.total_energy,
            mass,
            momentum,
            momentum_scale,
        });
        let step_started = (summary.step - 1) as f64;
        if rank == 0 {
            baseline.publish(&tel, summary, mass, momentum, momentum_scale);
            if rebalanced {
                tel.instant("sim", "rebalance", 0, &[("step", step_started)]);
                tel.metrics().counter("sim.rebalance.events").inc();
            }
        }
        tel.gauge("sim", &format!("sim.rank{rank}.owned"), rank_tag, self.n_owned as f64);
        tel.gauge(
            "sim",
            &format!("sim.rank{rank}.ghosts"),
            rank_tag,
            (self.particles.len() - self.n_owned) as f64,
        );
        let lists = self.workspace.neighbors();
        let built = mid_cycle.then_some(&self.active_rows[..]);
        // Folded here and published in one batch: the ranks share the sink
        // and reach this loop together.
        let histogram = tel.metrics().histogram("health.neighbor_count", &NEIGHBOR_HISTOGRAM_BOUNDS);
        let mut buckets = [0u64; NEIGHBOR_HISTOGRAM_BOUNDS.len() + 1];
        let (mut n_built, mut min, mut max, mut total) = (0usize, usize::MAX, 0usize, 0usize);
        for i in BlockRows::within(built, 0..self.n_owned) {
            let width = lists.count(i).saturating_sub(1);
            buckets[histogram.bucket(width as f64)] += 1;
            n_built += 1;
            min = min.min(width);
            max = max.max(width);
            total += width;
        }
        histogram.observe_batch(&buckets, total as f64);
        let mean = total as f64 / n_built.max(1) as f64;
        tel.gauge("health", "health.neighbor_mean", rank_tag, mean);
        // `min ≤ max` once a row was seen; with none built both read 0.
        tel.gauge("health", "health.neighbor_min", rank_tag, min.min(max) as f64);
        tel.gauge("health", "health.neighbor_max", rank_tag, max as f64);
        if reordered {
            tel.instant("sim", "reorder", rank_tag, &[("step", step_started)]);
            tel.metrics().counter("sim.reorder.events").inc();
        }
        let build = self.workspace.neighbor_build_stats();
        tel.gauge("health", "health.cell_occupancy", rank_tag, build.mean_occupancy);
        tel.gauge("health", "health.neighbor_rows", rank_tag, build.rows as f64);
        tel.gauge(
            "health",
            "health.neighbor_candidates",
            rank_tag,
            build.candidates as f64,
        );
        tel.instant(
            "sim",
            "neighbors",
            rank_tag,
            &[("rows", build.rows as f64), ("cells", build.occupied_cells as f64)],
        );
        tel.metrics().counter("sim.neighbors.events").inc();
        if rank == 0 {
            tel.flush();
        }
    }

    /// Publish this rank's communication totals into the sink: one registry
    /// counter pair per collective kind (`comm.<kind>.messages` /
    /// `comm.<kind>.bytes`, summed across ranks sharing the sink) plus
    /// rank-tagged counter-track samples in the event stream. Call once at the
    /// end of a run — registry counters are monotonic, so calling it again
    /// would double-count. Not collective.
    pub(crate) fn publish_comm_stats(&self) {
        let Some(tel) = &self.telemetry else {
            return;
        };
        if !tel.enabled() {
            return;
        }
        let rank_tag = self.comm.rank() as u32;
        let snapshot = self.comm.stats();
        for kind in CollectiveKind::all() {
            let row = snapshot.row(kind);
            if row.calls == 0 {
                continue;
            }
            let messages = format!("comm.{}.messages", kind.label());
            let bytes = format!("comm.{}.bytes", kind.label());
            tel.metrics().counter(&messages).add(row.messages);
            tel.metrics().counter(&bytes).add(row.bytes);
            tel.metrics().counter(&format!("comm.{}.calls", kind.label())).add(row.calls);
            tel.counter_sample("comm", &messages, rank_tag, row.messages as f64);
            tel.counter_sample("comm", &bytes, rank_tag, row.bytes as f64);
        }
        // Ghost-exchange overlap accounting: how much of the mid-step
        // exchange's wall footprint stayed hidden under interior-row compute.
        let overlap = self.overlap;
        if overlap.posted_s + overlap.overlapped_s + overlap.waited_s > 0.0 {
            tel.gauge("comm", "comm.overlap.posted_s", rank_tag, overlap.posted_s);
            tel.gauge("comm", "comm.overlap.overlapped_s", rank_tag, overlap.overlapped_s);
            tel.gauge("comm", "comm.overlap.waited_s", rank_tag, overlap.waited_s);
            tel.gauge("comm", "comm.overlap.hidden_frac", rank_tag, overlap.hidden_fraction());
        }
    }
}

/// Publish the per-substep bin diagnostics: one `health.dt_bins` observation
/// per entry of `rungs` at its rung's bucket index, folded locally and
/// published as one batch, plus — when `announce`d,
/// i.e. on the root rank of a substep that planned a new cycle — a
/// `sim.timestep` instant and the `sim.timestep.events` counter. Pure sink
/// writes; the flush rides on the step telemetry that follows.
pub(super) fn emit_bins_telemetry(tel: &Telemetry, rungs: &[u8], bins: &TimestepBins, announce: bool) {
    if !tel.enabled() {
        return;
    }
    let histogram = tel.metrics().histogram("health.dt_bins", &DT_BINS_HISTOGRAM_BOUNDS);
    let mut buckets = [0u64; DT_BINS_HISTOGRAM_BOUNDS.len() + 1];
    let mut sum = 0u64;
    for &k in rungs {
        buckets[histogram.bucket(f64::from(k))] += 1;
        sum += u64::from(k);
    }
    histogram.observe_batch(&buckets, sum as f64);
    if announce {
        tel.instant(
            "sim",
            "timestep",
            0,
            &[
                ("k_deep", bins.k_deep() as f64),
                ("dt_base", bins.dt_base()),
                ("cycle_len", bins.cycle_len() as f64),
            ],
        );
        tel.metrics().counter("sim.timestep.events").inc();
    }
}
