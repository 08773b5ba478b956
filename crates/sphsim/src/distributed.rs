//! The step driver: real SPH over the ranks of a [`cluster::Comm`], one rank
//! included.
//!
//! The paper's headline measurements are multi-rank: SPH-EXA decomposes the
//! global particle set along the Morton space-filling curve, exchanges halo
//! (ghost) particles before every force computation, agrees on a global
//! Courant timestep, and gathers per-rank energy measurements at the end of a
//! run (§2). [`DistributedSimulation::step`] is the **one** place where that
//! labelled pipeline — the paper's instrumentation points — is written out;
//! [`crate::propagator::Simulation`] is this driver over a one-rank world.
//! The only thing the rank count decides is whether a rank *talks*: every
//! exchange below is skipped when there are no peers, and what is left is the
//! plain single-set SPH step.
//!
//! * **`DomainDecompAndSync`** drops the previous ghosts, wraps positions into
//!   a periodic box, migrates particles whose Morton key crossed a rank
//!   boundary, re-balances the [`crate::domain::DomainMap`] splitters when
//!   rank populations drift past a threshold, re-sorts the owned block into
//!   Morton order on the reorder cadence, exchanges a fresh ghost layer —
//!   every remote particle within interaction range (`2h` of either side) of
//!   the rank's owned set;
//! * **`FindNeighbors` … `AVSwitches`** build and run the *owned* rows, whose
//!   CSR rows reach into the ghost tail. Ghost rows are never built or
//!   computed locally: every ghost field consumed downstream is its owner's
//!   value, shipped by the halo exchange and the mid-step refresh.
//!   With peers, the rows some peer holds as ghosts run first so that refresh
//!   (`GhostExchangePost`) is on the wire while the rest compute;
//! * **`MomentumEnergy`** runs the rows that read no ghost while the refresh
//!   of `ρ, h, P, c, Ω, α` is in flight, completes it, then runs the rest;
//!   owned results match a one-rank run to floating-point round-off;
//! * **`Gravity`** is long-range and cannot be ghosted: ranks allgather the
//!   global `(x, y, z, m)` arrays — a lone rank's own lanes are them — and
//!   build and walk the same Barnes–Hut tree over them, inside the stage at
//!   every rank count; the walk also accumulates the rank's share of the
//!   potential energy, which rides the step summary's `K + U` allreduce (no
//!   per-step pair sum, gather or broadcast);
//! * **`Timestep`** reduces the Courant criterion over *owned* particles only
//!   (ghost accelerations are locally incomplete) and agrees globally through
//!   [`cluster::Comm::allreduce_min`].
//!
//! The driver lives in this file — the shard, [`DistributedSimulation::step`],
//! `sync`, the two energies and the stage runner — and its three seams beside
//! it: `halo` is everything a shard says to its peers, `step_telemetry` what a
//! finished step tells the sink, and `launcher` [`run_distributed`], one shard
//! per rank on plain threads (the physics-equivalence path of the
//! decomposition tests), with the report a metered rank gathers at rank 0.
//! Metering a run on simulated hardware is `experiments::campaign`'s business,
//! not the mini-app's.

mod halo;
mod launcher;
mod step_telemetry;

pub use halo::OverlapStats;
pub use launcher::{run_distributed, DistributedRankReport, ShardResult};

use crate::domain::DomainMap;
use crate::parallel::BlockRows;
use crate::particle::ParticleSet;
use crate::physics::avswitches::update_av_switches;
use crate::physics::density::{compute_density, update_smoothing_length};
use crate::physics::eos::apply_eos;
use crate::physics::gradh::compute_gradh;
use crate::physics::gravity::potential_energy_slices;
use crate::physics::iad::compute_div_curl;
use crate::physics::momentum::compute_momentum_energy;
use crate::physics::timestep::{courant_timestep_prefix, update_quantities, TimestepBins};
use crate::physics::turbulence::TurbulenceDriver;
use crate::propagator::StepSummary;
use crate::scenario::Scenario;
use crate::stages::SphStage;
use crate::workspace::StepWorkspace;
use cluster::Comm;
use halo::{add_gravity_global, complete_ghost_refresh, exchange_ghost_rungs, post_ghost_refresh, PeerExchange};
use pmt::ProfilingHooks;
use std::sync::Arc;
use std::time::Instant;
use step_telemetry::{emit_bins_telemetry, HealthBaseline};
use telemetry::Telemetry;

/// Load-imbalance threshold (`max_rank_count / mean_rank_count`) beyond which
/// the Morton splitters are recomputed.
const DEFAULT_REBALANCE_THRESHOLD: f64 = 1.25;

/// Maximum octree leaf size of the Gravity stage's tree.
pub(crate) const MAX_LEAF_SIZE: usize = 32;

/// Target neighbour count of the smoothing-length control.
const DEFAULT_TARGET_NEIGHBORS: f64 = 60.0;
/// Upper bound on the Courant timestep.
pub(crate) const DEFAULT_MAX_DT: f64 = 0.05;
/// Gravitational softening length.
pub(crate) const DEFAULT_SOFTENING: f64 = 0.02;
/// `last_dt` seed used by the AV-switch relaxation on the first step.
const DEFAULT_INITIAL_DT: f64 = 1e-3;

/// One rank's shard of an SPH run — all of it when the communicator has one
/// rank.
///
/// Every collective method ([`DistributedSimulation::step`],
/// [`DistributedSimulation::total_energy`]) must be called in lock-step by
/// all ranks of the communicator, exactly as with MPI.
pub struct DistributedSimulation {
    comm: Comm,
    scenario: &'static Scenario,
    /// Owned particles in slots `0..n_owned`, ghosts behind them.
    particles: ParticleSet,
    n_owned: usize,
    /// Global construction-order id of each local slot (owned + ghosts).
    ids: Vec<u32>,
    map: DomainMap,
    workspace: StepWorkspace,
    driver: Option<TurbulenceDriver>,
    hooks: Option<ProfilingHooks>,
    telemetry: Option<Arc<Telemetry>>,
    health_baseline: Option<HealthBaseline>,
    /// Per destination rank: the local owned indices sent as ghosts this step
    /// (reused by the mid-step field refresh, so both sides agree on order).
    send_lists: Vec<Vec<usize>>,
    /// The active owned rows on some send list: their mid-step refresh fields
    /// ship to at least one peer, so they run every pre-momentum stage before
    /// the exchange is posted (ascending, reused buffer).
    exchange_rows: Vec<u32>,
    /// The other active owned rows — computed while the exchange is in flight
    /// (ascending, reused buffer).
    post_exchange_rows: Vec<u32>,
    /// Scratch flags backing the partition above (reused buffer).
    row_is_exported: Vec<bool>,
    /// Ghost-tail block length per source rank, recorded by the last halo
    /// exchange — the mid-step refresh needs the block extents to skip frozen
    /// ghost slots while draining the (filtered) update streams.
    ghost_counts: Vec<usize>,
    /// Individual-timestep state; `None` runs the global-dt scheme.
    timestep_bins: Option<TimestepBins>,
    /// Active owned rows of the current binned substep (reused buffer).
    active_rows: Vec<u32>,
    /// Overlap accounting of the mid-step ghost exchange.
    overlap: OverlapStats,
    /// Background owned-count exchange feeding the next rebalance decision.
    pending_counts: Option<PeerExchange<usize>>,
    rebalance_threshold: f64,
    rebalance_count: u64,
    /// Steps (cycles, under dt bins) between Morton re-sorts of the owned
    /// block; 0 never re-sorts. See [`DistributedSimulation::step`].
    reorder_interval: u64,
    reorder_count: u64,
    time: f64,
    step: u64,
    last_dt: f64,
    /// This rank's share `½ Σ_owned m φ` of the potential energy, from the
    /// last Gravity walk that covered every owned row; 0 without self-gravity.
    /// Only the sum over ranks means anything — particles may have migrated
    /// since the walk. See [`StepSummary::total_energy`].
    egrav: f64,
}

impl DistributedSimulation {
    /// Shard `global` (the full construction-order particle set, identical on
    /// every rank) across the communicator along the Morton curve. The
    /// scenario's boundary is stamped onto the set first, so the whole
    /// pipeline (Morton keys, neighbour search, pair kernels, position
    /// wrapping) agrees on the box geometry and every shard inherits it.
    pub fn new(comm: Comm, scenario: &'static Scenario, mut global: ParticleSet) -> Self {
        global.boundary = scenario.boundary;
        let map = DomainMap::new(&global, comm.size());
        let rank = comm.rank();
        let mine: Vec<usize> = (0..global.len())
            .filter(|&i| map.owner_of((global.x[i], global.y[i], global.z[i])) == rank)
            .collect();
        let ids: Vec<u32> = mine.iter().map(|&i| i as u32).collect();
        // A rank that owns every particle keeps the set it was handed — no
        // second copy next to it.
        let particles = if mine.len() == global.len() {
            global
        } else {
            global.gather(&mine)
        };
        let driver = scenario.has_stirring.then(|| TurbulenceDriver::new(1.0, 0.8, 42));
        let size = comm.size();
        Self {
            comm,
            scenario,
            n_owned: particles.len(),
            particles,
            ids,
            map,
            workspace: StepWorkspace::new(),
            driver,
            hooks: None,
            // `from_env` hands every rank the *same* `Arc`, so the enablement
            // decision (and the collective health reduction it gates) stays in
            // lock-step across the world.
            telemetry: telemetry::from_env(),
            health_baseline: None,
            send_lists: vec![Vec::new(); size],
            exchange_rows: Vec::new(),
            post_exchange_rows: Vec::new(),
            row_is_exported: Vec::new(),
            ghost_counts: vec![0; size],
            timestep_bins: None,
            active_rows: Vec::new(),
            overlap: OverlapStats::default(),
            pending_counts: None,
            rebalance_threshold: DEFAULT_REBALANCE_THRESHOLD,
            rebalance_count: 0,
            reorder_interval: 0,
            reorder_count: 0,
            time: 0.0,
            step: 0,
            last_dt: DEFAULT_INITIAL_DT,
            egrav: 0.0,
        }
    }

    /// Shard a scenario's initial conditions (generated deterministically and
    /// identically on every rank) with approximately `n_target` particles in
    /// total.
    pub fn from_scenario(comm: Comm, scenario: &'static Scenario, n_target: usize, seed: u64) -> Self {
        let global = scenario.initial_conditions(n_target, seed);
        Self::new(comm, scenario, global)
    }

    /// Attach per-stage measurement hooks (this rank's PMT instrumentation).
    pub fn with_hooks(mut self, hooks: ProfilingHooks) -> Self {
        self.hooks = Some(hooks);
        self
    }

    /// Attach a telemetry sink. **Collective contract:** every rank of the
    /// communicator must attach the *same* `Arc` (or none of them any) —
    /// the per-step health gauges reduce conserved quantities globally, and a
    /// rank skipping that collective would deadlock the world. Sharing one
    /// sink is also what merges the per-rank streams into one totally ordered
    /// trace ([`run_distributed`] with a sink wires this up for you).
    pub fn with_telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Enable individual (block) timesteps with `n_bins` power-of-two rungs
    /// (see [`crate::propagator::Simulation::with_timestep_bins`]). Collective
    /// contract: every rank of the communicator must pass the same `n_bins` —
    /// the cycle plan, the limiter rounds and the per-substep collectives are
    /// all agreed globally, and a rank on a different scheme would deadlock.
    /// `n_bins <= 1` keeps the global-dt scheme untouched.
    pub fn with_timestep_bins(mut self, n_bins: usize) -> Self {
        self.timestep_bins = (n_bins > 1).then(|| TimestepBins::new(n_bins));
        self
    }

    /// The individual-timestep state, when enabled.
    pub fn timestep_bins(&self) -> Option<&TimestepBins> {
        self.timestep_bins.as_ref()
    }

    /// This rank's communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The scenario being simulated.
    pub(crate) fn scenario(&self) -> &'static Scenario {
        self.scenario
    }

    /// Number of particles this rank currently owns.
    pub fn n_owned(&self) -> usize {
        self.n_owned
    }

    /// Number of ghost particles currently held (valid after a step).
    pub fn ghost_count(&self) -> usize {
        self.particles.len() - self.n_owned
    }

    /// Local particle storage: owned particles in `0..n_owned()`, ghosts after.
    pub fn particles(&self) -> &ParticleSet {
        &self.particles
    }

    /// Global construction-order id of each local slot (owned + ghosts).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// How many times the splitters were re-balanced so far.
    pub fn rebalance_count(&self) -> u64 {
        self.rebalance_count
    }

    /// Set the Morton re-sort cadence of the owned block (see
    /// [`crate::propagator::Simulation::with_reorder_interval`]).
    pub(crate) fn set_reorder_interval(&mut self, every_n_steps: u64) {
        self.reorder_interval = every_n_steps;
    }

    /// How many times the owned block was re-sorted so far.
    pub(crate) fn reorder_count(&self) -> u64 {
        self.reorder_count
    }

    /// Simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Completed step count.
    pub(crate) fn step_count(&self) -> u64 {
        self.step
    }

    /// Accumulated overlap accounting of the mid-step ghost exchange.
    pub fn overlap_stats(&self) -> OverlapStats {
        self.overlap
    }

    /// The `DomainDecompAndSync` body: drop ghosts, wrap, migrate and
    /// re-balance, re-sort the owned block when due, rebuild the ghost layer.
    /// Only talk when there are peers: a lone rank wraps and re-sorts.
    fn sync(&mut self, reorder_due: bool) {
        // Drop last step's ghost tail.
        self.particles.truncate(self.n_owned);
        self.ids.truncate(self.n_owned);

        // Wrap positions back into a periodic box *before* keying, so a
        // particle crossing the wrap seam re-keys to the far end of the
        // Morton curve and migrates to its new owner (and so the wrapped
        // coordinates come out the same, bit for bit, at every rank count).
        self.particles.wrap_positions();

        let peers = self.comm.size() > 1;
        if peers {
            self.migrate();
        }
        // Sort the owned block into Morton order, so grid cells and CSR
        // neighbour rows cover contiguous memory; `ids` rides along, keeping
        // slot → construction id resolvable. The caller decided whether the
        // sort is due, so every other step skips the key generation entirely.
        if reorder_due {
            self.workspace.reorder_by_morton(&mut self.particles, &mut self.ids);
            self.reorder_count += 1;
        }
        if peers {
            self.exchange_ghosts();
        }
    }

    /// Execute one timestep in lock-step with every other rank — one body for
    /// every rank count and both time-integration schemes.
    ///
    /// `rows`, derived once per call, is the set of *owned* rows every stage
    /// runs over: `None` — every owned row, never materialised — under global
    /// dt and at every cycle start of the individual-timestep scheme
    /// ([`DistributedSimulation::with_timestep_bins`]); `Some(active)`, the
    /// ascending owned rows whose rung is kicked, mid-cycle: only they are
    /// rebuilt (subset CSR over the fresh cell grid) and re-accelerated; frozen
    /// particles keep their accelerations and just drift. Ghost rows are
    /// never computed locally. The bins are consulted in three places only:
    /// the AV relaxation dt of a row, the Timestep stage (Courant minimum →
    /// cycle plan at a cycle start, rungs reassigned and limited to
    /// `|k_i − k_j| ≤ 1` across neighbour rows; deepening mid-cycle) and the
    /// kick of UpdateQuantities. Stage labels and telemetry are the same in
    /// both schemes and at every rank count, so traces and power measurements
    /// stay comparable.
    ///
    /// The full `DomainDecompAndSync` runs every (sub)step — frozen particles
    /// drift too, so the ghost layer is re-shipped fresh (carrying the
    /// owners' rungs) and migration stays live mid-cycle. Mid-cycle the
    /// mid-step ghost refresh is filtered to the active entries on both
    /// sides — sender and receiver derive activity from the same shipped
    /// rungs and the same globally agreed schedule, so the streams align
    /// without any extra header traffic. Under bins one call advances one
    /// hierarchical *substep* — the summary's `dt` is the substep size
    /// `dt_base / 2^k_deep`, and a full cycle of `2^k_deep` calls advances
    /// time by `dt_base`: cycle planning reduces the Courant minimum
    /// globally, the neighbour-rung limiter alternates local Jacobi rounds
    /// with ghost-rung exchanges until no rank reports a change, and the
    /// deepest rung is agreed by a max-reduction — every rank runs the same
    /// cycle, so every rank takes the same branch, and issues the same
    /// collectives, on every substep.
    pub fn step(&mut self) -> StepSummary {
        let mut bins = self.timestep_bins.take();
        let hooks = self.hooks.clone();
        if let Some(h) = &hooks {
            h.set_iteration(Some(self.step));
        }
        let tel = self.telemetry.clone();
        let rank_tag = self.comm.rank() as u32;
        let step_span = tel.as_ref().map(|t| {
            let mut span = t.span("step", "Step", rank_tag);
            span.arg("step", self.step as f64);
            span
        });
        let rebalances_before = self.rebalance_count;
        let sync_start = bins.as_ref().is_none_or(TimestepBins::at_cycle_start);
        // Under dt bins, reorders are paced by *cycles*, not substeps (a deep
        // cycle would otherwise re-sort 2^k_deep times per dt_base), and only
        // at a cycle start — mid-cycle the frozen particles' CSR rows must
        // stay aligned with their stale accelerations.
        let pace = bins.as_ref().map_or(self.step, TimestepBins::cycles);
        let reorder_due = sync_start && self.reorder_interval > 0 && pace.is_multiple_of(self.reorder_interval);

        instrument(&hooks, &tel, rank_tag, SphStage::DomainDecompAndSync.label(), || {
            self.sync(reorder_due)
        });

        let n_owned = self.n_owned;
        let rows: Option<&[u32]> = match &bins {
            Some(b) if !sync_start => {
                b.collect_active_rows(&self.particles, n_owned, &mut self.active_rows);
                Some(&self.active_rows)
            }
            _ => None,
        };
        let stages = StageRunner {
            hooks: &hooks,
            telemetry: &tel,
            rank: rank_tag,
            n_owned,
            ids: &self.ids,
            step: self.step,
            scenario: self.scenario.short_name,
        };
        let last_dt = self.last_dt;
        let comm = &self.comm;
        let peers = comm.size() > 1;
        let p = &mut self.particles;
        // What this (sub)step is about to compute from, in every lane: all of
        // the state wherever every row is fresh, so a value that migrated in
        // or sat in a frozen row is caught when its cycle ends at the latest.
        stages.guard(p, SphStage::DomainDecompAndSync, rows);

        // Owned rows only. The grid bins the ghosts, so they are neighbours
        // of owned rows and their supports enter the symmetric union; their
        // own rows stay empty, because nothing reads them — every kernel,
        // the row split, the limiter and the step telemetry iterate over
        // owned rows.
        stages.run(p, SphStage::FindNeighbors, rows, |p| {
            self.workspace.find_neighbors(p, n_owned, rows)
        });

        // With peers, split the active owned rows so the mid-step ghost
        // exchange can hide under compute: exported rows (whose refreshed
        // fields ship to a peer) run every pre-momentum stage first, the
        // exchange is posted nonblocking, the remaining rows and then the
        // interior momentum rows run while it is in flight, and only the halo
        // momentum rows wait for completion. Every pre-momentum stage reads
        // only static neighbour fields (`x, v, m`) plus row-local state, so
        // the two-pass execution is value-identical to a single pass.
        // Inactive rows must never reach a kernel — it overwrites its rows'
        // outputs, and mid-cycle an inactive row's CSR row is empty.
        if peers {
            self.row_is_exported.clear();
            self.row_is_exported.resize(p.len(), false);
            for list in &self.send_lists {
                for &i in list {
                    self.row_is_exported[i] = true;
                }
            }
            self.exchange_rows.clear();
            self.post_exchange_rows.clear();
            for i in BlockRows::within(rows, 0..n_owned) {
                if self.row_is_exported[i] {
                    self.exchange_rows.push(i as u32);
                } else {
                    self.post_exchange_rows.push(i as u32);
                }
            }
            self.workspace.partition_rows(n_owned, rows);
        }
        let StepWorkspace {
            neighbors,
            tree,
            interior_rows,
            halo_rows,
            momentum_scratch,
            ..
        } = &mut self.workspace;
        let neighbors = &*neighbors;

        let pre_momentum = |p: &mut ParticleSet, rows: Option<&[u32]>| {
            stages.run(p, SphStage::XMass, rows, |p| {
                compute_density(p, neighbors, rows);
                update_smoothing_length(p, DEFAULT_TARGET_NEIGHBORS, rows);
            });
            stages.run(p, SphStage::NormalizationGradh, rows, |p| {
                compute_gradh(p, neighbors, rows)
            });
            stages.run(p, SphStage::EquationOfState, rows, |p| apply_eos(p, rows));
            stages.run(p, SphStage::IADVelocityDivCurl, rows, |p| {
                compute_div_curl(p, neighbors, rows)
            });
            stages.run(p, SphStage::AVSwitches, rows, |p| {
                update_av_switches(p, last_dt, bins.as_ref(), rows)
            });
        };

        // Without peers nothing is exported: one pass over `rows`, and the
        // momentum kernel takes them all as interior rows. With peers the
        // exported active rows run ahead and put the refresh on the wire, the
        // rest compute underneath it. Frozen exported rows didn't change this
        // substep — their ghost copies, shipped by this substep's sync, are
        // already current.
        let (mut rest, mut interior, mut exchange) = (rows, rows, None);
        if peers {
            pre_momentum(p, Some(&self.exchange_rows));
            let posted_at = Instant::now();
            let handles = instrument(&hooks, &tel, rank_tag, "GhostExchangePost", || {
                post_ghost_refresh(comm, &self.send_lists, p, bins.as_ref())
            });
            self.overlap.posted_s += posted_at.elapsed().as_secs_f64();
            exchange = Some((handles, Instant::now()));
            rest = Some(&self.post_exchange_rows);
            interior = Some(interior_rows);
        }
        pre_momentum(p, rest);

        // Momentum in two halves around the exchange completion: interior
        // rows touch no ghost slot and run while the refresh is still in
        // flight; halo rows wait for the refreshed ρ/h/P/c/Ω/α before reading
        // them.
        stages.run(p, SphStage::MomentumEnergy, rows, |p| {
            {
                let _span = tel.as_ref().map(|t| t.span("stage", "MomentumInterior", rank_tag));
                compute_momentum_energy(p, neighbors, momentum_scratch, interior);
            }
            if let Some((handles, in_flight_since)) = exchange {
                self.overlap.overlapped_s += in_flight_since.elapsed().as_secs_f64();
                {
                    let _span = tel.as_ref().map(|t| t.span("stage", "GhostExchangeWait", rank_tag));
                    let wait_started = Instant::now();
                    complete_ghost_refresh(comm, p, n_owned, &self.ghost_counts, handles, bins.as_ref());
                    self.overlap.waited_s += wait_started.elapsed().as_secs_f64();
                }
                let _span = tel.as_ref().map(|t| t.span("stage", "MomentumHalo", rank_tag));
                compute_momentum_energy(p, neighbors, momentum_scratch, Some(halo_rows));
            }
        });

        if self.scenario.has_gravity {
            let egrav = stages.run(p, SphStage::Gravity, rows, |p| {
                add_gravity_global(comm, p, n_owned, tree, rows)
            });
            // Only a walk over every owned row sums the rank's whole share.
            if rows.is_none() {
                self.egrav = egrav;
            }
        }

        if let Some(driver) = &self.driver {
            let time = self.time;
            stages.run(p, SphStage::Turbulence, rows, |p| driver.apply(p, n_owned, time, rows));
        }

        let dt = instrument(&hooks, &tel, rank_tag, SphStage::Timestep.label(), || {
            if let (Some(b), Some(active)) = (&mut bins, rows) {
                // Mid-cycle the plan stands; the kicked rows may only deepen.
                b.deepen(p, active);
                return b.dt_sub();
            }
            // Every owned row is fresh: agree on the Courant minimum — the
            // global dt itself, or what the next cycle is planned from.
            let dt_min = comm.allreduce_min(courant_timestep_prefix(p, n_owned, DEFAULT_MAX_DT));
            let Some(b) = &mut bins else {
                return dt_min;
            };
            b.plan(dt_min, DEFAULT_MAX_DT);
            b.assign_rungs(p, n_owned);
            // Limiter to the global fixpoint: ship owned rungs onto peers'
            // ghost slots, run one local raise-only round, stop when no rank
            // changed anything. Raise-only and monotone, so the fixpoint is
            // unique — the rank count cannot change the result, only how it
            // is reached.
            loop {
                exchange_ghost_rungs(comm, &self.send_lists, p, n_owned);
                let changed = b.limiter_round(p, neighbors, n_owned);
                if comm.allreduce_max(if changed { 1.0 } else { 0.0 }) == 0.0 {
                    break;
                }
            }
            let k_deep = comm.allreduce_max(b.max_rung(p, n_owned) as f64) as u32;
            b.seal(k_deep);
            b.dt_sub()
        });
        assert!(
            dt.is_finite() && dt > 0.0,
            "stage {} produced an invalid timestep {dt} at step {} of scenario {}",
            SphStage::Timestep.label(),
            self.step,
            self.scenario.short_name
        );

        // Everyone drifts, ghosts included — nobody reads them before the
        // next sync drops them.
        stages.run(p, SphStage::UpdateQuantities, None, |p| {
            update_quantities(p, dt, bins.as_ref())
        });

        self.time += dt;
        self.step += 1;
        self.last_dt = dt;
        let summary = StepSummary {
            step: self.step,
            dt,
            time: self.time,
            total_energy: self.summary_energy(),
        };
        drop(step_span);
        if let (Some(tel), Some(b)) = (&tel, &bins) {
            // Every rank feeds its owned rungs into the shared histogram; the
            // root announces a newly planned cycle.
            let announce = sync_start && self.comm.rank() == 0;
            emit_bins_telemetry(tel, &self.particles.rung[..self.n_owned], b, announce);
        }
        self.emit_step_telemetry(
            &summary,
            !sync_start,
            reorder_due,
            self.rebalance_count > rebalances_before,
        );
        if let Some(b) = &mut bins {
            b.advance();
        }
        self.timestep_bins = bins;
        if peers {
            self.post_owned_counts();
        }
        summary
    }

    /// Run `n` timesteps and return the per-step summaries.
    pub fn run(&mut self, n: u64) -> Vec<StepSummary> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Kinetic + internal energy of this rank's owned particles: `ΣK + ΣU`,
    /// two sums in slot order.
    fn owned_kinetic_internal(&self) -> f64 {
        let p = &self.particles;
        let kinetic: f64 = (0..self.n_owned)
            .map(|i| 0.5 * p.m[i] * (p.vx[i].powi(2) + p.vy[i].powi(2) + p.vz[i].powi(2)))
            .sum();
        let internal: f64 = (0..self.n_owned).map(|i| p.m[i] * p.u[i]).sum();
        kinetic + internal
    }

    /// The energy a step summary reports (see [`StepSummary::total_energy`]):
    /// one allreduce over `K + U` of the owned particles plus, for
    /// self-gravitating runs, the rank's stored `egrav` share riding along.
    fn summary_energy(&self) -> f64 {
        let mut local = self.owned_kinetic_internal();
        if self.scenario.has_gravity {
            local += self.egrav;
        }
        self.comm.allreduce_sum(local)
    }

    /// Global total energy of the current state: kinetic + internal
    /// (all-reduced over owned particles), plus — for self-gravitating runs —
    /// the gravitational potential by direct pair summation. The **exact
    /// O(N²) reference — for checks, never per step**: the per-step
    /// [`StepSummary::total_energy`] carries the Gravity stage's tree
    /// estimate and costs one allreduce.
    ///
    /// Collective: every rank must call this together.
    pub fn total_energy(&self) -> f64 {
        let n = self.n_owned;
        let p = &self.particles;
        let mut e = self.comm.allreduce_sum(self.owned_kinetic_internal());
        if self.scenario.has_gravity {
            let pair_sum =
                |x: &[f64], y: &[f64], z: &[f64], m: &[f64]| potential_energy_slices(x, y, z, m, DEFAULT_SOFTENING);
            e += if self.comm.size() > 1 {
                // The O(N²) pair sum runs on rank 0 only (over gathered
                // global arrays) and the value is broadcast — every other
                // rank doing the same serial sum would just burn R× the work
                // for an identical result.
                let payload = (
                    p.x[..n].to_vec(),
                    p.y[..n].to_vec(),
                    p.z[..n].to_vec(),
                    p.m[..n].to_vec(),
                );
                let gathered = self.comm.gather(payload, 0);
                // Only the root produces a value: the closure runs on rank 0
                // alone, where the gather returned `Some`.
                self.comm.broadcast(0, || {
                    let blocks = gathered.expect("rank 0 gathers every block");
                    let mut x = Vec::new();
                    let mut y = Vec::new();
                    let mut z = Vec::new();
                    let mut m = Vec::new();
                    for (bx, by, bz, bm) in blocks {
                        x.extend_from_slice(&bx);
                        y.extend_from_slice(&by);
                        z.extend_from_slice(&bz);
                        m.extend_from_slice(&bm);
                    }
                    pair_sum(&x, &y, &z, &m)
                })
            } else {
                // No peers: the owned lanes are the global arrays.
                pair_sum(&p.x[..n], &p.y[..n], &p.z[..n], &p.m[..n])
            };
        }
        e
    }

    /// Consume the shard, returning its owned particles and their global ids
    /// (ghost tail dropped).
    pub fn into_shard(mut self) -> (Vec<u32>, ParticleSet) {
        self.particles.truncate(self.n_owned);
        self.ids.truncate(self.n_owned);
        (self.ids, self.particles)
    }
}

/// Wrap a stage body in the pmt power region (when hooks are attached) and a
/// rank-tagged telemetry `"stage"` span (when a sink is attached). With a
/// disabled sink the span cost is a single relaxed atomic load.
fn instrument<R>(
    hooks: &Option<ProfilingHooks>,
    telemetry: &Option<Arc<Telemetry>>,
    rank: u32,
    label: &str,
    f: impl FnOnce() -> R,
) -> R {
    let _span = telemetry.as_ref().map(|t| t.span("stage", label, rank));
    match hooks {
        Some(h) => h.instrument(label, f),
        None => f(),
    }
}

/// How the guarded stages of one step run: the body inside its region and
/// span ([`instrument`]), then the non-finite guard over what it wrote.
struct StageRunner<'a> {
    hooks: &'a Option<ProfilingHooks>,
    telemetry: &'a Option<Arc<Telemetry>>,
    rank: u32,
    /// The guard covers the owned prefix of a shard: ghost slots are checked
    /// by their owners, and a NaN caught here is caught before the next
    /// exchange ships it.
    n_owned: usize,
    /// What the guard's panic names: global ids by slot, step and scenario.
    ids: &'a [u32],
    step: u64,
    scenario: &'a str,
}

impl StageRunner<'_> {
    /// Run `body` as `stage` over `rows` (the rows its kernel takes; `None`
    /// is every owned row), then guard what it wrote.
    fn run<R>(
        &self,
        particles: &mut ParticleSet,
        stage: SphStage,
        rows: Option<&[u32]>,
        body: impl FnOnce(&mut ParticleSet) -> R,
    ) -> R {
        #[cfg(test)]
        let body = tests::probe(stage, rows, self.n_owned, body);
        let out = instrument(self.hooks, self.telemetry, self.rank, stage.label(), || body(particles));
        self.guard(particles, stage, rows);
        out
    }

    /// Fail loudly — naming the stage — if `stage` left a non-finite value in
    /// a lane it writes ([`SphStage::output_lanes`]) on an owned row of
    /// `rows`: a bare `NaN` would surface many stages later as an opaque panic
    /// (or, worse, as silently wrong energy attribution). The one site that
    /// turns a finding into a failure; the lane is not part of its text.
    fn guard(&self, p: &ParticleSet, stage: SphStage, rows: Option<&[u32]>) {
        if let Some((i, _lane)) = p.first_non_finite(stage.output_lanes(), BlockRows::within(rows, 0..self.n_owned)) {
            let (label, id, rank, step, scenario) = (stage.label(), self.ids[i], self.rank, self.step, self.scenario);
            let [x, y, z, vx, vy, vz, ax, ay, az, rho, u, du] = [
                &p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.ax, &p.ay, &p.az, &p.rho, &p.u, &p.du,
            ]
            .map(|lane| lane[i]);
            panic!(
                "stage {label} produced a non-finite quantity for owned particle {i} (global id {id}) on rank {rank} \
                 at step {step} of scenario {scenario} \
                 (pos=({x}, {y}, {z}), v=({vx}, {vy}, {vz}), a=({ax}, {ay}, {az}), rho={rho}, u={u}, du={du})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::octree::Octree;
    use crate::scenario;
    use cluster::{CommWorld, TransportKind};
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeSet;
    use std::panic::AssertUnwindSafe;

    /// What the unit tests here and the facade's look at behind the driver.
    impl DistributedSimulation {
        /// Set the load-imbalance threshold that triggers a splitter
        /// re-balance. Values `<= 1` re-balance every step.
        fn with_rebalance_threshold(mut self, threshold: f64) -> Self {
            self.rebalance_threshold = threshold;
            self
        }

        /// The neighbour lists of the last step.
        pub(crate) fn neighbors(&self) -> &crate::physics::neighbors::NeighborLists {
            self.workspace.neighbors()
        }

        /// The octree of the Gravity stage.
        pub(crate) fn tree(&self) -> &Octree {
            &self.workspace.tree
        }

        /// Summed size of every row-list scratch buffer of the step.
        pub(crate) fn row_scratch_capacity(&self) -> usize {
            self.active_rows.capacity()
                + self.exchange_rows.capacity()
                + self.post_exchange_rows.capacity()
                + self.row_is_exported.capacity()
                + self.workspace.interior_rows.len()
                + self.workspace.halo_rows.len()
        }

        /// The stored potential-energy share of the last full Gravity walk.
        pub(crate) fn egrav(&self) -> f64 {
            self.egrav
        }
    }

    /// What a test has [`probe`] do around the stage bodies its thread runs.
    #[derive(Clone, Copy)]
    enum Probe {
        Off,
        /// Right after the body of the `skip`-th next call of `stage` (0: the
        /// exported half of a two-pass stage, or its only pass; 1: the rest),
        /// seed a NaN into `lane` of the first owned row that call ran.
        Poison {
            stage: SphStage,
            lane: &'static str,
            skip: usize,
        },
        /// Hold every body to its stage's table: an owned value that changed
        /// sits in a lane of [`SphStage::output_lanes`] and on a row of
        /// `rows`. What changed at all is collected in [`WRITTEN`].
        Audit,
        /// Keep a copy of the set the next body of the stage starts from in
        /// [`CAPTURED`].
        Capture(SphStage),
    }

    thread_local! {
        static PROBE: Cell<Probe> = const { Cell::new(Probe::Off) };
        static WRITTEN: RefCell<BTreeSet<(SphStage, &'static str)>> = const { RefCell::new(BTreeSet::new()) };
        static CAPTURED: RefCell<Option<ParticleSet>> = const { RefCell::new(None) };
    }

    /// The test seam of [`StageRunner::run`]: `body`, then whatever this
    /// thread's [`PROBE`] asks for — before the guard looks at the result.
    pub(super) fn probe<'a, R>(
        stage: SphStage,
        rows: Option<&'a [u32]>,
        n_owned: usize,
        body: impl FnOnce(&mut ParticleSet) -> R + 'a,
    ) -> impl FnOnce(&mut ParticleSet) -> R + 'a {
        move |p| {
            let before = matches!(PROBE.get(), Probe::Audit).then(|| p.clone());
            if matches!(PROBE.get(), Probe::Capture(at) if at == stage) {
                CAPTURED.set(Some(p.clone()));
                PROBE.set(Probe::Off);
            }
            let out = body(p);
            match PROBE.get() {
                Probe::Poison { stage: at, lane, skip } if at == stage => {
                    if skip > 0 {
                        PROBE.set(Probe::Poison {
                            stage,
                            lane,
                            skip: skip - 1,
                        });
                    } else if let Some(i) = BlockRows::within(rows, 0..n_owned).next() {
                        lane_mut(p, lane)[i] = f64::NAN;
                        PROBE.set(Probe::Off);
                    }
                }
                Probe::Audit => {
                    let before = before.expect("cloned under the same probe");
                    for (name, (old, new)) in ParticleSet::lane_names()
                        .into_iter()
                        .zip(before.lanes().into_iter().zip(p.lanes()))
                    {
                        for i in (0..n_owned).filter(|&i| old[i].to_bits() != new[i].to_bits()) {
                            assert!(
                                stage.output_lanes().contains(&name),
                                "{stage:?} changed {name} of row {i}, a lane its table does not list"
                            );
                            assert!(
                                rows.is_none_or(|rows| rows.binary_search(&(i as u32)).is_ok()),
                                "{stage:?} changed {name} of row {i}, which is not one of its rows"
                            );
                            WRITTEN.with_borrow_mut(|written| written.insert((stage, name)));
                        }
                    }
                }
                _ => {}
            }
            out
        }
    }

    fn lane_mut<'a>(p: &'a mut ParticleSet, lane: &str) -> &'a mut Vec<f64> {
        let at = ParticleSet::lane_names()
            .iter()
            .position(|&name| name == lane)
            .expect("a lane name");
        p.lanes_mut().into_iter().nth(at).expect("as many lanes as names")
    }

    /// One shard per rank on its own thread (so each has its own [`PROBE`]).
    fn on_ranks<T: Send>(n_ranks: usize, rank_main: impl Fn(Comm) -> T + Sync) -> Vec<T> {
        std::thread::scope(|s| {
            let handles: Vec<_> = CommWorld::create(n_ranks)
                .into_iter()
                .map(|comm| s.spawn(|| rank_main(comm)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("a rank thread died")).collect()
        })
    }

    /// A shard of `n` particles of `scenario` on `bins` dt bins, one particle
    /// heated enough to spread any scenario over several rungs.
    fn hot_spot_shard(comm: Comm, scenario: &str, n: usize, bins: usize) -> DistributedSimulation {
        let scenario = scenario::get(scenario).unwrap();
        let mut global = scenario.initial_conditions(n, 3);
        global.u[0] *= 1e4;
        DistributedSimulation::new(comm, scenario, global).with_timestep_bins(bins)
    }

    /// [`hot_spot_shard`] on one rank, one step in: under bins, at the first
    /// mid-cycle substep.
    fn one_rank_one_step_in(scenario: &str, bins: usize) -> DistributedSimulation {
        let mut sim = hot_spot_shard(CommWorld::create(1).pop().unwrap(), scenario, 300, bins);
        sim.step();
        assert!(
            sim.timestep_bins().is_none_or(|b| !b.at_cycle_start()),
            "{scenario}: a one-substep cycle"
        );
        sim
    }

    /// The stages of `scenario` with a body for [`probe`] to see: its pipeline
    /// without the sync, whose rows are only known after it ran (`Timestep`
    /// bypasses [`StageRunner::run`] too, and writes no lane).
    fn stages_through_run(scenario: &str) -> Vec<SphStage> {
        let mut stages = scenario::get(scenario).unwrap().pipeline();
        stages.retain(|&stage| stage != SphStage::DomainDecompAndSync);
        stages
    }

    /// Step `sim` once and hand back the message of the panic it must die of.
    fn panic_of_step(sim: &mut DistributedSimulation) -> String {
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| sim.step())).expect_err("the step must panic");
        payload.downcast_ref::<String>().cloned().expect("a formatted panic message")
    }

    /// The owned particle a guard message names.
    fn blamed_row(message: &str) -> u32 {
        let rest = message.split("owned particle ").nth(1).expect("the guard names a row");
        rest.split(' ').next().unwrap().parse().expect("a row index")
    }

    #[test]
    fn a_nan_in_any_lane_a_stage_writes_is_blamed_on_that_stage() {
        // Sedov runs every guarded stage but the two only Evr and Turb have.
        let cases = [
            ("Sedov", stages_through_run("Sedov")),
            ("Evr", vec![SphStage::Gravity]),
            ("Turb", vec![SphStage::Turbulence]),
        ];
        for (scenario, stages) in cases {
            for stage in stages {
                for &lane in stage.output_lanes() {
                    // Under global dt (`None`: every row) and on the first
                    // active row of a mid-cycle substep.
                    for bins in [1, 4] {
                        let mid_cycle = bins > 1;
                        let mut sim = one_rank_one_step_in(scenario, bins);
                        PROBE.set(Probe::Poison { stage, lane, skip: 0 });
                        let message = panic_of_step(&mut sim);
                        let what = format!("{scenario}, {bins} bin(s), NaN in {lane} after {stage:?}: {message}");
                        assert!(
                            message.starts_with(&format!("stage {} produced a non-finite quantity", stage.label())),
                            "{what}"
                        );
                        let row = blamed_row(&message);
                        if mid_cycle && stage != SphStage::UpdateQuantities {
                            assert_eq!(row, sim.active_rows[0], "not the seeded active row — {what}");
                        } else {
                            assert_eq!(row, 0, "not the seeded row — {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn each_half_of_the_pre_momentum_split_guards_the_rows_it_ran() {
        // Two ranks, every owned row (global dt): the exported rows run every
        // pre-momentum stage first, the rest after the refresh is posted.
        // Both ranks seed their own NaN, so each rank's guard names its own
        // row; a rank whose peer dies instead fails on the lost peer (the
        // next test).
        let pre_momentum = [
            SphStage::XMass,
            SphStage::NormalizationGradh,
            SphStage::EquationOfState,
            SphStage::IADVelocityDivCurl,
            SphStage::AVSwitches,
        ];
        for stage in pre_momentum {
            for &lane in stage.output_lanes() {
                for half in 0..2 {
                    let outcomes = on_ranks(2, |comm| {
                        let mut sim = hot_spot_shard(comm, "Sedov", 1000, 1);
                        PROBE.set(Probe::Poison {
                            stage,
                            lane,
                            skip: half,
                        });
                        let message = panic_of_step(&mut sim);
                        let in_half = [&sim.exchange_rows, &sim.post_exchange_rows][half].first().copied();
                        (message, in_half)
                    });
                    for (rank, (message, in_half)) in outcomes.into_iter().enumerate() {
                        assert!(
                            message.starts_with(&format!("stage {} produced a non-finite quantity", stage.label())),
                            "rank {rank}, half {half}, NaN in {lane} after {stage:?}: {message}"
                        );
                        assert_eq!(
                            Some(blamed_row(&message)),
                            in_half,
                            "rank {rank}, half {half}: {message}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_rank_whose_guard_panics_mid_step_fails_every_survivor() {
        // Only rank 2 of 4 seeds a NaN. Its shard, and with it its `Comm`,
        // is dropped once its step died, and every survivor's step then
        // fails on the lost peer — directly or through a rank that failed
        // before it — instead of waiting for it forever.
        let (done, verdict) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let messages = on_ranks(4, |comm| {
                let poisoned = comm.rank() == 2;
                let mut sim = hot_spot_shard(comm, "Sedov", 1000, 1);
                if poisoned {
                    let stage = SphStage::XMass;
                    PROBE.set(Probe::Poison {
                        stage,
                        lane: stage.output_lanes()[0],
                        skip: 0,
                    });
                }
                panic_of_step(&mut sim)
            });
            done.send(messages)
        });
        let messages = verdict
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("no verdict from the four ranks within 60 s: {e}"));
        assert!(
            messages[2].starts_with("stage XMass produced a non-finite quantity"),
            "{}",
            messages[2]
        );
        for rank in [0, 1, 3] {
            assert!(
                messages[rank].contains("disconnected"),
                "rank {rank}: {}",
                messages[rank]
            );
        }
    }

    #[test]
    fn a_nan_in_a_frozen_row_is_caught_when_its_cycle_ends() {
        let mut sim = one_rank_one_step_in("Sedov", 4);
        // A rung-0 row is kicked at cycle starts only, and nothing reads its
        // `du` until then — no kernel through a neighbour row, and the kick
        // skips it: no stage of the cycle's substeps computes from the value.
        let frozen = sim.particles.rung[..sim.n_owned]
            .iter()
            .position(|&k| k == 0)
            .expect("a rung-0 row");
        sim.particles.du[frozen] = f64::NAN;
        while !sim.timestep_bins().unwrap().at_cycle_start() {
            sim.step();
        }
        let message = panic_of_step(&mut sim);
        assert!(
            message.starts_with("stage DomainDecompAndSync produced a non-finite quantity"),
            "{message}"
        );
        assert_eq!(blamed_row(&message) as usize, frozen, "{message}");
    }

    #[test]
    fn every_stage_writes_only_the_lanes_and_rows_its_table_lists() {
        // One rank per scenario with a stage of its own, and the two-pass
        // split of two ranks: two cycles of four dt bins each.
        for (scenario, n_ranks) in [("Sedov", 1), ("Evr", 1), ("Turb", 1), ("Sedov", 2)] {
            let audited = on_ranks(n_ranks, |comm| {
                let mut sim = hot_spot_shard(comm, scenario, 300, 4);
                PROBE.set(Probe::Audit);
                let (mut cycle_starts, mut mid_cycle) = (0, 0);
                while cycle_starts < 3 {
                    let at_start = sim.timestep_bins().unwrap().at_cycle_start();
                    cycle_starts += usize::from(at_start);
                    mid_cycle += usize::from(!at_start);
                    sim.step();
                }
                (mid_cycle, WRITTEN.take())
            });
            for (rank, (mid_cycle, written)) in audited.into_iter().enumerate() {
                assert!(mid_cycle > 0, "{scenario}: no mid-cycle substep was audited");
                // ...and the table lists nothing no body writes.
                for stage in stages_through_run(scenario) {
                    for &lane in stage.output_lanes() {
                        assert!(
                            written.contains(&(stage, lane)),
                            "{scenario}, rank {rank}: no {stage:?} body ever changed {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_rank_distributed_run_matches_shard_bookkeeping() {
        let scenario = scenario::get("Sedov").unwrap();
        let shards = run_distributed(scenario, 1, 300, 3, 2, TransportKind::Shm, None);
        assert_eq!(shards.len(), 1);
        let shard = &shards[0];
        assert_eq!(shard.ids.len(), shard.particles.len());
        assert_eq!(shard.summaries.len(), 2);
        assert!(shard.summaries.iter().all(|s| s.dt > 0.0 && s.total_energy.is_finite()));
        // One rank owns every global id exactly once.
        let mut ids: Vec<u32> = shard.ids.clone();
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(k, &id)| id as usize == k));
    }

    #[test]
    fn two_rank_run_partitions_and_exchanges_ghosts() {
        let scenario = scenario::get("Turb").unwrap();
        let outcomes: Vec<(usize, usize, u64)> = on_ranks(2, |comm| {
            let mut sim = DistributedSimulation::from_scenario(comm, scenario, 400, 5);
            sim.run(2);
            (sim.n_owned(), sim.ghost_count(), sim.step_count())
        });
        let total_owned: usize = outcomes.iter().map(|&(o, _, _)| o).sum();
        // turbulence_box builds a cube of side round(cbrt(400)) ≈ 7 → 343.
        assert!(total_owned > 300, "total owned {total_owned}");
        assert!(outcomes.iter().all(|&(_, ghosts, _)| ghosts > 0), "no ghosts exchanged");
        assert!(outcomes.iter().all(|&(_, _, steps)| steps == 2));
    }

    #[test]
    fn a_rank_with_peers_builds_its_owned_rows_as_an_all_rows_build_would() {
        let scenario = scenario::get("Turb").unwrap();
        on_ranks(2, |comm| {
            let rank = comm.rank();
            let mut sim = DistributedSimulation::from_scenario(comm, scenario, 2000, 5);
            sim.step();
            PROBE.set(Probe::Capture(SphStage::FindNeighbors));
            sim.step();
            let state = CAPTURED.take().expect("the step ran FindNeighbors");
            let (n, n_owned) = (state.len(), sim.n_owned);
            assert!(n > n_owned, "rank {rank}: no ghosts");
            // The same shard state, every row built.
            let mut everything = state.clone();
            let all_rows = crate::physics::neighbors::find_neighbors(&mut everything);
            let lists = sim.neighbors();
            assert_eq!(lists.len(), n, "rank {rank}: the lists cover the whole set");
            for i in 0..n_owned {
                assert_eq!(lists.neighbors(i), all_rows.neighbors(i), "rank {rank}: owned row {i}");
                assert_eq!(
                    sim.particles.neighbor_count[i], everything.neighbor_count[i],
                    "rank {rank}: diagnostic of owned row {i}"
                );
            }
            for i in n_owned..n {
                assert_eq!(lists.count(i), 0, "rank {rank}: ghost row {i} was built");
                assert_eq!(
                    sim.particles.neighbor_count[i], state.neighbor_count[i],
                    "rank {rank}: diagnostic of ghost {i} touched"
                );
            }
            assert_eq!(
                sim.workspace.neighbor_build_stats().rows,
                all_rows.offsets[n_owned] as usize,
                "rank {rank}: entries built are the owned rows'"
            );
        });
    }

    /// The owned rows of `state` — the set a FindNeighbors body started from
    /// — built on the grid as shipped and on one sized by `h_max`: the same
    /// row sets and diagnostics. Returns whether the two grids differ there.
    fn rows_match_the_h_max_grid(state: &ParticleSet, n_owned: usize, what: &str) -> bool {
        use crate::celllist::{find_neighbors_cells, CellGrid};
        use crate::physics::neighbors::{NeighborLists, NeighborScratch};
        let build = |quantile: Option<f64>| {
            let mut p = state.clone();
            let mut grid = CellGrid::new();
            match quantile {
                Some(quantile) => grid.rebuild_sized_by(&p, quantile),
                None => grid.rebuild(&p),
            }
            let mut lists = NeighborLists::default();
            find_neighbors_cells(&mut p, &grid, n_owned, None, &mut lists, &mut NeighborScratch::new());
            ((grid.total_cells(), grid.wide_cells()), lists, p.neighbor_count)
        };
        let (shipped_grid, shipped, shipped_diag) = build(None);
        let (h_max_grid, h_max, h_max_diag) = build(Some(1.0));
        for i in 0..n_owned {
            let sorted = |lists: &NeighborLists| {
                let mut row = lists.neighbors(i).to_vec();
                row.sort_unstable();
                row
            };
            assert_eq!(sorted(&shipped), sorted(&h_max), "{what}: row {i}");
            assert_eq!(shipped_diag[i], h_max_diag[i], "{what}: diagnostic of row {i}");
        }
        shipped_grid != h_max_grid
    }

    #[test]
    fn the_bulk_sized_grid_keeps_the_row_sets_and_the_lanes_of_the_h_max_grid() {
        use crate::propagator::DEFAULT_REORDER_INTERVAL;
        use crate::workspace::tests::{NeighborSeam, NEIGHBOR_SEAM};
        // The four pinned digests the grid sized by the 99th-percentile h
        // moved — `tests/conservation.rs` "Turb with 4 bin(s)" and "with 1
        // bin(s)", `tests/distributed.rs` "Evr with 4 bin(s)" on both ranks —
        // come from these runs (14 (sub)steps each, a hot core spreading h).
        // Every FindNeighbors state of the run as shipped gets the same row
        // sets from the h_max grid, and the runs on either grid end within
        // 1e-12 of a run whose rows are sorted, which fixes their order
        // whatever the grid: what moved the digests is the summation order.
        let as_shipped = NeighborSeam::default();
        let variants = [
            ("as shipped", as_shipped),
            (
                "on the h_max grid",
                NeighborSeam {
                    quantile: Some(1.0),
                    ..as_shipped
                },
            ),
            (
                "with sorted rows",
                NeighborSeam {
                    sorted_rows: true,
                    ..as_shipped
                },
            ),
        ];
        for (name, ranks, bins, centre, hot_radius) in [
            ("Turb", 1, 4, [0.5; 3], 0.2),
            ("Turb", 1, 1, [0.5; 3], 0.2),
            ("Evr", 2, 4, [0.0; 3], 0.3),
        ] {
            let scenario = scenario::get(name).unwrap();
            let mut global = scenario.initial_conditions(1500, 7);
            for i in 0..global.len() {
                let d = [
                    global.x[i] - centre[0],
                    global.y[i] - centre[1],
                    global.z[i] - centre[2],
                ];
                if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < hot_radius * hot_radius {
                    global.u[i] *= 100.0;
                }
            }
            let config = format!("{name} on {ranks} rank(s) with {bins} bin(s)");
            // Per variant and rank: the owned state in id order, and how many
            // FindNeighbors states had a grid other than the h_max one.
            let runs: Vec<Vec<(Vec<u32>, ParticleSet, usize)>> = variants
                .iter()
                .map(|&(variant, seam)| {
                    on_ranks(ranks, |comm| {
                        let rank = comm.rank();
                        NEIGHBOR_SEAM.set(seam);
                        let mut sim =
                            DistributedSimulation::new(comm, scenario, global.clone()).with_timestep_bins(bins);
                        if ranks == 1 {
                            sim.set_reorder_interval(DEFAULT_REORDER_INTERVAL);
                        }
                        let mut other_grid = 0;
                        for step in 0..14 {
                            PROBE.set(Probe::Capture(SphStage::FindNeighbors));
                            sim.step();
                            let state = CAPTURED.take().expect("every (sub)step builds rows");
                            if variant == "as shipped" {
                                let what = format!("{config}, rank {rank}, step {step}");
                                other_grid += usize::from(rows_match_the_h_max_grid(&state, sim.n_owned, &what));
                            }
                        }
                        NEIGHBOR_SEAM.set(as_shipped);
                        let (mut ids, p) = sim.into_shard();
                        let mut by_id: Vec<usize> = (0..ids.len()).collect();
                        by_id.sort_unstable_by_key(|&k| ids[k]);
                        ids.sort_unstable();
                        (ids, p.gather(&by_id), other_grid)
                    })
                })
                .collect();
            assert!(
                runs[0].iter().any(|&(_, _, other_grid)| other_grid > 0),
                "{config}: no state sized its grid otherwise than by h_max"
            );
            let reference = &runs[2];
            for ((variant, _), run) in variants.iter().zip(&runs).take(2) {
                let mut worst = (0.0f64, "");
                for ((ids, p, _), (ref_ids, q, _)) in run.iter().zip(reference) {
                    assert_eq!(ids, ref_ids, "{config} {variant}: owned ids");
                    assert_eq!(p.rung, q.rung, "{config} {variant}: rungs");
                    assert_eq!(p.neighbor_count, q.neighbor_count, "{config} {variant}: diagnostics");
                    for (lane, (a, b)) in
                        ParticleSet::lane_names().into_iter().zip(p.lanes().into_iter().zip(q.lanes()))
                    {
                        for (&a, &b) in a.iter().zip(b) {
                            let off = (a - b).abs() / a.abs().max(b.abs()).max(1.0);
                            if off > worst.0 {
                                worst = (off, lane);
                            }
                        }
                    }
                }
                eprintln!(
                    "{config} {variant}: largest lane difference {:.1e} ({})",
                    worst.0, worst.1
                );
                assert!(
                    worst.0 <= 1e-12,
                    "{config} {variant}: {} differs from the sorted-row run by {:e}",
                    worst.1,
                    worst.0
                );
            }
        }
    }

    #[test]
    fn migration_keeps_in_place_what_a_gather_kept() {
        let scenario = scenario::get("Turb").unwrap();
        let left = on_ranks(2, |comm| {
            let rank = comm.rank();
            // Splitters held still: what stays is decided by the map as it is.
            let mut sim =
                DistributedSimulation::from_scenario(comm, scenario, 2000, 5).with_rebalance_threshold(f64::INFINITY);
            let mut left = 0;
            for step in 0..4 {
                sim.step();
                // What the next sync migrates from: the owned block, wrapped.
                let n = sim.n_owned;
                sim.particles.truncate(n);
                sim.ids.truncate(n);
                sim.particles.wrap_positions();
                let p = &sim.particles;
                let keep: Vec<usize> = (0..n).filter(|&i| sim.map.owner_of((p.x[i], p.y[i], p.z[i])) == rank).collect();
                let gathered = p.gather(&keep);
                let gathered_ids: Vec<u32> = keep.iter().map(|&i| sim.ids[i]).collect();
                sim.migrate();
                let kept = keep.len();
                let what = format!("rank {rank}, step {step}");
                assert_eq!(sim.ids[..kept], gathered_ids, "{what}: ids of the kept slots");
                for ((name, lane), want) in ParticleSet::lane_names()
                    .into_iter()
                    .zip(sim.particles.lanes())
                    .zip(gathered.lanes())
                {
                    let bits = |lane: &[f64]| lane.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&lane[..kept]), bits(want), "{what}: {name} of the kept slots");
                }
                assert_eq!(sim.particles.rung[..kept], gathered.rung, "{what}: rungs");
                assert_eq!(
                    sim.particles.neighbor_count[..kept],
                    gathered.neighbor_count,
                    "{what}: diagnostics"
                );
                assert!(sim.particles.is_consistent(), "{what}: lanes out of step");
                left += n - kept;
            }
            left
        });
        assert!(left.iter().sum::<usize>() > 0, "no particle left its rank: {left:?}");
    }

    #[test]
    fn hidden_fraction_is_zero_for_an_empty_accounting() {
        // Regression: overlapped / (posted + overlapped + waited) must not
        // produce NaN before any multi-rank step has accumulated time.
        let stats = OverlapStats::default();
        assert_eq!(stats.hidden_fraction(), 0.0);
        assert!(!stats.hidden_fraction().is_nan());
        // Degenerate-but-nonzero components still land in [0, 1].
        let busy = OverlapStats {
            posted_s: 0.0,
            overlapped_s: 2.0,
            waited_s: 0.0,
        };
        assert_eq!(busy.hidden_fraction(), 1.0);
        let blocked = OverlapStats {
            posted_s: 1.0,
            overlapped_s: 0.0,
            waited_s: 3.0,
        };
        assert_eq!(blocked.hidden_fraction(), 0.0);
    }

    #[test]
    fn two_rank_binned_run_stays_in_lockstep() {
        let scenario = scenario::get("Sedov").unwrap();
        let per_rank: Vec<Vec<StepSummary>> = on_ranks(2, |comm| {
            DistributedSimulation::from_scenario(comm, scenario, 300, 3)
                .with_timestep_bins(4)
                .run(8)
        });
        // The cycle plan is collective, so every rank must see the identical
        // sequence of substep dts and (collectively reduced) energies.
        assert_eq!(per_rank[0].len(), 8);
        for (a, b) in per_rank[0].iter().zip(&per_rank[1]) {
            assert_eq!(a.step, b.step);
            assert_eq!(a.dt.to_bits(), b.dt.to_bits(), "ranks disagree on a substep dt");
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.total_energy.to_bits(), b.total_energy.to_bits());
        }
        assert!(per_rank[0].iter().all(|s| s.dt > 0.0 && s.total_energy.is_finite()));
    }

    #[test]
    fn four_rank_traced_run_merges_into_one_ordered_stream() {
        let scenario = scenario::get("Sedov").unwrap();
        let sink = Arc::new(Telemetry::new());
        let shards = run_distributed(scenario, 4, 500, 9, 2, TransportKind::Shm, Some(Arc::clone(&sink)));
        assert_eq!(shards.len(), 4);
        let events = sink.events_snapshot();

        // One totally ordered stream: record order == strictly increasing seq.
        assert!(
            events.windows(2).all(|w| w[0].seq < w[1].seq),
            "shared-sink events must be strictly seq-ordered"
        );

        // Every rank contributes a Step span and every pipeline stage span.
        for rank in 0..4u32 {
            assert!(
                events.iter().any(|e| e.cat == "step" && e.name == "Step" && e.rank == rank),
                "missing Step span for rank {rank}"
            );
            for stage in scenario.pipeline() {
                assert!(
                    events
                        .iter()
                        .any(|e| e.cat == "stage" && e.name == stage.label() && e.rank == rank),
                    "missing {} span for rank {rank}",
                    stage.label()
                );
            }
        }

        // Rank 0 published the global health gauges each step.
        let snapshot = sink.metrics().snapshot();
        for gauge in [
            "health.total_energy",
            "health.energy_drift",
            "health.mass_drift",
            "health.momentum_drift",
            "health.dt",
        ] {
            assert!(snapshot.gauge(gauge).is_some(), "missing gauge {gauge}");
            assert_eq!(
                events.iter().filter(|e| e.name == gauge).count(),
                2,
                "gauge {gauge} must be sampled once per step"
            );
        }
        // Every rank published its population and its comm totals.
        for rank in 0..4 {
            assert!(snapshot.gauge(&format!("sim.rank{rank}.owned")).is_some());
            assert!(snapshot.gauge(&format!("sim.rank{rank}.ghosts")).is_some());
        }
        assert!(
            snapshot.counter("comm.allgather.messages").unwrap_or(0) > 0,
            "comm totals must reach the registry"
        );
        let hist = snapshot
            .histogram("health.neighbor_count")
            .expect("neighbour histogram present");
        let total_owned: usize = shards.iter().map(|s| s.particles.len()).sum();
        assert_eq!(
            hist.count,
            2 * total_owned as u64,
            "one observation per owned particle per step"
        );
    }

    #[test]
    fn rebalance_triggers_when_threshold_is_tight() {
        let scenario = scenario::get("Sedov").unwrap();
        let rebalances: Vec<u64> = on_ranks(2, |comm| {
            // Any imbalance at all re-splits: with threshold 1.0 even a
            // one-particle drift triggers.
            let mut sim = DistributedSimulation::from_scenario(comm, scenario, 300, 3).with_rebalance_threshold(1.0);
            sim.run(3);
            sim.rebalance_count()
        });
        assert!(
            rebalances.iter().all(|&r| r == rebalances[0]),
            "ranks disagree on rebalances"
        );
        assert!(rebalances[0] > 0, "tight threshold must trigger a rebalance");
    }
}
