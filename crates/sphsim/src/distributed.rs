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
//!   the rank's owned set — and, on a lone rank of a gravity scenario,
//!   rebuilds the octree the Gravity stage walks;
//! * **`FindNeighbors` … `AVSwitches`** run the stage kernels over the
//!   *owned* rows, whose CSR rows reach into the ghost tail. Ghost rows are
//!   never computed locally: every ghost field consumed downstream is its
//!   owner's value, shipped by the halo exchange and the mid-step refresh.
//!   With peers, the rows some peer holds as ghosts run first so that refresh
//!   (`GhostExchangePost`) is on the wire while the rest compute;
//! * **`MomentumEnergy`** runs the rows that read no ghost while the refresh
//!   of `ρ, h, P, c, Ω, α` is in flight, completes it, then runs the rest;
//!   owned results match a one-rank run to floating-point round-off;
//! * **`Gravity`** is long-range and cannot be ghosted: ranks allgather the
//!   global `(x, y, z, m)` arrays and evaluate the same Barnes–Hut tree a
//!   lone rank builds over its own lanes; the walk also accumulates the
//!   rank's share of the potential energy, which rides the step summary's
//!   `K + U` allreduce (no per-step pair sum, gather or broadcast);
//! * **`Timestep`** reduces the Courant criterion over *owned* particles only
//!   (ghost accelerations are locally incomplete) and agrees globally through
//!   [`cluster::Comm::allreduce_min`].
//!
//! [`run_distributed`] drives one shard per rank on plain threads (the
//! physics-equivalence path used by the decomposition tests);
//! [`run_distributed_campaign`] additionally places each rank on a simulated
//! GPU die via [`cluster::RankMapping`], meters every stage per rank, and
//! gathers the per-rank reports into a [`DistributedCampaignResult`] — the
//! per-rank table of the paper's §2 gathering.

use crate::domain::DomainMap;
use crate::kernels::KERNEL_SUPPORT;
use crate::octree::Octree;
use crate::parallel::BlockRows;
use crate::particle::ParticleSet;
use crate::physics::avswitches::update_av_switches;
use crate::physics::density::{compute_density, update_smoothing_length};
use crate::physics::eos::apply_eos;
use crate::physics::gradh::compute_gradh;
use crate::physics::gravity::{add_gravity_rows, potential_energy_slices, DEFAULT_THETA};
use crate::physics::iad::compute_div_curl;
use crate::physics::momentum::compute_momentum_energy;
use crate::physics::timestep::{courant_timestep_prefix, update_quantities, TimestepBins};
use crate::physics::turbulence::TurbulenceDriver;
use crate::propagator::{
    default_turbulence_driver, emit_bins_telemetry, instrument, HealthBaseline, StageRunner, StepSummary,
    DEFAULT_INITIAL_DT, DEFAULT_MAX_DT, DEFAULT_SOFTENING, DEFAULT_TARGET_NEIGHBORS, MAX_LEAF_SIZE,
    NEIGHBOR_HISTOGRAM_BOUNDS,
};
use crate::scenario::ScenarioRef;
use crate::stages::SphStage;
use crate::workspace::StepWorkspace;
use cluster::{
    Cluster, CollectiveKind, Comm, CommWorld, RankContext, RankMapping, RecvHandle, SendHandle, TransportKind, Wire,
    WireError, WireReader,
};
use pmt::{MeasurementRecord, ProfilingHooks, RankReport};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;
use telemetry::Telemetry;

/// Default load-imbalance threshold (`max_rank_count / mean_rank_count`)
/// beyond which the Morton splitters are recomputed.
pub const DEFAULT_REBALANCE_THRESHOLD: f64 = 1.25;

/// Full per-particle state shipped by migration and the ghost exchange: the
/// global id, every `f64` lane in [`ParticleSet::lanes`] order, and the rung.
///
/// The derivative lanes (`du`, acceleration) ride along because, while the
/// global-dt scheme recomputes them for every particle every step before
/// use, under individual timesteps a frozen particle keeps its last kick's
/// derivatives across substeps — migration must carry them or the migrated
/// particle's state silently diverges from the one-rank trajectory. The rung
/// travels for the same reason (a particle keeps its kick schedule across
/// rank boundaries mid-cycle), and the ghost exchange ships it so receivers
/// can apply the neighbour-rung limiter and the active-set bookkeeping to
/// ghost rows.
#[derive(Clone, Debug)]
struct ParticleMsg {
    id: u32,
    lanes: [f64; 20],
    rung: u8,
}

/// Mid-step refresh of the ghost fields the momentum kernel reads.
#[derive(Clone, Copy, Debug)]
struct GhostUpdate {
    rho: f64,
    h: f64,
    p: f64,
    c: f64,
    omega: f64,
    alpha: f64,
}

/// Per-rank geometry advertised before the halo exchange.
#[derive(Clone, Copy, Debug)]
struct RankMeta {
    min: (f64, f64, f64),
    max: (f64, f64, f64),
    h_max: f64,
    count: usize,
}

impl Wire for ParticleMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        for v in self.lanes {
            v.encode(out);
        }
        self.rung.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = u32::decode(r)?;
        let mut lanes = [0.0f64; 20];
        for slot in &mut lanes {
            *slot = f64::decode(r)?;
        }
        let rung = u8::decode(r)?;
        Ok(Self { id, lanes, rung })
    }
    fn min_wire_size() -> usize {
        4 + 20 * 8 + 1
    }
}

impl Wire for GhostUpdate {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [self.rho, self.h, self.p, self.c, self.omega, self.alpha] {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            rho: f64::decode(r)?,
            h: f64::decode(r)?,
            p: f64::decode(r)?,
            c: f64::decode(r)?,
            omega: f64::decode(r)?,
            alpha: f64::decode(r)?,
        })
    }
    fn min_wire_size() -> usize {
        6 * 8
    }
}

impl Wire for RankMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.min.0, self.min.1, self.min.2, self.max.0, self.max.1, self.max.2, self.h_max,
        ] {
            v.encode(out);
        }
        self.count.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut f = [0.0f64; 7];
        for slot in &mut f {
            *slot = f64::decode(r)?;
        }
        Ok(Self {
            min: (f[0], f[1], f[2]),
            max: (f[3], f[4], f[5]),
            h_max: f[6],
            count: usize::decode(r)?,
        })
    }
    fn min_wire_size() -> usize {
        7 * 8 + 8
    }
}

/// Local newtype so the foreign `pmt::MeasurementRecord` can cross the wire
/// (the orphan rule forbids `impl cluster::Wire for pmt::MeasurementRecord`
/// here). The energies travel as `(domain.to_string(), joules)` pairs in the
/// record's own (`Domain`) order — [`pmt::Domain`] round-trips exactly
/// through its `Display`/`FromStr` pair.
struct WireRecord(MeasurementRecord);

fn encode_record(rec: &MeasurementRecord, out: &mut Vec<u8>) {
    rec.label.to_string().encode(out);
    rec.rank.encode(out);
    rec.iteration.encode(out);
    rec.start_s.encode(out);
    rec.end_s.encode(out);
    let energy: Vec<(String, f64)> = rec.energy_j.iter().map(|(d, &j)| (d.to_string(), j)).collect();
    energy.encode(out);
}

impl Wire for WireRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_record(&self.0, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let label = String::decode(r)?;
        let rank = u32::decode(r)?;
        let iteration = Option::<u64>::decode(r)?;
        let start_s = f64::decode(r)?;
        let end_s = f64::decode(r)?;
        let pairs = Vec::<(String, f64)>::decode(r)?;
        let mut energy_j = pmt::DomainEnergies::new();
        for (name, joules) in pairs {
            let domain = pmt::Domain::from_str(&name).map_err(|_| WireError::Malformed("bad measurement domain"))?;
            energy_j.insert(domain, joules);
        }
        Ok(Self(MeasurementRecord {
            label: label.into(),
            rank,
            iteration,
            start_s,
            end_s,
            energy_j,
        }))
    }
    fn min_wire_size() -> usize {
        // label len + rank + option tag + two f64 + energy len
        8 + 4 + 1 + 8 + 8 + 8
    }
}

impl Wire for DistributedRankReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rank.encode(out);
        self.hostname.encode(out);
        self.owned.encode(out);
        self.ghosts.encode(out);
        self.report.rank.encode(out);
        self.report.hostname.encode(out);
        (self.report.records.len() as u64).encode(out);
        for rec in &self.report.records {
            encode_record(rec, out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rank = u32::decode(r)?;
        let hostname = String::decode(r)?;
        let owned = usize::decode(r)?;
        let ghosts = usize::decode(r)?;
        let report_rank = u32::decode(r)?;
        let report_hostname = String::decode(r)?;
        let records = Vec::<WireRecord>::decode(r)?.into_iter().map(|w| w.0).collect();
        Ok(Self {
            rank,
            hostname,
            owned,
            ghosts,
            report: RankReport {
                rank: report_rank,
                hostname: report_hostname,
                records,
            },
        })
    }
    fn min_wire_size() -> usize {
        4 + 8 + 8 + 8 + 4 + 8 + 8
    }
}

/// Wall-clock accounting of the overlapped mid-step ghost exchange,
/// accumulated across a shard's steps.
///
/// Per multi-rank step: `posted_s` covers posting the nonblocking
/// sends/receives, `overlapped_s` is the interval the exchange spent in
/// flight underneath the interior-row momentum kernel, and `waited_s` is the
/// residual blocking wait once the interior rows ran out. A perfectly hidden
/// exchange has `waited_s ≈ 0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverlapStats {
    /// Seconds spent posting the nonblocking ghost exchange.
    pub posted_s: f64,
    /// Seconds the in-flight exchange was covered by interior-row compute.
    pub overlapped_s: f64,
    /// Seconds blocked in the completion wait after interior rows finished.
    pub waited_s: f64,
}

impl OverlapStats {
    /// Fraction of the exchange's total wall footprint hidden under compute:
    /// `overlapped / (posted + overlapped + waited)`. Zero before any
    /// multi-rank step ran.
    pub fn hidden_fraction(&self) -> f64 {
        let total = self.posted_s + self.overlapped_s + self.waited_s;
        if total <= 0.0 {
            return 0.0;
        }
        self.overlapped_s / total
    }

    /// Component-wise sum (for aggregating across ranks).
    pub fn merge(&mut self, other: &OverlapStats) {
        self.posted_s += other.posted_s;
        self.overlapped_s += other.overlapped_s;
        self.waited_s += other.waited_s;
    }
}

/// The in-flight mid-step ghost refresh: receives posted before sends, both
/// completed by [`DistributedSimulation::step`] only after the interior-row
/// momentum kernel has run.
struct GhostExchange {
    sends: Vec<SendHandle>,
    recvs: Vec<RecvHandle<Vec<GhostUpdate>>>,
}

/// The nonblocking owned-count exchange backing the next step's rebalance
/// decision: posted at the very end of step `k` (after the last collective of
/// the step), completed at the top of `sync` in step `k+1`. Ownership cannot
/// change in between, so the completed counts are exactly what a synchronous
/// allgather at the wait site would have produced.
struct PendingCounts {
    sends: Vec<SendHandle>,
    recvs: Vec<RecvHandle<usize>>,
}

impl PendingCounts {
    fn post(comm: &Comm, n_owned: usize) -> Self {
        let rank = comm.rank();
        let size = comm.size();
        let recvs = (0..size).filter(|&s| s != rank).map(|src| comm.irecv(src)).collect();
        let sends = (0..size).filter(|&d| d != rank).map(|dest| comm.isend(dest, n_owned)).collect();
        Self { sends, recvs }
    }

    fn complete(self, comm: &Comm, n_owned: usize) -> Vec<usize> {
        let mut counts = vec![0usize; comm.size()];
        counts[comm.rank()] = n_owned;
        for recv in self.recvs {
            let src = recv.src();
            counts[src] = recv.wait(comm).expect("peer died during the population exchange");
        }
        for send in self.sends {
            send.wait().expect("peer died during the population exchange");
        }
        counts
    }
}

/// One rank's shard of an SPH run — all of it when the communicator has one
/// rank.
///
/// Every collective method ([`DistributedSimulation::step`],
/// [`DistributedSimulation::total_energy`]) must be called in lock-step by
/// all ranks of the communicator, exactly as with MPI.
pub struct DistributedSimulation {
    comm: Comm,
    scenario: ScenarioRef,
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
    pending_counts: Option<PendingCounts>,
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
    pub fn new(comm: Comm, scenario: ScenarioRef, mut global: ParticleSet) -> Self {
        global.boundary = scenario.boundary();
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
        let driver = scenario.has_stirring().then(default_turbulence_driver);
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
    pub fn from_scenario(comm: Comm, scenario: ScenarioRef, n_target: usize, seed: u64) -> Self {
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
    /// trace ([`run_distributed_traced`] wires this up for you).
    pub fn with_telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Register a region observer (e.g. an `autotune` DVFS governor for this
    /// rank's GPU die) on the attached hooks' meter.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DistributedSimulation::with_hooks`].
    pub fn with_region_observer(self, observer: std::sync::Arc<dyn pmt::RegionObserver>) -> Self {
        let hooks = self
            .hooks
            .as_ref()
            .expect("attach hooks (with_hooks) before registering a region observer");
        hooks.meter().add_region_observer(observer);
        self
    }

    /// Set the load-imbalance threshold that triggers a splitter re-balance.
    /// Values `<= 1` re-balance every step; `f64::INFINITY` disables it.
    pub fn with_rebalance_threshold(mut self, threshold: f64) -> Self {
        self.rebalance_threshold = threshold;
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
    pub fn scenario(&self) -> &ScenarioRef {
        &self.scenario
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

    /// The current domain map.
    pub fn domain_map(&self) -> &DomainMap {
        &self.map
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
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The attached profiling hooks, if any.
    pub fn hooks(&self) -> Option<&ProfilingHooks> {
        self.hooks.as_ref()
    }

    fn msg_of(&self, i: usize) -> ParticleMsg {
        ParticleMsg {
            id: self.ids[i],
            lanes: self.particles.lanes().map(|lane| lane[i]),
            rung: self.particles.rung[i],
        }
    }

    fn push_msg(&mut self, msg: &ParticleMsg) {
        let p = &mut self.particles;
        for (lane, &v) in p.lanes_mut().into_iter().zip(&msg.lanes) {
            lane.push(v);
        }
        p.neighbor_count.push(0);
        p.rung.push(msg.rung);
        self.ids.push(msg.id);
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

    /// Re-balance the splitters when the owned counts drifted past the
    /// threshold, then hand every particle whose Morton key now belongs to
    /// another rank over to its new owner.
    fn migrate(&mut self) {
        let rank = self.comm.rank();
        let size = self.comm.size();

        // Morton keys of the owned particles in the shared (fixed-box) key
        // space; pure function of position, so every rank agrees on owners.
        let codes: Vec<u64> = (0..self.n_owned)
            .map(|i| {
                self.map
                    .code_of((self.particles.x[i], self.particles.y[i], self.particles.z[i]))
            })
            .collect();

        // Re-balance when populations drifted past the threshold. The
        // decision derives from the owned counts agreed across the world —
        // normally delivered by the background exchange posted at the end of
        // the previous step (ownership is frozen in between, so the values
        // match a synchronous allgather here); the first step, with nothing
        // in flight yet, falls back to the blocking collective.
        let counts = match self.pending_counts.take() {
            Some(pending) => pending.complete(&self.comm, self.n_owned),
            None => self.comm.allgather(self.n_owned),
        };
        let total: usize = counts.iter().sum();
        if total > 0 {
            let mean = total as f64 / size as f64;
            let max = counts.iter().copied().max().unwrap_or(0) as f64;
            if max > self.rebalance_threshold * mean {
                let mut all_codes: Vec<u64> = self.comm.allgather(codes.clone()).into_iter().flatten().collect();
                all_codes.sort_unstable();
                self.map.rebalance(&all_codes);
                self.rebalance_count += 1;
            }
        }

        // The exchange is double-buffered: receives and sends are posted
        // first, the local keep-set compaction overlaps with the in-flight
        // messages, and the receives complete in source-rank order — the same
        // incoming order a synchronous alltoall produces, so particle
        // ordering (and hence physics) does not depend on the timing.
        let mut outgoing: Vec<Vec<ParticleMsg>> = vec![Vec::new(); size];
        let mut keep: Vec<usize> = Vec::with_capacity(self.n_owned);
        for (i, &code) in codes.iter().enumerate() {
            let dest = self.map.owner_of_code(code);
            if dest == rank {
                keep.push(i);
            } else {
                outgoing[dest].push(self.msg_of(i));
            }
        }
        let migration_recvs: Vec<RecvHandle<Vec<ParticleMsg>>> =
            (0..size).filter(|&s| s != rank).map(|src| self.comm.irecv(src)).collect();
        let migration_sends: Vec<SendHandle> = (0..size)
            .filter(|&d| d != rank)
            .map(|dest| self.comm.isend(dest, std::mem::take(&mut outgoing[dest])))
            .collect();
        // Compact while the wires are busy.
        if keep.len() != self.n_owned {
            let kept_ids: Vec<u32> = keep.iter().map(|&i| self.ids[i]).collect();
            self.particles = self.particles.gather(&keep);
            self.ids = kept_ids;
        }
        for recv in migration_recvs {
            let msgs = recv.wait(&self.comm).expect("peer died during migration");
            for msg in &msgs {
                self.push_msg(msg);
            }
        }
        for send in migration_sends {
            send.wait().expect("peer died during migration");
        }
        self.n_owned = self.particles.len();
    }

    /// Advertise this rank's geometry, build the send lists and exchange the
    /// ghost layer: particle i goes to rank b when it can interact with
    /// *some* particle of b, over-approximated as distance-to-bounding-box ≤
    /// 2·max(h_i, h_max_b) — measured *periodically* when the box wraps, so
    /// ghosts cross the wrap seam (the per-axis image minimum never exceeds
    /// the true minimum-image pair distance, keeping the superset guarantee).
    /// The superset is harmless: extra ghosts fall outside every neighbour
    /// search. Ghosts ship at their wrapped coordinates; the receiving rank's
    /// periodic neighbour search and the min-image pair kernels place them on
    /// whichever image interacts — including both sides at once when a rank's
    /// domain touches both faces of an axis.
    fn exchange_ghosts(&mut self) {
        let rank = self.comm.rank();
        let boundary = self.particles.boundary;
        let meta = {
            let (min, max) = bounding_box_prefix(&self.particles, self.n_owned);
            let h_max = self.particles.h[..self.n_owned].iter().copied().fold(0.0, f64::max);
            RankMeta {
                min,
                max,
                h_max,
                count: self.n_owned,
            }
        };
        let metas = self.comm.allgather(meta);
        for list in &mut self.send_lists {
            list.clear();
        }
        for (dest, dest_meta) in metas.iter().enumerate() {
            if dest == rank || dest_meta.count == 0 {
                continue;
            }
            for i in 0..self.n_owned {
                let pos = (self.particles.x[i], self.particles.y[i], self.particles.z[i]);
                let radius = KERNEL_SUPPORT * self.particles.h[i].max(dest_meta.h_max);
                if boundary.dist_sq_to_box(pos, dest_meta.min, dest_meta.max) <= radius * radius {
                    self.send_lists[dest].push(i);
                }
            }
        }
        let outgoing_ghosts: Vec<Vec<ParticleMsg>> = self
            .send_lists
            .iter()
            .map(|list| list.iter().map(|&i| self.msg_of(i)).collect())
            .collect();
        let incoming_ghosts = self.comm.alltoall(outgoing_ghosts);
        self.ghost_counts.clear();
        self.ghost_counts.extend(incoming_ghosts.iter().map(|msgs| msgs.len()));
        for msgs in &incoming_ghosts {
            for msg in msgs {
                self.push_msg(msg);
            }
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
            self.sync(reorder_due);
            // The octree serves the Gravity stage alone. With peers that
            // stage builds its own over the gathered global set.
            if self.scenario.has_gravity() && self.comm.size() == 1 {
                self.workspace.rebuild_tree(&self.particles, MAX_LEAF_SIZE);
            }
        });

        let n_owned = self.n_owned;
        let rows: Option<&[u32]> = match &bins {
            Some(b) if !sync_start => {
                b.collect_active_rows(&self.particles, n_owned, &mut self.active_rows);
                Some(&self.active_rows)
            }
            _ => None,
        };
        let (ids, step, scenario) = (&self.ids, self.step, self.scenario.short_name());
        let whereabouts = |i: usize| {
            let id = ids[i];
            format!("owned particle {i} (global id {id}) on rank {rank_tag} at step {step} of scenario {scenario}")
        };
        let stages = StageRunner {
            hooks: &hooks,
            telemetry: &tel,
            rank: rank_tag,
            guarded: n_owned,
            whereabouts: &whereabouts,
        };
        let last_dt = self.last_dt;
        let comm = &self.comm;
        let peers = comm.size() > 1;
        let p = &mut self.particles;

        // A full build covers the ghost rows too: the symmetric union needs
        // their supports.
        stages.run(p, SphStage::FindNeighbors.label(), |p| {
            self.workspace.find_neighbors(p, rows)
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
            stages.run(p, SphStage::XMass.label(), |p| {
                compute_density(p, neighbors, rows);
                update_smoothing_length(p, DEFAULT_TARGET_NEIGHBORS, rows);
            });
            stages.run(p, SphStage::NormalizationGradh.label(), |p| {
                compute_gradh(p, neighbors, rows)
            });
            stages.run(p, SphStage::EquationOfState.label(), |p| apply_eos(p, rows));
            stages.run(p, SphStage::IADVelocityDivCurl.label(), |p| {
                compute_div_curl(p, neighbors, rows)
            });
            stages.run(p, SphStage::AVSwitches.label(), |p| {
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
        stages.run(p, SphStage::MomentumEnergy.label(), |p| {
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

        if self.scenario.has_gravity() {
            let egrav = stages.run(p, SphStage::Gravity.label(), |p| {
                add_gravity_global(comm, p, n_owned, tree, rows)
            });
            // Only a walk over every owned row sums the rank's whole share.
            if rows.is_none() {
                self.egrav = egrav;
            }
        }

        if let Some(driver) = &self.driver {
            let time = self.time;
            // `None` also stirs the ghost tail, whose accelerations nobody reads.
            stages.run(p, SphStage::Turbulence.label(), |p| driver.apply(p, time, rows));
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
            self.scenario.short_name()
        );

        // Everyone drifts, ghosts included — nobody reads them before the
        // next sync drops them.
        stages.run(p, SphStage::UpdateQuantities.label(), |p| {
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
        // Post the owned counts feeding the next step's rebalance decision in
        // the background: the wait sits at the top of the next migration, and
        // ownership is frozen until then. Collectives between steps (say a
        // caller's total_energy) are safe to cross the in-flight handles —
        // the transport matches per (sender, message class), and these are
        // the only p2p messages live between steps.
        if peers {
            self.pending_counts = Some(PendingCounts::post(&self.comm, self.n_owned));
        }
        summary
    }

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
    fn emit_step_telemetry(&mut self, summary: &StepSummary, mid_cycle: bool, reordered: bool, rebalanced: bool) {
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
        let histogram = tel.metrics().histogram("health.neighbor_count", &NEIGHBOR_HISTOGRAM_BOUNDS);
        let (mut n_built, mut min, mut max, mut total) = (0usize, usize::MAX, 0usize, 0usize);
        for i in BlockRows::within(built, 0..self.n_owned) {
            let width = lists.count(i).saturating_sub(1);
            histogram.observe(width as f64);
            n_built += 1;
            min = min.min(width);
            max = max.max(width);
            total += width;
        }
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
    pub fn publish_comm_stats(&self) {
        let Some(tel) = &self.telemetry else {
            return;
        };
        if !tel.enabled() {
            return;
        }
        let rank_tag = self.comm.rank() as u32;
        let snapshot = self.comm.stats();
        let backend = self.comm.transport_kind().label();
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
            // The same totals, attributed to the transport backend that moved
            // them — lets a trace distinguish shm from socket traffic.
            tel.metrics()
                .counter(&format!("comm.{backend}.{}.messages", kind.label()))
                .add(row.messages);
            tel.metrics()
                .counter(&format!("comm.{backend}.{}.bytes", kind.label()))
                .add(row.bytes);
            tel.metrics()
                .counter(&format!("comm.{backend}.{}.calls", kind.label()))
                .add(row.calls);
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
        if self.scenario.has_gravity() {
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
        if self.scenario.has_gravity() {
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

/// Axis-aligned bounding box of the first `n` particles.
fn bounding_box_prefix(p: &ParticleSet, n: usize) -> ((f64, f64, f64), (f64, f64, f64)) {
    let mut min = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        min.0 = min.0.min(p.x[i]);
        min.1 = min.1.min(p.y[i]);
        min.2 = min.2.min(p.z[i]);
        max.0 = max.0.max(p.x[i]);
        max.1 = max.1.max(p.y[i]);
        max.2 = max.2.max(p.z[i]);
    }
    (min, max)
}

/// Post the mid-step ghost refresh without blocking: one receive per peer
/// (completed later in source-rank order — the order the ghost tail is stored
/// in) and one send per peer carrying the fields the momentum kernel reads,
/// in the send-list order of this step's halo exchange. Under `bins` only the
/// entries kicked this substep ship (all of them at a cycle start);
/// [`complete_ghost_refresh`] skips the frozen ghost slots symmetrically:
/// both sides derive activity from the same shipped rungs and the same
/// globally agreed schedule, so the filtered streams stay aligned without
/// any extra header traffic.
fn post_ghost_refresh(
    comm: &Comm,
    send_lists: &[Vec<usize>],
    particles: &ParticleSet,
    bins: Option<&TimestepBins>,
) -> GhostExchange {
    let rank = comm.rank();
    let size = comm.size();
    let recvs = (0..size).filter(|&s| s != rank).map(|src| comm.irecv(src)).collect();
    let sends = (0..size)
        .filter(|&d| d != rank)
        .map(|dest| {
            let updates: Vec<GhostUpdate> = send_lists[dest]
                .iter()
                .filter(|&&i| bins.is_none_or(|b| b.is_active(particles.rung[i])))
                .map(|&i| GhostUpdate {
                    rho: particles.rho[i],
                    h: particles.h[i],
                    p: particles.p[i],
                    c: particles.c[i],
                    omega: particles.omega[i],
                    alpha: particles.alpha[i],
                })
                .collect();
            comm.isend(dest, updates)
        })
        .collect();
    GhostExchange { sends, recvs }
}

/// Complete a ghost refresh posted by [`post_ghost_refresh`]: walk each
/// source rank's ghost block in tail order (block extents recorded at sync
/// time), write the next update onto every slot whose rung is active this
/// substep (every slot without `bins`), and leave the frozen slots untouched
/// — their owners did not recompute this substep, so the values shipped by
/// this substep's sync are already current. The sender filtered its list by
/// the same rung activity, so the stream and the active slots align entry
/// for entry; the assertions catch any drift. Reaps the sends last.
fn complete_ghost_refresh(
    comm: &Comm,
    particles: &mut ParticleSet,
    n_owned: usize,
    ghost_counts: &[usize],
    exchange: GhostExchange,
    bins: Option<&TimestepBins>,
) {
    let mut slot = n_owned;
    for recv in exchange.recvs {
        let src = recv.src();
        let updates = recv.wait(comm).expect("peer died during the ghost refresh");
        let mut next = updates.iter();
        for _ in 0..ghost_counts[src] {
            if bins.is_none_or(|b| b.is_active(particles.rung[slot])) {
                let u = next.next().expect("ghost refresh under-ran its block");
                particles.rho[slot] = u.rho;
                particles.h[slot] = u.h;
                particles.p[slot] = u.p;
                particles.c[slot] = u.c;
                particles.omega[slot] = u.omega;
                particles.alpha[slot] = u.alpha;
            }
            slot += 1;
        }
        assert!(next.next().is_none(), "ghost refresh over-ran its block");
    }
    debug_assert_eq!(slot, particles.len(), "ghost refresh out of sync with the ghost tail");
    for send in exchange.sends {
        send.wait().expect("peer died during the ghost refresh");
    }
}

/// Ship every rank's owned rungs onto its peers' ghost slots: send-list order
/// on the wire, source-rank block order on the ghost tail — the same
/// alignment the halo exchange established at sync. One call per limiter
/// round keeps the Jacobi iteration reading current neighbour rungs across
/// rank boundaries.
fn exchange_ghost_rungs(comm: &Comm, send_lists: &[Vec<usize>], particles: &mut ParticleSet, n_owned: usize) {
    if comm.size() <= 1 {
        return;
    }
    let outgoing: Vec<Vec<u8>> = send_lists
        .iter()
        .map(|list| list.iter().map(|&i| particles.rung[i]).collect())
        .collect();
    let incoming = comm.alltoall(outgoing);
    let mut slot = n_owned;
    for rungs in &incoming {
        for &k in rungs {
            particles.rung[slot] = k;
            slot += 1;
        }
    }
    debug_assert_eq!(slot, particles.len(), "rung exchange out of sync with the ghost tail");
}

/// Barnes–Hut gravity over the *global* particle distribution, accelerating
/// the owned `rows` of this rank in place; returns their `½ Σ m φ`. With
/// peers, the ranks allgather the owned `(x, y, z, m)` arrays, concatenate
/// them in rank order and build the global tree (identical on every rank,
/// since the gathered arrays are); the allgather and the tree build run on
/// every rank on every (sub)step — the collective schedule must stay in
/// lock-step regardless of local activity. A lone rank's own lanes *are* the
/// global arrays and `local_tree`, built over them by this step's sync, the
/// global tree: nothing is copied or rebuilt. Only the given rows are
/// accelerated; frozen particles keep the acceleration of their own last
/// kick.
fn add_gravity_global(
    comm: &Comm,
    particles: &mut ParticleSet,
    n_owned: usize,
    local_tree: &Octree,
    rows: Option<&[u32]>,
) -> f64 {
    let p = particles;
    let (gathered_sources, gathered_tree);
    let (tree, sources, my_start) = if comm.size() > 1 {
        let owned = |field: &[f64]| field[..n_owned].to_vec();
        let gathered = comm.allgather((owned(&p.x), owned(&p.y), owned(&p.z), owned(&p.m)));
        // The block lengths are in the payload: no second collective for the
        // offset of this rank's block.
        let my_start = gathered[..comm.rank()].iter().map(|block| block.0.len()).sum();
        let (mut x, mut y, mut z, mut m) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (gx, gy, gz, gm) in gathered {
            x.extend_from_slice(&gx);
            y.extend_from_slice(&gy);
            z.extend_from_slice(&gz);
            m.extend_from_slice(&gm);
        }
        gathered_tree = Octree::build(&x, &y, &z, &m, MAX_LEAF_SIZE);
        gathered_sources = (x, y, z, m);
        let (x, y, z, m) = &gathered_sources;
        (&gathered_tree, (&x[..], &y[..], &z[..], &m[..]), my_start)
    } else {
        (local_tree, (&p.x[..], &p.y[..], &p.z[..], &p.m[..]), 0)
    };
    let targets = (&mut p.ax[..n_owned], &mut p.ay[..n_owned], &mut p.az[..n_owned]);
    add_gravity_rows(tree, sources, my_start, rows, targets, DEFAULT_THETA, DEFAULT_SOFTENING)
}

/// One rank's final state from [`run_distributed`].
pub struct ShardResult {
    /// Rank id.
    pub rank: usize,
    /// Global construction-order id of each owned particle.
    pub ids: Vec<u32>,
    /// The rank's owned particles (no ghosts).
    pub particles: ParticleSet,
    /// Per-step global summaries (identical on every rank up to round-off).
    pub summaries: Vec<StepSummary>,
    /// How many splitter re-balances this rank observed.
    pub rebalances: u64,
    /// Ghost-exchange overlap accounting accumulated over the run.
    pub overlap: OverlapStats,
}

/// Drive one [`DistributedSimulation`] shard per rank on plain threads and
/// return every rank's final shard. This is the hardware-free physics path —
/// the decomposition/equivalence tests and the CI smoke gate run through it.
pub fn run_distributed(
    scenario: ScenarioRef,
    n_ranks: usize,
    n_target: usize,
    seed: u64,
    steps: u64,
) -> Vec<ShardResult> {
    run_rank_threads(scenario, n_ranks, n_target, seed, steps, TransportKind::Shm, None)
}

/// [`run_distributed`] over an explicit transport backend. `Socket` runs the
/// identical rank threads over real Unix-socket connections and the
/// hand-rolled wire codec — the transport-equivalence gate drives both
/// backends through here and requires bit-comparable physics.
pub fn run_distributed_with_transport(
    scenario: ScenarioRef,
    n_ranks: usize,
    n_target: usize,
    seed: u64,
    steps: u64,
    transport: TransportKind,
) -> Vec<ShardResult> {
    run_rank_threads(scenario, n_ranks, n_target, seed, steps, transport, None)
}

/// [`run_distributed_with_transport`] with one shared telemetry sink attached
/// to every rank: per-rank `Step`/stage spans interleave into one totally
/// ordered stream (the shared sequence atomic), each rank publishes its
/// communication totals at the end, and the exporters are flushed once after
/// the last rank joins.
pub fn run_distributed_traced(
    scenario: ScenarioRef,
    n_ranks: usize,
    n_target: usize,
    seed: u64,
    steps: u64,
    transport: TransportKind,
    sink: Arc<Telemetry>,
) -> Vec<ShardResult> {
    run_rank_threads(scenario, n_ranks, n_target, seed, steps, transport, Some(sink))
}

/// The one rank-thread body behind the `run_distributed*` entry points.
fn run_rank_threads(
    scenario: ScenarioRef,
    n_ranks: usize,
    n_target: usize,
    seed: u64,
    steps: u64,
    transport: TransportKind,
    sink: Option<Arc<Telemetry>>,
) -> Vec<ShardResult> {
    let comms = CommWorld::create_with(n_ranks, transport);
    let shards = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                let (scenario, sink) = (scenario.clone(), sink.clone());
                scope.spawn(move || {
                    let mut sim = DistributedSimulation::from_scenario(comm, scenario, n_target, seed);
                    if let Some(sink) = sink {
                        sim = sim.with_telemetry(sink);
                    }
                    let summaries = sim.run(steps);
                    sim.publish_comm_stats();
                    let rebalances = sim.rebalance_count();
                    let overlap = sim.overlap_stats();
                    let (ids, particles) = sim.into_shard();
                    ShardResult {
                        rank,
                        ids,
                        particles,
                        summaries,
                        rebalances,
                        overlap,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    });
    if let Some(sink) = sink {
        sink.flush();
    }
    shards
}

/// Configuration of a metered multi-rank run.
#[derive(Clone, Debug)]
pub struct DistributedCampaignConfig {
    /// System architecture providing the GPU dies the ranks map onto.
    pub system: hwmodel::arch::SystemKind,
    /// Scenario to run.
    pub scenario: ScenarioRef,
    /// Number of ranks (= GPU dies used).
    pub n_ranks: usize,
    /// Owned particles per rank (weak scaling: total = `n_ranks · n_per_rank`).
    pub n_per_rank: usize,
    /// Number of timesteps.
    pub steps: u64,
    /// IC seed.
    pub seed: u64,
    /// Transport backend the ranks communicate over.
    pub transport: TransportKind,
}

/// One rank's gathered measurement, à la the paper's per-rank energy tables.
pub struct DistributedRankReport {
    /// Rank id.
    pub rank: u32,
    /// Hostname of the node the rank ran on.
    pub hostname: String,
    /// Particles owned at the end of the run.
    pub owned: usize,
    /// Ghosts held at the end of the run.
    pub ghosts: usize,
    /// The rank's full PMT report (per-stage records).
    pub report: RankReport,
}

/// Everything gathered from a metered multi-rank run.
pub struct DistributedCampaignResult {
    /// The configuration that produced this result.
    pub config: DistributedCampaignConfig,
    /// Per-rank reports in rank order (rank 0's §2-style gathering).
    pub per_rank: Vec<DistributedRankReport>,
    /// Per-step global summaries (from rank 0).
    pub summaries: Vec<StepSummary>,
    /// Wall-clock duration of the whole run in seconds.
    pub elapsed_s: f64,
}

impl DistributedCampaignResult {
    /// Total particles owned across ranks at the end of the run.
    pub fn total_particles(&self) -> usize {
        self.per_rank.iter().map(|r| r.owned).sum()
    }

    /// Summed wall-time of one stage across steps, on its slowest rank.
    pub fn stage_time_slowest_rank_s(&self, label: &str) -> f64 {
        self.per_rank
            .iter()
            .map(|r| {
                r.report
                    .records
                    .iter()
                    .filter(|rec| rec.label == label)
                    .map(|rec| rec.duration_s())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Aggregate throughput of a set of stages: particles that complete the
    /// whole stage *group* per second of the group's summed wall-time, charged
    /// at the slowest rank (lock-step execution). One particle-step counts
    /// once no matter how many stages are in the group, so the number is
    /// comparable to a per-stage `particles/s` figure only when the group has
    /// one stage.
    pub fn stages_throughput_pps(&self, labels: &[&str]) -> f64 {
        let time: f64 = labels.iter().map(|l| self.stage_time_slowest_rank_s(l)).sum();
        if time <= 0.0 {
            return 0.0;
        }
        (self.total_particles() as f64) * (self.config.steps as f64) / time
    }
}

/// Run a metered distributed campaign: one rank per GPU die of a freshly built
/// [`Cluster`], each with its own per-stage meter (and whatever observers
/// `wire` attaches — e.g. a per-rank DVFS governor over the rank's die), then
/// gather every rank's report at rank 0 into a [`DistributedCampaignResult`].
///
/// `wire` runs once per rank, on that rank's thread, after the meter exists
/// and before the simulation starts.
pub fn run_distributed_campaign(
    config: &DistributedCampaignConfig,
    wire: impl Fn(&RankContext, &pmt::PowerMeter) + Sync,
) -> DistributedCampaignResult {
    assert!(config.n_ranks >= 1);
    let cluster = Cluster::with_gpu_dies(config.system, config.n_ranks);
    let mapping = RankMapping::one_rank_per_die_limited(&cluster, config.n_ranks);
    let start = std::time::Instant::now();
    let n_target = config.n_per_rank * config.n_ranks;
    let mut outcomes = cluster::run_ranks_with(&cluster, &mapping, config.transport, |ctx| {
        // The rank's die is busy for the duration of the run; its modelled
        // power (at whatever frequency an attached governor picks per stage)
        // is integrated over the wall clock by the per-rank meter.
        ctx.gpu.set_load(1.0);
        let meter = std::sync::Arc::new(
            pmt::PowerMeter::builder()
                .sensor(cluster::GpuDiePowerSensor::new(ctx.gpu.clone()))
                .rank(ctx.rank)
                .hostname(ctx.placement.hostname.clone())
                .build(),
        );
        wire(&ctx, &meter);
        let hooks = ProfilingHooks::new(meter.clone());
        let mut sim = DistributedSimulation::from_scenario(ctx.comm, config.scenario.clone(), n_target, config.seed)
            .with_hooks(hooks);
        let summaries = sim.run(config.steps);
        let payload = DistributedRankReport {
            rank: ctx.rank,
            hostname: ctx.placement.hostname.clone(),
            owned: sim.n_owned(),
            ghosts: sim.ghost_count(),
            report: meter.report(),
        };
        let gathered = sim.comm().gather(payload, 0);
        (gathered, summaries)
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let (gathered, summaries) = outcomes.remove(0);
    DistributedCampaignResult {
        config: config.clone(),
        per_rank: gathered.expect("rank 0 gathers every report"),
        summaries,
        elapsed_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    /// What the facade's unit tests look at behind it.
    impl DistributedSimulation {
        /// The neighbour lists of the last step.
        pub(crate) fn neighbors(&self) -> &crate::physics::neighbors::NeighborLists {
            self.workspace.neighbors()
        }

        /// The octree of the Gravity stage.
        pub(crate) fn tree(&self) -> &Octree {
            self.workspace.tree()
        }

        /// Summed size of every row-list scratch buffer of the step.
        pub(crate) fn row_scratch_capacity(&self) -> usize {
            self.active_rows.capacity()
                + self.exchange_rows.capacity()
                + self.post_exchange_rows.capacity()
                + self.row_is_exported.capacity()
                + self.workspace.interior_rows().len()
                + self.workspace.halo_rows().len()
        }

        /// The stored potential-energy share of the last full Gravity walk.
        pub(crate) fn egrav(&self) -> f64 {
            self.egrav
        }
    }

    /// Hold `value`'s encoding to its pinned `(length, FNV-1a over the
    /// bytes)` and to decode → encode being the identity on those bytes.
    fn assert_wire_pin<T: Wire>(value: &T, pinned: (usize, u64), what: &str) {
        let bytes = value.to_wire();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), pinned, "encoded {what}");
        assert_eq!(bytes.len(), T::min_wire_size(), "{what} is fixed-size");
        let decoded = T::from_wire(&bytes).expect("own bytes decode");
        assert_eq!(decoded.to_wire(), bytes, "decode → encode is the identity on the bytes");
        assert!(
            T::from_wire(&bytes[..bytes.len() - 1]).is_err(),
            "a strict prefix must not decode"
        );
    }

    #[test]
    fn wire_bytes_of_a_particle_msg_are_pinned() {
        let mut lanes = [0.0f64; 20];
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = 0.37 * k as f64 - 1.5;
        }
        // Raw bits travel: a signed zero and a subnormal must survive.
        (lanes[3], lanes[17]) = (-0.0, f64::MIN_POSITIVE / 4.0);
        let msg = ParticleMsg {
            id: 0x0102_0304,
            lanes,
            rung: 7,
        };
        assert_wire_pin(&msg, (165, 2070815820410229108), "ParticleMsg");
    }

    #[test]
    fn wire_bytes_of_a_ghost_update_are_pinned() {
        let update = GhostUpdate {
            rho: 1.25,
            h: 0.031,
            p: 2.0e-3,
            c: 0.57,
            omega: 0.98,
            alpha: 0.05,
        };
        assert_wire_pin(&update, (48, 17930355540676866077), "GhostUpdate");
    }

    #[test]
    fn wire_bytes_of_a_rank_meta_are_pinned() {
        let meta = RankMeta {
            min: (-0.5, -0.25, 0.0),
            max: (0.5, 0.75, 1.0),
            h_max: 0.043,
            count: 31_999,
        };
        assert_wire_pin(&meta, (64, 18193235142567817339), "RankMeta");
    }

    #[test]
    fn single_rank_distributed_run_matches_shard_bookkeeping() {
        let scenario = scenario::get("Sedov").unwrap();
        let shards = run_distributed(scenario, 1, 300, 3, 2);
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
        let comms = CommWorld::create(2);
        let outcomes: Vec<(usize, usize, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let scenario = scenario.clone();
                    s.spawn(move || {
                        let mut sim = DistributedSimulation::from_scenario(comm, scenario, 400, 5);
                        sim.run(2);
                        (sim.n_owned(), sim.ghost_count(), sim.step_count())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total_owned: usize = outcomes.iter().map(|&(o, _, _)| o).sum();
        // turbulence_box builds a cube of side round(cbrt(400)) ≈ 7 → 343.
        assert!(total_owned > 300, "total owned {total_owned}");
        assert!(outcomes.iter().all(|&(_, ghosts, _)| ghosts > 0), "no ghosts exchanged");
        assert!(outcomes.iter().all(|&(_, _, steps)| steps == 2));
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
        let comms = CommWorld::create(2);
        let per_rank: Vec<Vec<StepSummary>> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let scenario = scenario.clone();
                    s.spawn(move || {
                        let mut sim =
                            DistributedSimulation::from_scenario(comm, scenario, 300, 3).with_timestep_bins(4);
                        (0..8).map(|_| sim.step()).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
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
        let shards = run_distributed_traced(scenario.clone(), 4, 500, 9, 2, TransportKind::Shm, Arc::clone(&sink));
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
        let comms = CommWorld::create(2);
        let rebalances: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let scenario = scenario.clone();
                    s.spawn(move || {
                        // Any imbalance at all re-splits: with threshold 1.0
                        // even a one-particle drift triggers.
                        let mut sim =
                            DistributedSimulation::from_scenario(comm, scenario, 300, 3).with_rebalance_threshold(1.0);
                        sim.run(3);
                        sim.rebalance_count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            rebalances.iter().all(|&r| r == rebalances[0]),
            "ranks disagree on rebalances"
        );
        assert!(rebalances[0] > 0, "tight threshold must trigger a rebalance");
    }
}
