//! The one-rank way in, and what a step reports.
//!
//! The step itself — the labelled stage pipeline the paper instruments — is
//! written once, in [`crate::distributed::DistributedSimulation::step`]. This
//! module holds [`StepSummary`] and [`Simulation`], the facade most callers
//! want: the same driver over a world of one rank, where nothing is ever sent,
//! so what runs is the plain single-set SPH step.
//!
//! This is what validates the physics (energy conservation, collapse dynamics)
//! and what demonstrates the instrumentation on an actually executing code.

use crate::distributed::DistributedSimulation;
use crate::particle::ParticleSet;
use crate::physics::timestep::TimestepBins;
use crate::scenario::Scenario;
use comm::{CommWorld, TransportKind};
use pmt::ProfilingHooks;
use std::sync::Arc;
use telemetry::Telemetry;

/// Default number of timesteps between Morton re-sorts of the particle
/// storage (see [`Simulation::with_reorder_interval`]).
pub(crate) const DEFAULT_REORDER_INTERVAL: u64 = 8;

/// Summary of one completed timestep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepSummary {
    /// Step index (0-based, value after the step completed).
    pub step: u64,
    /// Timestep size used.
    pub dt: f64,
    /// Simulation time after the step.
    pub time: f64,
    /// Total energy `K + U [+ W]`: kinetic and internal energy of the state
    /// **after** the step, plus — for self-gravitating scenarios — the
    /// potential energy `W = ½ Σ m_i φ_i` the Gravity stage accumulated during
    /// its Barnes–Hut walk, i.e. evaluated **where the Gravity stage runs**:
    /// at the positions the step started from, as SPH-EXA's `egrav` is. No
    /// O(N²) pair sum runs per step. Two consequences, both measured on
    /// Evrard N = 20 000: the tree estimate (θ = 0.5, monopole and quadrupole
    /// of every accepted node) differs from the direct sum over identical
    /// positions by 2–4·10⁻⁶ of `|W|`, and evaluating `W` one drift earlier
    /// than `K + U` shifts the reported total by 3–8·10⁻³ of `|E_tot|` over
    /// the first 8 steps. For an exact, time-consistent value call
    /// `total_energy()` on the simulation.
    ///
    /// With individual timesteps `W` is refreshed on the substeps whose walk
    /// covers every row — cycle starts, where every rung is kicked and the
    /// kinetic term is synchronised too — and held in between.
    pub total_energy: f64,
}

/// A real SPH simulation running on the CPU: [`DistributedSimulation`] over a
/// one-rank world. Every method delegates.
pub struct Simulation {
    shard: DistributedSimulation,
}

impl Simulation {
    /// Create a simulation of `scenario` over an existing particle set. The
    /// scenario's [`crate::boundary::Boundary`] is stamped onto the particle
    /// set, so the whole pipeline (neighbour search, pair kernels, Morton
    /// keys, position wrapping) agrees on the box geometry.
    pub fn new(scenario: &'static Scenario, particles: ParticleSet) -> Self {
        let comm = CommWorld::create_with(1, TransportKind::Shm)
            .pop()
            .expect("a world of one rank");
        let mut shard = DistributedSimulation::new(comm, scenario, particles);
        shard.set_reorder_interval(DEFAULT_REORDER_INTERVAL);
        Self { shard }
    }

    /// Create a simulation from a scenario's own initial-condition generator
    /// with approximately `n_target` particles.
    pub fn from_scenario(scenario: &'static Scenario, n_target: usize, seed: u64) -> Self {
        let particles = scenario.initial_conditions(n_target, seed);
        Self::new(scenario, particles)
    }

    /// Attach measurement hooks (the PMT instrumentation of the paper).
    pub fn with_hooks(mut self, hooks: ProfilingHooks) -> Self {
        self.shard = self.shard.with_hooks(hooks);
        self
    }

    /// Attach a telemetry sink: every pipeline stage of [`Simulation::step`]
    /// emits a `"stage"` span nested under a per-step `"Step"` span, and each
    /// completed step publishes the simulation-health gauges
    /// (`health.energy_drift`, `health.momentum_drift`, `health.mass_drift`,
    /// `health.dt`, the neighbour statistics and the `health.neighbor_count`
    /// histogram, `sim.rank0.owned`) plus `sim.reorder` events. Overrides the
    /// `SPHSIM_TRACE` environment hook picked up by [`Simulation::new`].
    ///
    /// When the sink is disabled the per-stage cost is one relaxed atomic
    /// load (enforced ≤ 2% of step time by the `telemetry_overhead` test).
    pub fn with_telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.shard = self.shard.with_telemetry(sink);
        self
    }

    /// Set how often (in steps) the particle storage is re-sorted into Morton
    /// order inside `DomainDecompAndSync`; `0` disables reordering entirely
    /// (particles stay in construction order). Defaults to every 8 steps
    /// (`DEFAULT_REORDER_INTERVAL`).
    pub fn with_reorder_interval(mut self, every_n_steps: u64) -> Self {
        self.shard.set_reorder_interval(every_n_steps);
        self
    }

    /// Enable individual (block) timesteps with `n_bins` power-of-two rungs:
    /// each particle is assigned a rung `k` with `dt_k = dt_base / 2^k` from
    /// its local Courant criterion, neighbouring rungs are limited to differ
    /// by at most one level, and each [`Simulation::step`] call advances one
    /// hierarchical substep — only the particles whose rung is active get the
    /// full density/gradh/IAD/momentum update, everyone else just drifts.
    ///
    /// `n_bins <= 1` keeps the global-dt scheme, bit-identical to not calling
    /// this at all (pinned by the conservation-digest tests).
    pub fn with_timestep_bins(mut self, n_bins: usize) -> Self {
        self.shard = self.shard.with_timestep_bins(n_bins);
        self
    }

    /// The individual-timestep state, when enabled via
    /// [`Simulation::with_timestep_bins`].
    pub fn timestep_bins(&self) -> Option<&TimestepBins> {
        self.shard.timestep_bins()
    }

    /// Construction-order index of the particle currently stored in slot
    /// `current`. Identity until the first Morton reorder.
    // sphlint::allow(dead-pub, tests follow a particle through Morton re-sorts with it)
    pub fn original_index_of(&self, current: usize) -> usize {
        self.shard.ids()[current] as usize
    }

    /// The particle data.
    pub fn particles(&self) -> &ParticleSet {
        self.shard.particles()
    }

    /// Simulation time.
    pub fn time(&self) -> f64 {
        self.shard.time()
    }

    /// Completed step count.
    pub fn step_count(&self) -> u64 {
        self.shard.step_count()
    }

    /// Total energy of the current state: kinetic + internal, plus — for
    /// self-gravitating runs — the gravitational potential by direct pair
    /// summation. The **exact O(N²) reference — for checks, never per step**:
    /// the per-step [`StepSummary::total_energy`] carries the Gravity stage's
    /// tree estimate instead.
    pub fn total_energy(&self) -> f64 {
        self.shard.total_energy()
    }

    /// Execute one timestep through the full named pipeline — see
    /// [`DistributedSimulation::step`], whose one-rank instance this is: every
    /// particle is owned, there is no ghost tail, and no message is sent.
    pub fn step(&mut self) -> StepSummary {
        self.shard.step()
    }

    /// Run `n` timesteps and return the per-step summaries.
    pub fn run(&mut self, n: u64) -> Vec<StepSummary> {
        (0..n).map(|_| self.step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{DEFAULT_MAX_DT, DEFAULT_SOFTENING};
    use crate::physics::gravity::tests::potential_energy_direct;
    use crate::scenario;

    /// A small Evrard-collapse run with roughly `n` particles.
    fn evrard(n: usize, seed: u64) -> Simulation {
        Simulation::from_scenario(scenario::get("Evr").expect("built-in scenario"), n, seed)
    }

    /// A small subsonic-turbulence run with `n³` particles.
    fn turbulence(n_per_dim: usize, seed: u64) -> Simulation {
        Simulation::from_scenario(
            scenario::get("Turb").expect("built-in scenario"),
            n_per_dim * n_per_dim * n_per_dim,
            seed,
        )
    }

    #[test]
    fn evrard_sphere_collapses_and_heats() {
        let mut sim = evrard(600, 1);
        let e0_internal = sim.particles().internal_energy();
        let summaries = sim.run(15);
        assert_eq!(sim.step_count(), 15);
        assert!(sim.time() > 0.0);
        // Gravity should accelerate particles inwards -> kinetic energy appears.
        assert!(sim.particles().kinetic_energy() > 0.0);
        // Compression heats the gas.
        assert!(sim.particles().internal_energy() >= e0_internal * 0.99);
        // Timesteps are positive and bounded by the configured cap — not a
        // magic number that would silently diverge from DEFAULT_MAX_DT.
        assert!(summaries.iter().all(|s| s.dt > 0.0 && s.dt <= DEFAULT_MAX_DT));
    }

    #[test]
    fn evrard_total_energy_is_roughly_conserved() {
        let mut sim = evrard(500, 2);
        // Let the state settle one step (density/EOS defined after first step).
        sim.step();
        let e_start = sim.total_energy();
        sim.run(10);
        let e_end = sim.total_energy();
        let scale = e_start.abs().max(1e-3);
        let drift = (e_end - e_start).abs() / scale;
        assert!(drift < 0.25, "energy drift {drift} too large ({e_start} -> {e_end})");
    }

    /// `summary.total_energy − K − U` of the post-step state: the potential
    /// term the step reported.
    fn reported_potential(sim: &Simulation, summary: &StepSummary) -> f64 {
        summary.total_energy - sim.particles().kinetic_energy() - sim.particles().internal_energy()
    }

    #[test]
    fn summary_potential_is_the_gravity_stage_walk_over_pre_step_positions() {
        let mut sim = evrard(2000, 7);
        for _ in 0..3 {
            let before = sim.particles().clone();
            let summary = sim.step();
            // W is evaluated where the Gravity stage runs: the positions the
            // step started from, not the ones UpdateQuantities left behind.
            let direct = potential_energy_direct(&before, DEFAULT_SOFTENING);
            let reported = reported_potential(&sim, &summary);
            assert!(
                (reported - direct).abs() <= 2e-3 * direct.abs(),
                "reported W {reported} vs direct sum over pre-step positions {direct}"
            );
            let after = potential_energy_direct(sim.particles(), DEFAULT_SOFTENING);
            assert!((reported - direct).abs() < (reported - after).abs());
        }
    }

    #[test]
    fn binned_summary_potential_refreshes_at_cycle_starts_only() {
        // A cold Evrard sphere steps on one rung; a hot core gives the
        // Courant contrast that populates several.
        let scenario = scenario::get("Evr").unwrap();
        let mut particles = scenario.initial_conditions(2000, 7);
        for i in 0..particles.len() {
            let r2 = particles.x[i].powi(2) + particles.y[i].powi(2) + particles.z[i].powi(2);
            if r2 < 0.1 * 0.1 {
                particles.u[i] *= 1e3;
            }
        }
        let mut sim = Simulation::new(scenario, particles).with_timestep_bins(4);
        let (mut cycle_starts, mut mid_cycle) = (0, 0);
        for _ in 0..12 {
            let sync = sim.timestep_bins().unwrap().at_cycle_start();
            let before = sim.particles().clone();
            let held = sim.shard.egrav();
            let summary = sim.step();
            if sync {
                cycle_starts += 1;
                let direct = potential_energy_direct(&before, DEFAULT_SOFTENING);
                let reported = reported_potential(&sim, &summary);
                assert!(
                    (reported - direct).abs() <= 2e-3 * direct.abs(),
                    "cycle-start W {reported} vs direct sum over pre-step positions {direct}"
                );
                assert_ne!(
                    sim.shard.egrav().to_bits(),
                    held.to_bits(),
                    "cycle start must refresh egrav"
                );
            } else {
                mid_cycle += 1;
                assert_eq!(
                    sim.shard.egrav().to_bits(),
                    held.to_bits(),
                    "mid-cycle walk overwrote egrav"
                );
            }
            let p = sim.particles();
            let expected = p.kinetic_energy() + p.internal_energy() + sim.shard.egrav();
            assert_eq!(summary.total_energy.to_bits(), expected.to_bits());
        }
        assert!(
            cycle_starts >= 2 && mid_cycle >= 1,
            "{cycle_starts} cycle starts, {mid_cycle} mid-cycle"
        );
    }

    #[test]
    fn turbulence_box_stays_subsonic_and_stirred() {
        let mut sim = turbulence(6, 3);
        sim.run(5);
        let p = sim.particles();
        let v_rms = (2.0 * p.kinetic_energy() / p.total_mass()).sqrt();
        assert!(v_rms > 0.0);
        assert!(v_rms < 1.5, "flow should stay subsonic-ish, v_rms = {v_rms}");
        assert_eq!(sim.shard.scenario.short_name, "Turb");
    }

    #[test]
    fn traced_step_emits_stage_spans_and_health_gauges() {
        let sink = Arc::new(Telemetry::new());
        let scenario = crate::scenario::get("Sedov").unwrap();
        let mut sim = Simulation::from_scenario(scenario, 400, 7).with_telemetry(Arc::clone(&sink));
        sim.run(2);
        let events = sink.events_snapshot();
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events.iter().filter(|e| e.cat == "step" && e.name == "Step").count(), 2);
        for stage in scenario.pipeline() {
            assert_eq!(
                events.iter().filter(|e| e.cat == "stage" && e.name == stage.label()).count(),
                2,
                "stage {} must be spanned once per step",
                stage.label()
            );
        }
        let snapshot = sink.metrics().snapshot();
        for gauge in [
            "health.total_energy",
            "health.energy_drift",
            "health.mass_drift",
            "health.momentum_drift",
            "health.dt",
            "health.neighbor_mean",
            "health.neighbor_min",
            "health.neighbor_max",
            "health.cell_occupancy",
            "health.neighbor_rows",
            "health.neighbor_candidates",
        ] {
            assert_eq!(
                events.iter().filter(|e| e.name == gauge).count(),
                2,
                "gauge {gauge} must be sampled once per step"
            );
        }
        // The neighbour-build instant and its counter fire every step.
        assert_eq!(
            events.iter().filter(|e| e.cat == "sim" && e.name == "neighbors").count(),
            2
        );
        assert_eq!(snapshot.counter("sim.neighbors.events"), Some(2));
        let hist = snapshot.histogram("health.neighbor_count").expect("histogram present");
        assert_eq!(hist.count, 2 * sim.particles().len() as u64);
        // The one rank of the run owns every particle and holds no ghost.
        assert_eq!(snapshot.gauge("sim.rank0.owned"), Some(sim.particles().len() as f64));
        assert_eq!(snapshot.gauge("sim.rank0.ghosts"), Some(0.0));
        // First-step drift against the first-step baseline is identically 0.
        let first_drift = events
            .iter()
            .find(|e| e.name == "health.energy_drift")
            .and_then(|e| match e.kind {
                telemetry::EventKind::Gauge { value } => Some(value),
                _ => None,
            })
            .unwrap();
        assert_eq!(first_drift, 0.0);
    }

    #[test]
    fn disabled_sink_adds_no_events_to_a_step() {
        let sink = Arc::new(Telemetry::disabled());
        let scenario = crate::scenario::get("Sedov").unwrap();
        let mut sim = Simulation::from_scenario(scenario, 300, 7).with_telemetry(Arc::clone(&sink));
        sim.run(2);
        assert_eq!(sink.event_count(), 0);
        assert!(sink.metrics().snapshot().histograms.is_empty());
    }

    #[test]
    fn one_step_over_every_registered_scenario_stays_finite() {
        // The per-stage non-finite guard must stay silent on valid ICs for
        // every scenario of the table.
        for scenario in scenario::all() {
            let mut sim = Simulation::from_scenario(scenario, 400, 7);
            let summary = sim.step();
            assert!(summary.dt > 0.0, "{}", scenario.short_name);
            assert!(summary.total_energy.is_finite(), "{}", scenario.short_name);
        }
    }

    #[test]
    #[should_panic(expected = "produced a non-finite quantity")]
    fn corrupted_state_panics_with_the_offending_stage_name() {
        let mut sim = turbulence(6, 4);
        // Inject a NaN as if a kernel had misbehaved; the next step's guard
        // must catch it and name the stage instead of propagating it.
        let mut particles = sim.particles().clone();
        particles.u[0] = f64::NAN;
        sim = Simulation::new(sim.shard.scenario, particles);
        sim.step();
    }

    #[test]
    fn morton_reorder_keeps_the_index_maps_consistent() {
        // Tag every particle through its mass (masses never evolve), with a
        // perturbation far too small to affect the dynamics.
        let scenario = crate::scenario::get("Turb").unwrap();
        let mut particles = scenario.initial_conditions(400, 3);
        for (i, m) in particles.m.iter_mut().enumerate() {
            *m *= 1.0 + 1e-12 * i as f64;
        }
        let tags = particles.m.clone();
        let mut sim = Simulation::new(scenario, particles).with_reorder_interval(1);
        sim.run(3);
        let p = sim.particles();
        let n = p.len();
        let mut seen = vec![false; n];
        for current in 0..n {
            let original = sim.original_index_of(current);
            assert!(!seen[original], "origin map is not a permutation");
            seen[original] = true;
            assert_eq!(p.m[current], tags[original]);
        }
    }

    #[test]
    fn disabling_reorder_keeps_construction_order() {
        let mut sim = evrard(400, 6).with_reorder_interval(0);
        sim.run(2);
        assert!((0..400).all(|i| sim.original_index_of(i) == i));
    }

    #[test]
    fn region_observer_governs_cpu_pipeline_stages() {
        use pmt::backends::DummySensor;
        use pmt::{Domain, PowerMeter, RegionObserver};
        use std::sync::{Arc, Mutex};

        struct Counter(Mutex<usize>);
        impl RegionObserver for Counter {
            fn on_region_start(&self, _label: &str, _time_s: f64) {
                *self.0.lock().unwrap() += 1;
            }
            fn on_region_end(&self, _record: &pmt::MeasurementRecord) {}
        }

        let meter = Arc::new(PowerMeter::builder().sensor(DummySensor::new(Domain::gpu(0), 100.0)).build());
        let counter = Arc::new(Counter(Mutex::new(0)));
        meter.add_region_observer(counter.clone());
        let mut sim = turbulence(6, 4).with_hooks(ProfilingHooks::new(meter));
        sim.step();
        let stages = crate::scenario::get("Turb").unwrap().pipeline().len();
        assert_eq!(*counter.0.lock().unwrap(), stages);
    }

    #[test]
    fn hooks_record_every_pipeline_stage() {
        use pmt::backends::DummySensor;
        use pmt::clock::ManualClock;
        use pmt::{Domain, PowerMeter};
        use std::sync::Arc;

        let clock = ManualClock::new();
        let meter = Arc::new(
            PowerMeter::builder()
                .sensor(DummySensor::new(Domain::gpu(0), 100.0))
                .clock(clock.clone())
                .build(),
        );
        let hooks = ProfilingHooks::new(meter.clone());
        let mut sim = turbulence(6, 4).with_hooks(hooks);
        sim.run(2);
        let records = meter.records();
        let labels: std::collections::BTreeSet<String> = records.iter().map(|r| r.label.to_string()).collect();
        for stage in crate::scenario::get("Turb").unwrap().pipeline() {
            assert!(labels.contains(stage.label()), "missing record for {}", stage.label());
        }
        // Two steps -> two records per stage.
        let me_count = records.iter().filter(|r| r.label == "MomentumEnergy").count();
        assert_eq!(me_count, 2);
        assert!(records.iter().any(|r| r.iteration == Some(1)));
    }

    // -- individual (block) timesteps ---------------------------------------

    #[test]
    fn one_timestep_bin_is_the_global_scheme_bitwise() {
        // `with_timestep_bins(1)` must not even enter the binned driver: the
        // evolution stays bit-identical to the untouched global-dt path.
        let scenario = crate::scenario::get("Sedov").unwrap();
        let mut plain = Simulation::from_scenario(scenario, 400, 7);
        let mut binned = Simulation::from_scenario(scenario, 400, 7).with_timestep_bins(1);
        assert!(binned.timestep_bins().is_none());
        for _ in 0..4 {
            let a = plain.step();
            let b = binned.step();
            assert_eq!(a, b);
        }
        let (p, q) = (plain.particles(), binned.particles());
        for i in 0..p.len() {
            assert_eq!(p.x[i].to_bits(), q.x[i].to_bits());
            assert_eq!(p.vx[i].to_bits(), q.vx[i].to_bits());
            assert_eq!(p.u[i].to_bits(), q.u[i].to_bits());
        }
    }

    #[test]
    fn binned_sedov_runs_hierarchical_cycles() {
        let scenario = crate::scenario::get("Sedov").unwrap();
        let mut sim = Simulation::from_scenario(scenario, 400, 7).with_timestep_bins(4);
        let mut planned_cycles = 0u64;
        for _ in 0..12 {
            let was_sync = sim.timestep_bins().unwrap().at_cycle_start();
            let s = sim.step();
            let bins = sim.timestep_bins().unwrap();
            // Every substep advances by the sealed substep dt of its cycle.
            assert_eq!(s.dt, bins.dt_sub());
            assert!(s.dt > 0.0 && s.dt <= DEFAULT_MAX_DT);
            assert!(s.total_energy.is_finite());
            if was_sync {
                planned_cycles += 1;
                // Right after a plan, the neighbour-rung limiter must hold
                // over the freshly built full CSR rows.
                let p = sim.particles();
                let nl = sim.shard.neighbors();
                for i in 0..p.len() {
                    for &j in nl.neighbors(i) {
                        assert!(
                            (p.rung[i] as i32 - p.rung[j as usize] as i32).abs() <= 1,
                            "limiter violated between {i} and {j}"
                        );
                    }
                }
            }
        }
        assert!(planned_cycles >= 1);
        // A blast wave has a genuine timestep contrast: the cycle must
        // actually use more than one rung (otherwise the whole scheme
        // degenerated to global stepping and the test is vacuous).
        let bins = sim.timestep_bins().unwrap();
        assert!(bins.k_deep() >= 1, "Sedov should populate at least two rungs");
        assert_eq!(sim.step_count(), 12);
    }

    #[test]
    fn binned_step_emits_the_bin_telemetry() {
        let sink = Arc::new(Telemetry::new());
        let scenario = crate::scenario::get("Sedov").unwrap();
        let mut sim = Simulation::from_scenario(scenario, 400, 7)
            .with_telemetry(Arc::clone(&sink))
            .with_timestep_bins(4);
        // Rows the next substep rebuilds: everyone at a cycle start, the
        // kicked rungs mid-cycle.
        let active_rows = |sim: &Simulation| {
            let (bins, p) = (sim.timestep_bins().unwrap(), sim.particles());
            if bins.at_cycle_start() {
                p.len() as u64
            } else {
                p.rung.iter().filter(|&&k| bins.is_active(k)).count() as u64
            }
        };
        // First step is a cycle start; run through at least one full cycle.
        let mut built_rows = active_rows(&sim);
        let first_cycle = {
            sim.step();
            sim.timestep_bins().unwrap().cycle_len() as u64
        };
        let mut mid_cycle_steps = 0;
        for _ in 0..first_cycle {
            mid_cycle_steps += u64::from(!sim.timestep_bins().unwrap().at_cycle_start());
            built_rows += active_rows(&sim);
            sim.step();
        }
        let steps = 1 + first_cycle;
        assert!(mid_cycle_steps >= 1, "the run must cover a mid-cycle substep");
        let events = sink.events_snapshot();
        // Stage spans keep the exact global-dt labels (traces comparable).
        for stage in scenario.pipeline() {
            assert_eq!(
                events.iter().filter(|e| e.cat == "stage" && e.name == stage.label()).count() as u64,
                steps,
                "stage {} must be spanned once per substep",
                stage.label()
            );
        }
        let snapshot = sink.metrics().snapshot();
        // The rung-occupancy histogram sees every particle every substep.
        let hist = snapshot.histogram("health.dt_bins").expect("dt_bins histogram");
        assert_eq!(hist.count, steps * sim.particles().len() as u64);
        // One planning event per cycle start (step 0 and the wrap-around).
        let planned = snapshot.counter("sim.timestep.events").expect("timestep counter");
        assert!(planned >= 2, "expected at least two planned cycles, saw {planned}");
        assert_eq!(
            events.iter().filter(|e| e.cat == "sim" && e.name == "timestep").count() as u64,
            planned
        );
        // Neighbour health covers the rows built this substep only: mid-cycle
        // the off-subset CSR rows are empty, and counting them would report a
        // minimum of 0 and a deflated mean.
        let minima: Vec<f64> = events
            .iter()
            .filter(|e| e.name == "health.neighbor_min")
            .filter_map(|e| match e.kind {
                telemetry::EventKind::Gauge { value } => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(minima.len() as u64, steps);
        assert!(minima.iter().all(|&m| m > 0.0), "neighbour minima {minima:?}");
        let hist = snapshot.histogram("health.neighbor_count").expect("neighbour histogram");
        assert!(built_rows < steps * sim.particles().len() as u64);
        assert_eq!(hist.count, built_rows, "one observation per row built");
    }

    #[test]
    fn one_rank_run_sends_nothing() {
        use comm::CollectiveKind;
        // Migration, the ghost layer, its mid-step refresh, the rung exchange
        // of the limiter and the gravity gather all need a peer.
        let sedov = Simulation::from_scenario(scenario::get("Sedov").unwrap(), 400, 7).with_timestep_bins(4);
        for mut sim in [sedov, evrard(400, 7)] {
            sim.run(3);
            let stats = sim.shard.comm().stats();
            for kind in [CollectiveKind::P2p, CollectiveKind::Alltoall, CollectiveKind::Allgather] {
                assert_eq!(
                    stats.row(kind).messages,
                    0,
                    "{}: {} traffic on one rank",
                    sim.shard.scenario.short_name,
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn warm_global_dt_step_materialises_no_row_list() {
        // `rows = None` reaches every kernel as it is: no active list, no
        // exported/rest split and no interior/halo scan is ever filled — the
        // buffers behind them never leave capacity 0. Nor does a scenario
        // without gravity ever build the octree.
        let mut sim = Simulation::from_scenario(scenario::get("Sedov").unwrap(), 400, 7);
        sim.run(3);
        assert_eq!(sim.shard.row_scratch_capacity(), 0);
        assert_eq!(sim.shard.ghost_count(), 0);
        assert!(sim.shard.tree().nodes.is_empty());
    }

    #[test]
    fn warm_step_holds_one_neighbour_index_array() {
        // Each sweep block gathers straight into its segment of the lists, so
        // between builds no block's slot owns a buffer — at any block count,
        // two here as at two threads — and the segments are the only copy of
        // the rows. Warm builds reuse them: same buffers, same capacities.
        use crate::workspace::tests::{NeighborSeam, NEIGHBOR_SEAM};
        NEIGHBOR_SEAM.set(NeighborSeam {
            blocks: Some(2),
            ..NeighborSeam::default()
        });
        let mut sim = Simulation::from_scenario(scenario::get("Sedov").unwrap(), 2000, 7);
        sim.run(3);
        let buffers = |sim: &Simulation| -> Vec<_> {
            let segments = &sim.shard.neighbors().segments;
            segments.iter().map(|s| (s.entries.as_ptr(), s.entries.capacity())).collect()
        };
        let warm = buffers(&sim);
        assert_eq!(warm.len(), 2);
        for _ in 0..3 {
            sim.step();
            let staged = sim.shard.staged_capacities();
            assert!(
                staged.iter().all(|&c| c == 0),
                "a block keeps a buffer of its own: {staged:?}"
            );
            let lists = sim.shard.neighbors();
            assert!(lists.total_entries() > 10 * lists.len());
            let held: usize = lists.segments.iter().map(|s| s.entries.len()).sum();
            assert_eq!(held, lists.total_entries());
            assert_eq!(buffers(&sim), warm, "a warm build moved a segment");
        }
        NEIGHBOR_SEAM.set(NeighborSeam::default());
    }
}
