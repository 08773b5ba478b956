//! The child side: one workload, once, in a fresh process.
//!
//! Every runner follows the same shape: set up (ICs, construction, warm-up
//! steps), stop the set-up clock, run the timed loop, then run the
//! correctness checks outside the timed interval. A traced child attaches
//! `pmt::ProfilingHooks` on a wall-clock meter, wraps every `step()` in its
//! own `Step` region, and reads the per-stage budget back from the meter's
//! report — from outside the library, the way the paper instruments SPH-EXA.

use crate::hostspeed::RunClock;
use crate::record::{peak_rss_mb, Report, Values};
use crate::spec::{key, stage_labels, Budget, Spec, CAMPAIGN_CALLS, STEP_LABEL};
use energy_aware_sim::cluster::{
    self, Cluster, CollectiveKind, CommStatsSnapshot, GpuDiePowerSensor, RankMapping, TransportKind,
};
use energy_aware_sim::experiments::{self, Scale};
use energy_aware_sim::hwmodel::arch::SystemKind;
use energy_aware_sim::pmt::backends::dummy::DummySensor;
use energy_aware_sim::pmt::{Domain, MeasurementRecord, PowerMeter, ProfilingHooks};
use energy_aware_sim::sphsim::init::sedov::{sedov_shock_radius, SEDOV_E0, SEDOV_RHO0};
use energy_aware_sim::sphsim::{
    scenario, DistributedRankReport, DistributedSimulation, OverlapStats, ParticleSet, Simulation, StepSummary,
};
use energy_aware_sim::telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// What the parent asks of one child.
pub struct ChildArgs {
    pub seed: u64,
    /// `Spec::budget` after `--seconds` scaling.
    pub budget: Budget,
    pub traced: bool,
    /// Stop after the set-up phase (the extra `setup_s` samples of a run).
    pub setup_only: bool,
    /// The tests' size: `paper_campaign` runs its set at reduced scale.
    pub kick_tires: bool,
}

/// Run `spec` and report. `start` is the child's first instant in `main`.
pub fn run(spec: &Spec, args: &ChildArgs, start: Instant) -> Report {
    let mut report = if spec.is_campaign() {
        run_campaign(spec, args, start)
    } else if spec.ranks > 1 {
        run_ranks(spec, args, start)
    } else {
        run_single(spec, args, start)
    };
    report.set("peak_rss_mb", peak_rss_mb());
    report.note("worker_threads", energy_aware_sim::sphsim::parallel::worker_threads());
    report.note("seed", args.seed);
    report.note("budget", args.budget);
    report.note("warmup_steps", spec.warmup_steps);
    report
}

/// A wall-clock meter over a constant dummy sensor: regions measure time.
pub fn wall_meter() -> Arc<PowerMeter> {
    Arc::new(PowerMeter::builder().sensor(DummySensor::new(Domain::cpu(0), 1.0)).build())
}

/// Run `f`, inside a region of `meter` when the child is traced.
fn span<R>(meter: Option<&PowerMeter>, label: &str, f: impl FnOnce() -> R) -> R {
    match meter {
        Some(m) => m.measure(label, f).expect("the benchmark's regions start and end in pairs").0,
        None => f(),
    }
}

fn step_is_sound(s: &StepSummary) -> bool {
    s.dt.is_finite() && s.dt > 0.0 && s.time.is_finite() && s.total_energy.is_finite()
}

/// Whether the first `n` particles hold only finite values.
fn all_finite(p: &ParticleSet, n: usize) -> bool {
    [
        &p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.m, &p.h, &p.rho, &p.u, &p.p, &p.c, &p.omega, &p.div_v, &p.curl_v,
        &p.alpha, &p.ax, &p.ay, &p.az, &p.du,
    ]
    .iter()
    .all(|field| field[..n].iter().all(|v| v.is_finite()))
}

/// Shock-front radius of a Sedov blast, located as `Scenario::validate` does:
/// the radial-momentum-weighted radius of the outward-streaming particles.
fn sedov_front_radius(p: &ParticleSet) -> f64 {
    let (mut weighted_r, mut weight) = (0.0, 0.0);
    for i in 0..p.len() {
        let (dx, dy, dz) = (p.x[i] - 0.5, p.y[i] - 0.5, p.z[i] - 0.5);
        let r = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-9);
        let v_r = (p.vx[i] * dx + p.vy[i] * dy + p.vz[i] * dz) / r;
        let w = (p.m[i] * v_r).max(0.0);
        weighted_r += w * r;
        weight += w;
    }
    weighted_r / weight
}

fn check_energy_drift(report: &mut Report, spec: &Spec, e0: f64, e1: f64) {
    let drift = ((e1 - e0) / e0).abs();
    report.check(
        "energy_drift",
        drift <= spec.energy_drift_bound,
        format!(
            "|E1 - E0| / |E0| = {drift:.4} (E0 = {e0:.6}, E1 = {e1:.6}), bound {}",
            spec.energy_drift_bound
        ),
    );
}

/// Fold region records into the step budget: one `stage.<label>_s` row per
/// stage label, the `Step` total, and the unattributed residual, which by
/// construction satisfies Σ rows + residual = `driver.step_s`.
fn budget(records: &[MeasurementRecord], rows: &[&str], row_layer: &str) -> Values {
    let sum_of = |label: &str| -> f64 { records.iter().filter(|r| r.label == label).map(|r| r.duration_s()).sum() };
    let mut out = Values::new();
    let mut attributed = 0.0;
    for label in rows {
        let t = sum_of(label);
        attributed += t;
        out.insert(key(row_layer, &format!("{label}_s")), t);
    }
    let step_s = sum_of(STEP_LABEL);
    out.insert(key("driver", "step_s"), step_s);
    out.insert(key("driver", "residual_s"), step_s - attributed);
    out.insert(key("driver", "residual_frac"), (step_s - attributed) / step_s);
    out
}

// ---------------------------------------------------------------------------
// One rank: sedov_global, sedov_bins, evrard_gravity
// ---------------------------------------------------------------------------

fn run_single(spec: &Spec, args: &ChildArgs, start: Instant) -> Report {
    let scenario = scenario::get(spec.scenario).expect("built-in scenario");
    let meter = args.traced.then(wall_meter);
    let mut sim = Simulation::from_scenario(scenario.clone(), spec.n, args.seed).with_timestep_bins(spec.bins);
    if let Some(m) = &meter {
        sim = sim.with_hooks(ProfilingHooks::new(Arc::clone(m)));
    }
    let n = sim.particles().len();
    // The timed loop of a binned run starts at a sealed cycle.
    let mid_cycle = |sim: &Simulation| sim.timestep_bins().is_some_and(|b| !b.at_cycle_start());
    while sim.step_count() < spec.warmup_steps || mid_cycle(&sim) {
        sim.step();
    }
    let baseline = sim.particles().clone();
    let (cycles0, polls0) = (cycles(&sim), meter.as_ref().map_or(0, |m| m.poll_count()));
    if let Some(m) = &meter {
        m.take_records();
    }

    let mut report = Report::default();
    report.note("n", n);
    let mut clock = RunClock::end_of_setup(start, 1, &mut report);
    if args.setup_only {
        return report;
    }

    let (mut steps, mut failed_steps) = (0u64, 0u64);
    while !args.budget.reached(steps, sim.time()) {
        let summary = clock.time(|| span(meter.as_deref(), STEP_LABEL, || sim.step()));
        steps += 1;
        failed_steps += u64::from(!step_is_sound(&summary));
    }
    clock.finish(&mut report);
    report.set("steps", steps as f64);
    report.set("failed_steps", failed_steps as f64);
    report.note("t_end", sim.time());

    let p = sim.particles();
    report.check("finite_state", all_finite(p, p.len()), format!("{} particles", p.len()));
    report.check(
        "particle_count",
        p.len() == n,
        format!("{} generated, {} at the end", n, p.len()),
    );
    if spec.scenario == "Sedov" {
        let expected = sedov_shock_radius(SEDOV_E0, SEDOV_RHO0, sim.time());
        let measured = sedov_front_radius(p);
        report.check(
            "sedov_shock_radius",
            (0.6 * expected..=1.4 * expected).contains(&measured),
            format!(
                "front at {measured:.4}, similarity law {expected:.4} at t = {:.5}",
                sim.time()
            ),
        );
    }
    // Both energies after timing: the baseline through a throw-away
    // simulation over the saved post-warm-up state (for Evrard this is the
    // O(N²) direct-sum potential, twice).
    let e0 = Simulation::new(scenario, baseline).total_energy();
    check_energy_drift(&mut report, spec, e0, sim.total_energy());

    if let Some(m) = &meter {
        let records = m.report().records;
        report.values.extend(budget(&records, &stage_labels(), "stage"));
        report.layer("driver", "steps", steps as f64);
        report.layer("driver", "cycles", (cycles(&sim) - cycles0) as f64);
        report.layer("driver", "rank_imbalance", 1.0);
        report.layer("pmt", "regions", records.len() as f64);
        report.layer("pmt", "polls", (m.poll_count() - polls0) as f64);
        report.layer("pmt", "dropped", m.dropped_measurements() as f64);
    }
    report
}

fn cycles(sim: &Simulation) -> u64 {
    sim.timestep_bins().map_or(0, |b| b.cycles())
}

// ---------------------------------------------------------------------------
// Two ranks: turb_ranks_instrumented
// ---------------------------------------------------------------------------

/// What one rank thread hands back besides the gathered reports.
struct RankOutcome {
    gathered: Option<Vec<DistributedRankReport>>,
    /// This rank's clocks; rank 0's are the run's.
    timing: Report,
    steps: u64,
    failed_steps: u64,
    owned_at_start: usize,
    owned_ids: Vec<u32>,
    finite: bool,
    ghosts: usize,
    rebalances: u64,
    comm: CommStatsSnapshot,
    comm_before: CommStatsSnapshot,
    /// Overlap accounting of the timed loop only.
    overlap: OverlapStats,
    polls: u64,
    dropped: u64,
    e0: f64,
    e1: f64,
    t_end: f64,
}

/// The paper's use: every rank instrumented per stage with its own meter on
/// its GPU die, reports gathered at rank 0 — built from the same public
/// pieces as `sphsim::run_distributed_campaign`, plus one shared telemetry
/// sink. The hooks are the workload, so the untraced pass carries them too;
/// tracing adds the `Step` regions and the harvest.
fn run_ranks(spec: &Spec, args: &ChildArgs, start: Instant) -> Report {
    let scenario = scenario::get(spec.scenario).expect("built-in scenario");
    let cluster = Cluster::with_gpu_dies(SystemKind::LumiG, spec.ranks);
    let mapping = RankMapping::one_rank_per_die_limited(&cluster, spec.ranks);
    let sink = Arc::new(Telemetry::new());
    let mut outcomes = cluster::run_ranks_with(&cluster, &mapping, TransportKind::Socket, |ctx| {
        ctx.gpu.set_load(1.0);
        let meter = Arc::new(
            PowerMeter::builder()
                .sensor(GpuDiePowerSensor::new(ctx.gpu.clone()))
                .rank(ctx.rank)
                .hostname(ctx.placement.hostname.clone())
                .build(),
        );
        meter.attach_telemetry(Arc::clone(&sink));
        let mut sim = DistributedSimulation::from_scenario(ctx.comm, scenario.clone(), spec.n, args.seed)
            .with_hooks(ProfilingHooks::new(Arc::clone(&meter)))
            .with_telemetry(Arc::clone(&sink));
        let owned_at_start = sim.n_owned();
        for _ in 0..spec.warmup_steps {
            sim.step();
        }
        let e0 = sim.total_energy();
        meter.take_records();
        let polls0 = meter.poll_count();
        let (comm_before, overlap_before) = (sim.comm().stats(), sim.overlap_stats());
        sim.comm().barrier();
        let mut timing = Report::default();
        let mut clock = RunClock::end_of_setup(start, spec.ranks, &mut timing);
        let (mut steps, mut failed_steps) = (0u64, 0u64);
        if !args.setup_only {
            let step_meter = args.traced.then_some(&*meter);
            while !args.budget.reached(steps, sim.time()) {
                let summary = clock.time(|| span(step_meter, STEP_LABEL, || sim.step()));
                steps += 1;
                failed_steps += u64::from(!step_is_sound(&summary));
            }
        }
        // The paper's last act, inside the timed interval: every rank's
        // report gathered at rank 0.
        let gathered = clock.time(|| {
            let payload = DistributedRankReport {
                rank: ctx.rank,
                hostname: ctx.placement.hostname.clone(),
                owned: sim.n_owned(),
                ghosts: sim.ghost_count(),
                report: meter.report(),
            };
            let gathered = sim.comm().gather(payload, 0);
            sim.comm().barrier();
            gathered
        });
        clock.finish(&mut timing);
        let (comm, after) = (sim.comm().stats(), sim.overlap_stats());
        let overlap = OverlapStats {
            posted_s: after.posted_s - overlap_before.posted_s,
            overlapped_s: after.overlapped_s - overlap_before.overlapped_s,
            waited_s: after.waited_s - overlap_before.waited_s,
        };
        let e1 = sim.total_energy();
        let n_owned = sim.n_owned();
        RankOutcome {
            gathered,
            timing,
            steps,
            failed_steps,
            owned_at_start,
            owned_ids: sim.ids()[..n_owned].to_vec(),
            finite: all_finite(sim.particles(), n_owned),
            ghosts: sim.ghost_count(),
            rebalances: sim.rebalance_count(),
            comm,
            comm_before,
            overlap,
            polls: meter.poll_count() - polls0,
            dropped: meter.dropped_measurements(),
            e0,
            e1,
            t_end: sim.time(),
        }
    });

    let gathered = outcomes[0].gathered.take().expect("rank 0 gathers every report");
    let root = &outcomes[0];
    let mut ids: Vec<u32> = outcomes.iter().flat_map(|o| o.owned_ids.iter().copied()).collect();
    ids.sort_unstable();
    let n = ids.len();
    let mut report = Report::default();
    report.note("n", n);
    report.values.extend(root.timing.values.clone());
    report.manifest.extend(root.timing.manifest.clone());
    if args.setup_only {
        return report;
    }
    report.set("steps", root.steps as f64);
    report.set(
        "failed_steps",
        outcomes.iter().map(|o| o.failed_steps).max().unwrap_or(0) as f64,
    );
    report.note("t_end", root.t_end);

    let owned: usize = gathered.iter().map(|r| r.owned).sum();
    let expected: usize = outcomes.iter().map(|o| o.owned_at_start).sum();
    report.check(
        "finite_state",
        outcomes.iter().all(|o| o.finite),
        format!("{n} owned particles"),
    );
    report.check(
        "particle_count",
        owned == expected,
        format!("{expected} generated, {owned} owned at the end"),
    );
    report.check(
        "ids_partition",
        ids.iter().enumerate().all(|(k, &id)| id as usize == k) && n == expected,
        format!("{n} owned ids over {} ranks", spec.ranks),
    );
    let mut reporting: Vec<u32> = gathered.iter().map(|r| r.rank).collect();
    reporting.sort_unstable();
    report.check(
        "reports_gathered",
        reporting.iter().map(|&r| r as usize).eq(0..spec.ranks),
        format!("ranks {reporting:?} reported"),
    );
    let dropped: u64 = outcomes.iter().map(|o| o.dropped).sum();
    report.check("pmt_dropped", dropped == 0, format!("{dropped} dropped measurements"));
    check_energy_drift(&mut report, spec, root.e0, root.e1);

    if args.traced {
        // Budget of the critical rank (largest Σ stage time): its rows nest
        // inside its own `Step` regions, so the residual stays ≥ 0.
        let labels = stage_labels();
        let budgets: Vec<Values> = gathered.iter().map(|r| budget(&r.report.records, &labels, "stage")).collect();
        let attributed: Vec<f64> = budgets
            .iter()
            .map(|b| b[&key("driver", "step_s")] - b[&key("driver", "residual_s")])
            .collect();
        let critical = (0..budgets.len())
            .max_by(|&a, &b| attributed[a].total_cmp(&attributed[b]))
            .unwrap_or(0);
        let mean = attributed.iter().sum::<f64>() / attributed.len() as f64;
        report.values.extend(budgets[critical].clone());
        report.layer("driver", "steps", root.steps as f64);
        report.layer("driver", "rank_imbalance", attributed[critical] / mean);
        report.layer(
            "pmt",
            "regions",
            gathered.iter().map(|r| r.report.records.len()).sum::<usize>() as f64,
        );
        report.layer("pmt", "polls", outcomes.iter().map(|o| o.polls).sum::<u64>() as f64);
        report.layer("pmt", "dropped", dropped as f64);
        report.layer("telemetry", "events", sink.event_count() as f64);

        let delta = |kind: Option<CollectiveKind>, field: fn(&cluster::CommStatsRow) -> u64| -> f64 {
            let total = |snapshot: &CommStatsSnapshot| -> u64 {
                snapshot
                    .rows
                    .iter()
                    .filter(|row| kind.is_none_or(|k| row.kind == k))
                    .map(field)
                    .sum()
            };
            outcomes.iter().map(|o| total(&o.comm) - total(&o.comm_before)).sum::<u64>() as f64
        };
        report.layer("comm", "calls", delta(None, |r| r.calls));
        report.layer("comm", "messages", delta(None, |r| r.messages));
        report.layer("comm", "bytes", delta(None, |r| r.bytes));
        for kind in [
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
            CollectiveKind::Alltoall,
            CollectiveKind::P2p,
        ] {
            report.layer(
                "comm",
                &format!("{}_calls", kind.label()),
                delta(Some(kind), |r| r.calls),
            );
        }
        let mut overlap = OverlapStats::default();
        for o in &outcomes {
            overlap.merge(&o.overlap);
        }
        report.layer("comm", "posted_s", overlap.posted_s);
        report.layer("comm", "overlapped_s", overlap.overlapped_s);
        report.layer("comm", "waited_s", overlap.waited_s);
        report.layer("comm", "hidden_frac", overlap.hidden_fraction());
        report.layer("comm", "rebalances", root.rebalances as f64);
        report.layer(
            "comm",
            "ghosts",
            outcomes.iter().map(|o| o.ghosts).sum::<usize>() as f64,
        );
    }
    report
}

// ---------------------------------------------------------------------------
// paper_campaign
// ---------------------------------------------------------------------------

/// GPU-card counts of the paper's Figure 1.
const FIG1_CARDS: [usize; 6] = [8, 16, 24, 32, 40, 48];

/// Bands around the paper's Figure 1 for PMT (time-stepping loop) over Slurm
/// (whole job) at full scale: PMT reads 3–12 % low on LUMI-G and 6–17 % low
/// on the CSCS A100 system, whose nodes idle higher through set-up.
const PMT_OVER_SLURM_BANDS: [(SystemKind, &str, f64, f64); 2] = [
    (SystemKind::LumiG, "pmt_over_slurm_lumi", 0.88, 0.97),
    (SystemKind::CscsA100, "pmt_over_slurm_a100", 0.83, 0.94),
];

/// The exact outputs of one set, compared across repetitions.
#[derive(PartialEq)]
struct SetDigest {
    /// Every PMT/Slurm ratio of both Figure 1 series, system by system.
    ratios: Vec<f64>,
    regions: usize,
    polls: u64,
    decisions: usize,
}

impl SetDigest {
    /// Each system's ratio at 48 cards, the point the bands are stated for.
    fn largest_ratios(&self) -> impl Iterator<Item = f64> + '_ {
        self.ratios.chunks(FIG1_CARDS.len()).map(|series| series[FIG1_CARDS.len() - 1])
    }
}

/// Table 1, Figures 1–5 and one governed EDP campaign, each call in its own
/// region when traced.
fn campaign_set(scale: Scale, meter: Option<&PowerMeter>) -> SetDigest {
    let steps = scale.timesteps();
    span(meter, CAMPAIGN_CALLS[0], experiments::table1);
    let series = span(meter, CAMPAIGN_CALLS[1], || {
        PMT_OVER_SLURM_BANDS.map(|(system, ..)| experiments::fig1_series(system, &FIG1_CARDS, steps))
    });
    span(meter, CAMPAIGN_CALLS[2], || experiments::fig2_breakdowns(scale));
    span(meter, CAMPAIGN_CALLS[3], || experiments::fig3_breakdowns(scale));
    span(meter, CAMPAIGN_CALLS[4], || experiments::fig4_sweep(steps));
    span(meter, CAMPAIGN_CALLS[5], || experiments::fig5_sweep(steps));
    let (governor, governed) = span(meter, CAMPAIGN_CALLS[6], || {
        let turb = scenario::get("Turb").expect("built-in scenario");
        experiments::run_governed_edp_campaign(&experiments::reduced_minihpc_config(turb, steps))
    });
    SetDigest {
        ratios: series.iter().flatten().map(|c| c.ratio()).collect(),
        regions: governed.rank_reports.iter().map(|r| r.records.len()).sum(),
        polls: governed.total_meter_polls,
        decisions: governor.frequency_changes(),
    }
}

fn run_campaign(spec: &Spec, args: &ChildArgs, start: Instant) -> Report {
    let meter = args.traced.then(wall_meter);
    let full = if args.kick_tires { Scale::Reduced } else { Scale::Full };
    for _ in 0..spec.warmup_steps {
        campaign_set(Scale::Reduced, None);
    }
    let mut report = Report::default();
    let mut clock = RunClock::end_of_setup(start, 1, &mut report);
    if args.setup_only {
        return report;
    }

    let Budget::Steps(reps) = args.budget else {
        panic!("paper_campaign is budgeted in repetitions of its set");
    };
    let reps = reps as usize;
    let sets: Vec<SetDigest> = (0..reps)
        .map(|_| clock.time(|| span(meter.as_deref(), STEP_LABEL, || campaign_set(full, meter.as_deref()))))
        .collect();
    clock.finish(&mut report);
    report.set("steps", (reps * CAMPAIGN_CALLS.len()) as f64);
    let unsound = sets.iter().filter(|set| set.ratios.iter().any(|r| !r.is_finite()));
    report.set("failed_steps", unsound.count() as f64);
    report.note("scale", format!("{full:?}"));

    let first = &sets[0];
    for ((_, name, low, high), ratio) in PMT_OVER_SLURM_BANDS.iter().zip(first.largest_ratios()) {
        // The bands are stated at full scale; the reduced set of the tests
        // runs too few timesteps against the same set-up phase.
        let ok = full == Scale::Reduced || (*low..=*high).contains(&ratio);
        report.check(name, ok, format!("{ratio:.4} at 48 cards, band {low}–{high}"));
    }
    report.check(
        "repetitions_identical",
        sets.iter().all(|set| set == first),
        format!("{reps} repetitions of the set"),
    );

    if let Some(m) = &meter {
        let records = m.report().records;
        report.values.extend(budget(&records, &CAMPAIGN_CALLS, "campaign"));
        report.layer("driver", "steps", reps as f64);
        report.layer("driver", "rank_imbalance", 1.0);
        for ((_, name, ..), ratio) in PMT_OVER_SLURM_BANDS.iter().zip(first.largest_ratios()) {
            report.layer("campaign", name, ratio);
        }
        // Regions and polls this pass can see from outside: the benchmark's
        // own meter plus the governed campaign's per-rank reports.
        report.layer("campaign", "regions", (reps * first.regions) as f64);
        report.layer("pmt", "regions", (records.len() + reps * first.regions) as f64);
        report.layer("pmt", "polls", (m.poll_count() + reps as u64 * first.polls) as f64);
        report.layer("pmt", "dropped", m.dropped_measurements() as f64);
        report.layer("autotune", "decisions", (reps * first.decisions) as f64);
    }
    report
}
