//! replicate — regenerate every artefact and run every gate, at one of two tiers.
//!
//! ```text
//! replicate <kick-tires|full> [artefact…] [--trace] [--transport shm|socket]
//! ```
//!
//! One table ([`ARTEFACTS`]) drives everything: each row names its body, its
//! size at either tier, the worker-thread count its gates were calibrated at
//! and what it gates on. No artefact names means all of them. Everything is
//! written to `experiments_output/`, with one `manifest.json`: tier, `nproc`,
//! worker threads, SIMD tier and, per artefact, seconds, exit status, files
//! written and every gate's value, threshold and verdict — *skipped*, with the
//! reason, where the host cannot express what the gate was calibrated for.
//!
//! The worker-thread count, the SIMD tier and the telemetry sink are latched
//! once per process, and the artefacts disagree about the first (three gates
//! pin one kernel thread because their rank threads are the parallelism;
//! `bins` wants the host's). So a single named artefact runs in this process,
//! and anything else re-executes `replicate <tier> <artefact>` once per
//! artefact: every gate sees the process it was calibrated in, and a panic is
//! one FAILED row instead of a lost run. `--trace` gives each of those
//! processes `SPHSIM_TRACE=experiments_output/<artefact>.trace.json`: one
//! Chrome trace per artefact, a complete document after every step's flush.
//!
//! Exit status: 0 when every gate that is enforced here held, 1 when one
//! failed or an artefact died, 2 on a command line that cannot be honoured.

use autotune::{tune, ExhaustiveSweep, GoldenSection, Governor, HillClimb, SearchStrategy, TuneResult};
use comm::{run_world, TransportKind};
use experiments::gallery::{
    scenario_edp_table, stage_frequency_table, validation_table, ScenarioEdpRow, ScenarioValidationRow,
    StageFrequencyRow,
};
use experiments::{per_rank_stage_table, RankStages, Table};
use experiments::{
    reduced_minihpc_config, run_campaign, run_distributed_campaign, run_governed_edp_campaign,
    DistributedCampaignConfig, Scale,
};
use hwmodel::arch::SystemKind;
use pmt::backends::dummy::DummySensor;
use pmt::{aggregate_by_label, Domain, MeasurementRecord, PowerMeter, ProfilingHooks};
use sphsim::init::noh::noh_measured_preshock_ratio;
use sphsim::init::sedov::{sedov_measured_shock_radius, sedov_shock_radius, SEDOV_E0, SEDOV_RHO0};
use sphsim::{run_distributed, scenario, DistributedSimulation, OverlapStats, ParticleSet, Scenario, Simulation};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;
use telemetry::event::{escape_json, format_f64};
use telemetry::Telemetry;

const SEED: u64 = 7;

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    /// What CI runs: seconds in all.
    KickTires,
    /// The sizes README quotes: the paper's node counts and 100 timesteps.
    Full,
}

impl Tier {
    const ALL: [Tier; 2] = [Tier::KickTires, Tier::Full];

    fn name(self) -> &'static str {
        match self {
            Tier::KickTires => "kick-tires",
            Tier::Full => "full",
        }
    }
}

/// What a tier selects for an artefact.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Size {
    /// The artefact has one size.
    One,
    /// A paper campaign at the node counts and timesteps of a [`Scale`].
    Campaign(Scale),
    /// A weak-scaling sweep: rank counts, particles per rank, steps.
    Ranks(&'static [usize], usize, u64),
    /// Scenarios, particles and global-dt steps: each scenario runs that many
    /// steps, then under dt bins to the same physical time.
    Bins(&'static [&'static str], usize, u64),
}

impl Size {
    fn scale(self) -> Scale {
        match self {
            Size::Campaign(scale) => scale,
            other => panic!("the artefact table sizes a paper campaign by a Scale, not {other:?}"),
        }
    }
}

const PAPER_SCALES: [Size; 2] = [Size::Campaign(Scale::Reduced), Size::Campaign(Scale::Full)];
const ONE_SIZE: [Size; 2] = [Size::One, Size::One];

struct Artefact {
    name: &'static str,
    /// Size at `[kick-tires, full]`.
    size: [Size; 2],
    /// Worker threads per process the gates were calibrated at; `None` is the
    /// host's default.
    threads: Option<usize>,
    /// What the artefact gates on ("" = it only regenerates a series).
    gates: &'static str,
    body: fn(&Run, Size, &mut Outcome),
}

/// A row that only regenerates a series: no gate, the host's threads.
const fn series(name: &'static str, size: [Size; 2], body: fn(&Run, Size, &mut Outcome)) -> Artefact {
    Artefact {
        name,
        size,
        threads: None,
        gates: "",
        body,
    }
}

static ARTEFACTS: [Artefact; 10] = [
    series("table1", ONE_SIZE, table1),
    series("fig1", PAPER_SCALES, fig1),
    series("fig2-3", PAPER_SCALES, fig2_3),
    series("fig4-5", PAPER_SCALES, fig4_5),
    Artefact {
        name: "gallery",
        size: ONE_SIZE,
        threads: None,
        gates: "every validate() band; per-stage governor convergence; Table-1 pair: MomentumEnergy clock >= \
                DomainDecompAndSync's; optima differ across scenarios",
        body: gallery,
    },
    Artefact {
        name: "autotune",
        size: ONE_SIZE,
        threads: None,
        gates: "online search within one f_step_hz of the sweep on fewer polls",
        body: autotune,
    },
    Artefact {
        name: "weak-scaling",
        size: [Size::Ranks(&[1, 2], 250, 3), Size::Ranks(&[1, 2, 4, 8], 2000, 8)],
        threads: Some(1),
        gates: "every rank's governor scores observations, none invalid; R = 4 throughput >= 2x R = 1 (>= 4 cores)",
        body: weak_scaling,
    },
    Artefact {
        name: "overlap",
        size: ONE_SIZE,
        threads: Some(1),
        gates: "ghost exchange >= 50 % hidden (>= 4 cores)",
        body: overlap,
    },
    Artefact {
        name: "bins",
        size: [Size::Bins(&["Sedov"], 4000, 40), Size::Bins(&["Sedov", "Noh"], 50_000, 15)],
        threads: None,
        gates: "dt bins >= 1.5x global dt (>= 4 cores); drift <= global + 5 points; front / upstream density in the validate() band",
        body: bins,
    },
    Artefact {
        name: "residual",
        size: ONE_SIZE,
        threads: Some(1),
        gates: "stage regions >= 85 % of the Step region: Evr under global dt, mid-cycle substeps of binned Sedov, \
                instrumented Turb on 2 ranks over socket",
        body: residual,
    },
];

// ---------------------------------------------------------------------------
// Gates and outcomes
// ---------------------------------------------------------------------------

/// The parsed command line and the host: what every body sees.
struct Run {
    tier: Tier,
    /// The artefacts named, in order; all of them when none was.
    artefacts: Vec<&'static Artefact>,
    trace: bool,
    transport: TransportKind,
    cores: usize,
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Passed,
    Failed,
    /// Reported, not enforced, and why.
    Skipped(String),
}

struct Gate {
    name: String,
    value: f64,
    /// The acceptance condition, as text (`>= 0.5`, `[0.23, 0.54]`).
    threshold: String,
    verdict: Verdict,
}

/// Whether a gate calibrated for `needed` cores is enforced on a host with
/// `cores`; `Err` is the reason it is only reported.
fn enforce_or_skip(cores: usize, needed: usize) -> Result<(), String> {
    if cores >= needed {
        Ok(())
    } else {
        Err(format!(
            "host has {cores} core(s), the gate is calibrated for >= {needed}: reported, not enforced"
        ))
    }
}

#[derive(Default)]
struct Outcome {
    files: Vec<String>,
    gates: Vec<Gate>,
}

impl Outcome {
    /// Print `table` and write it to `experiments_output/<filename>`.
    fn csv(&mut self, table: &Table, filename: &str) {
        println!("{}", table.to_text());
        experiments::write_csv(table, filename).expect("write a CSV into experiments_output/");
        self.files.push(filename.to_string());
    }

    /// Record (and print) one gate: `holds` against `threshold`, enforced or
    /// — with `Err(reason)` from [`enforce_or_skip`] — only reported.
    fn gate(
        &mut self,
        name: impl Into<String>,
        value: f64,
        threshold: impl Into<String>,
        holds: bool,
        enforced: Result<(), String>,
    ) {
        let verdict = match enforced {
            Err(why) => Verdict::Skipped(why),
            Ok(()) if holds => Verdict::Passed,
            Ok(()) => Verdict::Failed,
        };
        let gate = Gate {
            name: name.into(),
            value,
            threshold: threshold.into(),
            verdict,
        };
        let rounded = format_f64((gate.value * 1e4).round() / 1e4);
        println!(
            "  gate {}: {rounded} (accepted {}) -> {:?}",
            gate.name, gate.threshold, gate.verdict
        );
        self.gates.push(gate);
    }
}

// ---------------------------------------------------------------------------
// Table 1 and Figures 1–5
// ---------------------------------------------------------------------------

fn table1(_: &Run, _: Size, out: &mut Outcome) {
    let (sim, sys) = experiments::table1();
    out.csv(&sim, "table1_simulations.csv");
    out.csv(&sys, "table1_systems.csv");
}

/// PMT-measured vs Slurm-reported energy for Subsonic Turbulence on 8–48 GPU
/// cards, on LUMI-G and the CSCS A100 system.
fn fig1(_: &Run, size: Size, out: &mut Outcome) {
    for system in [SystemKind::LumiG, SystemKind::CscsA100] {
        let series = experiments::fig1_series(system, &[8, 16, 24, 32, 40, 48], size.scale().timesteps());
        let filename = format!("fig1_{}.csv", system.name().to_lowercase().replace('-', "_"));
        out.csv(&experiments::fig1_table(system, &series), &filename);
    }
}

/// Figures 2 and 3 read the same four campaigns, run once.
fn fig2_3(_: &Run, size: Size, out: &mut Outcome) {
    let runs = experiments::fig2_3_runs(size.scale(), |r| {
        (experiments::loop_devices(r), experiments::loop_functions(r))
    });
    let devices: Vec<_> = runs.iter().map(|(label, (device, _))| (label.clone(), *device)).collect();
    out.csv(&experiments::fig2_table(&devices), "fig2_device_breakdown.csv");
    println!(
        "Paper reference: GPU ≈ 74.3 % (LUMI-G) / 76.4 % (CSCS-A100); totals 24.4 / 15.2 / 12.5 / 10.7 MJ at full scale."
    );
    for (label, (_, fb)) in &runs {
        let filename = format!("fig3_{}.csv", label.to_lowercase().replace('-', "_"));
        out.csv(&experiments::fig3_table(label, fb), &filename);
    }
    println!("Paper reference: MomentumEnergy ≈ 25.29 % of GPU energy on CSCS-A100-Turb vs ≈ 45.8 % on LUMI-Turb.");
}

/// Figures 4 and 5 read the same miniHPC sweep, run once: Figure 5 is its
/// largest cube, 450³.
fn fig4_5(_: &Run, size: Size, out: &mut Outcome) {
    let runs = experiments::fig4_5_runs(&experiments::fig4_particle_cubes(), size.scale().timesteps(), |r| {
        (experiments::loop_edp(r), experiments::function_edps(r))
    });
    let sweep: Vec<_> = runs
        .iter()
        .map(|(cube, reads)| (*cube, reads.iter().map(|(p, _)| *p).collect()))
        .collect();
    out.csv(&experiments::fig4_table(&sweep), "fig4_edp_frequency.csv");
    println!("Paper reference: EDP decreases as the clock is lowered from 1410 MHz, most strongly for the under-utilised 200^3 case.");
    let (_, largest) = runs.last().expect("the sweep has cubes");
    let fig5 = experiments::fig5_normalise(largest.iter().map(|(_, functions)| functions.clone()));
    out.csv(&experiments::fig5_table(&fig5), "fig5_function_edp.csv");
    println!("Paper reference: DomainDecompAndSync improves by ~27 %, other memory-bound functions by up to ~20 %, while MomentumEnergy and IADVelocityDivCurl do not benefit.");
}

// ---------------------------------------------------------------------------
// gallery — every scenario through the full methodology
// ---------------------------------------------------------------------------

/// What a governed run's governor found per stage, as rows of the shared
/// table, and its convergence as one gate: every pipeline stage seen by the
/// governor and converged to a min-EDP frequency (the search's built-in
/// one-grid-step criterion). On the Table-1 pair the paper's Figure 5
/// observation must come out online too: the dominant compute stage tolerates
/// less down-scaling than the memory-bound domain-sync stage.
fn governed_stages(scenario: &'static Scenario, governor: &Governor, out: &mut Outcome) -> Vec<StageFrequencyRow> {
    let short = scenario.short_name;
    let stages = governor.report().into_iter().map(|stage| StageFrequencyRow {
        scenario: short.to_string(),
        stage: stage.label,
        best_frequency_hz: stage.best_frequency_hz.unwrap_or(0.0),
        observations: stage.observations,
        converged: stage.converged,
    });
    let rows: Vec<StageFrequencyRow> = stages.collect();
    let unconverged: Vec<&str> = rows.iter().filter(|r| !r.converged).map(|r| r.stage.as_str()).collect();
    let failures = scenario.stage_labels().len().abs_diff(rows.len()) + unconverged.len();
    if failures > 0 {
        println!(
            "  - the governor saw {} stages; not converged: {unconverged:?}",
            rows.len()
        );
    }
    let name = format!("{short}: stages unseen by the governor or not converged");
    out.gate(name, failures as f64, "== 0", failures == 0, Ok(()));
    if experiments::table1_scenarios().iter().any(|t| t.short_name == short) {
        let best = |label: &str| rows.iter().find(|r| r.stage == label).map_or(0.0, |r| r.best_frequency_hz);
        let (momentum, sync) = (best("MomentumEnergy") / 1.0e6, best("DomainDecompAndSync") / 1.0e6);
        out.gate(
            format!("{short}: MomentumEnergy min-EDP clock, MHz"),
            momentum,
            format!(">= {sync:.0} (DomainDecompAndSync's)"),
            momentum >= sync,
            Ok(()),
        );
    }
    rows
}

/// For each scenario: its analytic `validate()` check on the
/// CPU propagator, then a reduced paper-scale campaign at the nominal clock
/// and under the per-stage EDP governor, every stage of which must converge.
fn gallery(_: &Run, _: Size, out: &mut Outcome) {
    let scenarios = scenario::all();
    println!("{} scenarios ({})\n", scenarios.len(), scenario::names().join(", "));
    let mut validations = Vec::new();
    let mut frequencies: Vec<StageFrequencyRow> = Vec::new();
    let mut edps = Vec::new();
    for scenario in scenarios {
        let short = scenario.short_name;
        println!("== {} ({short})", scenario.name);
        let check = scenario.validate();
        println!("  {check}");
        out.gate(
            format!("{short}: {}", check.observable),
            check.measured,
            format!("[{:.4}, {:.4}]", check.acceptance.0, check.acceptance.1),
            check.passed(),
            Ok(()),
        );
        validations.push(ScenarioValidationRow {
            scenario: check.scenario.clone(),
            observable: check.observable.to_string(),
            measured: check.measured,
            expected: check.expected,
            acceptance: check.acceptance,
            passed: check.passed(),
        });

        // 80 timesteps: enough observations for every stage to converge.
        let config = reduced_minihpc_config(scenario, 80);
        let baseline = run_campaign(&config);
        let (governor, governed) = run_governed_edp_campaign(&config);
        frequencies.extend(governed_stages(scenario, &governor, out));
        edps.push(ScenarioEdpRow {
            scenario: short.to_string(),
            energy_j: governed.true_main_loop_energy_j,
            time_s: governed.main_loop_duration_s(),
            baseline_energy_j: baseline.true_main_loop_energy_j,
            baseline_time_s: baseline.main_loop_duration_s(),
        });
        println!();
    }
    out.csv(&validation_table(&validations), "scenario_gallery_validation.csv");
    out.csv(&stage_frequency_table(&frequencies), "scenario_gallery_frequencies.csv");
    out.csv(&scenario_edp_table(&edps), "scenario_gallery_edp.csv");

    // The per-stage optima must differ across scenarios somewhere — otherwise
    // the per-scenario cost model degenerated to a single workload and the
    // gallery exercises nothing the Table-1 pair did not.
    let distinct: std::collections::BTreeSet<String> = frequencies
        .iter()
        .filter(|r| r.converged)
        .map(|r| format!("{}:{:.0}", r.stage, r.best_frequency_hz / 1.0e6))
        .collect();
    let stages: std::collections::BTreeSet<&str> = frequencies.iter().map(|r| r.stage.as_str()).collect();
    out.gate(
        "distinct (stage, min-EDP frequency) pairs across scenarios",
        distinct.len() as f64,
        format!("> {} (the number of stages)", stages.len()),
        distinct.len() > stages.len(),
        Ok(()),
    );
}

// ---------------------------------------------------------------------------
// autotune — the online governor against the paper's offline sweep
// ---------------------------------------------------------------------------

/// One whole-loop evaluation: a reduced campaign pinned at `freq`, scored by
/// its main-loop EDP. Returns the score and the meter polls spent.
fn evaluate(scenario: &'static Scenario, freq: f64) -> (f64, u64) {
    let mut config = reduced_minihpc_config(scenario, 4);
    config.gpu_frequency_hz = Some(freq);
    let result = run_campaign(&config);
    (experiments::loop_edp(&result).edp(), result.total_meter_polls)
}

/// Drive one strategy to convergence; returns its result and the meter polls
/// all of its evaluations spent.
fn drive(strategy: &mut dyn SearchStrategy, scenario: &'static Scenario) -> (TuneResult, u64) {
    let mut polls = 0;
    let evaluate_counting = |f| {
        let (score, p) = evaluate(scenario, f);
        polls += p;
        score
    };
    let result = tune(strategy, evaluate_counting, 500).expect("tuning produced no result");
    (result, polls)
}

/// Golden-section and hill-climb tune the main-loop EDP online (one reduced
/// campaign per trial frequency) and must land within one `f_step_hz` of the
/// exhaustive sweep's optimum on fewer meter polls.
fn whole_loop_convergence(scenario: &'static Scenario, out: &mut Outcome) {
    let short = scenario.short_name;
    let node = SystemKind::MiniHpc.node_builder().build();
    let model = &node.gpus()[0].spec().dvfs;
    println!("== {} — whole-loop EDP tuning (miniHPC, A100 grid)", scenario.name);
    let runs = [
        ("exhaustive", drive(&mut ExhaustiveSweep::new(model), scenario)),
        ("golden-section", drive(&mut GoldenSection::new(model), scenario)),
        ("hill-climb", drive(&mut HillClimb::new(model), scenario)),
    ];
    for (name, (result, polls)) in &runs {
        let (mhz, evaluations) = (result.best_frequency_hz / 1.0e6, result.evaluations);
        println!("  {name:<15} best {mhz:>5.0} MHz | {evaluations:>3} evaluations | {polls:>6} meter polls");
    }
    let (_, (offline, offline_polls)) = &runs[0];
    for (name, (result, polls)) in &runs[1..] {
        let apart_hz = (result.best_frequency_hz - offline.best_frequency_hz).abs();
        out.gate(
            format!("{short}: {name} optimum, MHz from the sweep's"),
            apart_hz / 1.0e6,
            format!("<= {:.0} (one f_step_hz)", model.f_step_hz / 1.0e6),
            apart_hz <= model.f_step_hz + 1.0,
            Ok(()),
        );
        out.gate(
            format!("{short}: {name} meter polls"),
            *polls as f64,
            format!("< {offline_polls} (the sweep's)"),
            polls < offline_polls,
            Ok(()),
        );
    }
    println!();
}

fn autotune(_: &Run, _: Size, out: &mut Outcome) {
    for scenario in experiments::table1_scenarios() {
        whole_loop_convergence(scenario, out);
    }
}

// ---------------------------------------------------------------------------
// weak-scaling — the step driver across real ranks
// ---------------------------------------------------------------------------

/// One metered sweep point: every rank on its own simulated GPU die with its
/// own per-stage EDP hill-climb governor. Prints the gathered per-rank
/// per-stage energy table and returns the FindNeighbors + MomentumEnergy
/// throughput in particles/second, plus every rank's governor.
fn sweep_point(
    scenario: &'static Scenario,
    n_ranks: usize,
    n_per_rank: usize,
    steps: u64,
    transport: TransportKind,
) -> (f64, Vec<Arc<Governor>>) {
    let config = DistributedCampaignConfig {
        system: SystemKind::MiniHpc,
        scenario,
        n_ranks,
        n_per_rank,
        steps,
        seed: SEED,
        transport,
    };
    let labels = scenario.stage_labels();
    let governors = std::sync::Mutex::new(Vec::new());
    let result = run_distributed_campaign(&config, |ctx, meter| {
        let governor = Arc::new(Governor::new(labels.clone(), Arc::new(ctx.gpu.clone())));
        meter.add_region_observer(governor.clone());
        governors.lock().expect("no rank panics while wiring").push(governor);
    });
    let rank_stages: Vec<RankStages> = result
        .per_rank
        .iter()
        .map(|r| RankStages {
            rank: r.rank,
            hostname: r.hostname.clone(),
            owned: r.owned,
            ghosts: r.ghosts,
            stages: aggregate_by_label(&r.report.records),
        })
        .collect();
    let title = format!(
        "{} | R = {n_ranks} | {} particles total | {steps} steps | wall {:.2} s",
        scenario.short_name,
        result.total_particles(),
        result.elapsed_s
    );
    println!("{}", per_rank_stage_table(&title, &rank_stages).to_text());
    let throughput = result.stages_throughput_pps(&["FindNeighbors", "MomentumEnergy"]);
    println!("   FindNeighbors+MomentumEnergy throughput: {throughput:.0} particles/s\n");
    (throughput, governors.into_inner().expect("no rank panics while wiring"))
}

/// Weak scaling (constant particles per rank) over every scenario.
/// The rank threads are the parallelism under test, so every in-rank kernel
/// runs on one worker thread, and R = 4 must reach twice the R = 1 throughput
/// wherever the host has the four cores to express it. That multi-rank runs
/// match the one-rank propagator per particle is `tests/distributed.rs`'s job.
fn weak_scaling(run: &Run, size: Size, out: &mut Outcome) {
    let Size::Ranks(ranks, n_per_rank, steps) = size else {
        panic!("the artefact table sizes weak-scaling by rank counts, not {size:?}");
    };
    let enforced = enforce_or_skip(run.cores, 4);
    let mut ranks = ranks.to_vec();
    if enforced.is_ok() && !ranks.contains(&4) {
        ranks.push(4); // the gate's own point, run wherever the gate is live
    }
    println!(
        "transport: {} | {n_per_rank} particles/rank | {steps} steps | per-rank EDP governors\n",
        run.transport
    );
    for scenario in scenario::all() {
        let mut governors = Vec::new();
        let throughputs: Vec<(usize, f64)> = ranks
            .iter()
            .map(|&r| {
                let (throughput, rank_governors) = sweep_point(scenario, r, n_per_rank, steps, run.transport);
                governors.extend(rank_governors);
                (r, throughput)
            })
            .collect();
        // A governor that scores nothing leaves its rank at the nominal clock:
        // the per-rank tables would then show no governed stage at all.
        let idle = governors
            .iter()
            .filter(|g| g.invalid_observations() > 0 || g.report().iter().all(|s| s.observations == 0))
            .count();
        out.gate(
            format!(
                "{}: rank governors scoring nothing or logging invalid observations",
                scenario.short_name
            ),
            idle as f64,
            format!("== 0 (of {})", governors.len()),
            idle == 0,
            Ok(()),
        );
        println!("   {} throughput by rank count:", scenario.short_name);
        let at = |ranks: usize| throughputs.iter().find(|&&(r, _)| r == ranks).map_or(f64::NAN, |&(_, t)| t);
        for &(r, t) in &throughputs {
            println!(
                "     R = {r}: {t:>12.0} particles/s ({:.2}x vs R = 1)",
                t / at(1).max(1e-30)
            );
        }
        let speedup = at(4) / at(1);
        out.gate(
            format!("{}: R = 4 over R = 1 throughput", scenario.short_name),
            speedup,
            ">= 2",
            speedup >= 2.0,
            enforced.clone(),
        );
        println!();
    }
}

// ---------------------------------------------------------------------------
// overlap — is the ghost exchange hidden under compute?
// ---------------------------------------------------------------------------

/// A 4-rank Evrard run (the heaviest per-particle momentum work, hence the
/// most interior compute to hide under) accumulates `OverlapStats` on every
/// rank; the merged `overlapped / (posted + overlapped + waited)` must reach
/// 50 % — where the host has four cores: below that the interior compute and
/// the peers' sends serialise, so waiting is physically mandatory.
fn overlap(run: &Run, _: Size, out: &mut Outcome) {
    let evrard = scenario::get("Evr").expect("built-in scenario");
    let (n_ranks, n_total, steps) = (4usize, 4000usize, 5u64);
    println!(
        "Evr | {n_ranks} ranks over {} | {n_total} particles | {steps} steps\n",
        run.transport
    );
    let shards = run_distributed(evrard, n_ranks, n_total, SEED, steps, run.transport, None);
    let mut merged = OverlapStats::default();
    for shard in &shards {
        println!(
            "  rank {}: posted {:.3} ms, overlapped {:.3} ms, waited {:.3} ms -> {:.0}% hidden",
            shard.rank,
            shard.overlap.posted_s * 1e3,
            shard.overlap.overlapped_s * 1e3,
            shard.overlap.waited_s * 1e3,
            shard.overlap.hidden_fraction() * 100.0,
        );
        merged.merge(&shard.overlap);
    }
    let hidden = merged.hidden_fraction();
    out.gate(
        "merged hidden fraction of the ghost exchange",
        hidden,
        ">= 0.5",
        hidden >= 0.5,
        enforce_or_skip(run.cores, 4),
    );
}

// ---------------------------------------------------------------------------
// bins — do individual timesteps buy wall-clock at equal physics?
// ---------------------------------------------------------------------------

fn conserved_energy(p: &ParticleSet) -> f64 {
    p.kinetic_energy() + p.internal_energy()
}

/// The same initial conditions to the same physical time under a global dt
/// and under 4 power-of-two dt bins. The speedup gate needs >= 4 cores (below
/// that, background load on a starved runner drowns the signal in timer
/// noise); the physics gates are always enforced: both integrators carry O(dt)
/// energy error at the Courant limit, so bins must not drift materially beyond
/// the global scheme, and the binned state must sit inside the analytic band
/// its scenario's `validate()` uses.
fn bins(run: &Run, size: Size, out: &mut Outcome) {
    let Size::Bins(scenarios, n, steps) = size else {
        panic!("the artefact table sizes bins by scenarios x particles x steps, not {size:?}");
    };
    for &name in scenarios {
        let sc = scenario::get(name).expect("built-in scenario");
        println!("{name} | {n} particles | 4 dt bins\n");
        let mut global = Simulation::from_scenario(sc, n, SEED);
        let e_start = conserved_energy(global.particles());
        let started = Instant::now();
        global.run(steps);
        let wall_global = started.elapsed().as_secs_f64();
        let t_end = global.time();
        println!(
            "  global dt : {steps} steps to t = {t_end:.5} in {:.1} ms",
            wall_global * 1e3
        );

        let mut binned = Simulation::from_scenario(sc, n, SEED).with_timestep_bins(4);
        let started = Instant::now();
        let mut substeps = 0u64;
        while binned.time() < t_end {
            binned.step();
            substeps += 1;
            assert!(substeps < 100_000, "binned run failed to reach t = {t_end}");
        }
        let wall_binned = started.elapsed().as_secs_f64();
        println!(
            "  dt bins   : {substeps} substeps to t = {:.5} in {:.1} ms",
            binned.time(),
            wall_binned * 1e3
        );

        let speedup = wall_global / wall_binned.max(1e-12);
        out.gate(
            format!("{name}: wall-clock speedup of dt bins over global dt"),
            speedup,
            ">= 1.5",
            speedup >= 1.5,
            enforce_or_skip(run.cores, 4),
        );
        let drift = |p: &ParticleSet| (conserved_energy(p) - e_start).abs() / e_start.abs().max(1e-12);
        let (drift_global, drift_binned) = (drift(global.particles()), drift(binned.particles()));
        out.gate(
            format!("{name}: binned energy drift from t = 0"),
            drift_binned,
            format!(
                "<= {:.4} (global dt's {drift_global:.4} + 5 points)",
                drift_global + 0.05
            ),
            drift_binned <= drift_global + 0.05,
            Ok(()),
        );
        let (what, measured, (lo, hi)) = match name {
            "Sedov" => {
                let expected = sedov_shock_radius(SEDOV_E0, SEDOV_RHO0, binned.time());
                (
                    "shock-front radius (0.6-1.4x the similarity law)",
                    sedov_measured_shock_radius(binned.particles()),
                    (0.6 * expected, 1.4 * expected),
                )
            }
            "Noh" => (
                "pre-shock density over the exact upstream profile",
                noh_measured_preshock_ratio(binned.particles(), binned.time()).0,
                (0.75, 1.25),
            ),
            other => panic!("the bins artefact has no analytic band for scenario {other}"),
        };
        out.gate(
            format!("{name}: binned {what}"),
            measured,
            format!("[{lo:.4}, {hi:.4}]"),
            (lo..=hi).contains(&measured),
            Ok(()),
        );
        println!();
    }
}

// ---------------------------------------------------------------------------
// residual — do the instrumented stages account for the step?
// ---------------------------------------------------------------------------

/// The paper's premise is that a handful of instrumented functions carry an
/// application's time and energy. Checked from outside the library, the way
/// the repository benchmark does: `ProfilingHooks` on a wall-clock meter (a
/// constant 1 W sensor, so regions measure time) record every stage, an outer
/// `Step` region wraps each `step()`, and Σ stages / Σ Step must reach 85 % on
/// three runs. Evrard under global dt runs every stage kind including Gravity:
/// it catches the next O(N²) in the driver (≈ 60 % with the potential sum in
/// the step summary, ≈ 99 % since). The mid-cycle substeps of Sedov on 4 dt
/// bins run a few per cent of the rows, where Gravity hides nothing: they
/// catch the next pass over the whole set per substep (≈ 72 % while the
/// non-finite guard swept every particle after every stage, ≈ 95 % since);
/// the cycle starts run every row, like a global-dt step, and are left out.
/// The third row is the paper's own configuration: Turb on 2 ranks over the
/// socket transport, each rank metered per stage on its own wall clock, one
/// enabled telemetry sink shared by both, read on the critical rank (the
/// larger Σ stages). It catches instrumentation that gets in the step's way
/// (≈ 90 % while every owned row updated the shared sink's histogram atomics,
/// ≈ 96 % since the step folds its histograms locally). A ratio inside one
/// process is host-independent, so the gate is enforced everywhere.
fn residual(_: &Run, _: Size, out: &mut Outcome) {
    /// One cycle of `sim` — one step under global dt — through `step`.
    fn run_cycle(sim: &mut Simulation, mut step: impl FnMut(&mut Simulation)) {
        step(sim);
        while sim.timestep_bins().is_some_and(|b| !b.at_cycle_start()) {
            step(sim);
        }
    }
    for (name, bins, cycles) in [("Evr", 1, 3), ("Sedov", 4, 2)] {
        let meter = wall_meter();
        let mut sim = Simulation::from_scenario(sphsim::scenario::get(name).expect("a built-in scenario"), 8000, SEED)
            .with_timestep_bins(bins)
            .with_hooks(ProfilingHooks::new(Arc::clone(&meter)));
        // Warm-up: first-touch allocation of the workspace, first Morton reorder.
        run_cycle(&mut sim, |sim| {
            sim.step();
        });
        meter.take_records();
        let mut records = Vec::new();
        for _ in 0..cycles {
            run_cycle(&mut sim, |sim| {
                let cycle_start = sim.timestep_bins().is_some_and(|b| b.at_cycle_start());
                meter
                    .measure(STEP_LABEL, || sim.step())
                    .expect("regions start and end in pairs");
                let of_step = meter.take_records();
                if !cycle_start {
                    records.extend(of_step);
                }
            });
        }

        let share = StepShare::of(&records);
        let of = if bins > 1 { "mid-cycle substeps" } else { "steps" };
        println!(
            "{name} | {} particles | {bins} dt bin(s) | {cycles} cycles: {} {of} | 1 thread\n",
            sim.particles().len(),
            share.steps
        );
        share.gate(out, &format!("{name}, {bins} dt bin(s)"));
    }

    let (n_ranks, n, steps) = (2, 8000, 3);
    let turb = sphsim::scenario::get("Turb").expect("a built-in scenario");
    let sink = Arc::new(Telemetry::new());
    let shares = run_world(n_ranks, TransportKind::Socket, |comm| {
        let meter = wall_meter();
        meter.attach_telemetry(Arc::clone(&sink));
        let mut sim = DistributedSimulation::from_scenario(comm, turb, n, SEED)
            .with_hooks(ProfilingHooks::new(Arc::clone(&meter)))
            .with_telemetry(Arc::clone(&sink));
        // Warm-up: first-touch allocation of the workspace.
        sim.step();
        meter.take_records();
        for _ in 0..steps {
            meter
                .measure(STEP_LABEL, || sim.step())
                .expect("regions start and end in pairs");
        }
        StepShare::of(&meter.take_records())
    });
    let critical = shares
        .into_iter()
        .max_by(|a, b| a.stage_s.total_cmp(&b.stage_s))
        .expect("two ranks");
    println!(
        "Turb | {n} particles on {n_ranks} ranks over socket | per-rank hooks, shared telemetry sink | {} steps | \
         critical rank, 1 thread per rank\n",
        critical.steps
    );
    critical.gate(out, &format!("Turb, {n_ranks} ranks over socket, critical rank"));
}

/// The label of the outer region [`residual`] wraps each step in.
const STEP_LABEL: &str = "Step";

/// A wall-clock meter over a constant 1 W dummy sensor: regions measure time.
fn wall_meter() -> Arc<PowerMeter> {
    Arc::new(PowerMeter::builder().sensor(DummySensor::new(Domain::cpu(0), 1.0)).build())
}

/// How much of the `Step` regions of one meter its stage regions cover.
struct StepShare {
    steps: u64,
    step_s: f64,
    stage_s: f64,
    /// Time per stage label, in label order.
    rows: Vec<(String, f64)>,
}

impl StepShare {
    fn of(records: &[MeasurementRecord]) -> Self {
        let by_label = aggregate_by_label(records);
        let (step, stages): (Vec<_>, Vec<_>) = by_label.iter().partition(|a| a.label == STEP_LABEL);
        StepShare {
            steps: step.iter().map(|a| a.calls).sum(),
            step_s: step.iter().map(|a| a.total_time_s).sum(),
            stage_s: stages.iter().map(|a| a.total_time_s).sum(),
            rows: stages.iter().map(|a| (a.label.clone(), a.total_time_s)).collect(),
        }
    }

    /// Print the budget and gate Σ stages / Σ Step at 85 %.
    fn gate(&self, out: &mut Outcome, what: &str) {
        let residual = ("(driver residual)".to_string(), self.step_s - self.stage_s);
        for (label, t) in self.rows.iter().chain([&residual]) {
            println!("  {label:<22} {:>9.3} ms  {:>5.1}%", t * 1e3, 100.0 * t / self.step_s);
        }
        println!();
        let share = self.stage_s / self.step_s;
        out.gate(
            format!("{what}: share of the Step regions the stage regions cover"),
            share,
            ">= 0.85",
            share >= 0.85,
            Ok(()),
        );
    }
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

/// Parse the whole command line once; an argument that cannot be honoured is
/// an error naming the values that can.
fn parse_args(args: &[String]) -> Result<Run, String> {
    let tiers = Tier::ALL.map(Tier::name).join(", ");
    let mut args = args.iter().map(String::as_str);
    let tier = args.next().ok_or_else(|| format!("missing tier; known: {tiers}"))?;
    let tier = Tier::ALL
        .into_iter()
        .find(|t| t.name() == tier)
        .ok_or_else(|| format!("unknown tier '{tier}'; known: {tiers}"))?;
    let mut run = Run {
        tier,
        artefacts: Vec::new(),
        trace: false,
        transport: TransportKind::Shm,
        cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    };
    while let Some(arg) = args.next() {
        match arg {
            "--trace" => run.trace = true,
            "--transport" => {
                let value = args.next().unwrap_or("");
                run.transport = TransportKind::parse(value)
                    .ok_or_else(|| format!("--transport must be 'shm' or 'socket', got '{value}'"))?;
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag '{flag}'; known: --trace, --transport shm|socket"));
            }
            name => run.artefacts.push(ARTEFACTS.iter().find(|a| a.name == name).ok_or_else(|| {
                let known: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
                format!("unknown artefact '{name}'; known: {}", known.join(", "))
            })?),
        }
    }
    if run.artefacts.is_empty() {
        run.artefacts = ARTEFACTS.iter().collect();
    }
    Ok(run)
}

// ---------------------------------------------------------------------------
// Running and recording
// ---------------------------------------------------------------------------

/// One finished artefact: what the summary prints and its manifest row.
struct Finished {
    name: &'static str,
    seconds: f64,
    exit_status: i32,
    /// The row of `manifest.json`, one line of JSON.
    row: String,
}

impl Finished {
    fn new(artefact: &Artefact, run: &Run, seconds: f64, exit_status: i32, outcome: &Outcome) -> Self {
        let quoted = |s: &str| format!("\"{}\"", escape_json(s));
        let gates = outcome.gates.iter().map(|g| {
            let (verdict, why) = match &g.verdict {
                Verdict::Passed => ("passed", String::new()),
                Verdict::Failed => ("failed", String::new()),
                Verdict::Skipped(why) => ("skipped", format!(", \"why\": {}", quoted(why))),
            };
            format!(
                "{{\"name\": {}, \"value\": {}, \"threshold\": {}, \"verdict\": \"{verdict}\"{why}}}",
                quoted(&g.name),
                format_f64(g.value),
                quoted(&g.threshold),
            )
        });
        let row = format!(
            "{{\"artefact\": \"{}\", \"size\": {}, \"worker_threads\": {}, \"seconds\": {}, \
             \"exit_status\": {exit_status}, \"status\": \"{}\", \"files\": [{}], \"gates\": [{}]}}",
            artefact.name,
            quoted(&format!("{:?}", artefact.size[run.tier as usize])),
            artefact.threads.unwrap_or_else(sphsim::parallel::worker_threads),
            format_f64((seconds * 1e3).round() / 1e3),
            if exit_status == 0 { "ok" } else { "FAILED" },
            outcome.files.iter().map(|f| quoted(f)).collect::<Vec<_>>().join(", "),
            gates.collect::<Vec<_>>().join(", "),
        );
        Finished {
            name: artefact.name,
            seconds,
            exit_status,
            row,
        }
    }
}

fn manifest_json(run: &Run, rows: &[Finished]) -> String {
    let rows: Vec<String> = rows.iter().map(|f| format!("    {}", f.row)).collect();
    format!(
        "{{\n  \"tier\": \"{}\",\n  \"nproc\": {},\n  \"worker_threads\": {},\n  \"simd_tier\": \"{}\",\n  \
         \"transport\": \"{}\",\n  \"artefacts\": [\n{}\n  ]\n}}\n",
        run.tier.name(),
        run.cores,
        sphsim::parallel::worker_threads(),
        sphsim::parallel::simd_tier_name(),
        run.transport,
        rows.join(",\n"),
    )
}

/// Run one artefact in this process, in the process state its row asks for.
fn run_in_process(artefact: &'static Artefact, run: &Run) -> Finished {
    if let Some(threads) = artefact.threads {
        // Before the first kernel call: the count is latched once per process.
        std::env::set_var("SPHSIM_THREADS", threads.to_string());
    }
    let size = artefact.size[run.tier as usize];
    println!("== replicate {} {} | {size:?}\n", run.tier.name(), artefact.name);
    let mut outcome = Outcome::default();
    let started = Instant::now();
    (artefact.body)(run, size, &mut outcome);
    let seconds = started.elapsed().as_secs_f64();
    if telemetry::from_env().is_some() {
        experiments::print_telemetry_summary(&format!("{} telemetry", artefact.name));
        let dir = experiments::output_dir();
        let trace = format!("{}.trace.json", artefact.name);
        if dir.join(&trace).exists() {
            outcome.files.push(trace);
        }
    }
    let exit_status = i32::from(outcome.gates.iter().any(|g| g.verdict == Verdict::Failed));
    Finished::new(artefact, run, seconds, exit_status, &outcome)
}

/// Run one artefact as `replicate <tier> <artefact>` in a process of its own
/// and take its row from the manifest that process leaves behind. A child that
/// died before writing one is a FAILED row with its exit status and no gates.
fn run_in_child(artefact: &'static Artefact, run: &Run) -> Finished {
    let out = experiments::output_dir();
    let manifest = out.join("manifest.json");
    let _ = std::fs::remove_file(&manifest);
    let mut child = Command::new(std::env::current_exe().expect("own executable path"));
    child.args([run.tier.name(), artefact.name, "--transport", run.transport.label()]);
    if run.trace {
        let trace = out.join(format!("{}.trace.json", artefact.name));
        // A child that dies before its first flush must not leave an earlier
        // run's trace in place of its own.
        let _ = std::fs::remove_file(&trace);
        child.env("SPHSIM_TRACE", trace);
    }
    let started = Instant::now();
    let status = child.status().expect("re-execute replicate for one artefact");
    let seconds = started.elapsed().as_secs_f64();
    println!();
    let row = std::fs::read_to_string(&manifest).ok().and_then(|text| {
        let row = text.lines().map(str::trim).find(|l| l.starts_with("{\"artefact\""))?;
        Some(row.trim_end_matches(',').to_string())
    });
    // The child's own status, or 1 for one killed by a signal or gone without a row.
    let exit_status = status.code().filter(|&code| code != 0 || row.is_some()).unwrap_or(1);
    let mut finished = Finished::new(artefact, run, seconds, exit_status, &Outcome::default());
    finished.row = row.unwrap_or(finished.row);
    finished
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("replicate: {message}");
        eprintln!("usage: replicate <kick-tires|full> [artefact…] [--trace] [--transport shm|socket]");
        for a in &ARTEFACTS {
            eprintln!("  {:<13} {}", a.name, a.gates);
        }
        std::process::exit(2);
    });
    let finished: Vec<Finished> = match run.artefacts.as_slice() {
        &[one] if !run.trace => vec![run_in_process(one, &run)],
        _ => run.artefacts.iter().map(|a| run_in_child(a, &run)).collect(),
    };
    let manifest = experiments::output_dir().join("manifest.json");
    std::fs::write(&manifest, manifest_json(&run, &finished)).expect("write experiments_output/manifest.json");

    println!("replicate {} on {} core(s):", run.tier.name(), run.cores);
    for f in &finished {
        let status = if f.exit_status == 0 { "ok" } else { "FAILED" };
        println!("  {:<13} {:>8.2} s  {status}", f.name, f.seconds);
    }
    println!("manifest: {}", manifest.display());
    if finished.iter().any(|f| f.exit_status != 0) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: Run = Run {
        tier: Tier::KickTires,
        artefacts: Vec::new(),
        trace: false,
        transport: TransportKind::Shm,
        cores: 2,
    };

    #[test]
    fn artefact_names_are_unique_and_every_artefact_is_sized_alike_in_both_tiers() {
        for (i, a) in ARTEFACTS.iter().enumerate() {
            assert!(
                ARTEFACTS[..i].iter().all(|b| b.name != a.name),
                "duplicate artefact {}",
                a.name
            );
            assert!(!a.name.starts_with('-'), "{} would parse as a flag", a.name);
            let [kick_tires, full] = a.size;
            assert_eq!(
                std::mem::discriminant(&kick_tires),
                std::mem::discriminant(&full),
                "{}: the body reads one kind of size",
                a.name
            );
        }
    }

    #[test]
    fn a_gate_is_enforced_exactly_where_the_host_has_the_cores() {
        assert_eq!(enforce_or_skip(4, 4), Ok(()));
        assert_eq!(enforce_or_skip(64, 4), Ok(()));
        for cores in [1, 2, 3] {
            let why = enforce_or_skip(cores, 4).expect_err("below the calibration");
            assert!(
                why.contains(&format!("host has {cores} core(s)")) && why.contains(">= 4"),
                "{why}"
            );
        }
        // A skipped gate records its value and never fails the artefact.
        let mut out = Outcome::default();
        out.gate("g", 0.07, ">= 0.5", false, enforce_or_skip(2, 4));
        out.gate("g", 0.07, ">= 0.5", false, enforce_or_skip(4, 4));
        out.gate("g", 0.70, ">= 0.5", true, enforce_or_skip(4, 4));
        assert!(matches!(out.gates[0].verdict, Verdict::Skipped(_)));
        assert_eq!(out.gates[1].verdict, Verdict::Failed);
        assert_eq!(out.gates[2].verdict, Verdict::Passed);
    }

    #[test]
    fn a_failing_gate_is_a_nonzero_exit_and_a_failed_manifest_row() {
        static HOLDS: Artefact = series("holds", ONE_SIZE, |run, _, out| {
            out.gate("enforced", 1.0, ">= 1", true, Ok(()));
            out.gate("needs 4 cores", 0.0, ">= 1", false, enforce_or_skip(run.cores, 4));
        });
        static BREAKS: Artefact = series("breaks", ONE_SIZE, |_, _, out| {
            out.gate("share \"quoted\"", 0.6, ">= 0.85", false, Ok(()));
            out.gate(
                "R = 4 over R = 1",
                f64::NAN,
                ">= 2",
                false,
                Err("R = 4 not run".to_string()),
            );
        });
        let finished = [run_in_process(&HOLDS, &RUN), run_in_process(&BREAKS, &RUN)];
        assert_eq!((finished[0].exit_status, finished[1].exit_status), (0, 1));

        let manifest = telemetry::json::parse(&manifest_json(&RUN, &finished)).expect("the manifest is JSON");
        assert_eq!(manifest.get("tier").and_then(|v| v.as_str()), Some("kick-tires"));
        assert_eq!(manifest.get("nproc").and_then(|v| v.as_f64()), Some(2.0));
        let rows = manifest.get("artefacts").and_then(|v| v.as_array()).expect("artefact rows");
        let text = |row: &telemetry::json::Value, key: &str| row.get(key).and_then(|v| v.as_str()).map(str::to_string);
        let gates = |row: usize| rows[row].get("gates").and_then(|v| v.as_array()).expect("gates").to_vec();
        assert_eq!(
            (text(&rows[0], "status"), text(&rows[1], "status")),
            (Some("ok".into()), Some("FAILED".into()))
        );
        assert_eq!(rows[1].get("exit_status").and_then(|v| v.as_f64()), Some(1.0));
        let broken = gates(1);
        assert_eq!(text(&broken[0], "name").as_deref(), Some("share \"quoted\""));
        assert_eq!(text(&broken[0], "verdict").as_deref(), Some("failed"));
        assert_eq!(broken[0].get("value").and_then(|v| v.as_f64()), Some(0.6));
        assert_eq!(text(&broken[0], "threshold").as_deref(), Some(">= 0.85"));
        assert_eq!(
            (text(&broken[1], "verdict"), text(&broken[1], "why")),
            (Some("skipped".into()), Some("R = 4 not run".into()))
        );
        assert!(text(&gates(0)[1], "why").is_some_and(|why| why.contains("host has 2 core(s)")));
    }
}
