//! # experiments — regenerating every table and figure of the paper
//!
//! Two binaries (see `src/bin/`): `replicate`, the one entry point that
//! regenerates every artefact and runs every gate at one of two tiers, and
//! `mp_launcher`, the multi-process rendezvous. Both are built on the helpers
//! in this library, which the integration tests and the repository benchmark
//! drive directly too.
//!
//! The campaign model lives here, *above* the mini-app it models: [`workload`]
//! is the calibrated per-stage cost model of `sphsim`'s pipeline,
//! [`gpu_offload`] the paper-scale executor that runs it on simulated hardware
//! under PMT and Slurm, and [`mod@campaign`] the metered multi-rank runs of the
//! real step driver. `sphsim` depends on none of `hwmodel` or `slurm`.
//!
//! ```text
//! replicate <kick-tires|full> [artefact…] [--trace] [--transport shm|socket]
//! ```
//!
//! The artefacts — `table1`, `fig1`…`fig5`, `gallery`, `autotune`,
//! `weak-scaling`, `overlap`, `bins`, `residual` — are the rows of one table in
//! `src/bin/replicate.rs`; README tabulates what each regenerates or gates on.
//!
//! The tier is the only size selector. `kick-tires` is what CI runs: the paper
//! campaigns at [`Scale::Reduced`] (fewer nodes and timesteps, identical
//! shapes) and the smallest sweeps; `full` is the paper's node counts and 100
//! timesteps ([`Scale::Full`]) and the sizes README quotes. Everything lands
//! in `experiments_output/`, next to one `manifest.json`.

use energy_analysis::device_breakdown::{device_breakdown, DeviceBreakdown};
use energy_analysis::edp::EdpPoint;
use energy_analysis::function_breakdown::{function_breakdown, FunctionBreakdown};
use energy_analysis::validation::{pmt_node_level_energy, PmtSlurmComparison};
use energy_analysis::Table;
use hwmodel::arch::SystemKind;
use sphsim::scenario;
use sphsim::{ParticleSet, Scenario};
use std::path::PathBuf;
use std::sync::Arc;

pub mod campaign;
pub mod gpu_offload;
pub mod workload;

pub use campaign::{run_distributed_campaign, DistributedCampaignConfig, DistributedCampaignResult};
pub use gpu_offload::{run_campaign, run_campaign_governed, CampaignConfig, CampaignResult, MAIN_LOOP_LABEL};

/// The two Table-1 production scenarios of the paper.
pub fn table1_scenarios() -> Vec<&'static Scenario> {
    ["Turb", "Evr"]
        .iter()
        .map(|name| scenario::get(name).expect("built-in scenario"))
        .collect()
}

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A few nodes and a reduced number of timesteps: seconds of runtime,
    /// identical shapes.
    Reduced,
    /// The paper's production scale (Table 1 largest runs, 100 timesteps).
    Full,
}

impl Scale {
    /// Number of timesteps to run.
    pub fn timesteps(&self) -> u64 {
        match self {
            Scale::Reduced => 20,
            Scale::Full => 100,
        }
    }

    /// Number of ranks (GPU dies) for the breakdown experiments on a system.
    fn breakdown_ranks(&self, system: SystemKind, scenario: &Scenario) -> usize {
        match self {
            Scale::Reduced => match system {
                SystemKind::LumiG => 16,   // 2 nodes
                SystemKind::CscsA100 => 8, // 2 nodes
                SystemKind::MiniHpc => 2,  // 1 node
            },
            Scale::Full => {
                // Largest Table-1-style configuration for the scenario.
                let total = *scenario.global_particle_options().last().expect("particle options available");
                (total / scenario.particles_per_gpu).round() as usize
            }
        }
    }
}

/// Directory where experiment CSV series are written.
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from("experiments_output");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Write a table's CSV rendering into the output directory.
pub fn write_csv(table: &Table, filename: &str) -> std::io::Result<PathBuf> {
    let path = output_dir().join(filename);
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Flush the process-wide telemetry sink (if tracing is active) and print its
/// end-of-run summary through the shared `analysis` emitters: span
/// aggregates, gauges, counters and histograms. A no-op without
/// `SPHSIM_TRACE`.
pub fn print_telemetry_summary(title: &str) {
    let Some(sink) = telemetry::from_env() else {
        return;
    };
    sink.flush();
    let events = sink.events_snapshot();
    let snapshot = sink.metrics().snapshot();
    for table in energy_analysis::telemetry_tables(title, &events, &snapshot) {
        println!("{}", table.to_text());
    }
}

/// Run one campaign with the paper defaults for `system`/`scenario` at the
/// given rank count and timestep count.
pub fn campaign(system: SystemKind, scenario: &'static Scenario, n_ranks: usize, timesteps: u64) -> CampaignResult {
    let mut config = CampaignConfig::paper_defaults(system, scenario, n_ranks);
    config.timesteps = timesteps;
    run_campaign(&config)
}

/// Reduced-scale miniHPC configuration shared by the autotune-facing
/// artefacts (`autotune`, `gallery`):
/// identical per-stage EDP shape to the paper-scale runs, seconds of total
/// runtime.
pub fn reduced_minihpc_config(scenario: &'static Scenario, timesteps: u64) -> CampaignConfig {
    let mut config = CampaignConfig::paper_defaults(SystemKind::MiniHpc, scenario, 2);
    config.particles_per_rank = 25.0e6;
    config.timesteps = timesteps;
    config.setup_seconds = 10.0;
    config.teardown_seconds = 2.0;
    config
}

/// Run one campaign under a per-stage EDP hill-climb [`autotune::Governor`]
/// wired over the campaign's own cluster, returning the governor for
/// inspection alongside the measured result.
pub fn run_governed_edp_campaign(config: &CampaignConfig) -> (Arc<autotune::Governor>, CampaignResult) {
    let labels = config.scenario.stage_labels();
    let mut governor_slot: Option<Arc<autotune::Governor>> = None;
    let result = run_campaign_governed(config, |cluster| {
        let actuator = Arc::new(autotune::ClusterActuator::new(cluster.clone()));
        let governor = Arc::new(autotune::Governor::new(labels, actuator));
        governor_slot = Some(Arc::clone(&governor));
        vec![governor]
    });
    (governor_slot.expect("wire closure ran"), result)
}

// ---------------------------------------------------------------------------
// Rank equivalence
// ---------------------------------------------------------------------------

/// Absolute-or-relative agreement to 1e-10 — the one tolerance every
/// "R ranks ≡ 1 rank" and "socket ≡ shm" gate of the workspace uses.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-10 * a.abs().max(b.abs()).max(1.0)
}

/// One lane of one particle on which a shard and the reference are not
/// [`close`].
#[derive(Clone, Debug, PartialEq)]
pub struct LaneDisagreement {
    /// Name of the lane ([`ParticleSet::lane_names`]).
    pub lane: &'static str,
    /// Global id of the particle.
    pub id: u32,
    /// The shard's value.
    pub shard: f64,
    /// The reference's value.
    pub reference: f64,
}

/// Compare owned `(ids, particles)` shards with `reference`, whose slot *is*
/// the global id (a propagator that never reorders, or shards put back in id
/// order), over all 20 lanes of [`ParticleSet::lanes`]. Returns every
/// disagreement and the number of particles the shards cover, which the
/// caller holds against `reference.len()`.
pub fn shard_disagreements<'a>(
    shards: impl IntoIterator<Item = (&'a [u32], &'a ParticleSet)>,
    reference: &ParticleSet,
) -> (Vec<LaneDisagreement>, usize) {
    let reference_lanes = reference.lanes();
    let mut disagreements = Vec::new();
    let mut covered = 0usize;
    for (ids, particles) in shards {
        covered += ids.len();
        for ((lane, values), expected) in ParticleSet::lane_names()
            .into_iter()
            .zip(particles.lanes())
            .zip(reference_lanes)
        {
            for (&id, &shard) in ids.iter().zip(values) {
                let reference = expected[id as usize];
                if !close(shard, reference) {
                    disagreements.push(LaneDisagreement {
                        lane,
                        id,
                        shard,
                        reference,
                    });
                }
            }
        }
    }
    (disagreements, covered)
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Regenerate Table 1: simulation and computing-system parameters.
pub fn table1() -> (Table, Table) {
    let mut sim = Table::new(
        "Table 1 (top): simulation parameters",
        &[
            "simulation",
            "global particles [billions]",
            "particles per GPU",
            "timesteps",
        ],
    );
    for scenario in table1_scenarios() {
        let billions: Vec<String> = scenario
            .global_particle_options()
            .iter()
            .map(|p| format!("{:.1}", p / 1.0e9))
            .collect();
        sim.add_row(&[
            scenario.name.to_string(),
            billions.join("|"),
            format!("{:.0e}", scenario.particles_per_gpu),
            scenario::TIMESTEPS.to_string(),
        ]);
    }

    let mut sys = Table::new(
        "Table 1 (bottom): computing-system parameters",
        &[
            "system",
            "CPUs per node",
            "GPUs per node",
            "GPU compute freq [MHz]",
            "GPU memory freq [MHz]",
        ],
    );
    for kind in SystemKind::all() {
        let node = kind.node_builder().build();
        let spec = node.spec();
        let gpu = &spec.gpus[0];
        let cpus = spec
            .cpus
            .iter()
            .map(|c| format!("{} ({} cores)", c.name, c.cores))
            .collect::<Vec<_>>()
            .join(" + ");
        let gpus = format!("{}x {} ({} dies/card)", spec.gpus.len(), gpu.name, gpu.dies_per_card);
        sys.add_row(&[
            kind.name().to_string(),
            cpus,
            gpus,
            format!("{:.0}", kind.nominal_gpu_frequency_hz() / 1.0e6),
            format!("{:.0}", gpu.memory_freq_hz / 1.0e6),
        ]);
    }
    (sim, sys)
}

// ---------------------------------------------------------------------------
// Figure 1: PMT vs Slurm validation
// ---------------------------------------------------------------------------

/// Run the Figure 1 sweep on one system: Subsonic Turbulence on `gpu_cards`
/// physical cards, comparing PMT (time-stepping loop, node-level counters) with
/// Slurm (whole job).
pub fn fig1_series(system: SystemKind, gpu_cards: &[usize], timesteps: u64) -> Vec<PmtSlurmComparison> {
    let dies_per_card = system.node_builder().spec().dies_per_card();
    let turb = scenario::get("Turb").expect("built-in scenario");
    gpu_cards
        .iter()
        .map(|&cards| {
            let n_ranks = cards * dies_per_card;
            let result = campaign(system, turb, n_ranks, timesteps);
            let pmt = pmt_node_level_energy(&result.rank_reports, &result.mapping, MAIN_LOOP_LABEL);
            PmtSlurmComparison {
                gpu_cards: cards,
                pmt_energy_j: pmt,
                slurm_energy_j: result.sacct.consumed_energy_j,
            }
        })
        .collect()
}

/// Render a Figure 1 series as a table.
pub fn fig1_table(system: SystemKind, series: &[PmtSlurmComparison]) -> Table {
    let mut t = Table::new(
        format!("Figure 1: PMT vs Slurm energy — {}", system.name()),
        &[
            "gpu_cards",
            "pmt_energy_j",
            "slurm_energy_j",
            "pmt_over_slurm",
            "underestimation_%",
        ],
    );
    for c in series {
        t.add_row(&[
            c.gpu_cards.to_string(),
            format!("{:.0}", c.pmt_energy_j),
            format!("{:.0}", c.slurm_energy_j),
            format!("{:.3}", c.ratio()),
            format!("{:.1}", c.underestimation_percent()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 2: device breakdown
// ---------------------------------------------------------------------------

/// The four runs of Figure 2 in paper order.
fn fig2_runs() -> Vec<(SystemKind, &'static Scenario, &'static str)> {
    let turb = scenario::get("Turb").expect("built-in scenario");
    let evr = scenario::get("Evr").expect("built-in scenario");
    vec![
        (SystemKind::LumiG, turb, "LUMI-Turb"),
        (SystemKind::LumiG, evr, "LUMI-Evr"),
        (SystemKind::CscsA100, turb, "CSCS-A100-Turb"),
        (SystemKind::CscsA100, evr, "CSCS-A100-Evr"),
    ]
}

/// Run Figure 2: device-level breakdown of the four runs.
pub fn fig2_breakdowns(scale: Scale) -> Vec<(String, DeviceBreakdown)> {
    fig2_runs()
        .into_iter()
        .map(|(system, scenario, label)| {
            let ranks = scale.breakdown_ranks(system, scenario);
            let result = campaign(system, scenario, ranks, scale.timesteps());
            let breakdown = device_breakdown(&result.rank_reports, &result.mapping, MAIN_LOOP_LABEL);
            (label.to_string(), breakdown)
        })
        .collect()
}

/// Render Figure 2 as a table.
pub fn fig2_table(breakdowns: &[(String, DeviceBreakdown)]) -> Table {
    let mut t = Table::new(
        "Figure 2: device breakdown of consumed energy",
        &["run", "GPU_%", "CPU_%", "MEM_%", "Other_%", "total_MJ"],
    );
    for (label, b) in breakdowns {
        let p = b.percentages();
        t.add_row(&[
            label.clone(),
            format!("{:.1}", p[0]),
            format!("{:.1}", p[1]),
            format!("{:.1}", p[2]),
            format!("{:.1}", p[3]),
            format!("{:.2}", b.total_mj()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 3: per-function breakdown
// ---------------------------------------------------------------------------

/// Run Figure 3: per-function energy breakdown for the four runs of Figure 2.
pub fn fig3_breakdowns(scale: Scale) -> Vec<(String, FunctionBreakdown)> {
    fig2_runs()
        .into_iter()
        .map(|(system, scenario, label)| {
            let ranks = scale.breakdown_ranks(system, scenario);
            let result = campaign(system, scenario, ranks, scale.timesteps());
            let fb = function_breakdown(&result.rank_reports, &result.mapping, &[MAIN_LOOP_LABEL]);
            (label.to_string(), fb)
        })
        .collect()
}

/// Render one run's Figure 3 breakdown as a table (GPU and CPU shares).
pub fn fig3_table(label: &str, fb: &FunctionBreakdown) -> Table {
    let mut t = Table::new(
        format!("Figure 3: per-function energy breakdown — {label}"),
        &["function", "gpu_energy_J", "gpu_share_%", "cpu_energy_J", "cpu_share_%"],
    );
    for name in fb.labels_by_energy() {
        let f = fb.function(&name).expect("label from the same breakdown");
        t.add_row(&[
            name.clone(),
            format!("{:.0}", f.gpu_j),
            format!("{:.2}", fb.gpu_share_percent(&name)),
            format!("{:.0}", f.cpu_j),
            format!("{:.2}", fb.cpu_share_percent(&name)),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: GPU frequency scaling on miniHPC
// ---------------------------------------------------------------------------

/// GPU compute frequencies swept in the paper (Figures 4 and 5), in Hz.
fn fig4_frequencies() -> Vec<f64> {
    vec![1005.0e6, 1110.0e6, 1215.0e6, 1305.0e6, 1410.0e6]
}

/// Particle-per-GPU counts swept in Figure 4 (cube side lengths from the paper).
fn fig4_particle_cubes() -> Vec<u64> {
    vec![200, 250, 350, 450]
}

/// Run the Figure 4 sweep: EDP of the turbulence run on miniHPC for each
/// (particles-per-GPU, frequency) pair.
pub fn fig4_sweep(timesteps: u64) -> Vec<(u64, Vec<EdpPoint>)> {
    fig4_particle_cubes()
        .into_iter()
        .map(|cube| {
            let particles_per_rank = (cube * cube * cube) as f64;
            let turb = scenario::get("Turb").expect("built-in scenario");
            let points = fig4_frequencies()
                .into_iter()
                .map(|freq| {
                    let mut config = CampaignConfig::paper_defaults(SystemKind::MiniHpc, turb, 2);
                    config.particles_per_rank = particles_per_rank;
                    config.timesteps = timesteps;
                    config.gpu_frequency_hz = Some(freq);
                    let result = run_campaign(&config);
                    EdpPoint {
                        frequency_hz: freq,
                        energy_j: result.true_main_loop_energy_j,
                        time_s: result.main_loop_duration_s(),
                    }
                })
                .collect();
            (cube, points)
        })
        .collect()
}

/// Render Figure 4 as a table of normalised EDP values.
pub fn fig4_table(sweep: &[(u64, Vec<EdpPoint>)]) -> Table {
    let mut t = Table::new(
        "Figure 4: normalised EDP vs GPU compute frequency (miniHPC, Subsonic Turbulence)",
        &[
            "particles_per_gpu",
            "frequency_MHz",
            "energy_J",
            "time_s",
            "edp_normalized_%",
        ],
    );
    for (cube, points) in sweep {
        let normalized = energy_analysis::normalized_edp_series(points, 1410.0e6)
            .expect("figure 4 sweeps are non-empty with positive EDP");
        for (point, (freq, norm)) in points.iter().zip(normalized) {
            t.add_row(&[
                format!("{cube}^3"),
                format!("{:.0}", freq / 1.0e6),
                format!("{:.0}", point.energy_j),
                format!("{:.1}", point.time_s),
                format!("{:.1}", norm * 100.0),
            ]);
        }
    }
    t
}

/// Run the Figure 5 sweep: per-function EDP on miniHPC with 450³ particles per
/// GPU, across the frequency range, normalised per function to the 1410 MHz run.
pub fn fig5_sweep(timesteps: u64) -> Vec<(String, Vec<(f64, f64)>)> {
    let cube = 450u64;
    let particles_per_rank = (cube * cube * cube) as f64;
    // Collect per-function (freq, edp) samples.
    let mut per_function: std::collections::BTreeMap<String, Vec<(f64, f64)>> = std::collections::BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let turb = scenario::get("Turb").expect("built-in scenario");
    for freq in fig4_frequencies() {
        let mut config = CampaignConfig::paper_defaults(SystemKind::MiniHpc, turb, 2);
        config.particles_per_rank = particles_per_rank;
        config.timesteps = timesteps;
        config.gpu_frequency_hz = Some(freq);
        let result = run_campaign(&config);
        let fb = function_breakdown(&result.rank_reports, &result.mapping, &[MAIN_LOOP_LABEL]);
        for f in &fb.functions {
            if !per_function.contains_key(&f.label) {
                order.push(f.label.clone());
            }
            let edp = (f.gpu_j + f.cpu_j + f.mem_j) * f.time_s;
            per_function.entry(f.label.clone()).or_default().push((freq, edp));
        }
    }
    // Normalise each function to its 1410 MHz point.
    order
        .into_iter()
        .map(|label| {
            let points = per_function.remove(&label).unwrap_or_default();
            let baseline = points
                .iter()
                .find(|(f, _)| (*f - 1410.0e6).abs() < 1.0e3)
                .map(|(_, e)| *e)
                .unwrap_or(1.0);
            let series = points
                .into_iter()
                .map(|(f, e)| (f, if baseline > 0.0 { e / baseline } else { 0.0 }))
                .collect();
            (label, series)
        })
        .collect()
}

/// Render Figure 5 as a table.
pub fn fig5_table(sweep: &[(String, Vec<(f64, f64)>)]) -> Table {
    let mut t = Table::new(
        "Figure 5: normalised per-function EDP vs GPU compute frequency (miniHPC, 450^3 per GPU)",
        &["function", "frequency_MHz", "edp_normalized_%"],
    );
    for (label, series) in sweep {
        for (freq, norm) in series {
            t.add_row(&[
                label.clone(),
                format!("{:.0}", freq / 1.0e6),
                format!("{:.1}", norm * 100.0),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_three_systems_and_two_cases() {
        let (sim, sys) = table1();
        assert_eq!(sim.row_count(), 2);
        assert_eq!(sys.row_count(), 3);
        assert!(sys.to_text().contains("LUMI-G"));
        assert!(sim.to_csv().contains("14.7"));
    }

    #[test]
    fn table1_scenarios_are_the_paper_pair() {
        let pair = table1_scenarios();
        assert_eq!(pair.len(), 2);
        assert_eq!(pair[0].short_name, "Turb");
        assert_eq!(pair[1].short_name, "Evr");
    }

    #[test]
    fn fig1_small_sweep_shows_slurm_above_pmt() {
        let series = fig1_series(SystemKind::CscsA100, &[1, 2], 5);
        assert_eq!(series.len(), 2);
        for c in &series {
            assert!(c.slurm_energy_j > c.pmt_energy_j, "Slurm must include the setup phase");
            // With only 5 timesteps the setup phase dominates the Slurm window,
            // so the ratio is small but must stay strictly between 0 and 1.
            assert!(c.ratio() > 0.01 && c.ratio() < 1.0, "ratio {}", c.ratio());
        }
        // Energy grows with the number of cards.
        assert!(series[1].slurm_energy_j > series[0].slurm_energy_j);
        let table = fig1_table(SystemKind::CscsA100, &series);
        assert_eq!(table.row_count(), 2);
    }

    #[test]
    fn fig4_frequencies_span_paper_range() {
        let f = fig4_frequencies();
        assert_eq!(*f.last().unwrap(), 1410.0e6);
        assert_eq!(f[0], 1005.0e6);
        assert_eq!(fig4_particle_cubes(), vec![200, 250, 350, 450]);
    }

    #[test]
    fn scale_sizes_are_reduced_and_paper() {
        let turb = scenario::get("Turb").unwrap();
        let evr = scenario::get("Evr").unwrap();
        assert_eq!(Scale::Reduced.timesteps(), 20);
        assert_eq!(Scale::Full.timesteps(), 100);
        assert!(Scale::Full.breakdown_ranks(SystemKind::LumiG, turb) > 90);
        assert_eq!(Scale::Reduced.breakdown_ranks(SystemKind::CscsA100, evr), 8);
    }
}
