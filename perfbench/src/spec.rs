//! The frozen benchmark definition: workloads, their sizes, and the metric
//! tables. `BENCHMARK.json` lists the same names, units and bounds; the
//! `benchmark_json_matches_the_tables` test keeps the two in step.

use energy_aware_sim::sphsim::SphStage;

/// `--seconds` value the step budgets below were calibrated for on the
/// 2-vCPU reference host (`run_seconds` in `BENCHMARK.json`). Another value
/// scales every workload's step budget linearly.
pub const REF_SECONDS: f64 = 16.0;

/// How many times a run sets the workload up; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// How long a timed loop runs. The driver varies the seed between runs, so a
/// budget must buy the same work for every seed.
///
/// With a global timestep every step costs the same, and the step count to a
/// fixed physical time moves 3–12 % with the seed (49–52 steps for
/// `sedov_global`, 39–44 for `turb_ranks_instrumented`): those workloads take
/// a fixed number of steps. With timestep bins it is the other way round: a
/// cycle costs what the blast's extent at that time makes it cost (0.3 s at
/// t = 0.005, 1.3 s at t = 0.06), seeds differ in how far 22 cycles carry them
/// (t = 0.063–0.075, 14–18 s), and the cost per unit of simulated time at a
/// given time is the same within 3 %: that workload runs to a fixed time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// `step()` calls; repetitions of the experiment set for `paper_campaign`.
    Steps(u64),
    /// Simulated time at which the loop stops (after the step that reaches it).
    SimTime(f64),
}

impl Budget {
    /// `share` of this budget, at least one step.
    pub fn scaled(self, share: f64) -> Self {
        match self {
            Budget::Steps(n) => Budget::Steps(((n as f64 * share).round() as u64).max(1)),
            Budget::SimTime(t) => Budget::SimTime(t * share),
        }
    }

    pub fn reached(self, steps: u64, time: f64) -> bool {
        match self {
            Budget::Steps(n) => steps >= n,
            Budget::SimTime(t) => time >= t,
        }
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Budget::Steps(n) => write!(f, "steps:{n}"),
            Budget::SimTime(t) => write!(f, "time:{t}"),
        }
    }
}

impl std::str::FromStr for Budget {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, String> {
        let parsed = match text.split_once(':') {
            Some(("steps", n)) => n.parse().ok().map(Budget::Steps),
            Some(("time", t)) => t.parse().ok().map(Budget::SimTime),
            _ => None,
        };
        parsed.ok_or_else(|| format!("cannot read the budget {text:?}"))
    }
}

/// One workload: a fixed problem, fixed on every commit.
pub struct Spec {
    pub name: &'static str,
    /// The one-line reason the workload exists (`why` in `BENCHMARK.json`).
    pub why: &'static str,
    /// Registry name of the SPH scenario; empty for `paper_campaign`.
    pub scenario: &'static str,
    /// Target particle count handed to the IC generator.
    pub n: usize,
    pub ranks: usize,
    /// `SPHSIM_THREADS` of the child.
    pub threads: usize,
    /// `with_timestep_bins` argument (1 = global dt).
    pub bins: usize,
    /// Length of the timed loop at `REF_SECONDS`.
    pub budget: Budget,
    /// Untimed steps before the timed loop (a binned run then finishes its
    /// first rung-0 cycle).
    pub warmup_steps: u64,
    /// Allowed relative drift of the total energy over the timed loop.
    pub energy_drift_bound: f64,
}

impl Spec {
    pub fn is_campaign(&self) -> bool {
        self.scenario.is_empty()
    }

    pub fn transport(&self) -> &'static str {
        if self.ranks > 1 {
            "socket"
        } else {
            "none"
        }
    }
}

/// The five workloads. `kick_tires` shrinks each to a few steps of N ≈ 2000
/// (and the campaign to one reduced-scale set) for the tests.
///
/// Busy threads = ranks × threads never exceed 2, the reference host's core
/// count, and are 1 wherever the workload's point does not need more: on that
/// host a two-thread run throws a +25–30 % outlier about one time in four.
pub fn specs(kick_tires: bool) -> Vec<Spec> {
    let size = |full: usize| if kick_tires { 2000 } else { full };
    let steps = |full: u64, small: u64| Budget::Steps(if kick_tires { small } else { full });
    vec![
        Spec {
            name: "sedov_global",
            why: "Single-thread baseline and kernel workload: Sedov N=64000, global dt, all rows every step; pair kernels are 77% of wall, FindNeighbors 18%; bypasses threads, bins and comm.",
            scenario: "Sedov",
            n: size(64_000),
            ranks: 1,
            threads: 1,
            bins: 1,
            budget: steps(52, 8),
            warmup_steps: 3,
            energy_drift_bound: 0.30,
        },
        Spec {
            name: "sedov_bins",
            why: "Same ICs with 4 dt bins at 2 threads: small active-row subsets through the _rows kernels and subset-CSR build; the only workload where sphsim::parallel spawns threads.",
            scenario: "Sedov",
            n: size(64_000),
            ranks: 1,
            threads: 2,
            bins: 4,
            budget: Budget::SimTime(if kick_tires { 0.04 } else { 0.066 }),
            warmup_steps: 1,
            energy_drift_bound: 0.60,
        },
        Spec {
            name: "evrard_gravity",
            why: "Evrard N=20000, 1 thread: the only workload where the octree is useful work (Gravity 26%) and where 60% of wall is driver residual (direct-sum potential in the step summary).",
            scenario: "Evr",
            n: size(20_000),
            ranks: 1,
            threads: 1,
            bins: 1,
            budget: steps(14, 3),
            warmup_steps: 1,
            energy_drift_bound: 0.05,
        },
        Spec {
            name: "turb_ranks_instrumented",
            why: "The paper's use: Turb N=64000 on 2 ranks over sockets, per-rank PMT hooks on GPU-die sensors, telemetry sink, reports gathered at rank 0; exercises distributed, comm, transport, pmt.",
            scenario: "Turb",
            n: size(64_000),
            ranks: 2,
            threads: 1,
            bins: 1,
            budget: steps(40, 5),
            warmup_steps: 2,
            energy_drift_bound: 1.0,
        },
        Spec {
            name: "paper_campaign",
            why: "Table 1, Figures 1-5 at full scale plus a governed EDP campaign, 4 times, on the simulated clock: pmt at a high region rate, hwmodel, slurm, autotune, analysis; touches no SPH kernel.",
            scenario: "",
            n: 0,
            ranks: 1,
            threads: 1,
            bins: 1,
            budget: steps(4, 1),
            warmup_steps: 1,
            energy_drift_bound: 0.0,
        },
    ]
}

/// End-to-end metrics: name, unit, bound. Lower is better for all four.
///
/// The time bounds are as wide as the reference host is noisy: identical work
/// (30 Sedov steps from one seed, repeated 16 times over three minutes)
/// spreads 16 % between quartiles there in raw seconds; in reference-host
/// seconds (see `hostspeed`) ten seeds spread 2–9 %, and the medians of two
/// such sets half an hour apart differ by up to 9 %.
pub const E2E: [(&str, &str, f64); 4] = [
    ("time_to_solution_s", "s", 0.25),
    ("cpu_s_to_solution", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
    ("setup_s", "s", 0.25),
];

/// Label of the benchmark's own region around every `step()` call (and around
/// every repetition of the campaign set).
pub const STEP_LABEL: &str = "Step";

/// Region label emitted by the distributed driver in addition to the
/// [`SphStage`] labels.
pub const GHOST_POST_LABEL: &str = "GhostExchangePost";

/// Every region label the step drivers emit through the hooks.
pub fn stage_labels() -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = SphStage::all().iter().map(|s| s.label()).collect();
    labels.push(GHOST_POST_LABEL);
    labels
}

/// The experiment calls of one campaign set, in execution order.
pub const CAMPAIGN_CALLS: [&str; 7] = ["table1", "fig1", "fig2", "fig3", "fig4", "fig5", "governed"];

/// Per-layer metrics other than the `stage.*_s` and `campaign.*_s` rows:
/// layer, name, unit, better.
/// (Layer and name are kept apart because sphlint reserves dotted literals
/// that start with `comm.` or `pmt.` for telemetry names.)
const LAYER_TABLE: [(&str, &str, &str, &str); 36] = [
    ("driver", "steps", "count", "lower"),
    ("driver", "cycles", "count", "lower"),
    ("driver", "step_s", "s", "lower"),
    ("driver", "residual_s", "s", "lower"),
    ("driver", "residual_frac", "frac", "lower"),
    ("driver", "rank_imbalance", "ratio", "lower"),
    ("parallel", "dispatch_us", "us", "lower"),
    ("comm", "calls", "count", "lower"),
    ("comm", "messages", "count", "lower"),
    ("comm", "bytes", "bytes", "lower"),
    ("comm", "allreduce_calls", "count", "lower"),
    ("comm", "allgather_calls", "count", "lower"),
    ("comm", "alltoall_calls", "count", "lower"),
    ("comm", "p2p_calls", "count", "lower"),
    ("comm", "posted_s", "s", "lower"),
    ("comm", "overlapped_s", "s", "lower"),
    ("comm", "waited_s", "s", "lower"),
    ("comm", "hidden_frac", "frac", "higher"),
    ("comm", "rebalances", "count", "lower"),
    ("comm", "ghosts", "count", "lower"),
    ("transport", "socket_rtt_us", "us", "lower"),
    ("transport", "shm_rtt_us", "us", "lower"),
    ("transport", "socket_mb_per_s", "MB/s", "higher"),
    ("pmt", "region_pair_us", "us", "lower"),
    ("pmt", "regions", "count", "lower"),
    ("pmt", "polls", "count", "lower"),
    ("pmt", "dropped", "count", "lower"),
    ("pmt", "overhead_frac", "frac", "lower"),
    ("telemetry", "span_ns_enabled", "ns", "lower"),
    ("telemetry", "span_ns_disabled", "ns", "lower"),
    ("telemetry", "events", "count", "lower"),
    ("campaign", "regions", "count", "lower"),
    ("campaign", "pmt_over_slurm_lumi", "ratio", "higher"),
    ("campaign", "pmt_over_slurm_a100", "ratio", "higher"),
    ("autotune", "decisions", "count", "lower"),
    ("trace", "overhead_frac", "frac", "lower"),
];

/// `layer.name`.
pub fn key(layer: &str, name: &str) -> String {
    format!("{layer}.{name}")
}

/// Every per-layer metric of the traced pass, in output order: name, unit,
/// better.
pub fn layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = stage_labels()
        .iter()
        .map(|l| (key("stage", &format!("{l}_s")), "s", "lower"))
        .collect();
    out.extend(
        CAMPAIGN_CALLS
            .iter()
            .map(|c| (key("campaign", &format!("{c}_s")), "s", "lower")),
    );
    out.extend(
        LAYER_TABLE
            .iter()
            .map(|(layer, name, unit, better)| (key(layer, name), *unit, *better)),
    );
    out
}

/// The benchmark definition as the members of `BENCHMARK.json` that this
/// source fixes (`--describe` prints it; a test compares the two).
pub fn describe() -> String {
    let workloads: Vec<String> = specs(false)
        .iter()
        .map(|s| format!("{{\"name\":\"{}\",\"why\":\"{}\"}}", s.name, s.why))
        .collect();
    let end_to_end: Vec<String> = E2E
        .iter()
        .map(|(name, unit, bound)| {
            format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"lower\",\"bound\":{bound}}}")
        })
        .collect();
    let per_layer: Vec<String> = layer_metrics()
        .iter()
        .map(|(name, unit, better)| format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}"))
        .collect();
    format!(
        "{{\"run_seconds\":{REF_SECONDS},\"workloads\":[{}],\"end_to_end\":[{}],\"per_layer\":[{}]}}",
        workloads.join(","),
        end_to_end.join(","),
        per_layer.join(",")
    )
}

/// Per-layer metrics that are exact counts or deterministic values: `--compare`
/// demands equality, and the tests demand they repeat for a repeated seed.
pub fn is_exact(metric: &str) -> bool {
    let (layer, name) = metric.split_once('.').unwrap_or(("", metric));
    match layer {
        "driver" => matches!(name, "steps" | "cycles"),
        "comm" => !name.ends_with("_s") && name != "hidden_frac",
        "pmt" => matches!(name, "regions" | "polls" | "dropped"),
        "telemetry" => name == "events",
        "campaign" => !name.ends_with("_s"),
        "autotune" => true,
        _ => false,
    }
}
