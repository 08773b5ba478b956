//! The repository benchmark. See `README.md` beside this package.
//!
//! ```text
//! perfbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--reps <k>]
//! perfbench --compare <a.jsonl> <b.jsonl>
//! perfbench --describe
//! ```
//!
//! The parent process runs each workload in fresh child processes (itself,
//! with `--child`) and only waits while one runs: the worker-thread count is
//! latched per process and `VmHWM` must be per workload. It prints one record
//! line per run (metrics, checks, run manifest) and, for a single workload,
//! the driver's result object as the last line.

mod child;
mod compare;
mod hostspeed;
mod probes;
mod record;
mod spec;

use child::ChildArgs;
use record::{checks_json, median, quoted, strings_json, Report};
use spec::{key, layer_metrics, specs, Budget, Spec, E2E, REF_SECONDS, SETUP_REPS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Name of the probe child (not a workload).
const PROBES: &str = "probes";

/// Share of a workload's budget that each pass of a traced run takes.
const TRACED_SHARE: f64 = 0.5;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    reps: usize,
    kick_tires: bool,
    /// Child mode: run this workload (or the probes) in this process.
    child: Option<String>,
    budget: Budget,
    setup_only: bool,
    compare: Option<(String, String)>,
    describe: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 7,
        seconds: REF_SECONDS,
        traced: false,
        reps: 1,
        kick_tires: false,
        child: None,
        budget: Budget::Steps(0),
        setup_only: false,
        compare: None,
        describe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse().map_err(|_| format!("{flag}: cannot read {text:?}"))
        }
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = number(flag, value()?)?,
            "--seconds" => o.seconds = number(flag, value()?)?,
            "--trace" => o.traced = number::<u8>(flag, value()?)? != 0,
            "--traced" => o.traced = true,
            "--reps" => o.reps = number(flag, value()?)?,
            "--kick-tires" => o.kick_tires = true,
            "--child" => o.child = Some(value()?),
            "--budget" => o.budget = number(flag, value()?)?,
            "--setup-only" => o.setup_only = true,
            "--compare" => o.compare = Some((value()?, value()?)),
            "--describe" => o.describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(o.seconds.is_finite() && o.seconds > 0.0) || o.reps == 0 {
        return Err("--seconds and --reps must be positive".to_string());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_options(&args).and_then(|o| {
        if o.describe {
            println!("{}", spec::describe());
            Ok(())
        } else if let Some((a, b)) = &o.compare {
            compare::run(a, b)
        } else if let Some(name) = &o.child {
            run_child(name, &o, start)
        } else {
            run_parent(&o)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn find_spec(name: &str, kick_tires: bool) -> Result<Spec, String> {
    let all = specs(kick_tires);
    let names: Vec<&str> = all.iter().map(|s| s.name).collect();
    all.into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}; the workloads are {}", names.join(", ")))
}

fn run_child(name: &str, o: &Options, start: Instant) -> Result<(), String> {
    let report = if name == PROBES {
        probes::run(o.kick_tires)
    } else {
        let args = ChildArgs {
            seed: o.seed,
            budget: o.budget,
            traced: o.traced,
            setup_only: o.setup_only,
            kick_tires: o.kick_tires,
        };
        child::run(&find_spec(name, o.kick_tires)?, &args, start)
    };
    println!("{}", report.to_json());
    Ok(())
}

/// Spawn this program as a child, wait for it, and read its report.
fn spawn_child(name: &str, threads: usize, o: &Options, extra: &[String]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--child", name, "--seed", &o.seed.to_string()]).args(extra);
    if o.kick_tires {
        command.arg("--kick-tires");
    }
    // No trace sink from the caller's environment: every instrumentation
    // point of an untraced run must stay on its disabled path.
    command.env("SPHSIM_THREADS", threads.to_string()).env_remove("SPHSIM_TRACE");
    let output = command.output().map_err(|e| format!("{name}: cannot start the child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{name}: the child failed ({}):\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: the child printed nothing"))?;
    Report::from_json(line).map_err(|e| format!("{name}: {e}"))
}

/// Metric values in output order: name, unit, value.
type Metrics = Vec<(String, &'static str, f64)>;

/// The members of the driver's result object.
fn result_members(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = energy_aware_sim::telemetry::event::format_f64(*value);
            format!("{}:{{\"value\":{value},\"unit\":{}}}", quoted(name), quoted(unit))
        })
        .collect();
    format!(
        "\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}",
        failed == 0,
        entries.join(",")
    )
}

/// One finished run of one workload, ready to print.
struct Record {
    workload: &'static str,
    traced: bool,
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    report: Report,
}

impl Record {
    /// The result object's members plus workload, pass, checks and manifest.
    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{},\"trace\":{},{},\"checks\":{},\"manifest\":{}}}",
            quoted(self.workload),
            u8::from(self.traced),
            result_members(self.attempted, self.failed, &self.metrics),
            checks_json(&self.report.checks),
            strings_json(&self.report.manifest)
        )
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and build half of the run manifest (the child adds what only it
/// can see: particles generated, worker threads, end time).
fn host_manifest(spec: &Spec, nproc: usize) -> BTreeMap<String, String> {
    let mut m = BTreeMap::new();
    let mut note = |k: &str, v: String| m.insert(k.to_string(), v);
    note("git_revision", command_line("git", &["rev-parse", "HEAD"]));
    note("rustc", command_line("rustc", &["--version"]));
    note("nproc", nproc.to_string());
    note("ranks", spec.ranks.to_string());
    note("sphsim_threads", spec.threads.to_string());
    note("transport", spec.transport().to_string());
    note("bins", spec.bins.to_string());
    #[cfg(target_arch = "x86_64")]
    for (feature, detected) in [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ("avx512vl", std::arch::is_x86_feature_detected!("avx512vl")),
    ] {
        note(feature, detected.to_string());
    }
    m
}

fn run_workload(spec: &Spec, o: &Options, nproc: usize) -> Result<Record, String> {
    // The arguments of a child doing `share` of the workload.
    let budget_args = |share: f64, traced: bool| -> Vec<String> {
        let budget = spec.budget.scaled(share * o.seconds / REF_SECONDS);
        vec![
            "--budget".to_string(),
            budget.to_string(),
            "--trace".to_string(),
            u8::from(traced).to_string(),
        ]
    };
    let mut metrics = Vec::new();
    let mut report = if o.traced {
        // The same shortened run untraced and traced — together about one
        // untraced run's length — and the difference between the two is the
        // tracing overhead.
        let plain = spawn_child(spec.name, spec.threads, o, &budget_args(TRACED_SHARE, false))?;
        let mut traced = spawn_child(spec.name, spec.threads, o, &budget_args(TRACED_SHARE, true))?;
        let probes = spawn_child(PROBES, 2, o, &[])?;
        traced.values.extend(probes.values);
        let (time, plain_time) = (traced.get("time_to_solution_s"), plain.get("time_to_solution_s"));
        traced.layer("trace", "overhead_frac", (time - plain_time) / plain_time);
        // Computed, not measured: regions per rank × the probed pair cost.
        let regions_per_rank = traced.get(&key("pmt", "regions")) / spec.ranks as f64;
        let pair_s = traced.get(&key("pmt", "region_pair_us")) * 1e-6;
        traced.layer(
            "pmt",
            "overhead_frac",
            regions_per_rank * pair_s / traced.get("raw_wall_s"),
        );
        traced.set("steps", traced.get("steps") + plain.get("steps"));
        traced.set("failed_steps", traced.get("failed_steps") + plain.get("failed_steps"));
        traced.checks.extend(plain.checks);
        for (name, unit, _) in layer_metrics() {
            metrics.push((name.clone(), unit, traced.get(&name)));
        }
        traced
    } else {
        let mut setups = Vec::new();
        for _ in 1..SETUP_REPS {
            let mut extra = budget_args(1.0, false);
            extra.push("--setup-only".to_string());
            setups.push(spawn_child(spec.name, spec.threads, o, &extra)?.get("setup_s"));
        }
        let mut full = spawn_child(spec.name, spec.threads, o, &budget_args(1.0, false))?;
        setups.push(full.get("setup_s"));
        full.set("setup_s", median(&setups));
        for (name, unit, _) in E2E {
            metrics.push((name.to_string(), unit, full.get(name)));
        }
        full
    };
    report.manifest.extend(host_manifest(spec, nproc));
    let attempted = report.get("steps") as u64 + report.checks.len() as u64;
    let failed = report.get("failed_steps") as u64 + report.failed_checks() as u64;
    Ok(Record {
        workload: spec.name,
        traced: o.traced,
        metrics,
        attempted,
        failed,
        report,
    })
}

fn run_parent(o: &Options) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let selected: Vec<Spec> = match &o.workload {
        Some(name) => vec![find_spec(name, o.kick_tires)?],
        None => specs(o.kick_tires),
    };
    for spec in &selected {
        // Oversubscribed cores are what made the previous benchmark noisy.
        if spec.ranks * spec.threads > nproc {
            return Err(format!(
                "workload {} needs {} busy threads ({} ranks x {} threads) but this host has {nproc} cores",
                spec.name,
                spec.ranks * spec.threads,
                spec.ranks,
                spec.threads
            ));
        }
    }
    let mut last: Vec<Record> = Vec::new();
    for spec in &selected {
        last.clear();
        for _ in 0..o.reps {
            let record = run_workload(spec, o, nproc)?;
            for check in record.report.checks.iter().filter(|c| !c.ok) {
                eprintln!(
                    "perfbench: {}: check {} failed: {}",
                    spec.name, check.name, check.detail
                );
            }
            println!("{}", record.to_json());
            last.push(record);
        }
    }
    if o.workload.is_some() {
        // The driver's result: each metric's median over the repetitions.
        let medians: Metrics = (0..last[0].metrics.len())
            .map(|i| {
                let (name, unit, _) = &last[0].metrics[i];
                let values: Vec<f64> = last.iter().map(|r| r.metrics[i].2).collect();
                (name.clone(), *unit, median(&values))
            })
            .collect();
        let attempted = last.iter().map(|r| r.attempted).sum();
        let failed: u64 = last.iter().map(|r| r.failed).sum();
        println!("{{{}}}", result_members(attempted, failed, &medians));
    }
    Ok(())
}
