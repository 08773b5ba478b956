//! Per-stage step-throughput benchmark of the SPH hot path.
//!
//! Times the neighbour-pipeline stages and the gravity walk of the step
//! driver's data path — Morton-sorted storage, cell grid, CSR neighbour lists
//! and the Gravity stage's octree arena through a `StepWorkspace` — on the
//! Evrard case, a
//! scaled-down stand-in for the paper's Table-1 sizing (80 M particles/GPU is
//! not steppable on a laptop).
//!
//! The state is held static (the same configuration is re-timed `steps`
//! times and the minimum per stage is kept). Results are written as
//! `BENCH_step_throughput.json` (`after_pps`: particles/sec per stage — the
//! key the committed baseline and history files have always carried, next to
//! the `before_pps`/`speedup` columns of a retired comparison pipeline that
//! older entries still hold and nothing reads). Environment knobs:
//!
//! * `SPHSIM_BENCH_N` — particle count (default 50000)
//! * `SPHSIM_BENCH_STEPS` — timing repetitions (default 5)
//! * `SPHSIM_BENCH_OUT` — output path (default `<repo root>/BENCH_step_throughput.json`)
//! * `SPHSIM_BENCH_BASELINE` — committed baseline to compare against; the
//!   process exits non-zero if any stage's `after_pps` falls below
//!   `SPHSIM_BENCH_TOLERANCE` (default 0.75) × the baseline value.
//! * `SPHSIM_BENCH_HISTORY` — per-PR trajectory file (JSONL, one run per
//!   line — `BENCH_history.jsonl` at the repo root for the full-size
//!   config). The gate then compares against the **best-known** value per
//!   stage: the max of the committed baseline and every history entry, so
//!   a regression can't hide behind an older, slower baseline.
//! * `SPHSIM_BENCH_STAGE_FLOOR` — per-stage ratio overrides for the gate,
//!   e.g. `FindNeighbors:0.85,XMass:0.9`: the named stage must reach that
//!   fraction of its best-known value (tighter or looser than the global
//!   tolerance). Unknown stage names abort — a typo must not silently
//!   disable the gate.
//! * `SPHSIM_BENCH_HISTORY_APPEND=1` — append this run to the history file
//!   (label via `SPHSIM_BENCH_LABEL`, default `local`). Only entries with
//!   a matching particle count ever mix: the gate skips history lines whose
//!   `particles` differs from the current run.

use sphsim::observables::neighbor_count_stats;
use sphsim::physics::density::compute_density;
use sphsim::physics::eos::apply_eos;
use sphsim::physics::gradh::compute_gradh;
use sphsim::physics::gravity::{add_gravity, DEFAULT_THETA};
use sphsim::physics::iad::compute_div_curl;
use sphsim::physics::momentum::{compute_momentum_energy, MomentumScratch};
use sphsim::{Octree, ParticleSet, StepWorkspace};
use std::time::Instant;

const STAGES: [&str; 7] = [
    "DomainDecompAndSync",
    "FindNeighbors",
    "XMass",
    "NormalizationGradh",
    "IADVelocityDivCurl",
    "MomentumEnergy",
    "Gravity",
];
const N_STAGES: usize = STAGES.len();
const SOFTENING: f64 = 0.02;
const MAX_LEAF_SIZE: usize = 32;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn time(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn keep_min(best: &mut [f64; N_STAGES], stage: usize, seconds: f64) {
    best[stage] = best[stage].min(seconds);
}

/// Time one repetition of the pipeline. `DomainDecompAndSync` is timed as a
/// lone rank runs it on a steady-state (non-reorder) step: the
/// reorder-interval decision is hoisted above any Morton-key work, so the
/// stage pays only the boundary wrap (a no-op here — Evrard is an open box)
/// and, Evrard being a gravity scenario, the rebuild of the octree the Gravity
/// stage walks — never per-step key generation. The neighbour search does not
/// read the tree.
fn time_rep(p: &mut ParticleSet, ws: &mut StepWorkspace, momentum: &mut MomentumScratch, best: &mut [f64; N_STAGES]) {
    keep_min(
        best,
        0,
        time(|| {
            p.wrap_positions();
            ws.rebuild_tree(p, MAX_LEAF_SIZE);
        }),
    );
    keep_min(best, 1, time(|| ws.find_neighbors(p, None)));
    let lists = ws.neighbors();
    keep_min(best, 2, time(|| compute_density(p, lists, None)));
    keep_min(best, 3, time(|| compute_gradh(p, lists, None)));
    keep_min(best, 4, time(|| compute_div_curl(p, lists, None)));
    keep_min(best, 5, time(|| compute_momentum_energy(p, lists, momentum, None)));
    keep_min(best, 6, time(|| walk_gravity(p, ws.tree())));
}

/// The Gravity stage as the step driver runs it: one Barnes–Hut walk per
/// particle, accelerations added in place, `egrav` accumulated on the way.
fn walk_gravity(p: &mut ParticleSet, tree: &Octree) {
    std::hint::black_box(add_gravity(p, tree, DEFAULT_THETA, SOFTENING, None));
}

fn main() {
    let n = env_usize("SPHSIM_BENCH_N", 50_000);
    let steps = env_usize("SPHSIM_BENCH_STEPS", 5).max(1);
    let scenario = sphsim::scenario::get("Evr").expect("built-in scenario");
    let initial = scenario.initial_conditions(n, 42);
    let n = initial.len();
    eprintln!("step_throughput: Evrard, {n} particles, {steps} reps");

    let mut p = initial;
    let mut origin: Vec<u32> = (0..p.len() as u32).collect();
    let mut ws = StepWorkspace::new();
    ws.reorder_by_morton(&mut p, &mut origin);
    ws.find_neighbors(&mut p, None);
    compute_density(&mut p, ws.neighbors(), None);
    apply_eos(&mut p, None);
    compute_gradh(&mut p, ws.neighbors(), None);
    let mut fastest = [f64::INFINITY; N_STAGES];
    let mut momentum = MomentumScratch::default();
    for _ in 0..steps {
        time_rep(&mut p, &mut ws, &mut momentum, &mut fastest);
    }

    let (nb_min, nb_mean, nb_max) = neighbor_count_stats(ws.neighbors());
    let pps = |seconds: f64| n as f64 / seconds;

    println!("{:<22} {:>14}", "stage", "[particles/s]");
    let stage_entries: Vec<String> = STAGES
        .iter()
        .zip(fastest)
        .map(|(name, seconds)| {
            println!("{name:<22} {:>14.0}", pps(seconds));
            format!("{{\"stage\": \"{name}\", \"after_pps\": {:.1}}}", pps(seconds))
        })
        .collect();

    let json = format!(
        "{{\n  \"benchmark\": \"step_throughput\",\n  \"scenario\": \"Evr\",\n  \"particles\": {n},\n  \
         \"reps\": {steps},\n  \"note\": \"static-state stage timings, min over reps: Morton order + CSR + \
         reused workspace (reorder done once up front); the Gravity row is the in-place walk with the \
         fused egrav; DomainDecompAndSync times a lone rank's steady-state stage (hoisted \
         reorder-interval check: non-reorder steps skip Morton key generation, wrap is a no-op for \
         open boxes)\",\n  \"memory_bytes\": {mem},\n  \
         \"field_count\": {fields},\n  \"neighbors\": {{\"min\": {nb_min}, \"mean\": {nb_mean:.1}, \
         \"max\": {nb_max}}},\n  \"stages\": [\n    {stages}\n  ]\n}}\n",
        mem = p.memory_bytes(),
        fields = ParticleSet::field_count(),
        stages = stage_entries.join(",\n    "),
    );

    let out_path = std::env::var("SPHSIM_BENCH_OUT")
        .map(|p| resolve_path(&p))
        .unwrap_or_else(|_| format!("{}/../../BENCH_step_throughput.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!("wrote {out_path}");

    // --- Regression gate: best-known per stage across baseline + history ---
    // Best-known starts from the committed baseline (if any) and is raised by
    // every history entry at this particle count, so the gate always measures
    // against the fastest run ever recorded — not just the last committed one.
    let mut best_known: [Option<f64>; N_STAGES] = [None; N_STAGES];
    let mut gate_sources = Vec::new();
    if let Ok(baseline_path) = std::env::var("SPHSIM_BENCH_BASELINE").map(|p| resolve_path(&p)) {
        let baseline = std::fs::read_to_string(&baseline_path).expect("read committed baseline");
        for (s, name) in STAGES.iter().enumerate() {
            match extract_after_pps(&baseline, name) {
                Some(base_pps) => best_known[s] = Some(base_pps),
                None => eprintln!("baseline {baseline_path} has no entry for {name}; skipping"),
            }
        }
        gate_sources.push(baseline_path);
    }
    let history_path = std::env::var("SPHSIM_BENCH_HISTORY").ok().map(|p| resolve_path(&p));
    if let Some(history_path) = &history_path {
        match std::fs::read_to_string(history_path) {
            Err(e) => eprintln!("history {history_path} unreadable ({e}); gating on baseline only"),
            Ok(history) => {
                let mut used = 0usize;
                for line in history.lines().filter(|l| !l.trim().is_empty()) {
                    if extract_particles(line) != Some(n) {
                        continue; // different problem size — not comparable
                    }
                    used += 1;
                    for (s, name) in STAGES.iter().enumerate() {
                        if let Some(hist_pps) = extract_after_pps(line, name) {
                            best_known[s] = Some(best_known[s].map_or(hist_pps, |b| b.max(hist_pps)));
                        }
                    }
                }
                gate_sources.push(format!("{history_path} ({used} comparable entries)"));
            }
        }
    }
    if !gate_sources.is_empty() {
        let tolerance: f64 = std::env::var("SPHSIM_BENCH_TOLERANCE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.75);
        let stage_floors = parse_stage_floors();
        let mut regressed = false;
        for (s, name) in STAGES.iter().enumerate() {
            let Some(best) = best_known[s] else { continue };
            let floor = stage_floors
                .iter()
                .find(|(stage, _)| stage == name)
                .map_or(tolerance, |&(_, ratio)| ratio);
            let current = pps(fastest[s]);
            if current < floor * best {
                eprintln!(
                    "REGRESSION: {name} runs at {current:.0} particles/s, below {:.0}% of the \
                     best-known {best:.0}",
                    floor * 100.0
                );
                regressed = true;
            }
        }
        if regressed {
            std::process::exit(1);
        }
        eprintln!(
            "no stage regressed below its floor (global {:.0}%{}) of best-known [{}]",
            tolerance * 100.0,
            if stage_floors.is_empty() {
                String::new()
            } else {
                format!(
                    ", overrides {}",
                    stage_floors
                        .iter()
                        .map(|(s, r)| format!("{s}:{r}"))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            },
            gate_sources.join(", ")
        );
    }

    // --- Trajectory append: one JSONL line per recorded run ----------------
    if let (Some(history_path), Ok(flag)) = (&history_path, std::env::var("SPHSIM_BENCH_HISTORY_APPEND")) {
        if flag == "1" {
            let label = std::env::var("SPHSIM_BENCH_LABEL").unwrap_or_else(|_| "local".to_string());
            let line = format!(
                "{{\"benchmark\": \"step_throughput\", \"label\": \"{label}\", \"particles\": {n}, \
                 \"stages\": [{}]}}\n",
                stage_entries.join(", ")
            );
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(history_path)
                .expect("open history for append");
            file.write_all(line.as_bytes()).expect("append history entry");
            eprintln!("appended run \"{label}\" to {history_path}");
        }
    }
}

/// Resolve an env-provided path. Cargo runs bench executables with CWD =
/// the package root (`crates/bench`), but CI and humans pass repo-root
/// relative paths — anchor those at the workspace root unless they already
/// resolve where we stand.
fn resolve_path(path: &str) -> String {
    let p = std::path::Path::new(path);
    if p.is_absolute() || p.exists() {
        return path.to_string();
    }
    format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"))
}

/// Parse `SPHSIM_BENCH_STAGE_FLOOR` (`Stage:ratio,Stage:ratio`). Stage names
/// must match [`STAGES`] exactly — a typo aborts rather than silently
/// leaving a stage on the looser global tolerance.
fn parse_stage_floors() -> Vec<(String, f64)> {
    let Ok(spec) = std::env::var("SPHSIM_BENCH_STAGE_FLOOR") else {
        return Vec::new();
    };
    let mut floors = Vec::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let Some((stage, ratio)) = entry.split_once(':') else {
            panic!("SPHSIM_BENCH_STAGE_FLOOR entry {entry:?} is not Stage:ratio");
        };
        let stage = stage.trim();
        assert!(
            STAGES.contains(&stage),
            "SPHSIM_BENCH_STAGE_FLOOR names unknown stage {stage:?} (stages: {STAGES:?})"
        );
        let ratio: f64 = ratio
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("SPHSIM_BENCH_STAGE_FLOOR ratio for {stage}: {e}"));
        floors.push((stage.to_string(), ratio));
    }
    floors
}

/// Pull the `particles` count out of one history line.
fn extract_particles(line: &str) -> Option<usize> {
    let key = "\"particles\": ";
    let v = &line[line.find(key)? + key.len()..];
    let end = v.find([',', '}'])?;
    v[..end].trim().parse().ok()
}

/// Pull `after_pps` for `stage` out of a committed report (line-oriented,
/// written by this binary — no JSON dependency needed offline).
fn extract_after_pps(report: &str, stage: &str) -> Option<f64> {
    let at = report.find(&format!("\"stage\": \"{stage}\""))?;
    let rest = &report[at..];
    let key = "\"after_pps\": ";
    let v = &rest[rest.find(key)? + key.len()..];
    let end = v.find([',', '}'])?;
    v[..end].trim().parse().ok()
}
