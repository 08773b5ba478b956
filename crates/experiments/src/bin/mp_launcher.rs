//! mp_launcher — the socket transport across *real OS processes*.
//!
//! Every other harness in the workspace runs its ranks as threads of one
//! process, which shares an address space even over the socket backend. This
//! launcher is the end-to-end proof that nothing in the pipeline secretly
//! relies on that: the parent re-executes itself `R` times, each child joins
//! the world through [`comm::CommWorld::connect_socket`] over a Unix-domain
//! rendezvous directory, runs the full distributed propagator, and (with
//! `--verify`) rank 0 gathers every shard over the wire and checks all 20
//! lanes of it against an in-process single-rank reference to 1e-10 per
//! particle ([`experiments::shard_disagreements`]).
//!
//! ```text
//! mp_launcher --ranks 2 --scenario KH --steps 3 --verify
//! ```
//!
//! The parent's exit status is non-zero if any child fails (including a
//! verification mismatch in rank 0). Child processes are selected by the
//! `MP_LAUNCHER_RANK` / `MP_LAUNCHER_WORLD` / `MP_LAUNCHER_SPEC` environment
//! variables the parent sets — there is no child-mode flag to mistype.

use comm::CommWorld;
use experiments::shard_disagreements;
use sphsim::distributed::DistributedSimulation;
use sphsim::{scenario, ParticleSet, Scenario, Simulation};
use std::path::Path;
use std::process::Command;

struct Config {
    ranks: usize,
    scenario: &'static Scenario,
    steps: u64,
    particles: usize,
    seed: u64,
    verify: bool,
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// The most rank processes one launch starts. Every rank runs a reader thread
/// per peer, so 16 ranks are already 16 × 15 = 240 mesh threads on one host.
const MAX_RANKS: usize = 16;

/// The fewest and the most particles one launch asks for. Below, some
/// scenario cannot step: Turb's periodic box needs 6 particles per edge (6³ =
/// 216) before the interaction diameter fits inside it. Above, the host runs
/// short: every rank process generates the whole initial set before it keeps
/// its share, so at the 16-rank ceiling 250 000 particles of 20 `f64` lanes
/// are already 0.64 GB of initial sets at once.
const PARTICLES: (u64, u64) = (216, 250_000);

/// The fewest and the most steps one launch takes. A launch of no step never
/// migrates a particle or refreshes a ghost, so it checks nothing the
/// transport carries. The launcher is a smoke check whose ranks report only
/// once they finish: at the default size a step takes a few milliseconds, so
/// 100 000 steps already run for minutes.
const STEPS: (u64, u64) = (1, 100_000);

/// The launch `args` ask for, or the reason they cannot be honoured.
fn parse_config(args: &[String]) -> Result<Config, String> {
    let scenario_name = flag_value(args, "--scenario").unwrap_or_else(|| "KH".to_string());
    let scenario = scenario::get(&scenario_name)
        .ok_or_else(|| format!("unknown scenario '{scenario_name}'; known: {:?}", scenario::names()))?;
    let parse_or = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag} wants an unsigned integer, got '{v}'")),
            None => Ok(default),
        }
    };
    let ranks = parse_or("--ranks", 2)?;
    if ranks == 0 {
        return Err("--ranks wants at least one rank (1 or more), got 0".to_string());
    }
    if ranks > MAX_RANKS as u64 {
        return Err(format!(
            "--ranks wants at most {MAX_RANKS} ranks (1 to {MAX_RANKS}), got {ranks}"
        ));
    }
    let within = |flag: &str, default: u64, (min, max): (u64, u64)| -> Result<u64, String> {
        let value = parse_or(flag, default)?;
        if (min..=max).contains(&value) {
            Ok(value)
        } else {
            Err(format!("{flag} wants {min} to {max}, got {value}"))
        }
    };
    Ok(Config {
        ranks: ranks as usize,
        scenario,
        steps: within("--steps", 3, STEPS)?,
        particles: within("--particles", 400, PARTICLES)? as usize,
        seed: parse_or("--seed", 7)?,
        verify: args.iter().any(|a| a == "--verify"),
    })
}

/// Parent: spawn one child process per rank against a fresh rendezvous
/// directory and report their combined status.
fn run_parent(config: &Config) {
    let exe = std::env::current_exe().expect("own executable path");
    let dir = std::env::temp_dir().join(format!("mp-launcher-{}", std::process::id()));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    println!(
        "mp_launcher: {} socket ranks as OS processes | {} | {} particles | {} steps | verify: {}",
        config.ranks, config.scenario.short_name, config.particles, config.steps, config.verify,
    );
    let children: Vec<_> = (0..config.ranks)
        .map(|r| {
            Command::new(&exe)
                .args(&argv)
                .env("MP_LAUNCHER_RANK", r.to_string())
                .env("MP_LAUNCHER_WORLD", config.ranks.to_string())
                .env("MP_LAUNCHER_SPEC", &dir)
                // One kernel thread per rank process: the ranks are the
                // parallelism, and CI runners are small.
                .env("SPHSIM_THREADS", "1")
                .spawn()
                .unwrap_or_else(|e| {
                    eprintln!("spawn child rank {r}: {e}");
                    std::process::exit(1);
                })
        })
        .collect();
    let mut failed = 0usize;
    for (r, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait on child");
        if !status.success() {
            eprintln!("child rank {r} FAILED: {status}");
            failed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if failed > 0 {
        eprintln!("mp_launcher: {failed} child process(es) failed");
        std::process::exit(1);
    }
    println!("mp_launcher: all {} processes exited cleanly.", config.ranks);
}

/// Child: join the world over the rendezvous socket directory, run the
/// distributed propagator, and (verify mode) ship the shard to rank 0 for the
/// per-particle check against the single-rank reference.
fn run_child(config: &Config, rank: usize, world: usize, dir: &Path) {
    let comm = CommWorld::connect_socket(dir, rank, world).unwrap_or_else(|e| {
        eprintln!("rank {rank}: socket rendezvous failed: {e:?}");
        std::process::exit(1);
    });
    let mut sim = DistributedSimulation::from_scenario(comm, config.scenario, config.particles, config.seed);
    sim.run(config.steps);
    let energy = sim.total_energy();
    let overlap = sim.overlap_stats();
    println!(
        "  rank {rank}/{world} (pid {}): owned {} ghosts {} | E_total {energy:.6e} | overlap hidden {:.0}%",
        std::process::id(),
        sim.n_owned(),
        sim.ghost_count(),
        overlap.hidden_fraction() * 100.0,
    );
    if !config.verify {
        return;
    }
    // Owned prefix only: slots past n_owned are this rank's ghost copies.
    let n_owned = sim.n_owned();
    let ids = sim.ids()[..n_owned].to_vec();
    let lanes: Vec<Vec<f64>> = sim.particles().lanes().iter().map(|lane| lane[..n_owned].to_vec()).collect();
    let Some(gathered) = sim.comm().gather((ids, lanes), 0) else {
        return; // non-root: the shard is on the wire, rank 0 owns the verdict
    };
    let shards: Vec<(Vec<u32>, ParticleSet)> = gathered
        .into_iter()
        .map(|(ids, lanes)| {
            let mut particles = ParticleSet::default();
            for (lane, values) in particles.lanes_mut().into_iter().zip(lanes) {
                *lane = values;
            }
            (ids, particles)
        })
        .collect();
    let mut reference =
        Simulation::from_scenario(config.scenario, config.particles, config.seed).with_reorder_interval(0);
    reference.run(config.steps);
    let rp = reference.particles();
    let (disagreements, covered) = shard_disagreements(shards.iter().map(|(ids, p)| (&ids[..], p)), rp);
    for d in &disagreements {
        eprintln!("  VERIFY: {world}-process shards vs reference: {d:?}");
    }
    let mut mismatches = disagreements.len();
    if covered != rp.len() {
        eprintln!(
            "  VERIFY: {world}-process shards cover {covered} of {} particles",
            rp.len()
        );
        mismatches += 1;
    }
    if mismatches > 0 {
        eprintln!("  VERIFY FAILED: {mismatches} mismatch(es) across OS-process ranks");
        std::process::exit(1);
    }
    println!("  VERIFY: {covered} particles across {world} OS processes match the single-rank reference to 1e-10 on all 20 lanes.");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let config = parse_config(&args).unwrap_or_else(|reason| {
        eprintln!("{reason}");
        std::process::exit(2);
    });
    match std::env::var("MP_LAUNCHER_RANK") {
        Ok(r) => {
            let rank: usize = r.parse().expect("MP_LAUNCHER_RANK is a rank index");
            let world: usize = std::env::var("MP_LAUNCHER_WORLD")
                .expect("MP_LAUNCHER_WORLD set alongside MP_LAUNCHER_RANK")
                .parse()
                .expect("MP_LAUNCHER_WORLD is a rank count");
            let dir = std::env::var("MP_LAUNCHER_SPEC").expect("MP_LAUNCHER_SPEC set alongside MP_LAUNCHER_RANK");
            run_child(&config, rank, world, Path::new(&dir));
        }
        Err(_) => run_parent(&config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_of(flag: &str, value: &str) -> Result<Config, String> {
        parse_config(&["mp_launcher", flag, value].map(String::from))
    }

    fn ranks_of(ranks: &str) -> Result<usize, String> {
        config_of("--ranks", ranks).map(|config| config.ranks)
    }

    /// The rank count is bounded on both sides, by parsing alone: no rank
    /// process starts here.
    #[test]
    fn ranks_outside_one_to_the_ceiling_are_refused_naming_the_range() {
        assert_eq!(ranks_of("1"), Ok(1));
        assert_eq!(ranks_of("16"), Ok(MAX_RANKS));
        assert_eq!(
            ranks_of("0"),
            Err("--ranks wants at least one rank (1 or more), got 0".to_string())
        );
        for too_many in ["17", "5000", "18446744073709551615"] {
            assert_eq!(
                ranks_of(too_many),
                Err(format!("--ranks wants at most 16 ranks (1 to 16), got {too_many}"))
            );
        }
    }

    /// `flag` takes `min` and `max`, and refuses `min − 1` and `max + 1`
    /// naming the range.
    fn assert_bounded(flag: &str, (min, max): (u64, u64), value_of: fn(Config) -> u64) {
        for edge in [min, max] {
            assert_eq!(config_of(flag, &edge.to_string()).map(value_of), Ok(edge), "{flag}");
        }
        for outside in [min - 1, max + 1] {
            assert_eq!(
                config_of(flag, &outside.to_string()).map(value_of),
                Err(format!("{flag} wants {min} to {max}, got {outside}"))
            );
        }
    }

    /// The particle count and the step count are bounded on both sides, by
    /// parsing alone: no rank process starts and no particle set is built.
    #[test]
    fn particles_and_steps_outside_their_ranges_are_refused_naming_the_range() {
        assert_bounded("--particles", PARTICLES, |config| config.particles as u64);
        assert_bounded("--steps", STEPS, |config| config.steps);
    }
}
