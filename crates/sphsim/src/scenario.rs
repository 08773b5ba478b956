//! The six scenarios, as one static table.
//!
//! A [`Scenario`] is one row holding everything a workload needs on both
//! execution paths of this crate: its names, Table-1-style sizing for the
//! paper-scale workload model, stage gating (self-gravity, stirring), the box
//! boundary, per-stage cost scaling, initial conditions for the CPU reference
//! propagator, and an **analytic validation check** — a small real simulation
//! whose outcome is compared against a closed-form observable (shock-front
//! radius, upstream density profile, linear growth rate, ...).
//!
//! The paper measures its two production cases (Turb, Evr); the table adds
//! Sedov, Noh, KH and Gresho — the box cases on genuinely periodic
//! boundaries. The set is closed: a new workload is a new row of the table,
//! and every consumer ([`get`], [`all`], the campaign executor, `replicate`'s
//! `gallery` sweep) reads it from there.

use crate::boundary::Boundary;
use crate::init::evrard::evrard_sphere;
use crate::init::gresho::{gresho_chan, gresho_peak_speed, GRESHO_V_PEAK};
use crate::init::kelvin_helmholtz::{kelvin_helmholtz, kh_growth_rate, kh_mode_amplitude};
use crate::init::noh::{noh_measured_preshock_ratio, noh_sphere};
use crate::init::sedov::{sedov_blast, sedov_measured_shock_radius, sedov_shock_radius, SEDOV_E0, SEDOV_RHO0};
use crate::init::turbulence::{turbulence_box, TARGET_MACH};
use crate::observables::{rms_mach_number, EnergyBudget};
use crate::particle::ParticleSet;
use crate::propagator::Simulation;
use crate::stages::SphStage;
use std::fmt;

/// Number of timesteps of a production run, for every scenario.
pub const TIMESTEPS: u64 = 100;

/// Per-stage scaling of the workload model's baseline per-particle costs.
///
/// Scaling flops and bytes *independently* lets a scenario shift a stage's
/// arithmetic intensity — which moves that stage's min-EDP frequency, the
/// generalisation of the paper's compute- vs memory-bound Figure 5 contrast.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostScale {
    /// Multiplier on the stage's flops per particle.
    pub flops: f64,
    /// Multiplier on the stage's device-memory bytes per particle.
    pub bytes: f64,
}

impl CostScale {
    /// The neutral scaling (the calibrated Table-1 baseline).
    pub const UNIT: CostScale = CostScale { flops: 1.0, bytes: 1.0 };
}

/// Result of a scenario's analytic validation run.
#[derive(Clone, Debug)]
pub struct ValidationCheck {
    /// Short name of the scenario that produced the check.
    pub scenario: String,
    /// What was measured.
    pub observable: &'static str,
    /// Measured value.
    pub measured: f64,
    /// Analytic expectation.
    pub expected: f64,
    /// Inclusive acceptance band `[lo, hi]` on the measured value.
    pub acceptance: (f64, f64),
    /// Free-form context (resolution, end time, ...).
    pub detail: String,
}

impl ValidationCheck {
    /// True when the measured value is finite and inside the acceptance band.
    pub fn passed(&self) -> bool {
        self.measured.is_finite() && self.measured >= self.acceptance.0 && self.measured <= self.acceptance.1
    }
}

impl fmt::Display for ValidationCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} = {:.4} (analytic {:.4}, accepted [{:.4}, {:.4}]) — {}",
            self.scenario,
            self.observable,
            self.measured,
            self.expected,
            self.acceptance.0,
            self.acceptance.1,
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

/// A simulation scenario: workload mix, initial conditions, sizing and an
/// analytic validation observable. The rows live in one static table, so a
/// scenario is handled as `&'static Scenario`.
pub struct Scenario {
    /// Full human-readable name (e.g. "Sedov-Taylor Blast Wave").
    pub name: &'static str,
    /// Short name used in figures, job names and lookups ("Sedov").
    pub short_name: &'static str,
    /// Particles per GPU (die) for paper-scale campaign sizing.
    pub particles_per_gpu: f64,
    /// Global particle-count options (Table-1-style ladder), in billions.
    particle_options_e9: &'static [f64],
    /// Whether the scenario computes self-gravity (enables the `Gravity` stage).
    pub has_gravity: bool,
    /// Whether the scenario applies stirring (enables the `Turbulence` stage).
    pub has_stirring: bool,
    /// Boundary condition of the scenario's box: open, or a periodic box for
    /// the box cases, so neighbourhoods, kernels, Morton keys and the
    /// distributed ghost exchange all wrap around. Both propagators stamp
    /// this onto the particle set at construction.
    pub boundary: Boundary,
    /// The stages whose workload-model costs are not [`CostScale::UNIT`].
    cost_scales: &'static [(SphStage, CostScale)],
    /// Initial conditions with about `n_target` particles, deterministic for a seed.
    initial_conditions: fn(usize, u64) -> ParticleSet,
    /// The analytic validation run of the row.
    validate: fn(&'static Scenario) -> ValidationCheck,
}

impl Scenario {
    /// Global particle-count options (Table-1-style ladder), in particles.
    pub fn global_particle_options(&self) -> Vec<f64> {
        self.particle_options_e9.iter().map(|b| b * 1.0e9).collect()
    }

    /// Per-stage scaling of the workload model's baseline costs.
    pub fn stage_cost_scale(&self, stage: SphStage) -> CostScale {
        self.cost_scales
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(CostScale::UNIT, |&(_, scale)| scale)
    }

    /// Build initial conditions with approximately `n_target` particles for
    /// the CPU reference propagator. Deterministic for a given `seed`.
    pub fn initial_conditions(&self, n_target: usize, seed: u64) -> ParticleSet {
        (self.initial_conditions)(n_target, seed)
    }

    /// Run a small CPU-propagator simulation and compare an analytic
    /// observable against its closed-form expectation.
    pub fn validate(&'static self) -> ValidationCheck {
        (self.validate)(self)
    }

    /// The pipeline stages executed every timestep for this scenario.
    pub fn pipeline(&self) -> Vec<SphStage> {
        SphStage::all()
            .into_iter()
            .filter(|s| match s {
                SphStage::Gravity => self.has_gravity,
                SphStage::Turbulence => self.has_stirring,
                _ => true,
            })
            .collect()
    }

    /// Labels of the pipeline stages — the region labels a per-stage DVFS
    /// governor should be configured with.
    pub fn stage_labels(&self) -> Vec<&'static str> {
        self.pipeline().into_iter().map(|s| s.label()).collect()
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scenario({})", self.short_name)
    }
}

/// Every scenario, Table 1's pair first.
static SCENARIOS: [Scenario; 6] = [
    // Subsonic turbulence in a periodic box (stirred, no self-gravity) — Table 1.
    Scenario {
        name: "Subsonic Turbulence",
        short_name: "Turb",
        particles_per_gpu: 150.0e6,
        particle_options_e9: &[0.6, 1.2, 2.4, 4.9, 7.4, 9.2, 14.7],
        has_gravity: false,
        has_stirring: true,
        boundary: Boundary::unit_box(),
        // Periodic box: every support sphere crossing a face is searched at
        // its wrapped images too — extra tree-traversal arithmetic and extra
        // gather traffic on the neighbour stage (see `workload`).
        cost_scales: &[(
            SphStage::FindNeighbors,
            CostScale {
                flops: 1.05,
                bytes: 1.1,
            },
        )],
        initial_conditions: |n_target, seed| turbulence_box(cube_side(n_target), seed),
        validate: validate_turb,
    },
    // Evrard collapse (self-gravitating gas sphere, no stirring) — Table 1.
    Scenario {
        name: "Evrard Collapse",
        short_name: "Evr",
        particles_per_gpu: 80.0e6,
        particle_options_e9: &[0.6, 1.2, 2.4, 3.2, 4.8, 7.7],
        has_gravity: true,
        has_stirring: false,
        boundary: Boundary::Open,
        cost_scales: &[],
        initial_conditions: |n_target, seed| evrard_sphere(n_target.max(8), seed),
        validate: validate_evr,
    },
    // Sedov–Taylor blast wave: point energy deposition in a cold uniform medium.
    Scenario {
        name: "Sedov-Taylor Blast Wave",
        short_name: "Sedov",
        particles_per_gpu: 125.0e6,
        particle_options_e9: &[0.5, 1.0, 2.0, 4.0, 8.0],
        has_gravity: false,
        has_stirring: false,
        boundary: Boundary::Open,
        // A strong shock keeps the artificial-viscosity machinery hot and adds
        // arithmetic to the pairwise momentum/energy kernel, while the density
        // contrast behind the front deepens the neighbour-search traversal.
        cost_scales: &[
            (
                SphStage::MomentumEnergy,
                CostScale {
                    flops: 1.25,
                    bytes: 1.05,
                },
            ),
            (SphStage::AVSwitches, CostScale { flops: 1.6, bytes: 1.2 }),
            (
                SphStage::FindNeighbors,
                CostScale {
                    flops: 1.05,
                    bytes: 1.15,
                },
            ),
        ],
        initial_conditions: |n_target, seed| sedov_blast(cube_side(n_target), seed),
        validate: validate_sedov,
    },
    // Noh implosion: cold uniform inflow forming a central accretion shock.
    Scenario {
        name: "Noh Implosion",
        short_name: "Noh",
        particles_per_gpu: 100.0e6,
        particle_options_e9: &[0.4, 0.8, 1.6, 3.2, 6.4],
        has_gravity: false,
        has_stirring: false,
        boundary: Boundary::Open,
        // Extreme central clustering: neighbour search and density gathers
        // become scattered, deep-traversal and therefore memory-heavy, and the
        // domain decomposition re-sorts a strongly skewed key distribution.
        cost_scales: &[
            (SphStage::FindNeighbors, CostScale { flops: 1.2, bytes: 1.5 }),
            (
                SphStage::XMass,
                CostScale {
                    flops: 1.05,
                    bytes: 1.3,
                },
            ),
            (SphStage::DomainDecompAndSync, CostScale { flops: 1.0, bytes: 1.2 }),
            (SphStage::AVSwitches, CostScale { flops: 1.4, bytes: 1.1 }),
        ],
        initial_conditions: |n_target, seed| noh_sphere(n_target.max(8), seed),
        validate: validate_noh,
    },
    // Kelvin–Helmholtz shear instability: counter-streaming slabs with a
    // seeded interface perturbation.
    Scenario {
        name: "Kelvin-Helmholtz Shear",
        short_name: "KH",
        particles_per_gpu: 120.0e6,
        particle_options_e9: &[0.5, 1.1, 2.2, 4.4, 8.8],
        has_gravity: false,
        has_stirring: false,
        boundary: Boundary::unit_box(),
        // A subsonic mixing flow leans on the velocity-derivative machinery:
        // div/curl estimates and grad-h terms do extra arithmetic per
        // neighbour, with near-baseline memory traffic. The periodic box
        // additionally charges the neighbour stage for wrapped-image queries
        // of every face-crossing support sphere (see `workload`).
        cost_scales: &[
            (
                SphStage::IADVelocityDivCurl,
                CostScale {
                    flops: 1.15,
                    bytes: 1.0,
                },
            ),
            (SphStage::NormalizationGradh, CostScale { flops: 1.1, bytes: 1.0 }),
            (
                SphStage::FindNeighbors,
                CostScale {
                    flops: 1.05,
                    bytes: 1.1,
                },
            ),
        ],
        initial_conditions: |n_target, seed| kelvin_helmholtz(cube_side(n_target).max(8), seed),
        validate: validate_kh,
    },
    // Gresho–Chan vortex: a rotating gas column in exact hydrostatic balance
    // inside a fully periodic box — the scenario whose correctness is *only*
    // attainable with working periodicity (an open box loses its pressure
    // confinement and blows the equilibrium apart within a few sound
    // crossings).
    Scenario {
        name: "Gresho-Chan Vortex",
        short_name: "Gresho",
        particles_per_gpu: 110.0e6,
        particle_options_e9: &[0.5, 1.0, 2.0, 4.0],
        has_gravity: false,
        has_stirring: false,
        boundary: Boundary::unit_box(),
        // An equilibrium vortex is all about pressure-gradient accuracy: the
        // grad-h normalisation and pairwise momentum kernel carry extra
        // arithmetic, while the periodic neighbour search pays for the image
        // queries of every face-crossing support sphere with extra traffic.
        cost_scales: &[
            (
                SphStage::MomentumEnergy,
                CostScale {
                    flops: 1.15,
                    bytes: 1.0,
                },
            ),
            (
                SphStage::NormalizationGradh,
                CostScale {
                    flops: 1.2,
                    bytes: 1.05,
                },
            ),
            (SphStage::FindNeighbors, CostScale { flops: 1.1, bytes: 1.2 }),
        ],
        initial_conditions: |n_target, seed| gresho_chan(cube_side(n_target).max(8), seed),
        validate: validate_gresho,
    },
];

/// Every scenario, in table order (Table 1's pair first).
pub fn all() -> &'static [Scenario] {
    &SCENARIOS
}

/// Look up a scenario by short or full name, case-insensitively and ignoring
/// surrounding whitespace.
pub fn get(name: &str) -> Option<&'static Scenario> {
    find(&SCENARIOS, name)
}

/// The first of `rows` answering to `name` — the lookup rule of [`get`].
fn find<'a>(rows: impl IntoIterator<Item = &'a Scenario>, name: &str) -> Option<&'a Scenario> {
    let name = name.trim();
    rows.into_iter()
        .find(|s| s.short_name.eq_ignore_ascii_case(name) || s.name.eq_ignore_ascii_case(name))
}

/// Short names of every scenario, in table order.
pub fn names() -> Vec<&'static str> {
    SCENARIOS.iter().map(|s| s.short_name).collect()
}

fn cube_side(n_target: usize) -> usize {
    ((n_target.max(8) as f64).cbrt().round() as usize).max(2)
}

/// Advance `sim` until `t_end` (bounded by `max_steps`) and return the time
/// actually reached.
fn run_until(sim: &mut Simulation, t_end: f64, max_steps: u64) -> f64 {
    let mut steps = 0;
    while sim.time() < t_end && steps < max_steps {
        sim.step();
        steps += 1;
    }
    sim.time()
}

fn validate_turb(s: &'static Scenario) -> ValidationCheck {
    // The ICs seed the box at exactly Mach 0.3 and the driver keeps
    // stirring it; now that the box is genuinely periodic (no vacuum to
    // expand into, no cooling from free surfaces) the RMS Mach number
    // must stay subsonic *and rise clearly above the seeded value*. The
    // floor sits above TARGET_MACH on purpose: a broken (never-applied)
    // stirring driver leaves the flow at the seeded Mach or below, so
    // mere IC preservation cannot pass this check.
    let mut sim = Simulation::from_scenario(s, 512, 11);
    let reached = run_until(&mut sim, 0.3, 12);
    let mach = rms_mach_number(sim.particles());
    ValidationCheck {
        scenario: s.short_name.to_string(),
        observable: "rms Mach number under stirring",
        measured: mach,
        expected: TARGET_MACH,
        acceptance: (1.3 * TARGET_MACH, 3.0 * TARGET_MACH),
        detail: format!("512 particles, t = {reached:.3}, seeded at Mach {TARGET_MACH}"),
    }
}

fn validate_evr(s: &'static Scenario) -> ValidationCheck {
    // Total energy (kinetic + internal + potential) is conserved while the
    // sphere collapses and converts potential energy into heat.
    let mut sim = Simulation::from_scenario(s, 600, 12);
    sim.step(); // density/EOS are defined only after the first step
    let start = EnergyBudget::of(sim.particles(), true, 0.02);
    for _ in 0..10 {
        sim.step();
    }
    let end = EnergyBudget::of(sim.particles(), true, 0.02);
    let drift = end.relative_drift(&start);
    ValidationCheck {
        scenario: s.short_name.to_string(),
        observable: "relative total-energy drift over the collapse",
        measured: drift,
        expected: 0.0,
        acceptance: (0.0, 0.25),
        detail: format!("600 particles, 10 steps, E {:.4} -> {:.4}", start.total(), end.total()),
    }
}

fn validate_sedov(s: &'static Scenario) -> ValidationCheck {
    // The shock front must sit at the self-similar radius
    // R(t) = ξ₀ (E₀ t² / ρ₀)^{1/5}.
    let mut sim = Simulation::from_scenario(s, 2744, 13);
    let t_end = run_until(&mut sim, 0.05, 120);
    let measured = sedov_measured_shock_radius(sim.particles());
    let expected = sedov_shock_radius(SEDOV_E0, SEDOV_RHO0, t_end);
    ValidationCheck {
        scenario: s.short_name.to_string(),
        observable: "shock-front radius vs Sedov similarity law",
        measured,
        expected,
        acceptance: (0.6 * expected, 1.4 * expected),
        detail: format!("2744 particles, t = {t_end:.4}"),
    }
}

fn validate_noh(s: &'static Scenario) -> ValidationCheck {
    // Ahead of the accretion shock the flow is smooth and exactly solvable:
    // ρ(r, t) = ρ₀ (1 + t/r)². Compare the SPH density against it in a
    // mid-radius shell that the shock (at r = t/3) has not yet reached.
    let mut sim = Simulation::from_scenario(s, 3000, 14);
    let t_end = run_until(&mut sim, 0.15, 40);
    let (measured, count) = noh_measured_preshock_ratio(sim.particles(), t_end);
    ValidationCheck {
        scenario: s.short_name.to_string(),
        observable: "pre-shock density vs exact upstream profile (ratio)",
        measured,
        expected: 1.0,
        acceptance: (0.75, 1.25),
        detail: format!("3000 particles, t = {t_end:.4}, shell r in [0.2, 0.3), {count} particles"),
    }
}

fn validate_kh(s: &'static Scenario) -> ValidationCheck {
    // In inviscid linear theory the seeded sin(kx) mode grows at
    // σ = kΔv/2; at lattice resolutions SPH damping cancels that growth
    // almost exactly (Agertz et al. 2007), leaving a neutrally
    // *persistent* oscillating mode. What is checkable — and brutally
    // sensitive to the boundary handling — is amplitude retention
    // through a shear time: with periodic wrap the envelope-weighted
    // mode keeps ≈ 0.9 of its seed; with open faces (or a broken image
    // search / wrap-seam ghost exchange) the slabs decompress off the
    // box and the mode collapses to ≈ 0.2 within a fraction of a
    // crossing. The late-window amplitude is averaged over steps so the
    // standing acoustic oscillation of the seed cannot alias the check.
    let mut sim = Simulation::from_scenario(s, 2744, 15);
    let a0 = kh_mode_amplitude(sim.particles());
    run_until(&mut sim, 0.7, 40);
    let mut sum = 0.0;
    let mut samples = 0usize;
    while sim.time() < 1.2 && samples < 30 {
        sim.step();
        sum += kh_mode_amplitude(sim.particles());
        samples += 1;
    }
    let t_end = sim.time();
    let late = if samples > 0 { sum / samples as f64 } else { f64::NAN };
    let measured = if a0 > 0.0 { late / a0 } else { f64::NAN };
    ValidationCheck {
        scenario: s.short_name.to_string(),
        observable: "KH mode amplitude retention over a shear time (periodic confinement)",
        measured,
        expected: 1.0,
        acceptance: (0.5, 1.5),
        detail: format!(
            "2744 particles, t = {t_end:.4}, amplitude {a0:.5} -> {late:.5} \
             (inviscid growth rate {:.3} fully damped at this resolution)",
            kh_growth_rate()
        ),
    }
}

fn validate_gresho(s: &'static Scenario) -> ValidationCheck {
    // The vortex is a steady state: the azimuthal velocity peak (v = 1 at
    // r = 0.2) must survive the run. SPH's artificial viscosity diffuses
    // the peak somewhat at laptop resolution, so the check accepts a
    // bounded decay — but an open box (or a broken wrap) dumps the
    // confining background pressure and destroys the profile entirely,
    // which is what makes this scenario the periodicity canary.
    let mut sim = Simulation::from_scenario(s, 2744, 16);
    let v0 = gresho_peak_speed(sim.particles());
    let t_end = run_until(&mut sim, 0.1, 20);
    let v1 = gresho_peak_speed(sim.particles());
    let measured = if v0 > 0.0 { v1 / v0 } else { f64::NAN };
    ValidationCheck {
        scenario: s.short_name.to_string(),
        observable: "peak azimuthal velocity retention of the equilibrium vortex",
        measured,
        expected: 1.0,
        acceptance: (0.8, 1.1),
        detail: format!("2744 particles, t = {t_end:.4}, peak v_phi {v0:.4} -> {v1:.4} (seeded {GRESHO_V_PEAK})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_holds_six_builtin_scenarios() {
        assert_eq!(all().len(), 6);
        assert_eq!(names(), vec!["Turb", "Evr", "Sedov", "Noh", "KH", "Gresho"]);
        for name in ["Turb", "Evr", "Sedov", "Noh", "KH", "Gresho"] {
            assert!(get(name).is_some(), "missing {name}");
        }
        assert!(get("NotAScenario").is_none());
    }

    #[test]
    fn box_scenarios_are_periodic_and_the_rest_open() {
        for name in ["Turb", "KH", "Gresho"] {
            assert_eq!(
                get(name).unwrap().boundary,
                Boundary::unit_box(),
                "{name} must run in a periodic unit box"
            );
        }
        for name in ["Evr", "Sedov", "Noh"] {
            assert_eq!(get(name).unwrap().boundary, Boundary::Open, "{name}");
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_accepts_full_names() {
        assert_eq!(get("sedov").unwrap().short_name, "Sedov");
        assert_eq!(get("NOH").unwrap().short_name, "Noh");
        assert_eq!(get("Evrard Collapse").unwrap().short_name, "Evr");
        assert_eq!(get("Gresho-Chan Vortex").unwrap().short_name, "Gresho");
        assert_eq!(get("kh").unwrap().short_name, "KH");
    }

    /// Panics if two rows answer to the same lowercased name. A row whose
    /// short and full names are equal claims its one key once.
    fn assert_unique_keys<'a>(rows: impl IntoIterator<Item = &'a Scenario>) {
        let mut owners: std::collections::HashMap<String, &Scenario> = Default::default();
        for row in rows {
            for name in [row.short_name, row.name] {
                if let Some(owner) = owners.insert(name.to_lowercase(), row) {
                    assert!(
                        std::ptr::eq(owner, row),
                        "two rows answer to {name:?}: {owner:?} and {row:?}"
                    );
                }
            }
        }
    }

    /// A row with the given names, trivial ICs and an always-passing check.
    fn custom_row(name: &'static str, short_name: &'static str) -> Scenario {
        Scenario {
            name,
            short_name,
            particles_per_gpu: 1.0e6,
            particle_options_e9: &[0.001],
            has_gravity: false,
            has_stirring: false,
            boundary: Boundary::Open,
            cost_scales: &[],
            initial_conditions: |n_target, seed| turbulence_box(cube_side(n_target), seed),
            validate: |s| ValidationCheck {
                scenario: s.short_name.to_string(),
                observable: "trivial",
                measured: 1.0,
                expected: 1.0,
                acceptance: (0.5, 1.5),
                detail: String::new(),
            },
        }
    }

    #[test]
    fn every_row_resolves_by_either_name_and_no_two_rows_share_a_key() {
        for row in all() {
            for name in [row.short_name, row.name] {
                for query in [
                    name.to_string(),
                    name.to_lowercase(),
                    format!("  {}  ", name.to_uppercase()),
                ] {
                    assert!(
                        std::ptr::eq(get(&query).unwrap(), row),
                        "{query:?} must resolve to {row:?}"
                    );
                }
            }
        }
        assert_unique_keys(all());
        assert!(get("NotAScenario").is_none());
    }

    #[test]
    fn custom_scenarios_can_be_registered() {
        // Registering a scenario is adding a row to the table: the new row
        // resolves by the same rule as the built-ins and runs its check.
        let custom: &'static Scenario = Box::leak(Box::new(custom_row("Custom Box", "Custom")));
        let table: Vec<&Scenario> = all().iter().chain([custom]).collect();
        assert_eq!(table.len(), 7);
        assert_unique_keys(table.iter().copied());
        assert!(std::ptr::eq(find(table.iter().copied(), "custom").unwrap(), custom));
        assert!(std::ptr::eq(
            find(table.iter().copied(), " custom box ").unwrap(),
            custom
        ));
        assert_eq!(find(table.iter().copied(), "sedov").unwrap().short_name, "Sedov");
        assert!(custom.validate().passed());
    }

    #[test]
    #[should_panic(expected = "two rows answer to")]
    fn duplicate_registration_panics() {
        let second_sedov = custom_row("Another Blast", "Sedov");
        assert_unique_keys(all().iter().chain([&second_sedov]));
    }

    #[test]
    fn identical_short_and_full_names_register_cleanly() {
        let mono = custom_row("Mono", "Mono");
        let table: Vec<&Scenario> = all().iter().chain([&mono]).collect();
        // One row claiming the same key twice is not a conflict.
        assert_unique_keys(table.iter().copied());
        assert!(std::ptr::eq(find(table.iter().copied(), "mono").unwrap(), &mono));
        assert_eq!(table.len(), 7);
    }

    #[test]
    fn table1_parameters_are_preserved() {
        let turb = get("Turb").unwrap();
        let evr = get("Evr").unwrap();
        assert_eq!(turb.particles_per_gpu, 150.0e6);
        assert_eq!(evr.particles_per_gpu, 80.0e6);
        assert_eq!(TIMESTEPS, 100);
        assert_eq!(turb.global_particle_options().len(), 7);
        assert_eq!(evr.global_particle_options().len(), 6);
        assert!((turb.global_particle_options()[6] - 14.7e9).abs() < 1.0);
    }

    #[test]
    fn pipelines_gate_gravity_and_stirring() {
        let turb = get("Turb").unwrap().pipeline();
        let evr = get("Evr").unwrap().pipeline();
        assert!(turb.contains(&SphStage::Turbulence));
        assert!(!turb.contains(&SphStage::Gravity));
        assert!(evr.contains(&SphStage::Gravity));
        assert!(!evr.contains(&SphStage::Turbulence));
        // The non-Table-1 cases run neither gravity nor stirring.
        for name in ["Sedov", "Noh", "KH", "Gresho"] {
            let pipeline = get(name).unwrap().pipeline();
            assert!(!pipeline.contains(&SphStage::Gravity), "{name}");
            assert!(!pipeline.contains(&SphStage::Turbulence), "{name}");
            assert!(pipeline.contains(&SphStage::MomentumEnergy), "{name}");
        }
    }

    #[test]
    fn every_scenario_produces_valid_initial_conditions() {
        for scenario in all() {
            let p = scenario.initial_conditions(600, 42);
            assert!(p.len() >= 300, "{}: only {} particles", scenario.short_name, p.len());
            assert!(p.is_consistent());
            assert!(p.total_mass() > 0.0);
            for i in 0..p.len() {
                assert!(
                    p.x[i].is_finite() && p.vx[i].is_finite() && p.u[i].is_finite() && p.h[i] > 0.0,
                    "{}: bad particle {i}",
                    scenario.short_name
                );
            }
            // Determinism.
            let q = scenario.initial_conditions(600, 42);
            assert_eq!(p.x, q.x, "{}", scenario.short_name);
        }
    }

    #[test]
    fn cost_scales_differ_per_scenario_and_stay_positive() {
        let sedov = get("Sedov").unwrap();
        let noh = get("Noh").unwrap();
        let turb = get("Turb").unwrap();
        // Sedov skews AVSwitches towards arithmetic, Noh skews FindNeighbors
        // towards memory — per-stage min-EDP frequencies now differ per case.
        assert!(sedov.stage_cost_scale(SphStage::AVSwitches).flops > 1.0);
        let noh_fn = noh.stage_cost_scale(SphStage::FindNeighbors);
        assert!(noh_fn.bytes > noh_fn.flops);
        assert_eq!(turb.stage_cost_scale(SphStage::MomentumEnergy), CostScale::UNIT);
        for scenario in all() {
            for stage in SphStage::all() {
                let scale = scenario.stage_cost_scale(stage);
                assert!(scale.flops > 0.0 && scale.bytes > 0.0);
            }
        }
    }

    #[test]
    fn validation_check_pass_logic() {
        let mut check = ValidationCheck {
            scenario: "X".to_string(),
            observable: "obs",
            measured: 1.0,
            expected: 1.0,
            acceptance: (0.8, 1.2),
            detail: String::new(),
        };
        assert!(check.passed());
        assert!(check.to_string().contains("PASS"));
        check.measured = 1.3;
        assert!(!check.passed());
        check.measured = f64::NAN;
        assert!(!check.passed());
    }
}
