//! Property-based tests on the core invariants of the measurement toolkit and
//! the simulation substrates.

use energy_aware_sim::autotune::{ExhaustiveSweep, GoldenSection, HillClimb, SearchStrategy};
use energy_aware_sim::hwmodel::dvfs::DvfsModel;
use energy_aware_sim::pmt::backends::pm_counters::parse_pm_counter;
use energy_aware_sim::pmt::integration::{integrate_power_trace, EnergyAccumulator};
use energy_aware_sim::pmt::{Domain, DomainSample, MeasurementRecord, RankReport};
use energy_aware_sim::sphsim::init::lattice_cube;
use energy_aware_sim::sphsim::morton;
use energy_aware_sim::sphsim::physics::neighbors::find_neighbors;
use energy_aware_sim::sphsim::physics::timestep::courant_timestep_prefix;
use energy_aware_sim::sphsim::{dx_periodic, Boundary, MinImage, ParticleSet, TimestepBins};
use energy_aware_sim::telemetry::json as telemetry_json;
use proptest::prelude::*;

proptest! {
    /// Energy accumulated from monotone counter readings equals last − first,
    /// independent of how the readings are spaced in time.
    #[test]
    fn counter_energy_is_last_minus_first(
        deltas in proptest::collection::vec(0.0f64..1.0e4, 1..50),
        dts in proptest::collection::vec(1.0e-3f64..10.0, 1..50),
    ) {
        let mut acc = EnergyAccumulator::new();
        let mut counter = 0.0;
        let mut t = 0.0;
        acc.update(t, &DomainSample::energy(Domain::cpu(0), counter));
        for (d, dt) in deltas.iter().zip(dts.iter().cycle()) {
            counter += d;
            t += dt;
            acc.update(t, &DomainSample::energy(Domain::cpu(0), counter));
        }
        prop_assert!((acc.energy_j() - counter).abs() < 1e-6 * counter.max(1.0));
    }

    /// Trapezoidal integration of a non-negative power trace is non-negative,
    /// monotone in the trace length, and bounded by max power × duration.
    #[test]
    fn power_integration_is_bounded(
        powers in proptest::collection::vec(0.0f64..2000.0, 2..100),
    ) {
        let trace: Vec<(f64, f64)> = powers.iter().enumerate().map(|(i, &p)| (i as f64, p)).collect();
        let energy = integrate_power_trace(&trace);
        let duration = (trace.len() - 1) as f64;
        let pmax = powers.iter().cloned().fold(0.0, f64::max);
        prop_assert!(energy >= 0.0);
        prop_assert!(energy <= pmax * duration + 1e-9);
    }

    /// Morton encode/decode round-trips for any in-range cell coordinates.
    #[test]
    fn morton_round_trip(x in 0u64..(1 << 21), y in 0u64..(1 << 21), z in 0u64..(1 << 21)) {
        let code = morton::encode_cells(x, y, z);
        prop_assert_eq!(morton::decode_cells(code), (x, y, z));
    }

    /// DVFS: the applied frequency is always inside the supported range, and
    /// dynamic power never increases when the frequency decreases.
    #[test]
    fn dvfs_clamp_and_monotone_power(freq_mhz in 0.0f64..3000.0, lower_mhz in 0.0f64..3000.0) {
        let d = DvfsModel::nvidia_a100();
        let f = d.clamp(freq_mhz * 1.0e6);
        prop_assert!(f >= d.f_min_hz && f <= d.f_max_hz);
        let (hi, lo) = if freq_mhz >= lower_mhz { (freq_mhz, lower_mhz) } else { (lower_mhz, freq_mhz) };
        prop_assert!(d.dynamic_power_scale(hi * 1.0e6) >= d.dynamic_power_scale(lo * 1.0e6) - 1e-12);
    }

    /// The autotuner never proposes a frequency outside `[f_min, f_max]` or
    /// off the `f_step` grid, for any convex objective and any strategy, and
    /// always converges with a best frequency.
    #[test]
    fn autotune_proposals_stay_on_the_dvfs_grid(
        opt_mhz in 100.0f64..2000.0,
        curvature in 0.1f64..10.0,
        strategy_idx in 0usize..3,
    ) {
        let model = DvfsModel::nvidia_a100();
        let mut strategy: Box<dyn SearchStrategy> = match strategy_idx {
            0 => Box::new(ExhaustiveSweep::new(&model)),
            1 => Box::new(GoldenSection::new(&model)),
            _ => Box::new(HillClimb::new(&model)),
        };
        let mut evaluations = 0;
        while let Some(f) = strategy.propose() {
            prop_assert!(f >= model.f_min_hz && f <= model.f_max_hz, "out of range: {} Hz", f);
            let steps = (f - model.f_min_hz) / model.f_step_hz;
            prop_assert!((steps - steps.round()).abs() < 1e-6, "off grid: {} Hz", f);
            let x = (f / 1.0e6 - opt_mhz) / 1.0e3;
            strategy.observe(f, 1.0 + curvature * x * x);
            evaluations += 1;
            prop_assert!(evaluations <= 200, "strategy failed to converge");
        }
        prop_assert!(strategy.is_converged());
        prop_assert!(strategy.best_frequency().is_some());
    }

    /// Minimum-image displacement: antisymmetric under i ↔ j (so pairwise
    /// forces cancel exactly), bounded by half the box space diagonal, and
    /// invariant under integer box-vector shifts of either particle.
    #[test]
    fn min_image_is_symmetric_bounded_and_shift_invariant(
        lx in 0.5f64..4.0, ly in 0.5f64..4.0, lz in 0.5f64..4.0,
        dx in -10.0f64..10.0, dy in -10.0f64..10.0, dz in -10.0f64..10.0,
        kx in -3i64..4, ky in -3i64..4, kz in -3i64..4,
    ) {
        let boundary = Boundary::Periodic {
            box_min: (0.0, 0.0, 0.0),
            box_max: (lx, ly, lz),
        };
        let mi = MinImage::of(&boundary);
        let (mx, my, mz) = mi.map(dx, dy, dz);

        // The scalar convenience helper evaluates the identical expression.
        prop_assert_eq!(dx_periodic(&boundary, dx, dy, dz), (mx, my, mz));

        // Antisymmetry is exact in floating point: negating the raw
        // displacement negates the image bit for bit.
        let (nx, ny, nz) = mi.map(-dx, -dy, -dz);
        prop_assert_eq!(nx.to_bits(), (-mx).to_bits());
        prop_assert_eq!(ny.to_bits(), (-my).to_bits());
        prop_assert_eq!(nz.to_bits(), (-mz).to_bits());

        // Bounded by half the box space diagonal (and per-axis by half the
        // edge, up to rounding).
        let norm = (mx * mx + my * my + mz * mz).sqrt();
        prop_assert!(norm <= boundary.half_diagonal() * (1.0 + 1e-12));
        prop_assert!(mx.abs() <= 0.5 * lx * (1.0 + 1e-12));
        prop_assert!(my.abs() <= 0.5 * ly * (1.0 + 1e-12));
        prop_assert!(mz.abs() <= 0.5 * lz * (1.0 + 1e-12));

        // Shifting either particle by whole box vectors leaves the image
        // unchanged (to rounding in the shifted sum).
        let (sx, sy, sz) = mi.map(
            dx + kx as f64 * lx,
            dy + ky as f64 * ly,
            dz + kz as f64 * lz,
        );
        // Displacements that land within rounding of the half-edge tie are
        // legitimately ambiguous between the ±L/2 images; compare circularly.
        let circ = |a: f64, b: f64, l: f64| {
            let d = (a - b).abs();
            d.min((d - l).abs()) <= 1e-9 * l.max(1.0)
        };
        prop_assert!(circ(sx, mx, lx), "{} vs {}", sx, mx);
        prop_assert!(circ(sy, my, ly), "{} vs {}", sy, my);
        prop_assert!(circ(sz, mz, lz), "{} vs {}", sz, mz);
    }

    /// CSR neighbour lists on a periodic lattice are translation-invariant:
    /// shifting every particle by the same box fraction (then wrapping)
    /// produces the identical neighbour multiset for every particle.
    #[test]
    fn periodic_csr_lists_are_translation_invariant(
        shift_x in 0.0f64..1.0, shift_y in 0.0f64..1.0, shift_z in 0.0f64..1.0,
    ) {
        let mut base = lattice_cube(5, 1.0, 1.0, 1.2);
        base.boundary = Boundary::unit_box();
        let mut shifted = base.clone();
        for i in 0..shifted.len() {
            shifted.x[i] += shift_x;
            shifted.y[i] += shift_y;
            shifted.z[i] += shift_z;
        }
        shifted.wrap_positions();

        let base_nl = find_neighbors(&mut base);
        let shifted_nl = find_neighbors(&mut shifted);

        prop_assert_eq!(base_nl.len(), shifted_nl.len());
        for i in 0..base_nl.len() {
            let mut a: Vec<u32> = base_nl.neighbors(i).to_vec();
            let mut b: Vec<u32> = shifted_nl.neighbors(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "row {} differs after translation", i);
            prop_assert_eq!(base.neighbor_count[i], shifted.neighbor_count[i]);
        }
    }

    /// After rung assignment plus limiter rounds to the fixpoint, every
    /// neighbouring pair's rungs differ by at most one level — on open and
    /// periodic random clouds alike. The limiter is raise-only Jacobi, so it
    /// must also reach the fixpoint in at most `n_bins` rounds (one rung-gap
    /// hop propagates per round, and rungs are bounded by `n_bins − 1`).
    #[test]
    fn timestep_limiter_fixpoint_bounds_neighbour_rung_gaps(
        points in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 20..80),
        speeds in proptest::collection::vec(0.01f64..100.0, 80..81),
        periodic_bit in 0usize..2,
    ) {
        let periodic = periodic_bit == 1;
        let n = points.len();
        let mut p = ParticleSet::with_capacity(n);
        for &(x, y, z) in &points {
            p.push(x, y, z, 0.0, 0.0, 0.0, 1.0, 0.15, 1.0);
        }
        if periodic {
            p.boundary = Boundary::unit_box();
        }
        p.c = speeds[..n].to_vec();
        let nl = find_neighbors(&mut p);

        let mut bins = TimestepBins::new(8);
        bins.plan(courant_timestep_prefix(&p, n, 0.05), 0.05);
        bins.assign_rungs(&mut p, n);
        let mut rounds = 0;
        while bins.limiter_round(&mut p, &nl, n).is_none() {
            rounds += 1;
            prop_assert!(rounds <= bins.n_bins(), "limiter failed to converge in n_bins rounds");
        }
        for i in 0..n {
            for &j in nl.neighbors(i) {
                let (ki, kj) = (p.rung[i] as i32, p.rung[j as usize] as i32);
                prop_assert!(
                    (ki - kj).abs() <= 1,
                    "neighbours {} (rung {}) and {} (rung {}) violate the one-level limiter",
                    i, ki, j, kj
                );
            }
        }
    }

    /// The limiter couples rungs *across the periodic wrap seam*: a slow
    /// cluster hugging the x = 0 face only overlaps a fast (deep-rung)
    /// cluster hugging x = 1 through the seam, yet must end within one rung
    /// of it. A one-sided seam in the CSR rows or a limiter that ignores
    /// image neighbours shows up here as an untouched rung-0 cluster.
    #[test]
    fn timestep_limiter_reaches_across_the_wrap_seam(
        fast_c in 50.0f64..200.0,
        slow_c in 0.01f64..0.05,
        jitter in 0.0f64..0.01,
    ) {
        let mut p = ParticleSet::with_capacity(16);
        // Two 2×2×2 micro-lattices: one against x = 0, one against x = 1.
        // h = 0.05 gives a 0.1 support radius — the 0.06 cross-seam gap is
        // inside it, the 0.9 direct gap is far outside.
        for cluster in 0..2 {
            let x0 = if cluster == 0 { 0.01 } else { 0.95 };
            for dx in 0..2 {
                for dy in 0..2 {
                    for dz in 0..2 {
                        p.push(
                            x0 + 0.02 * dx as f64 + jitter,
                            0.4 + 0.02 * dy as f64,
                            0.4 + 0.02 * dz as f64,
                            0.0, 0.0, 0.0,
                            1.0, 0.05, 1.0,
                        );
                    }
                }
            }
        }
        p.boundary = Boundary::unit_box();
        p.c = (0..16).map(|i| if i < 8 { slow_c } else { fast_c }).collect();
        let nl = find_neighbors(&mut p);
        // The clusters must actually interact through the seam only.
        let crossing = (0..8usize).any(|i| nl.neighbors(i).iter().any(|&j| j >= 8));
        prop_assert!(crossing, "clusters must see each other through the wrap seam");

        let mut bins = TimestepBins::new(8);
        bins.plan(courant_timestep_prefix(&p, 16, 0.05), 0.05);
        bins.assign_rungs(&mut p, 16);
        let spread_before = p.rung[..16].iter().max().unwrap() - p.rung[..16].iter().min().unwrap();
        prop_assert!(spread_before >= 2, "the sound-speed contrast must split the rungs");
        while bins.limiter_round(&mut p, &nl, 16).is_none() {}
        for i in 0..16 {
            for &j in nl.neighbors(i) {
                let (ki, kj) = (p.rung[i] as i32, p.rung[j as usize] as i32);
                prop_assert!(
                    (ki - kj).abs() <= 1,
                    "seam pair {} (rung {}) / {} (rung {}) violates the one-level limiter",
                    i, ki, j, kj
                );
            }
        }
        // The slow cluster was dragged up through the seam, not left alone.
        let deep = *p.rung[8..16].iter().max().unwrap();
        prop_assert!(
            p.rung[..8].iter().all(|&k| k + 1 >= deep),
            "slow cluster rungs {:?} not within one level of the fast cluster's {deep}",
            &p.rung[..8]
        );
    }

    /// SPH cubic kernel: non-negative, compact support, normalised within 1 %.
    #[test]
    fn kernel_properties(h in 0.05f64..5.0) {
        use energy_aware_sim::sphsim::kernels::{w_cubic, KERNEL_SUPPORT};
        prop_assert!(w_cubic(KERNEL_SUPPORT * h * 1.001, h) == 0.0);
        prop_assert!(w_cubic(0.0, h) > 0.0);
        // Normalisation via coarse radial integration.
        let n = 500;
        let dr = KERNEL_SUPPORT * h / n as f64;
        let integral: f64 = (0..n)
            .map(|i| {
                let r = (i as f64 + 0.5) * dr;
                4.0 * std::f64::consts::PI * r * r * w_cubic(r, h) * dr
            })
            .sum();
        prop_assert!((integral - 1.0).abs() < 0.01, "integral {}", integral);
    }
}

// The text parsers never panic: on any string drawn from their grammar's
// alphabet (plus non-ASCII characters), and on a valid document with one
// character replaced, inserted or deleted — at every position, with the
// operation and the character drawn per case — each returns `Ok` or its typed
// error.

const JSON_ALPHABET: &[char] = &[
    ' ', '"', '\\', 'u', 'D', '8', '0', 'C', 'E', 'F', 'a', 'e', 'E', '{', '}', '[', ']', ',', ':', '-', '+', '.', '1',
    '9', 't', 'r', 'n', 'l', 'f', 's', 'b', '/', '\n', '\u{1}', 'é', '✓', '😀',
];
const CSV_ALPHABET: &[char] = &[
    ',', '\n', ' ', '.', '-', '+', '0', '1', '9', 'e', 'E', 'x', ':', 'g', 'p', 'u', 'c', 'n', 'o', 'd', 'a', 'r', 'm',
    '_', 'i', 'N', 'f', 'é', '😀',
];
const PM_COUNTER_ALPHABET: &[char] = &[
    ' ', '\n', '\t', '0', '1', '6', '7', '.', '-', '+', 'e', 'W', 'J', 'u', 's', 'n', 'a', 'i', 'f', 'N', 'é', '😀',
];
const DOMAIN_ALPHABET: &[char] = &[
    'n', 'o', 'd', 'e', 'c', 'p', 'u', 'g', '_', 'a', 'r', 'm', 't', 'h', ':', '0', '3', '9', '-', '+', ' ', 'é', '😀',
];

/// The string that `picks` spells in `alphabet`.
fn spell(alphabet: &[char], picks: &[u8]) -> String {
    picks.iter().map(|&i| alphabet[usize::from(i) % alphabet.len()]).collect()
}

/// `valid` with one character replaced (`op` 0), inserted (1) or deleted (2),
/// once at every position; `with` picks the new character from `alphabet`.
fn one_edit_away(valid: &str, alphabet: &[char], (op, with): (u8, u8)) -> Vec<String> {
    let chars: Vec<char> = valid.chars().collect();
    let with = alphabet[usize::from(with) % alphabet.len()];
    (0..=chars.len())
        .filter_map(|at| {
            let mut edited = chars.clone();
            match op {
                0 if at < edited.len() => edited[at] = with,
                1 => edited.insert(at, with),
                _ if at < edited.len() => {
                    edited.remove(at);
                }
                _ => return None,
            }
            Some(edited.into_iter().collect())
        })
        .collect()
}

const VALID_JSON: &[&str] = &[
    r#""\uD83D\uDE00""#,
    r#"{"a":[1,-2.5e3,0.5E+1,true,false,null],"b":{}}"#,
    r#"["a\"\\\/\b\f\n\r\t😀é"]"#,
];

fn valid_report_csv() -> String {
    let mut energy = energy_aware_sim::pmt::DomainEnergies::new();
    energy.insert(Domain::gpu(0), 12.5);
    energy.insert(Domain::node(), 40.0);
    let records =
        [("XMass", Some(3)), ("XMass", Some(3)), ("Step", None)].map(|(label, iteration)| MeasurementRecord {
            label: label.into(),
            iteration,
            start_s: 0.25,
            end_s: 1.5,
            energy_j: energy.clone(),
        });
    let report = RankReport {
        rank: 1,
        hostname: "nid000001".into(),
        records: Vec::from(records).into(),
    };
    report.to_csv()
}

proptest! {
    #[test]
    fn json_parse_never_panics(picks in proptest::collection::vec(0u8..64, 0..64), change in (0u8..3, 0u8..64)) {
        let drawn = spell(JSON_ALPHABET, &picks);
        let _ = telemetry_json::parse(&drawn);
        let _ = telemetry_json::parse(&format!("\"{drawn}\""));
        for valid in VALID_JSON {
            for doc in one_edit_away(valid, JSON_ALPHABET, change) {
                let _ = telemetry_json::parse(&doc);
            }
        }
    }

    #[test]
    fn report_from_csv_never_panics(picks in proptest::collection::vec(0u8..64, 0..64), change in (0u8..3, 0u8..64)) {
        let drawn = spell(CSV_ALPHABET, &picks);
        let _ = RankReport::from_csv(&drawn);
        let _ = RankReport::from_csv(&format!("label,rank,hostname,iteration,start_s,end_s,domain,energy_j\n{drawn}"));
        for doc in one_edit_away(&valid_report_csv(), CSV_ALPHABET, change) {
            let _ = RankReport::from_csv(&doc);
        }
    }

    #[test]
    fn pm_counter_parse_never_panics(picks in proptest::collection::vec(0u8..64, 0..64), change in (0u8..3, 0u8..64)) {
        let drawn = spell(PM_COUNTER_ALPHABET, &picks);
        let edited = one_edit_away("1667 W 1600000000 us\n", PM_COUNTER_ALPHABET, change);
        for unit in ["W", "J"] {
            let _ = parse_pm_counter(&drawn, unit);
            for doc in &edited {
                let _ = parse_pm_counter(doc, unit);
            }
        }
    }

    #[test]
    fn domain_from_str_never_panics(picks in proptest::collection::vec(0u8..64, 0..64), change in (0u8..3, 0u8..64)) {
        let _ = spell(DOMAIN_ALPHABET, &picks).parse::<Domain>();
        for doc in one_edit_away("gpu_card:3", DOMAIN_ALPHABET, change) {
            let _ = doc.parse::<Domain>();
        }
    }
}
