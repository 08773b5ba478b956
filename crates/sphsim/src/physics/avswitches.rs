//! Artificial-viscosity switches (`AVSwitches` stage).
//!
//! The Balsara (1995) limiter suppresses artificial viscosity in shear-dominated
//! flow: `f_i = |∇·v| / (|∇·v| + |∇×v| + ε c/h)`, and the per-particle
//! viscosity coefficient relaxes towards `α_min + (α_max − α_min)·f` with
//! compression (negative divergence) pushing it up faster.

use crate::parallel::for_each_row;
use crate::particle::ParticleSet;
use crate::physics::timestep::TimestepBins;

/// Lower bound of the per-particle viscosity coefficient.
const ALPHA_MIN: f64 = 0.05;
/// Upper bound of the per-particle viscosity coefficient.
const ALPHA_MAX: f64 = 1.0;

/// Balsara limiter value for one particle.
fn balsara_limiter(div_v: f64, curl_v: f64, c: f64, h: f64) -> f64 {
    let eps = 1e-4 * c / h.max(1e-30);
    let abs_div = div_v.abs();
    abs_div / (abs_div + curl_v.abs() + eps)
}

/// Relax the artificial-viscosity coefficient of `rows` (`None`: every
/// particle) in place (purely row-local). Each row relaxes over the time
/// since its own last kick: `dt` under global timestepping, its rung's dt —
/// not the substep dt — under `bins`. Before the first cycle plan
/// (`dt_base == 0`) no rung schedule exists yet and every row falls back to
/// `dt`, exactly like the global-dt scheme's first step.
pub fn update_av_switches(particles: &mut ParticleSet, dt: f64, bins: Option<&TimestepBins>, rows: Option<&[u32]>) {
    let bins = bins.filter(|b| b.dt_base() != 0.0);
    let ParticleSet {
        h,
        c,
        div_v,
        curl_v,
        alpha,
        rung,
        ..
    } = particles;
    for_each_row(rows, [&mut alpha[..]], |i, [alpha]| {
        let dt = bins.map_or(dt, |b| b.rung_dt(rung[i]));
        let f = balsara_limiter(div_v[i], curl_v[i], c[i].max(1e-12), h[i]);
        let target = if div_v[i] < 0.0 {
            // Compression: raise viscosity proportionally to the limiter.
            ALPHA_MIN + (ALPHA_MAX - ALPHA_MIN) * f
        } else {
            ALPHA_MIN
        };
        // Relax towards the target on a few-sound-crossing timescale.
        let decay_time = 5.0 * h[i] / c[i].max(1e-12);
        let w = (dt / decay_time.max(1e-30)).clamp(0.0, 1.0);
        *alpha = (*alpha + (target - *alpha) * w).clamp(ALPHA_MIN, ALPHA_MAX);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limiter_is_one_for_pure_compression() {
        let f = balsara_limiter(-5.0, 0.0, 1.0, 0.1);
        assert!(f > 0.99);
    }

    #[test]
    fn limiter_is_small_for_pure_shear() {
        let f = balsara_limiter(-0.01, 10.0, 1.0, 0.1);
        assert!(f < 0.01);
    }

    #[test]
    fn limiter_is_bounded() {
        for &(d, c) in &[(0.0, 0.0), (-3.0, 2.0), (4.0, 0.5), (-1e6, 1e6)] {
            let f = balsara_limiter(d, c, 1.0, 0.1);
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn alpha_rises_under_compression_and_decays_otherwise() {
        let mut p = ParticleSet::with_capacity(2);
        p.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        p.push(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        p.c = vec![1.0, 1.0];
        p.alpha = vec![ALPHA_MIN, ALPHA_MAX];
        p.div_v = vec![-10.0, 1.0]; // particle 0 compressing, particle 1 expanding
        p.curl_v = vec![0.0, 0.0];
        // Integrate a few steps.
        for _ in 0..50 {
            update_av_switches(&mut p, 0.05, None, None);
        }
        assert!(
            p.alpha[0] > 0.5,
            "compressing particle should gain viscosity: {}",
            p.alpha[0]
        );
        assert!(
            p.alpha[1] < 0.2,
            "expanding particle should relax to the floor: {}",
            p.alpha[1]
        );
        assert!(p.alpha.iter().all(|&a| (ALPHA_MIN..=ALPHA_MAX).contains(&a)));
    }
}
