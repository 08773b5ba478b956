//! PMT-vs-Slurm validation (Figure 1).
//!
//! Slurm reports one energy figure per job measured from submission to
//! completion; the PMT instrumentation measures only the time-stepping loop and
//! only the devices it can see. The comparison therefore shows PMT slightly
//! *below* Slurm, with the gap dominated by the job/application setup phase —
//! the observation the paper uses to argue the difference is benign. The PMT
//! side is the loop label's `node_j` under the §2 rules
//! ([`crate::device_breakdown::device_breakdown`]).

/// One PMT-vs-Slurm comparison point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PmtSlurmComparison {
    /// Number of GPU cards used by the job (the x-axis of Figure 1).
    pub gpu_cards: usize,
    /// Energy measured by the PMT instrumentation over the time-stepping loop,
    /// in joules.
    pub pmt_energy_j: f64,
    /// Energy reported by Slurm for the whole job, in joules.
    pub slurm_energy_j: f64,
}

impl PmtSlurmComparison {
    /// PMT / Slurm ratio (≤ 1 when PMT underestimates, as in the paper).
    pub fn ratio(&self) -> f64 {
        if self.slurm_energy_j <= 0.0 {
            return 0.0;
        }
        self.pmt_energy_j / self.slurm_energy_j
    }

    /// Relative underestimation of PMT with respect to Slurm, in percent.
    pub(crate) fn underestimation_percent(&self) -> f64 {
        100.0 * (1.0 - self.ratio())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_underestimation() {
        let c = PmtSlurmComparison {
            gpu_cards: 8,
            pmt_energy_j: 900.0,
            slurm_energy_j: 1000.0,
        };
        assert!((c.ratio() - 0.9).abs() < 1e-12);
        assert!((c.underestimation_percent() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_slurm_energy_is_safe() {
        let c = PmtSlurmComparison {
            gpu_cards: 1,
            pmt_energy_j: 10.0,
            slurm_energy_j: 0.0,
        };
        assert_eq!(c.ratio(), 0.0);
    }
}
