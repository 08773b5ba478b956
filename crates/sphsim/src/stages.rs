//! Named pipeline stages of the time-stepping loop.
//!
//! These are the functions whose per-call energy the paper reports (Figures 3
//! and 5). The same labels are used by the CPU reference propagator, the
//! GPU-offload workload model and the analysis crate, so that records produced
//! by either path aggregate identically.

/// One stage of the SPH-EXA-style time-stepping loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SphStage {
    /// Domain decomposition, octree sync and halo exchange.
    DomainDecompAndSync,
    /// Neighbour search.
    FindNeighbors,
    /// Density / volume-element computation.
    XMass,
    /// Grad-h normalisation terms.
    NormalizationGradh,
    /// Equation of state.
    EquationOfState,
    /// Integral-approximation derivatives: velocity divergence and curl.
    IADVelocityDivCurl,
    /// Artificial-viscosity switches.
    AVSwitches,
    /// Momentum and energy equations.
    MomentumEnergy,
    /// Self-gravity (Evrard collapse only).
    Gravity,
    /// Turbulence stirring forcing (subsonic turbulence only).
    Turbulence,
    /// Timestep computation (reduction).
    Timestep,
    /// Drift/kick update of positions, velocities and energies.
    UpdateQuantities,
}

impl SphStage {
    /// The label used in measurement records and in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SphStage::DomainDecompAndSync => "DomainDecompAndSync",
            SphStage::FindNeighbors => "FindNeighbors",
            SphStage::XMass => "XMass",
            SphStage::NormalizationGradh => "NormalizationGradh",
            SphStage::EquationOfState => "EquationOfState",
            SphStage::IADVelocityDivCurl => "IADVelocityDivCurl",
            SphStage::AVSwitches => "AVSwitches",
            SphStage::MomentumEnergy => "MomentumEnergy",
            SphStage::Gravity => "Gravity",
            SphStage::Turbulence => "Turbulence",
            SphStage::Timestep => "Timestep",
            SphStage::UpdateQuantities => "UpdateQuantities",
        }
    }

    /// Every stage, in pipeline order.
    pub fn all() -> Vec<SphStage> {
        vec![
            SphStage::DomainDecompAndSync,
            SphStage::FindNeighbors,
            SphStage::XMass,
            SphStage::NormalizationGradh,
            SphStage::EquationOfState,
            SphStage::IADVelocityDivCurl,
            SphStage::AVSwitches,
            SphStage::MomentumEnergy,
            SphStage::Gravity,
            SphStage::Turbulence,
            SphStage::Timestep,
            SphStage::UpdateQuantities,
        ]
    }

    /// The [`crate::ParticleSet::lane_names`] the stage writes on the rows it
    /// runs — what the step driver's non-finite guard reads back after its
    /// body. `DomainDecompAndSync` moves whole particles (migration, re-sort):
    /// every lane; `UpdateQuantities` runs every row, since everybody drifts.
    pub(crate) fn output_lanes(&self) -> &'static [&'static str] {
        match self {
            SphStage::DomainDecompAndSync => &crate::particle::LANE_NAMES,
            SphStage::FindNeighbors | SphStage::Timestep => &[],
            SphStage::XMass => &["h", "rho"],
            SphStage::NormalizationGradh => &["omega"],
            SphStage::EquationOfState => &["p", "c"],
            SphStage::IADVelocityDivCurl => &["div_v", "curl_v"],
            SphStage::AVSwitches => &["alpha"],
            SphStage::MomentumEnergy => &["ax", "ay", "az", "du"],
            SphStage::Gravity | SphStage::Turbulence => &["ax", "ay", "az"],
            SphStage::UpdateQuantities => &["x", "y", "z", "vx", "vy", "vz", "u"],
        }
    }

    /// True if the stage involves inter-rank communication.
    pub fn is_communication(&self) -> bool {
        matches!(self, SphStage::DomainDecompAndSync | SphStage::Timestep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        // A label names one stage only: records and spans are keyed by it.
        let labels: std::collections::BTreeSet<&str> = SphStage::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), SphStage::all().len());
    }

    #[test]
    fn pipeline_contains_the_paper_functions() {
        let labels: Vec<&str> = SphStage::all().iter().map(|s| s.label()).collect();
        for expected in [
            "DomainDecompAndSync",
            "XMass",
            "NormalizationGradh",
            "IADVelocityDivCurl",
            "AVSwitches",
            "MomentumEnergy",
            "Gravity",
        ] {
            assert!(labels.contains(&expected), "missing stage {expected}");
        }
    }

    #[test]
    fn communication_stages_flagged() {
        assert!(SphStage::DomainDecompAndSync.is_communication());
        assert!(!SphStage::MomentumEnergy.is_communication());
    }
}
