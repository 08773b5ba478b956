//! SPH physics kernels.
//!
//! Each sub-module corresponds to one named stage of the SPH-EXA time-stepping
//! loop, the same stages whose per-function energy the paper reports in
//! Figures 3 and 5:
//!
//! | Module | Pipeline stage |
//! |---|---|
//! | [`neighbors`] | `FindNeighbors` |
//! | [`density`] | `XMass` (density / volume elements) |
//! | [`gradh`] | `NormalizationGradh` |
//! | [`eos`] | `EquationOfState` |
//! | [`iad`] | `IADVelocityDivCurl` |
//! | [`avswitches`] | `AVSwitches` |
//! | [`momentum`] | `MomentumEnergy` |
//! | [`gravity`] | `Gravity` |
//! | [`timestep`] | `Timestep` |
//! | [`turbulence`] | `Turbulence` (stirring forcing) |
//!
//! Every stage kernel is a single function taking `rows: Option<&[u32]>` —
//! `None`: every particle, without materialising `0..n`; `Some`: an ascending
//! row list (the active set of an individual-timestep substep, or one part of
//! a distributed rank's overlap split) — and writes its output lanes **in
//! place** through the one row dispatch in [`crate::parallel`]. Rows outside
//! the set are not touched, and a row's result does not depend on which other
//! rows run with it (pinned by `tests/stage_kernel_rows.rs`), so both
//! propagators run one step body in which global dt is the schedule whose
//! every row is always active.

pub mod avswitches;
pub mod density;
pub mod eos;
pub mod gradh;
pub mod gravity;
pub mod iad;
pub mod momentum;
pub mod neighbors;
pub mod timestep;
pub mod turbulence;
