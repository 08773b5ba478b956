//! # autotune — online per-stage DVFS governance
//!
//! The paper finds the energy/runtime sweet spot of GPU frequency scaling
//! *offline*: sweep fixed compute clocks, record energy and time-to-solution,
//! read the minimum off the normalised EDP curve (Figures 4 and 5). This
//! crate closes that loop *online*: a [`Governor`] rides the measurement
//! infrastructure that already brackets every simulation stage
//! ([`pmt::PowerMeter`] regions) and steers the GPU clock toward the minimum
//! of each stage's energy-delay product (`energy_j * time_s`, the offline
//! analysis's arithmetic) while the campaign runs.
//!
//! The pieces, bottom-up:
//!
//! * [`strategy`] — how to search the DVFS grid:
//!   [`ExhaustiveSweep`] (the offline baseline), [`GoldenSection`] (O(log n)
//!   evaluations on the unimodal EDP curves) and [`HillClimb`] (the
//!   governor's search), all speaking one propose/observe protocol;
//! * [`actuator`] — how decisions reach hardware: [`FrequencyActuator`](actuator::FrequencyActuator)
//!   implemented by [`hwmodel::GpuHandle`] and a whole-[`ClusterActuator`];
//! * [`governor`] — the closed loop: a [`pmt::RegionObserver`] that proposes
//!   a frequency at every `start_region`, scores the finished record by the
//!   EDP of its GPU energy (dies or cards) at `end_region`, and keeps an
//!   independent hill-climb per governed label, so `MomentumEnergy` and
//!   `DomainDecompAndSync` each find their own optimum.
//!
//! ## Example: tune a synthetic stage offline
//!
//! ```
//! use autotune::strategy::{tune, GoldenSection, SearchStrategy};
//! use hwmodel::DvfsModel;
//!
//! let model = DvfsModel::nvidia_a100();
//! // A convex EDP-like curve with its minimum near 900 MHz.
//! let edp = |f_hz: f64| 1.0 + ((f_hz - 900.0e6) / 1.0e9).powi(2);
//! let mut search = GoldenSection::new(&model);
//! let result = tune(&mut search, edp, 1000).unwrap();
//! assert!((result.best_frequency_hz - 900.0e6).abs() <= 2.0 * model.f_step_hz);
//! assert!(result.evaluations < 30); // vs 81 grid points exhaustively
//! ```

#![warn(missing_docs)]

pub mod actuator;
pub mod governor;
pub mod strategy;

pub use actuator::ClusterActuator;
pub use governor::Governor;
pub use strategy::{tune, ExhaustiveSweep, GoldenSection, HillClimb, SearchStrategy, TuneResult};
