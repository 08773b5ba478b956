//! # pmt — Power Measurement Toolkit (Rust)
//!
//! An application-level power and energy measurement library in the spirit of
//! the Power Measurement Toolkit (PMT) used in
//! *"Accurate Measurement of Application-level Energy Consumption for
//! Energy-Aware Large-Scale Simulations"* (SC 2023): a **common interface over a
//! comprehensive set of power-measurement back-ends**, plus the region/hook
//! instrumentation needed to attribute energy to individual simulation
//! functions and devices.
//!
//! ## Pieces
//!
//! * [`sensor::Sensor`] — one source of power/energy readings covering one or
//!   more [`domain::Domain`]s (node, CPU package, GPU die, GPU card, memory).
//! * [`backends`] — RAPL (`powercap`), HPE/Cray `pm_counters`, NVML-style,
//!   ROCm-SMI-style and dummy back-ends. File-based back-ends parse the real
//!   kernel file formats; GPU back-ends talk to a tiny trait so that simulated
//!   or real devices plug in identically. The caller picks the back-ends a
//!   meter reads: a file back-end is built on its sysfs tree, a GPU back-end
//!   on an API handle.
//! * [`meter::PowerMeter`] — reads its sensors at every region boundary and
//!   on every explicit [`PowerMeter::poll`], integrates power into energy
//!   ([`integration::EnergyAccumulator`]), and measures labelled regions.
//! * [`clock`] — the meter's time source: wall, manual, or any [`Clock`].
//! * [`instrument::ProfilingHooks`] — the function-hook layer used to
//!   instrument a simulation's time-stepping loop, exactly as the paper does
//!   with SPH-EXA.
//! * [`report`] — per-rank measurement records, CSV round-trip, per-function
//!   aggregation for post-hoc analysis.
//!
//! ## Example
//!
//! ```
//! use pmt::backends::DummySensor;
//! use pmt::clock::ManualClock;
//! use pmt::{Domain, PowerMeter};
//!
//! // A meter over a 250 W "GPU" driven by a manual clock.
//! let clock = ManualClock::new();
//! let meter = PowerMeter::builder()
//!     .sensor(DummySensor::new(Domain::gpu(0), 250.0))
//!     .clock(clock.clone())
//!     .build();
//!
//! let (result, record) = meter
//!     .measure("MomentumEnergy", || {
//!         clock.advance(4.0); // the "kernel" takes 4 s
//!         2 + 2
//!     })
//!     .unwrap();
//!
//! assert_eq!(result, 4);
//! assert!((record.energy(Domain::gpu(0)) - 1000.0).abs() < 1e-9);
//! assert!((record.duration_s() - 4.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod backends;
pub mod clock;
pub mod domain;
pub mod error;
pub mod instrument;
pub mod integration;
pub mod meter;
#[cfg(test)]
mod meter_oracle;
pub mod report;
pub mod sample;
pub mod sensor;
pub mod units;

pub use clock::{Clock, ManualClock};
pub use domain::{Domain, DomainKind};
pub use error::{PmtError, Result};
pub use instrument::ProfilingHooks;
pub use integration::EnergyAccumulator;
pub use meter::{MeterBuilder, PowerMeter, RegionObserver};
pub use report::{aggregate_by_label, DomainEnergies, FunctionAggregate, Label, MeasurementRecord, RankReport};
pub use sample::DomainSample;
pub use sensor::Sensor;
