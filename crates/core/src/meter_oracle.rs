//! Reference model of the meter's bookkeeping — tests only.
//!
//! [`Oracle`] is the bookkeeping [`PowerMeter`] had before it went dense:
//! three `BTreeMap`s rebuilt at every boundary, a `String` and a map owned by
//! every record. It is kept the way the pair kernels keep their `branchy`
//! shapes — as the slow, obviously-right thing the fast path must equal bit
//! for bit — and differs from that code in exactly one way, the end-of-region
//! fix: a region whose closing read fails is closed, not leaked.
//!
//! The property at the bottom drives a two-sensor meter (one counter-based,
//! one power-only whose domain set grows mid-run, either failing at random
//! boundaries) and the oracle through the same random interleaving of polls,
//! nested, sequential and out-of-order regions, refused calls and clock
//! advances, and compares every outcome, every record and the cumulative
//! energies to the last bit.

use crate::clock::ManualClock;
use crate::domain::Domain;
use crate::error::PmtError;
use crate::integration::EnergyAccumulator;
use crate::meter::{PowerMeter, RegionObserver};
use crate::report::MeasurementRecord;
use crate::sample::DomainSample;
use crate::sensor::Sensor;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why a boundary was refused; what the meter's error must map onto.
#[derive(Debug, PartialEq)]
enum Refusal {
    SensorFailed,
    AlreadyActive,
    NeverStarted,
}

impl From<&PmtError> for Refusal {
    fn from(err: &PmtError) -> Self {
        match err {
            PmtError::BackendUnavailable { .. } => Refusal::SensorFailed,
            PmtError::RegionAlreadyActive(_) => Refusal::AlreadyActive,
            PmtError::InvalidState(_) => Refusal::NeverStarted,
            other => panic!("the scripted meter cannot fail with {other}"),
        }
    }
}

#[derive(Debug, PartialEq)]
struct OracleRecord {
    label: String,
    iteration: Option<u64>,
    start_s: f64,
    end_s: f64,
    energy_j: BTreeMap<Domain, f64>,
}

struct OracleStart {
    start_s: f64,
    energy: BTreeMap<Domain, f64>,
    iteration: Option<u64>,
}

#[derive(Default)]
struct Oracle {
    accums: BTreeMap<Domain, EnergyAccumulator>,
    active: BTreeMap<String, OracleStart>,
    records: Vec<OracleRecord>,
    iteration: Option<u64>,
    polls: u64,
}

impl Oracle {
    /// `readings` is `None` when any sensor failed: nothing is folded.
    fn poll(&mut self, now: f64, readings: Option<&[DomainSample]>) -> Result<(), Refusal> {
        let readings = readings.ok_or(Refusal::SensorFailed)?;
        for sample in readings {
            self.accums.entry(sample.domain).or_default().update(now, sample);
        }
        self.polls += 1;
        Ok(())
    }

    fn snapshot_energy(&self) -> BTreeMap<Domain, f64> {
        self.accums.iter().map(|(d, acc)| (*d, acc.energy_j())).collect()
    }

    fn start_region(&mut self, label: &str, now: f64, readings: Option<&[DomainSample]>) -> Result<(), Refusal> {
        self.poll(now, readings)?;
        if self.active.contains_key(label) {
            return Err(Refusal::AlreadyActive);
        }
        let start = OracleStart {
            start_s: now,
            energy: self.snapshot_energy(),
            iteration: self.iteration,
        };
        self.active.insert(label.to_string(), start);
        Ok(())
    }

    fn end_region(
        &mut self,
        label: &str,
        now: f64,
        readings: Option<&[DomainSample]>,
    ) -> Result<&OracleRecord, Refusal> {
        let polled = self.poll(now, readings);
        // The fix: the region leaves `active` whether or not its closing read
        // succeeded.
        let start = self.active.remove(label);
        polled?;
        let start = start.ok_or(Refusal::NeverStarted)?;
        let mut energy_j = BTreeMap::new();
        for (domain, end_e) in &self.snapshot_energy() {
            let start_e = start.energy.get(domain).copied().unwrap_or(0.0);
            energy_j.insert(*domain, (end_e - start_e).max(0.0));
        }
        self.records.push(OracleRecord {
            label: label.to_string(),
            iteration: start.iteration,
            start_s: start.start_s,
            end_s: now,
            energy_j,
        });
        Ok(self.records.last().expect("just pushed"))
    }
}

/// A sensor that returns whatever the script put in it; `None` fails the read.
struct Scripted(Mutex<Option<Vec<DomainSample>>>);

impl Sensor for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }

    fn domains(&self) -> Vec<Domain> {
        Vec::new()
    }

    fn sample_into(&self, out: &mut Vec<DomainSample>) -> crate::error::Result<()> {
        match &*self.0.lock() {
            Some(readings) => out.extend_from_slice(readings),
            None => return Err(PmtError::unavailable("scripted", "scripted failure")),
        }
        Ok(())
    }
}

/// Counts the boundaries it is told about, so the comparison also covers the
/// observer path (which must see exactly the successful boundaries).
#[derive(Default)]
struct Tally(Mutex<(usize, usize)>);

impl RegionObserver for Tally {
    fn on_region_start(&self, _label: &str, _time_s: f64) {
        self.0.lock().0 += 1;
    }

    fn on_region_end(&self, _record: &MeasurementRecord) {
        self.0.lock().1 += 1;
    }
}

fn bits(energies: impl Iterator<Item = (Domain, f64)>) -> Vec<(Domain, u64)> {
    energies.map(|(d, j)| (d, j.to_bits())).collect()
}

fn assert_same_record(real: &MeasurementRecord, model: &OracleRecord) {
    assert_eq!(real.label, model.label);
    assert_eq!(real.iteration, model.iteration);
    assert_eq!(real.start_s.to_bits(), model.start_s.to_bits());
    assert_eq!(real.end_s.to_bits(), model.end_s.to_bits());
    assert_eq!(
        bits(real.energy_j.iter().map(|(d, j)| (*d, *j))),
        bits(model.energy_j.iter().map(|(d, j)| (*d, *j))),
        "energies of {:?}, in iteration order",
        model.label
    );
}

const LABELS: [&str; 3] = ["TimeSteppingLoop", "MomentumEnergy", "XMass"];

proptest! {
    #[test]
    fn dense_meter_equals_the_btreemap_reference_bit_for_bit(
        script in proptest::collection::vec((0u32..100, 0usize..3, 0.0f64..2.0, 0.0f64..500.0), 1..120),
    ) {
        let clock = ManualClock::new();
        let counters = Arc::new(Scripted(Mutex::new(None)));
        let powers = Arc::new(Scripted(Mutex::new(None)));
        let tally = Arc::new(Tally::default());
        let meter = PowerMeter::builder()
            .shared_sensor(counters.clone() as Arc<dyn Sensor>)
            .shared_sensor(powers.clone() as Arc<dyn Sensor>)
            .clock(clock.clone())
            .rank(3)
            .build();
        meter.add_region_observer(tally.clone());
        let mut oracle = Oracle::default();

        let (mut now, mut node_j, mut cpu_j, mut grown) = (0.0f64, 0.0f64, 0.0f64, false);
        let (mut starts, mut ends) = (0usize, 0usize);
        for (op, which, dt, watts) in script {
            let label = LABELS[which];
            // What the two sensors will say at this step. The counter sensor
            // fails on one value in twenty, the power sensor on another.
            let counter_readings = (watts >= 25.0).then(|| vec![
                DomainSample::both(Domain::node(), watts, node_j),
                DomainSample::energy(Domain::cpu(0), cpu_j),
            ]);
            // Deliberately not in `Domain` order, and overlapping the counter
            // sensor on cpu:0 once grown: position hints must never be trusted
            // beyond the domain they carry.
            let power_readings = (watts < 475.0).then(|| {
                let mut readings = vec![DomainSample::power(Domain::gpu_card(1), 0.5 * watts)];
                if grown {
                    readings.push(DomainSample::power(Domain::gpu(0), 0.25 * watts));
                    readings.push(DomainSample::power(Domain::other(), 7.0));
                    readings.push(DomainSample::power(Domain::cpu(0), 1.0));
                }
                readings
            });
            let all: Option<Vec<DomainSample>> = match (&counter_readings, &power_readings) {
                (Some(a), Some(b)) => Some(a.iter().chain(b).copied().collect()),
                _ => None,
            };
            *counters.0.lock() = counter_readings;
            *powers.0.lock() = power_readings;

            match op {
                0..=9 => {
                    let real = meter.poll().map(|_| ()).map_err(|e| Refusal::from(&e));
                    prop_assert_eq!(real, oracle.poll(now, all.as_deref()));
                }
                10..=39 => {
                    let real = meter.start_region(label).map_err(|e| Refusal::from(&e));
                    starts += usize::from(real.is_ok());
                    prop_assert_eq!(real, oracle.start_region(label, now, all.as_deref()));
                }
                40..=69 => {
                    let real = meter.end_region(label).map_err(|e| Refusal::from(&e));
                    ends += usize::from(real.is_ok());
                    match (real, oracle.end_region(label, now, all.as_deref())) {
                        (Ok(()), Ok(model)) => {
                            assert_same_record(meter.records().last().expect("the close stored a record"), model);
                        }
                        (Err(real), Err(model)) => prop_assert_eq!(real, model),
                        (real, model) => panic!("meter {real:?} but reference {model:?}"),
                    }
                }
                70..=86 => {
                    clock.advance(dt);
                    now += dt;
                    node_j += watts * dt;
                    cpu_j += 0.2 * watts * dt;
                }
                87..=92 => {
                    let iteration = (which > 0).then_some(which as u64 + 40);
                    meter.set_iteration(iteration);
                    oracle.iteration = iteration;
                }
                _ => grown = true,
            }
        }

        let report = meter.report();
        prop_assert_eq!(report.rank, 3);
        prop_assert_eq!(report.records.len(), oracle.records.len());
        for (real, model) in report.records.iter().zip(&oracle.records) {
            assert_same_record(real, model);
        }
        prop_assert_eq!(
            bits(meter.total_energy_by_domain().into_iter()),
            bits(oracle.snapshot_energy().into_iter())
        );
        prop_assert_eq!(meter.poll_count(), oracle.polls);
        prop_assert_eq!(*tally.0.lock(), (starts, ends));
    }
}
