//! The power meter: sampling, integration and region measurement.
//!
//! A [`PowerMeter`] owns a set of [`Sensor`]s and a [`Clock`] and provides:
//!
//! * **polling** — [`PowerMeter::poll`] reads every sensor once and folds the
//!   readings into per-domain [`EnergyAccumulator`]s;
//! * **regions** — [`PowerMeter::start_region`] / [`PowerMeter::end_region`]
//!   bracket a code section (the SPH-EXA function hooks of the paper) and
//!   attribute the energy consumed in between to a labelled
//!   [`MeasurementRecord`]. Region boundaries force a poll, so counter-based
//!   back-ends yield exact per-region energy. Boundaries and explicit polls
//!   are the only reads, so a power-only back-end whose power changes
//!   mid-region needs a [`PowerMeter::poll`] when it does (on a simulated
//!   clock, whenever simulated time advances).
//! * **observers** — [`RegionObserver`]s registered with
//!   [`PowerMeter::add_region_observer`] are notified at every region boundary.
//!   This is the hook point for closed-loop controllers such as the `autotune`
//!   DVFS governor, which adjusts the GPU clock at `start_region` and learns
//!   from the finished record at `end_region`.
//!
//! # What a boundary costs, and the locking rule
//!
//! The paper leaves the hooks in production runs, so a region boundary is a
//! fixed amount of flat work under **one** acquisition of the meter's state
//! lock: read the clock, read every sensor into a retained buffer, fold each
//! reading into its accumulator (found by the reading's position in the
//! buffer, by search only when the domain at that position changed), copy the
//! accumulators into a pooled snapshot (start) or subtract one from them into
//! a record stored inline (end). In steady state nothing on that path touches
//! the heap: labels are interned once per meter, snapshots and the reading
//! buffer are reused, a record owns no allocation.
//!
//! The rule that follows from it: **sensors are read with the state lock held;
//! observers and the telemetry bridge never are.** A [`Sensor`] must therefore
//! not call back into its meter, while a [`RegionObserver`] may (it runs after
//! the lock is released, on a snapshot of the observer list taken under it).

use crate::clock::{Clock, WallClock};
use crate::domain::Domain;
use crate::error::{PmtError, Result};
use crate::integration::EnergyAccumulator;
use crate::report::{Label, MeasurementRecord, RankReport};
use crate::sample::DomainSample;
use crate::sensor::Sensor;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::Telemetry;

/// Callback interface invoked at measurement-region boundaries.
///
/// Observers run synchronously inside [`PowerMeter::start_region`] /
/// [`PowerMeter::end_region`], *after* the meter's own bookkeeping, with no
/// meter lock held — an observer may therefore call back into the meter.
/// The `autotune` crate's governor implements this trait to close the
/// measure→decide→actuate loop per simulation stage.
pub trait RegionObserver: Send + Sync {
    /// A region labelled `label` just started at meter time `time_s`.
    fn on_region_start(&self, label: &str, time_s: f64);

    /// A region just ended, producing `record`.
    fn on_region_end(&self, record: &MeasurementRecord);
}

/// The observers of a meter, shared so a boundary can call them with no lock
/// held and without copying the list.
type Observers = Arc<[Arc<dyn RegionObserver>]>;

/// Builder for [`PowerMeter`].
pub struct MeterBuilder {
    sensors: Vec<Arc<dyn Sensor>>,
    clock: Arc<dyn Clock>,
    rank: u32,
    hostname: String,
}

impl Default for MeterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MeterBuilder {
    /// Start building a meter with a wall clock, rank 0 and no sensors.
    fn new() -> Self {
        Self {
            sensors: Vec::new(),
            clock: Arc::new(WallClock::new()),
            rank: 0,
            hostname: "localhost".to_string(),
        }
    }

    /// Add a sensor.
    pub fn sensor<S: Sensor + 'static>(mut self, sensor: S) -> Self {
        self.sensors.push(Arc::new(sensor));
        self
    }

    /// Add an already-shared sensor.
    // sphlint::allow(dead-pub, lets a test keep a handle on the sensor it hands the meter)
    pub fn shared_sensor(mut self, sensor: Arc<dyn Sensor>) -> Self {
        self.sensors.push(sensor);
        self
    }

    /// Use a custom clock (e.g. a simulated clock adapter).
    pub fn clock<C: Clock + 'static>(mut self, clock: C) -> Self {
        self.clock = Arc::new(clock);
        self
    }

    /// Set the MPI rank recorded in measurement records.
    pub fn rank(mut self, rank: u32) -> Self {
        self.rank = rank;
        self
    }

    /// Set the hostname recorded in the rank report.
    pub fn hostname(mut self, hostname: impl Into<String>) -> Self {
        self.hostname = hostname.into();
        self
    }

    /// Build the meter.
    pub fn build(self) -> PowerMeter {
        PowerMeter {
            sensors: self.sensors,
            clock: self.clock,
            rank: self.rank,
            hostname: self.hostname,
            state: Mutex::new(MeterState::default()),
            dropped: AtomicU64::new(0),
            warned_labels: Mutex::new(BTreeSet::new()),
        }
    }
}

/// How many distinct labels a meter interns: several times the stages, steps
/// and loops a driver of this workspace names.
const INTERNED_LABELS: usize = 64;

/// Everything a region boundary reads or writes, behind one lock.
#[derive(Default)]
struct MeterState {
    /// One accumulator per domain seen so far, sorted by domain — the order of
    /// the energies in every record.
    accums: Vec<(Domain, EnergyAccumulator)>,
    /// The readings of the current poll, kept for its capacity.
    readings: Vec<DomainSample>,
    /// `slots[i]` is the index in `accums` the `i`-th reading of the previous
    /// poll was folded into. Only ever a hint: it is checked against the
    /// reading's domain before use.
    slots: Vec<usize>,
    /// The open regions, innermost last (loop + stage, or step + stage: two
    /// deep in every driver of this workspace). Each `energy` is as long as
    /// `accums`.
    active: Vec<RegionStart>,
    /// Snapshot vectors of closed regions, kept for their capacity.
    snapshot_pool: Vec<Vec<f64>>,
    /// Every distinct label seen so far.
    labels: Vec<Label>,
    records: Vec<MeasurementRecord>,
    iteration: Option<u64>,
    polls: u64,
    observers: Observers,
    /// Telemetry sink completed region records bridge into (cat `"power"`).
    telemetry: Option<Arc<Telemetry>>,
}

struct RegionStart {
    label: Label,
    start_s: f64,
    /// Cumulative energy of every accumulator at the start, in `accums` order.
    energy: Vec<f64>,
    iteration: Option<u64>,
}

impl MeterState {
    /// Fold the readings of one poll, taken at `now`, into the accumulators.
    fn fold_readings(&mut self, now: f64) {
        for i in 0..self.readings.len() {
            let sample = self.readings[i];
            let slot = self.slot_of(i, sample.domain);
            self.accums[slot].1.update(now, &sample);
        }
        self.polls += 1;
    }

    /// Index in `accums` of the accumulator of `domain`, which is the `i`-th
    /// reading of the current poll; created if this is the domain's first
    /// reading.
    fn slot_of(&mut self, i: usize, domain: Domain) -> usize {
        if let Some(&slot) = self.slots.get(i) {
            if self.accums.get(slot).is_some_and(|(d, _)| *d == domain) {
                return slot;
            }
        }
        let slot = match self.accums.binary_search_by_key(&domain, |(d, _)| *d) {
            Ok(slot) => slot,
            Err(slot) => {
                // A domain that appears while a region is open starts that
                // region at zero, as its accumulator does.
                self.accums.insert(slot, (domain, EnergyAccumulator::new()));
                for region in &mut self.active {
                    region.energy.insert(slot, 0.0);
                }
                slot
            }
        };
        if self.slots.len() <= i {
            self.slots.resize(i + 1, slot);
        }
        self.slots[i] = slot;
        slot
    }

    fn accumulator(&self, domain: Domain) -> Option<&EnergyAccumulator> {
        let slot = self.accums.binary_search_by_key(&domain, |(d, _)| *d).ok()?;
        Some(&self.accums[slot].1)
    }

    /// The shared copy of `label`. A caller that makes up a new label per
    /// region (`format!("step{i}")`) stops being interned at
    /// [`INTERNED_LABELS`], so the lookup stays a short scan.
    fn intern(&mut self, label: &str) -> Label {
        if let Some(known) = self.labels.iter().find(|known| known.as_str() == label) {
            return known.clone();
        }
        let new = Label::from(label);
        if self.labels.len() < INTERNED_LABELS {
            self.labels.push(new.clone());
        }
        new
    }

    /// Open a region at `now`, the timestamp of the poll that was just folded.
    fn open_region(&mut self, label: &str, now: f64) -> Result<()> {
        if self.active.iter().any(|region| region.label.as_str() == label) {
            return Err(PmtError::RegionAlreadyActive(label.to_string()));
        }
        let mut energy = self.snapshot_pool.pop().unwrap_or_default();
        energy.clear();
        energy.extend(self.accums.iter().map(|(_, acc)| acc.energy_j()));
        let region = RegionStart {
            label: self.intern(label),
            start_s: now,
            energy,
            iteration: self.iteration,
        };
        self.active.push(region);
        Ok(())
    }

    /// Take the innermost open region labelled `label` off the stack.
    fn take_region(&mut self, label: &str) -> Option<RegionStart> {
        let at = self.active.iter().rposition(|region| region.label.as_str() == label)?;
        Some(self.active.remove(at))
    }

    /// Close `region` at `now`, the timestamp of the poll that was just
    /// folded: store its record and return a copy.
    fn close_region(&mut self, region: RegionStart, now: f64, rank: u32) -> MeasurementRecord {
        let energy_j = self
            .accums
            .iter()
            .zip(&region.energy)
            .map(|((domain, acc), start_j)| (*domain, (acc.energy_j() - start_j).max(0.0)))
            .collect();
        self.snapshot_pool.push(region.energy);
        let record = MeasurementRecord {
            label: region.label,
            rank,
            iteration: region.iteration,
            start_s: region.start_s,
            end_s: now,
            energy_j,
        };
        self.records.push(record.clone());
        record
    }

    /// The observer list, unless it is empty.
    fn observers(&self) -> Option<Observers> {
        (!self.observers.is_empty()).then(|| Arc::clone(&self.observers))
    }
}

/// Application-level power/energy meter (the Rust equivalent of a PMT instance).
pub struct PowerMeter {
    sensors: Vec<Arc<dyn Sensor>>,
    clock: Arc<dyn Clock>,
    rank: u32,
    hostname: String,
    state: Mutex<MeterState>,
    /// Measurements lost to swallowed sensor/region errors (see
    /// [`PowerMeter::dropped_measurements`]).
    dropped: AtomicU64,
    /// Labels a drop warning has already been printed for.
    warned_labels: Mutex<BTreeSet<String>>,
}

impl PowerMeter {
    /// Start building a meter.
    pub fn builder() -> MeterBuilder {
        MeterBuilder::new()
    }

    /// Sample every sensor once. Returns the number of domain samples folded in.
    pub fn poll(&self) -> Result<usize> {
        let mut state = self.state.lock();
        self.poll_locked(&mut state)?;
        Ok(state.readings.len())
    }

    /// Read the clock, then every sensor once, and fold the readings into
    /// `state`. Returns the poll's timestamp. A failing sensor fails the whole
    /// poll: nothing is folded and the poll is not counted.
    fn poll_locked(&self, state: &mut MeterState) -> Result<f64> {
        let now = self.clock.now_s();
        state.readings.clear();
        for sensor in &self.sensors {
            sensor.sample_into(&mut state.readings)?;
        }
        state.fold_readings(now);
        Ok(now)
    }

    /// Number of polls performed so far: one per region boundary plus the
    /// explicit [`PowerMeter::poll`]s.
    pub fn poll_count(&self) -> u64 {
        self.state.lock().polls
    }

    /// Cumulative energy attributed to `domain` since the meter was created.
    #[cfg_attr(not(test), expect(dead_code, reason = "the meter tests read the per-domain totals"))]
    fn total_energy_j(&self, domain: Domain) -> f64 {
        self.state.lock().accumulator(domain).map_or(0.0, |a| a.energy_j())
    }

    /// Cumulative energy of every domain.
    #[cfg_attr(not(test), expect(dead_code, reason = "the meter_oracle reference-model test"))]
    pub(crate) fn total_energy_by_domain(&self) -> BTreeMap<Domain, f64> {
        let state = self.state.lock();
        state.accums.iter().map(|(d, acc)| (*d, acc.energy_j())).collect()
    }

    /// Set the iteration (timestep) index attached to subsequently completed regions.
    pub fn set_iteration(&self, iteration: Option<u64>) {
        self.state.lock().iteration = iteration;
    }

    /// Attach a telemetry sink: every completed region record is mirrored
    /// into its event stream as a `"power"` span carrying the per-domain
    /// energies, and dropped-measurement counts surface through its metrics
    /// registry as the `pmt.dropped_measurements` counter.
    pub fn attach_telemetry(&self, sink: Arc<Telemetry>) {
        // Carry any drops that happened before attachment into the registry.
        let already = self.dropped.load(Ordering::Relaxed);
        if already > 0 {
            sink.metrics().counter("pmt.dropped_measurements").add(already);
        }
        self.state.lock().telemetry = Some(sink);
    }

    /// The attached telemetry sink, if any.
    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.state.lock().telemetry.clone()
    }

    /// How many measurements have been silently lost to swallowed sensor or
    /// region errors (in [`crate::instrument::ProfilingHooks::instrument`] and
    /// guard drops). Mirrored into the attached telemetry registry as the
    /// `pmt.dropped_measurements` counter.
    pub fn dropped_measurements(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Count one lost measurement and warn once per label on stderr.
    pub(crate) fn note_dropped(&self, label: &str, why: &str) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = self.telemetry() {
            sink.metrics().counter("pmt.dropped_measurements").inc();
        }
        if self.warned_labels.lock().insert(label.to_string()) {
            eprintln!(
                "warning: pmt dropped a measurement for region {label:?} (rank {}): {why}",
                self.rank
            );
        }
    }

    /// Register an observer notified at every region boundary.
    ///
    /// Observers are invoked in registration order, synchronously, with no
    /// meter lock held.
    pub fn add_region_observer(&self, observer: Arc<dyn RegionObserver>) {
        let mut state = self.state.lock();
        state.observers = state.observers.iter().cloned().chain([observer]).collect();
    }

    /// Begin a labelled measurement region. Forces a poll so that region
    /// boundaries align with fresh counter readings; the region starts at that
    /// poll's timestamp.
    pub fn start_region(&self, label: impl AsRef<str>) -> Result<()> {
        let label = label.as_ref();
        let (start_s, observers) = {
            let mut state = self.state.lock();
            let now = self.poll_locked(&mut state)?;
            state.open_region(label, now)?;
            (now, state.observers())
        };
        for observer in observers.as_deref().unwrap_or_default() {
            observer.on_region_start(label, start_s);
        }
        Ok(())
    }

    /// End a labelled measurement region and return (and store) its record.
    ///
    /// If the closing read fails the region is closed all the same — its
    /// measurement is lost, its label is free to be started again — and the
    /// sensor's error is returned.
    pub fn end_region(&self, label: impl AsRef<str>) -> Result<MeasurementRecord> {
        let label = label.as_ref();
        let (record, observers, sink) = {
            let mut state = self.state.lock();
            let polled = self.poll_locked(&mut state);
            let record = match (polled, state.take_region(label)) {
                (Ok(now), Some(region)) => state.close_region(region, now, self.rank),
                (Ok(_), None) => {
                    return Err(PmtError::InvalidState(format!("region {label:?} was never started")));
                }
                (Err(err), region) => {
                    state.snapshot_pool.extend(region.map(|r| r.energy));
                    return Err(err);
                }
            };
            (record, state.observers(), state.telemetry.clone())
        };
        for observer in observers.as_deref().unwrap_or_default() {
            observer.on_region_end(&record);
        }
        if let Some(sink) = sink {
            bridge_record(&sink, &record);
        }
        Ok(record)
    }

    /// Measure a closure as a region.
    pub fn measure<R>(&self, label: impl AsRef<str>, f: impl FnOnce() -> R) -> Result<(R, MeasurementRecord)> {
        let label = label.as_ref();
        self.start_region(label)?;
        let result = f();
        let record = self.end_region(label)?;
        Ok((result, record))
    }

    /// All completed measurement records so far (clone).
    pub fn records(&self) -> Vec<MeasurementRecord> {
        self.state.lock().records.clone()
    }

    /// Reserve room for at least `additional` more records, as
    /// [`Vec::reserve`] does: a caller that knows how many regions it will
    /// close sizes the record list once, and no boundary regrows (and
    /// copies) it.
    pub fn reserve_records(&self, additional: usize) {
        self.state.lock().records.reserve(additional);
    }

    /// Take ownership of the completed records, leaving the meter's list empty.
    pub fn take_records(&self) -> Vec<MeasurementRecord> {
        std::mem::take(&mut self.state.lock().records)
    }

    /// Build the rank report (a copy of the records gathered so far; the
    /// meter keeps them). A meter that is done measuring hands its records
    /// over without the copy through [`PowerMeter::into_report`].
    pub fn report(&self) -> RankReport {
        RankReport {
            rank: self.rank,
            hostname: self.hostname.clone(),
            records: self.records(),
        }
    }

    /// Finish measuring: move the records into the rank report.
    pub fn into_report(self) -> RankReport {
        RankReport {
            rank: self.rank,
            hostname: self.hostname.clone(),
            records: self.take_records(),
        }
    }
}

/// Mirror a completed region record into the telemetry stream as a `"power"`
/// span, so power regions and wall-clock spans share one timeline. The span
/// carries the total and per-domain energies as args.
fn bridge_record(sink: &Telemetry, record: &MeasurementRecord) {
    if !sink.enabled() {
        return;
    }
    let total: f64 = record.energy_j.values().sum();
    let mut owned: Vec<(String, f64)> = Vec::with_capacity(record.energy_j.len() + 2);
    owned.push(("energy_j".to_string(), total));
    for (domain, joules) in &record.energy_j {
        owned.push((format!("{domain}_j"), *joules));
    }
    if let Some(iteration) = record.iteration {
        owned.push(("iteration".to_string(), iteration as f64));
    }
    let args: Vec<(&str, f64)> = owned.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    sink.bridge_span("power", &record.label, record.rank, record.duration_s(), &args);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::dummy::DummySensor;
    use crate::clock::ManualClock;

    fn manual_meter(power_w: f64) -> (PowerMeter, ManualClock, Arc<DummySensor>) {
        let clock = ManualClock::new();
        let sensor = Arc::new(DummySensor::new(Domain::gpu(0), power_w));
        let meter = PowerMeter::builder()
            .shared_sensor(sensor.clone() as Arc<dyn Sensor>)
            .clock(clock.clone())
            .rank(5)
            .hostname("nid000042")
            .build();
        (meter, clock, sensor)
    }

    #[test]
    fn region_energy_equals_power_times_time() {
        let (meter, clock, _sensor) = manual_meter(200.0);
        meter.start_region("step").unwrap();
        clock.advance(10.0);
        let record = meter.end_region("step").unwrap();
        assert!((record.energy(Domain::gpu(0)) - 2000.0).abs() < 1e-9);
        assert!((record.duration_s() - 10.0).abs() < 1e-12);
        assert_eq!(record.rank, 5);
    }

    #[test]
    fn power_change_mid_region_needs_intermediate_poll() {
        let (meter, clock, sensor) = manual_meter(100.0);
        meter.start_region("step").unwrap();
        clock.advance(5.0);
        meter.poll().unwrap(); // sample before the power changes
        sensor.set_power(300.0);
        clock.advance(5.0);
        let record = meter.end_region("step").unwrap();
        // 5 s at 100 W + 5 s trapezoid between 100 and 300 W = 500 + 1000 J.
        assert!((record.energy(Domain::gpu(0)) - 1500.0).abs() < 1e-6);
    }

    #[test]
    fn nested_and_sequential_regions() {
        let (meter, clock, _) = manual_meter(100.0);
        meter.set_iteration(Some(3));
        meter.start_region("outer").unwrap();
        clock.advance(1.0);
        meter.start_region("inner").unwrap();
        clock.advance(2.0);
        let inner = meter.end_region("inner").unwrap();
        clock.advance(1.0);
        let outer = meter.end_region("outer").unwrap();
        assert!((inner.energy(Domain::gpu(0)) - 200.0).abs() < 1e-9);
        assert!((outer.energy(Domain::gpu(0)) - 400.0).abs() < 1e-9);
        assert_eq!(inner.iteration, Some(3));
        assert_eq!(meter.records().len(), 2);
    }

    #[test]
    fn double_start_is_an_error() {
        let (meter, _, _) = manual_meter(10.0);
        meter.start_region("x").unwrap();
        assert!(matches!(meter.start_region("x"), Err(PmtError::RegionAlreadyActive(_))));
    }

    #[test]
    fn end_without_start_is_an_error() {
        let (meter, _, _) = manual_meter(10.0);
        assert!(matches!(meter.end_region("nope"), Err(PmtError::InvalidState(_))));
    }

    #[test]
    fn measure_wraps_closure() {
        let (meter, clock, _) = manual_meter(50.0);
        let (value, record) = meter
            .measure("work", || {
                clock.advance(4.0);
                42
            })
            .unwrap();
        assert_eq!(value, 42);
        assert!((record.energy(Domain::gpu(0)) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn report_collects_rank_and_hostname() {
        let (meter, clock, _) = manual_meter(10.0);
        meter.measure("a", || clock.advance(1.0)).unwrap();
        let report = meter.report();
        assert_eq!(report.rank, 5);
        assert_eq!(report.hostname, "nid000042");
        assert_eq!(report.records.len(), 1);
    }

    /// Explicit polls on a power-only sensor fold exactly as the trapezoid
    /// rule integrates the same `(time, power)` series.
    #[test]
    fn traces_are_recorded_when_enabled() {
        let clock = ManualClock::new();
        let sensor = Arc::new(DummySensor::new(Domain::node(), 500.0));
        let meter = PowerMeter::builder()
            .shared_sensor(sensor.clone() as Arc<dyn Sensor>)
            .clock(clock.clone())
            .build();
        let mut trace = Vec::new();
        for i in 0..20 {
            let power_w = 500.0 + 37.5 * (i % 7) as f64;
            sensor.set_power(power_w);
            meter.poll().unwrap();
            trace.push((clock.now_s(), power_w));
            clock.advance(0.25 + 0.125 * (i % 3) as f64);
        }
        let integrated = crate::integration::integrate_power_trace(&trace);
        assert_eq!(meter.total_energy_j(Domain::node()).to_bits(), integrated.to_bits());
        assert_eq!(meter.poll_count(), 20);
    }

    #[test]
    fn total_energy_accumulates_across_regions() {
        let (meter, clock, _) = manual_meter(100.0);
        meter.measure("a", || clock.advance(1.0)).unwrap();
        meter.measure("b", || clock.advance(1.0)).unwrap();
        assert!((meter.total_energy_j(Domain::gpu(0)) - 200.0).abs() < 1e-9);
        assert_eq!(meter.total_energy_by_domain().len(), 1);
    }

    /// On a wall clock, as on a manual one, every region boundary is exactly
    /// one poll and a record's window runs forward.
    #[test]
    fn background_sampler_polls_with_wall_clock() {
        let meter = PowerMeter::builder().sensor(DummySensor::new(Domain::cpu(0), 80.0)).build();
        for i in 0..5 {
            meter.start_region("outer").unwrap();
            meter.measure(format!("inner{i}"), || std::hint::black_box(i)).unwrap();
            meter.end_region("outer").unwrap();
        }
        let records = meter.records();
        assert_eq!(records.len(), 10);
        assert_eq!(meter.poll_count(), 2 * records.len() as u64);
        assert!(records.iter().all(|r| r.end_s >= r.start_s));
        assert!(meter.total_energy_j(Domain::cpu(0)) >= 0.0);
    }

    #[test]
    fn region_observers_see_boundaries() {
        struct Recorder {
            events: Mutex<Vec<String>>,
        }
        impl RegionObserver for Recorder {
            fn on_region_start(&self, label: &str, time_s: f64) {
                self.events.lock().push(format!("start {label} @{time_s}"));
            }
            fn on_region_end(&self, record: &MeasurementRecord) {
                self.events
                    .lock()
                    .push(format!("end {} {:.0}J", record.label, record.energy(Domain::gpu(0))));
            }
        }

        let (meter, clock, _) = manual_meter(100.0);
        let recorder = Arc::new(Recorder {
            events: Mutex::new(Vec::new()),
        });
        meter.add_region_observer(recorder.clone());
        meter.measure("step", || clock.advance(2.0)).unwrap();
        let events = recorder.events.lock().clone();
        assert_eq!(events, vec!["start step @0".to_string(), "end step 200J".to_string()]);
    }

    #[test]
    fn observer_may_call_back_into_the_meter() {
        struct Nested;
        impl RegionObserver for Nested {
            fn on_region_start(&self, _label: &str, _time_s: f64) {}
            fn on_region_end(&self, _record: &MeasurementRecord) {}
        }
        let (meter, clock, _) = manual_meter(10.0);
        meter.add_region_observer(Arc::new(Nested));
        // Re-entrancy: polling from within a boundary must not deadlock.
        meter.start_region("outer").unwrap();
        meter.poll().unwrap();
        clock.advance(1.0);
        meter.end_region("outer").unwrap();
        assert_eq!(meter.records().len(), 1);
    }

    #[test]
    fn region_records_bridge_into_telemetry_as_power_spans() {
        let (meter, clock, _) = manual_meter(200.0);
        let sink = Arc::new(Telemetry::new());
        meter.attach_telemetry(sink.clone());
        meter.set_iteration(Some(7));
        meter.measure("MomentumEnergy", || clock.advance(10.0)).unwrap();
        let events = sink.events_snapshot();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!((e.cat, e.name.as_str(), e.rank), ("power", "MomentumEnergy", 5));
        match e.kind {
            telemetry::EventKind::Span { dur_us, .. } => assert_eq!(dur_us, 10_000_000),
            ref k => panic!("expected a span, got {k:?}"),
        }
        let arg = |key: &str| e.args.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        assert_eq!(arg("energy_j"), Some(2000.0));
        assert_eq!(arg("gpu:0_j"), Some(2000.0));
        assert_eq!(arg("iteration"), Some(7.0));
    }

    #[test]
    fn disabled_sink_bridges_nothing() {
        let (meter, clock, _) = manual_meter(100.0);
        let sink = Arc::new(Telemetry::disabled());
        meter.attach_telemetry(sink.clone());
        meter.measure("step", || clock.advance(1.0)).unwrap();
        assert_eq!(sink.event_count(), 0);
        assert_eq!(meter.records().len(), 1, "the pmt record itself is unaffected");
    }

    #[test]
    fn labels_made_up_per_region_are_measured_past_the_intern_table() {
        let (meter, clock, _) = manual_meter(10.0);
        for i in 0..3 * INTERNED_LABELS {
            meter.measure(format!("step{i}"), || clock.advance(1.0)).unwrap();
            meter.measure("stage", || clock.advance(1.0)).unwrap();
        }
        let records = meter.records();
        assert_eq!(records.len(), 6 * INTERNED_LABELS);
        assert_eq!(
            records[records.len() - 2].label,
            format!("step{}", 3 * INTERNED_LABELS - 1)
        );
        assert!(records.iter().skip(1).step_by(2).all(|r| r.label == "stage"));
        assert!(meter.state.lock().labels.len() <= INTERNED_LABELS);
    }

    #[test]
    fn into_report_moves_the_records_out() {
        let (meter, clock, _) = manual_meter(10.0);
        meter.measure("a", || clock.advance(1.0)).unwrap();
        meter.measure("b", || clock.advance(1.0)).unwrap();
        let copied = meter.report();
        let moved = meter.into_report();
        assert_eq!(moved, copied);
        assert_eq!(
            (moved.rank, moved.hostname.as_str(), moved.records.len()),
            (5, "nid000042", 2)
        );
    }

    #[test]
    fn take_records_drains() {
        let (meter, clock, _) = manual_meter(10.0);
        meter.measure("a", || clock.advance(1.0)).unwrap();
        assert_eq!(meter.take_records().len(), 1);
        assert!(meter.records().is_empty());
    }
}
