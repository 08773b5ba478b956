//! The online per-stage DVFS governor.
//!
//! A [`Governor`] is a [`pmt::RegionObserver`]: registered on a rank's
//! [`PowerMeter`](pmt::PowerMeter), it sees every instrumented region of the
//! time-stepping loop. At `start_region` it sets the GPU compute clock to the
//! stage's next trial frequency (through a [`FrequencyActuator`]); at
//! `end_region` it scores the finished [`MeasurementRecord`] by the
//! energy-delay product of its GPU energy and feeds the score back into that
//! stage's [`HillClimb`]. Each governed label owns an independent search, so
//! compute-bound stages (`MomentumEnergy`) and memory-bound stages
//! (`DomainDecompAndSync`) converge to different operating points — the
//! online counterpart of the paper's per-function Figure 5 observation.
//!
//! The governor has one configuration: the labels it governs. The GPU energy
//! of a record is the sum over its [`Domain::is_gpu`](pmt::Domain::is_gpu)
//! domains, so a meter over per-card sensors and one over per-die sensors are
//! scored alike.

use crate::actuator::FrequencyActuator;
use crate::strategy::{HillClimb, SearchStrategy};
use energy_analysis::EdpPoint;
use hwmodel::dvfs::DvfsModel;
use parking_lot::Mutex;
use pmt::{MeasurementRecord, RegionObserver};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The GPU energy of a record: the sum over its GPU domains, dies or cards,
/// whichever the meter reports (no sensor reports both, so nothing is counted
/// twice).
fn gpu_energy_j(record: &MeasurementRecord) -> f64 {
    record.energy_j.iter().filter(|(d, _)| d.is_gpu()).map(|(_, e)| e).sum()
}

struct StageState {
    strategy: HillClimb,
    /// Frequency applied for the currently open region of this stage, plus
    /// the actuation epoch at which it was applied (used to detect that some
    /// other governed region re-actuated the clock mid-region).
    active: Option<(f64, u64)>,
    observations: usize,
}

/// Upper bound on the retained request log: enough for any test or debugging
/// session while keeping long-running governed campaigns at constant memory.
const REQUEST_LOG_CAP: usize = 65_536;

#[derive(Default)]
struct GovernorState {
    stages: BTreeMap<String, StageState>,
    /// The first [`REQUEST_LOG_CAP`] requested frequencies, in request order.
    requested: Vec<f64>,
    /// Incremented on every *effective* actuation (frequency actually moved).
    epoch: u64,
    frequency_changes: usize,
    /// Observations discarded because the clock moved mid-region (overlapping
    /// governed regions, e.g. a governed whole-loop label over governed stages).
    discarded_observations: usize,
    /// Observations discarded because the record had no GPU energy (or the
    /// region had zero/non-finite extent).
    invalid_observations: usize,
}

/// Per-stage tuning status snapshot (see [`Governor::report`]).
#[derive(Clone, Debug, PartialEq)]
pub struct StageTuning {
    /// Region label of the stage.
    pub label: String,
    /// Best frequency found so far, in Hz.
    pub best_frequency_hz: Option<f64>,
    /// EDP (J·s) at the best frequency.
    pub best_score: Option<f64>,
    /// Number of scored observations consumed.
    pub observations: usize,
    /// True once the stage's strategy has converged.
    pub converged: bool,
}

/// Closed-loop DVFS controller: observe stage energy, decide, actuate.
pub struct Governor {
    labels: BTreeSet<String>,
    actuator: Arc<dyn FrequencyActuator>,
    model: DvfsModel,
    telemetry: Option<(Arc<telemetry::Telemetry>, u32)>,
    state: Mutex<GovernorState>,
}

impl Governor {
    /// Create a governor of the regions named `labels`, actuating through
    /// `actuator`.
    ///
    /// Governed labels should not nest: when a governed region's clock is
    /// re-actuated mid-region by another governed region (e.g. a governed
    /// whole-loop label over governed stages), its observation mixes several
    /// frequencies and is discarded, not scored.
    pub fn new<I, S>(labels: I, actuator: Arc<dyn FrequencyActuator>) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let model = actuator.dvfs();
        Self {
            labels: labels.into_iter().map(Into::into).collect(),
            actuator,
            model,
            telemetry: None,
            state: Mutex::new(GovernorState::default()),
        }
    }

    /// Stream the governor's decisions into a telemetry sink as `"autotune"`
    /// instant events tagged with `rank`: `"{label}.propose"` (with the trial
    /// `f_mhz`) on every governed region start, `"{label}.observe"` (with
    /// `f_mhz`, the EDP `score`, `converged` and the running
    /// `observations` count) for every scored measurement.
    #[cfg_attr(not(test), expect(dead_code, reason = "only a governor test streams decisions"))]
    fn with_telemetry(mut self, sink: Arc<telemetry::Telemetry>, rank: u32) -> Self {
        self.telemetry = Some((sink, rank));
        self
    }

    /// The DVFS model the governor operates on.
    pub fn dvfs(&self) -> &DvfsModel {
        &self.model
    }

    /// Best frequency found so far for a stage label.
    pub fn best_frequency(&self, label: &str) -> Option<f64> {
        self.state.lock().stages.get(label).and_then(|s| s.strategy.best_frequency())
    }

    /// True once the stage's search has converged.
    #[cfg_attr(not(test), expect(dead_code, reason = "the governor tests check convergence"))]
    fn is_converged(&self, label: &str) -> bool {
        self.state
            .lock()
            .stages
            .get(label)
            .map(|s| s.strategy.is_converged())
            .unwrap_or(false)
    }

    /// The frequencies requested so far, in request order (test/debug hook;
    /// capped at the first 65 536 requests so long runs stay bounded).
    // sphlint::allow(dead-pub, tests/campaign_digest.rs pins the governor's requests through it)
    pub fn requested_frequencies(&self) -> Vec<f64> {
        self.state.lock().requested.clone()
    }

    /// Number of effective actuator frequency changes issued (no-op requests
    /// where the device already ran at the target are not actuated or counted).
    pub fn frequency_changes(&self) -> usize {
        self.state.lock().frequency_changes
    }

    /// Observations discarded because the record had no GPU energy, or zero
    /// or non-finite energy or duration. A non-zero value almost always means
    /// the attached meter reports no GPU domain (die or card) at all.
    pub fn invalid_observations(&self) -> usize {
        self.state.lock().invalid_observations
    }

    /// Snapshot of every governed stage's tuning status, by label.
    pub fn report(&self) -> Vec<StageTuning> {
        let state = self.state.lock();
        state
            .stages
            .iter()
            .map(|(label, s)| StageTuning {
                label: label.clone(),
                best_frequency_hz: s.strategy.best_frequency(),
                best_score: s.strategy.best_score(),
                observations: s.observations,
                converged: s.strategy.is_converged(),
            })
            .collect()
    }
}

impl RegionObserver for Governor {
    fn on_region_start(&self, label: &str, _time_s: f64) {
        if !self.labels.contains(label) {
            return;
        }
        let mut state = self.state.lock();
        let stage = state.stages.entry(label.to_string()).or_insert_with(|| StageState {
            strategy: HillClimb::new(&self.model),
            active: None,
            observations: 0,
        });
        // While searching, run the stage at the strategy's next trial
        // point; once converged, pin it to the discovered optimum.
        let target = stage
            .strategy
            .propose()
            .or_else(|| stage.strategy.best_frequency())
            .unwrap_or(self.model.f_max_hz);
        if state.requested.len() < REQUEST_LOG_CAP {
            state.requested.push(target);
        }
        // Only touch the device when the clock actually has to move; after
        // convergence this makes region starts free of actuator traffic.
        if (self.actuator.frequency() - target).abs() >= 0.5 {
            let applied = self.actuator.set_frequency(target);
            debug_assert!(
                (applied - target).abs() < 1.0,
                "governor requested off-grid frequency {target}, device applied {applied}"
            );
            state.frequency_changes += 1;
            state.epoch += 1;
        }
        let epoch = state.epoch;
        if let Some(stage) = state.stages.get_mut(label) {
            stage.active = Some((target, epoch));
        }
        drop(state);
        if let Some((sink, rank)) = &self.telemetry {
            sink.instant(
                "autotune",
                &format!("{label}.propose"),
                *rank,
                &[("f_mhz", target / 1.0e6)],
            );
        }
    }

    fn on_region_end(&self, record: &MeasurementRecord) {
        if !self.labels.contains(record.label.as_str()) {
            return;
        }
        let energy_j = gpu_energy_j(record);
        let time_s = record.duration_s();
        let mut state = self.state.lock();
        let epoch_now = state.epoch;
        let mut discarded = false;
        let mut invalid = false;
        let mut scored: Option<(f64, f64, bool, usize)> = None;
        if let Some(stage) = state.stages.get_mut(record.label.as_str()) {
            if let Some((f, epoch_at_start)) = stage.active.take() {
                if energy_j <= 0.0 || !energy_j.is_finite() || time_s <= 0.0 || !time_s.is_finite() {
                    // The record has no GPU energy (or the region had zero
                    // extent): feeding a zero score would make every search
                    // "converge" instantly at its starting point and mask a
                    // meter without GPU domains.
                    invalid = true;
                } else if epoch_at_start != epoch_now {
                    // Another governed region re-actuated the clock while this
                    // region was open: the measured energy/time mixes several
                    // frequencies and cannot be attributed to `f`.
                    discarded = true;
                } else if !stage.strategy.is_converged() {
                    let score = EdpPoint {
                        frequency_hz: f,
                        energy_j,
                        time_s,
                    }
                    .edp();
                    stage.strategy.observe(f, score);
                    stage.observations += 1;
                    scored = Some((f, score, stage.strategy.is_converged(), stage.observations));
                }
            }
        }
        if discarded {
            state.discarded_observations += 1;
        }
        if invalid {
            state.invalid_observations += 1;
        }
        drop(state);
        if let (Some((sink, rank)), Some((f, score, converged, observations))) = (&self.telemetry, scored) {
            sink.instant(
                "autotune",
                &format!("{}.observe", record.label),
                *rank,
                &[
                    ("f_mhz", f / 1.0e6),
                    ("score", score),
                    ("converged", f64::from(converged)),
                    ("observations", observations as f64),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ModelActuator;
    use pmt::backends::dummy::DummySensor;
    use pmt::clock::ManualClock;
    use pmt::{Domain, DomainKind, PowerMeter};

    /// A meter over a fake device whose power and speed follow the DVFS model,
    /// with an interior EDP minimum.
    fn governed_meter(
        governor: &Arc<Governor>,
        actuator: &Arc<ModelActuator>,
    ) -> (Arc<PowerMeter>, ManualClock, Arc<DummySensor>) {
        let clock = ManualClock::new();
        let sensor = Arc::new(DummySensor::new(Domain::gpu(0), 100.0));
        let meter = Arc::new(
            PowerMeter::builder()
                .shared_sensor(sensor.clone() as Arc<dyn pmt::Sensor>)
                .clock(clock.clone())
                .build(),
        );
        meter.add_region_observer(governor.clone());
        let _ = actuator;
        (meter, clock, sensor)
    }

    /// Synthetic per-stage physics: duration and power as functions of the
    /// applied frequency, chosen so the EDP optimum is interior.
    fn stage_duration_s(model: &DvfsModel, f: f64, compute_fraction: f64) -> f64 {
        let x = model.throughput_scale(f);
        10.0 * (compute_fraction / x + (1.0 - compute_fraction))
    }

    fn stage_power_w(model: &DvfsModel, f: f64) -> f64 {
        60.0 + 340.0 * model.dynamic_power_scale(f)
    }

    fn run_governed_stage(
        meter: &PowerMeter,
        clock: &ManualClock,
        sensor: &DummySensor,
        actuator: &ModelActuator,
        model: &DvfsModel,
        label: &str,
        compute_fraction: f64,
    ) {
        meter.start_region(label).unwrap();
        let f = actuator.frequency();
        sensor.set_power(stage_power_w(model, f));
        // One poll after the power change so the trapezoid uses the new level.
        meter.poll().unwrap();
        clock.advance(stage_duration_s(model, f, compute_fraction));
        meter.end_region(label).unwrap();
    }

    #[test]
    fn governor_converges_per_stage_to_different_frequencies() {
        let model = DvfsModel::nvidia_a100();
        let actuator = Arc::new(ModelActuator::new(model.clone()));
        let governor = Arc::new(Governor::new(
            ["compute", "memory"],
            actuator.clone() as Arc<dyn FrequencyActuator>,
        ));
        let (meter, clock, sensor) = governed_meter(&governor, &actuator);

        for _ in 0..80 {
            run_governed_stage(&meter, &clock, &sensor, &actuator, &model, "compute", 0.95);
            run_governed_stage(&meter, &clock, &sensor, &actuator, &model, "memory", 0.15);
        }

        assert!(governor.is_converged("compute") && governor.is_converged("memory"));
        let f_compute = governor.best_frequency("compute").unwrap();
        let f_memory = governor.best_frequency("memory").unwrap();
        // Compute-bound work wants a higher clock than memory-bound work.
        assert!(
            f_compute > f_memory + model.f_step_hz,
            "compute {:.0} MHz should exceed memory {:.0} MHz",
            f_compute / 1.0e6,
            f_memory / 1.0e6
        );

        // Online result matches the offline argmin of the same synthetic
        // physics, within one grid step.
        for (label, cf) in [("compute", 0.95), ("memory", 0.15)] {
            let offline = model
                .supported_range(model.f_min_hz, model.f_max_hz)
                .into_iter()
                .min_by(|a, b| {
                    let edp = |f: f64| stage_power_w(&model, f) * stage_duration_s(&model, f, cf).powi(2);
                    edp(*a).total_cmp(&edp(*b))
                })
                .unwrap();
            let online = governor.best_frequency(label).unwrap();
            assert!(
                (online - offline).abs() <= model.f_step_hz + 1.0,
                "{label}: online {:.0} MHz vs offline {:.0} MHz",
                online / 1.0e6,
                offline / 1.0e6
            );
        }
    }

    #[test]
    fn ungoverned_labels_are_ignored() {
        let model = DvfsModel::nvidia_a100();
        let actuator = Arc::new(ModelActuator::new(model.clone()));
        let governor = Arc::new(Governor::new(
            ["governed"],
            actuator.clone() as Arc<dyn FrequencyActuator>,
        ));
        let (meter, clock, _sensor) = governed_meter(&governor, &actuator);
        meter.start_region("TimeSteppingLoop").unwrap();
        clock.advance(1.0);
        meter.end_region("TimeSteppingLoop").unwrap();
        assert!(governor.report().is_empty());
        assert_eq!(governor.frequency_changes(), 0);
    }

    #[test]
    fn gpu_energy_is_the_card_sum_or_the_die_sum() {
        use cluster::{Cluster, GpuDiePowerSensor, SimClockAdapter, SimNodeSensor};
        use hwmodel::arch::SystemKind;

        let cluster = Cluster::new(SystemKind::LumiG, 1);
        let clock = SimClockAdapter::new(cluster.clock().clone());
        let node = cluster.node(0);
        node.gpus()[0].set_load(1.0);

        // Per-card sensors: the node counter, CPU and memory are not GPU.
        let meter = PowerMeter::builder()
            .sensor(SimNodeSensor::per_card(node.clone()))
            .clock(clock.clone())
            .build();
        let (_, record) = meter.measure("stage", || cluster.advance(2.0)).unwrap();
        let cards = record.energy_by_kind(DomainKind::GpuCard);
        assert!(cards > 0.0 && record.energy(Domain::node()) > cards);
        assert_eq!(record.energy_by_kind(DomainKind::Gpu), 0.0);
        assert_eq!(gpu_energy_j(&record), cards);

        // Per-die sensors: the same rule reads the dies.
        let meter = PowerMeter::builder()
            .sensor(GpuDiePowerSensor::new(node.gpus()[0].clone()))
            .sensor(GpuDiePowerSensor::new(node.gpus()[1].clone()))
            .clock(clock)
            .build();
        let (_, record) = meter.measure("stage", || cluster.advance(2.0)).unwrap();
        let dies = record.energy_by_kind(DomainKind::Gpu);
        assert!(dies > 0.0);
        assert_eq!(record.energy_by_kind(DomainKind::GpuCard), 0.0);
        assert_eq!(gpu_energy_j(&record), dies);
    }

    #[test]
    fn requested_frequencies_stay_on_the_grid() {
        let model = DvfsModel::amd_mi250x();
        let actuator = Arc::new(ModelActuator::new(model.clone()));
        let governor = Arc::new(Governor::new(["stage"], actuator.clone() as Arc<dyn FrequencyActuator>));
        let (meter, clock, sensor) = governed_meter(&governor, &actuator);
        for _ in 0..40 {
            run_governed_stage(&meter, &clock, &sensor, &actuator, &model, "stage", 0.6);
        }
        let requested = governor.requested_frequencies();
        assert!(!requested.is_empty());
        for f in requested {
            assert!(f >= model.f_min_hz && f <= model.f_max_hz);
            let steps = (f - model.f_min_hz) / model.f_step_hz;
            assert!((steps - steps.round()).abs() < 1e-6, "off-grid request {f}");
        }
    }

    #[test]
    fn overlapping_governed_regions_are_detected_and_discarded() {
        let model = DvfsModel::nvidia_a100();
        let actuator = Arc::new(ModelActuator::new(model.clone()));
        // Governs the outer loop as well as the stage inside it.
        let governor = Arc::new(Governor::new(
            ["outer", "stage"],
            actuator.clone() as Arc<dyn FrequencyActuator>,
        ));
        let (meter, clock, sensor) = governed_meter(&governor, &actuator);

        // An outer region wrapping stage regions: the stages re-actuate the
        // clock mid-region, so the outer observation must be discarded, not
        // fed to the outer label's strategy as if it ran at one frequency.
        meter.start_region("outer").unwrap();
        for _ in 0..4 {
            run_governed_stage(&meter, &clock, &sensor, &actuator, &model, "stage", 0.5);
        }
        clock.advance(1.0);
        meter.end_region("outer").unwrap();

        assert_eq!(governor.state.lock().discarded_observations, 1);
        let outer = governor.report().into_iter().find(|s| s.label == "outer").unwrap();
        assert_eq!(
            outer.observations, 0,
            "contaminated outer observation must not be scored"
        );
        let stage = governor.report().into_iter().find(|s| s.label == "stage").unwrap();
        assert_eq!(stage.observations, 4, "clean stage observations still feed the search");
    }

    #[test]
    fn no_op_frequency_requests_are_not_actuated() {
        let model = DvfsModel::nvidia_a100();
        let actuator = Arc::new(ModelActuator::new(model.clone()));
        let governor = Arc::new(Governor::new(["stage"], actuator.clone() as Arc<dyn FrequencyActuator>));
        let (meter, clock, sensor) = governed_meter(&governor, &actuator);
        for _ in 0..120 {
            run_governed_stage(&meter, &clock, &sensor, &actuator, &model, "stage", 0.7);
        }
        assert!(governor.is_converged("stage"));
        let changes_at_convergence = governor.frequency_changes();
        // Once pinned, further region starts request the same optimum: the
        // device must not be re-actuated and the change count must not grow.
        for _ in 0..10 {
            run_governed_stage(&meter, &clock, &sensor, &actuator, &model, "stage", 0.7);
        }
        assert_eq!(governor.frequency_changes(), changes_at_convergence);
        assert!(governor.requested_frequencies().len() >= 130);
    }

    #[test]
    fn mismatched_energy_source_is_flagged_not_converged() {
        let model = DvfsModel::nvidia_a100();
        let actuator = Arc::new(ModelActuator::new(model.clone()));
        // A meter reporting only a CPU domain: every record has zero GPU
        // energy, which must be rejected as invalid instead of driving a
        // bogus instant "convergence" at f_max.
        let governor = Arc::new(Governor::new(["stage"], actuator.clone() as Arc<dyn FrequencyActuator>));
        let clock = ManualClock::new();
        let sensor = Arc::new(DummySensor::new(Domain::cpu(0), 100.0));
        let meter = PowerMeter::builder()
            .shared_sensor(sensor.clone() as Arc<dyn pmt::Sensor>)
            .clock(clock.clone())
            .build();
        meter.add_region_observer(governor.clone());
        for _ in 0..20 {
            run_governed_stage(&meter, &clock, &sensor, &actuator, &model, "stage", 0.7);
        }
        assert_eq!(governor.invalid_observations(), 20);
        let stage = governor.report().into_iter().find(|s| s.label == "stage").unwrap();
        assert_eq!(stage.observations, 0);
        assert!(!stage.converged, "zero-energy records must not fake convergence");
    }

    #[test]
    fn governor_decisions_stream_into_telemetry() {
        let model = DvfsModel::nvidia_a100();
        let actuator = Arc::new(ModelActuator::new(model.clone()));
        let sink = Arc::new(telemetry::Telemetry::new());
        let governor = Arc::new(
            Governor::new(["stage"], actuator.clone() as Arc<dyn FrequencyActuator>)
                .with_telemetry(Arc::clone(&sink), 3),
        );
        let (meter, clock, sensor) = governed_meter(&governor, &actuator);
        for _ in 0..10 {
            run_governed_stage(&meter, &clock, &sensor, &actuator, &model, "stage", 0.7);
        }
        let events = sink.events_snapshot();
        let proposes: Vec<_> = events.iter().filter(|e| e.name == "stage.propose").collect();
        let observes: Vec<_> = events.iter().filter(|e| e.name == "stage.observe").collect();
        assert_eq!(proposes.len(), 10, "one proposal per governed region start");
        // Observations stop streaming once the search converges, so there is
        // one event per *scored* record — at least one, never more than the
        // proposals.
        assert!(!observes.is_empty() && observes.len() <= proposes.len());
        assert!(events.iter().all(|e| e.cat == "autotune" && e.rank == 3));
        for e in &proposes {
            let f = e.args.iter().find(|(k, _)| k == "f_mhz").unwrap().1;
            assert!(f * 1.0e6 >= model.f_min_hz && f * 1.0e6 <= model.f_max_hz);
        }
        let last = observes.last().unwrap();
        for key in ["f_mhz", "score", "converged", "observations"] {
            assert!(last.args.iter().any(|(k, _)| k == key), "missing arg {key}");
        }
        assert_eq!(
            last.args.iter().find(|(k, _)| k == "observations").unwrap().1,
            observes.len() as f64
        );
    }

    #[test]
    fn converged_governor_pins_the_optimum() {
        let model = DvfsModel::nvidia_a100();
        let actuator = Arc::new(ModelActuator::new(model.clone()));
        let governor = Arc::new(Governor::new(["stage"], actuator.clone() as Arc<dyn FrequencyActuator>));
        let (meter, clock, sensor) = governed_meter(&governor, &actuator);
        for _ in 0..120 {
            run_governed_stage(&meter, &clock, &sensor, &actuator, &model, "stage", 0.7);
        }
        assert!(governor.is_converged("stage"));
        let best = governor.best_frequency("stage").unwrap();
        run_governed_stage(&meter, &clock, &sensor, &actuator, &model, "stage", 0.7);
        assert_eq!(actuator.frequency(), best);
    }
}
