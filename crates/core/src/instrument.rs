//! Profiling hooks: one measured region per instrumented call.
//!
//! SPH-EXA exposes low-overhead hooks around every function of its
//! time-stepping loop; the paper instruments those hooks with PMT calls so that
//! each function's energy is measured from its start to its completion (§2).
//! [`ProfilingHooks`] reproduces that pattern: wrap any closure in
//! [`ProfilingHooks::instrument`] and a
//! [`MeasurementRecord`](crate::report::MeasurementRecord) is produced per
//! call.
//! Hooks have no off switch: every call through them is measured, and a run
//! that should not be profiled holds none (`Option<ProfilingHooks>::None`,
//! as the sphsim step driver does).
//!
//! Measurement failures never fail the measured code — the closure's result
//! is always returned — but they are no longer *silent*: every swallowed
//! sensor/region error increments the meter's
//! [`PowerMeter::dropped_measurements`](crate::meter::PowerMeter::dropped_measurements)
//! counter (mirrored into an attached [`telemetry`] metrics registry as
//! `pmt.dropped_measurements`) and warns once per label on stderr.
//!
//! This layer measures *energy per region*; the structured wall-clock spans,
//! health gauges and Perfetto-exportable traces live in the [`telemetry`]
//! crate. The two share one timeline: attach a sink with
//! [`PowerMeter::attach_telemetry`](crate::meter::PowerMeter::attach_telemetry)
//! and every completed region record is bridged into the trace as a
//! `"power"`-category span.

use crate::meter::PowerMeter;
use std::sync::Arc;

/// The function-hook instrumentation layer used by the simulation framework.
#[derive(Clone)]
pub struct ProfilingHooks {
    meter: Arc<PowerMeter>,
}

impl ProfilingHooks {
    /// Create hooks bound to a meter.
    pub fn new(meter: Arc<PowerMeter>) -> Self {
        Self { meter }
    }

    /// Set the iteration (timestep) index attached to subsequent records.
    pub fn set_iteration(&self, iteration: Option<u64>) {
        self.meter.set_iteration(iteration);
    }

    /// Run `f` inside a measurement region labelled `label`.
    ///
    /// Measurement failures never fail the simulation — the closure's result
    /// is always returned — but each one is counted in
    /// [`PowerMeter::dropped_measurements`] and warned about once per label.
    pub fn instrument<R>(&self, label: &str, f: impl FnOnce() -> R) -> R {
        if let Err(err) = self.meter.start_region(label) {
            self.meter.note_dropped(label, &err.to_string());
            return f();
        }
        let result = f();
        if let Err(err) = self.meter.end_region(label) {
            self.meter.note_dropped(label, &err.to_string());
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::dummy::DummySensor;
    use crate::clock::ManualClock;
    use crate::domain::Domain;

    fn setup(power: f64) -> (Arc<PowerMeter>, ManualClock) {
        let clock = ManualClock::new();
        let meter = Arc::new(
            PowerMeter::builder()
                .sensor(DummySensor::new(Domain::gpu(0), power))
                .clock(clock.clone())
                .build(),
        );
        (meter, clock)
    }

    #[test]
    fn hooks_instrument_closures() {
        let (meter, clock) = setup(50.0);
        let hooks = ProfilingHooks::new(meter.clone());
        hooks.set_iteration(Some(11));
        let out = hooks.instrument("MomentumEnergy", || {
            clock.advance(2.0);
            7
        });
        assert_eq!(out, 7);
        let records = meter.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].label, "MomentumEnergy");
        assert_eq!(records[0].iteration, Some(11));
        assert!((records[0].energy(Domain::gpu(0)) - 100.0).abs() < 1e-9);
    }

    /// A sensor whose reads can be made to fail on demand.
    struct FlakySensor {
        fail: std::sync::atomic::AtomicBool,
    }

    impl crate::sensor::Sensor for FlakySensor {
        fn name(&self) -> &str {
            "flaky"
        }
        fn domains(&self) -> Vec<Domain> {
            vec![Domain::gpu(0)]
        }
        fn sample_into(&self, out: &mut Vec<crate::sample::DomainSample>) -> crate::error::Result<()> {
            if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(crate::error::PmtError::unavailable("flaky", "injected failure"));
            }
            out.push(crate::sample::DomainSample::power(Domain::gpu(0), 100.0));
            Ok(())
        }
    }

    #[test]
    fn swallowed_errors_are_counted_not_silent() {
        let sensor = Arc::new(FlakySensor {
            fail: std::sync::atomic::AtomicBool::new(false),
        });
        let meter = Arc::new(
            PowerMeter::builder()
                .shared_sensor(sensor.clone() as Arc<dyn crate::sensor::Sensor>)
                .clock(ManualClock::new())
                .build(),
        );
        let sink = Arc::new(telemetry::Telemetry::new());
        meter.attach_telemetry(sink.clone());
        let hooks = ProfilingHooks::new(meter.clone());

        // Healthy path: nothing dropped.
        assert_eq!(hooks.instrument("ok", || 1), 1);
        assert_eq!(meter.dropped_measurements(), 0);

        // start_region fails -> one drop, closure still runs.
        sensor.fail.store(true, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(hooks.instrument("XMass", || 2), 2);
        assert_eq!(meter.dropped_measurements(), 1);

        // end_region fails (start succeeds, sensor breaks mid-region).
        sensor.fail.store(false, std::sync::atomic::Ordering::Relaxed);
        let out = hooks.instrument("XMass", || {
            sensor.fail.store(true, std::sync::atomic::Ordering::Relaxed);
            3
        });
        assert_eq!(out, 3);
        assert_eq!(meter.dropped_measurements(), 2);

        // Everything is mirrored into the telemetry metrics registry.
        assert_eq!(sink.metrics().snapshot().counter("pmt.dropped_measurements"), Some(2));

        // The sensor recovers: the read that failed at a region's end closed
        // the region, so its label measures again instead of being refused
        // as still active for the rest of the run.
        sensor.fail.store(false, std::sync::atomic::Ordering::Relaxed);
        meter.take_records();
        for call in 0..5 {
            assert_eq!(hooks.instrument("XMass", || call), call);
        }
        assert_eq!(meter.records().len(), 5);
        assert!(meter.records().iter().all(|r| r.label == "XMass"));
        assert_eq!(
            meter.dropped_measurements(),
            2,
            "the five healthy calls dropped nothing"
        );
    }

    #[test]
    fn drops_before_attach_are_carried_into_the_registry() {
        let sensor = Arc::new(FlakySensor {
            fail: std::sync::atomic::AtomicBool::new(true),
        });
        let meter = PowerMeter::builder()
            .shared_sensor(sensor as Arc<dyn crate::sensor::Sensor>)
            .clock(ManualClock::new())
            .build();
        let hooks = ProfilingHooks::new(Arc::new(meter));
        hooks.instrument("early", || ());
        assert_eq!(hooks.meter.dropped_measurements(), 1);
        let sink = Arc::new(telemetry::Telemetry::new());
        hooks.meter.attach_telemetry(sink.clone());
        assert_eq!(sink.metrics().snapshot().counter("pmt.dropped_measurements"), Some(1));
    }
}
