//! Simulated clock.
//!
//! Every component of the hardware model reads time from a [`SimClock`]. The clock
//! only moves when the workload executor calls [`SimClock::advance`], which lets a
//! paper-scale campaign (hundreds of simulated seconds per run) complete in
//! milliseconds of host time, while all power→energy integrations still operate on
//! the realistic simulated durations.

use parking_lot::RwLock;
use std::sync::Arc;

/// A shareable simulated clock counting seconds since the start of the simulation.
///
/// Cloning a `SimClock` yields a handle to the *same* underlying clock.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    inner: Arc<RwLock<f64>>,
}

impl SimClock {
    /// Create a new clock at t = 0 s.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        *self.inner.read()
    }

    /// Advance the clock by `dt` seconds. Panics on negative or non-finite steps.
    pub fn advance(&self, dt: f64) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "clock can only advance forward (dt = {dt})"
        );
        let mut t = self.inner.write();
        *t += dt;
    }

    /// Set the clock to an absolute time, which must not be in the past.
    #[cfg_attr(not(test), expect(dead_code, reason = "the clock tests hold its monotonicity"))]
    fn set(&self, t: f64) {
        assert!(t.is_finite(), "time must be finite");
        let mut cur = self.inner.write();
        assert!(t >= *cur, "clock cannot move backwards ({} -> {})", *cur, t);
        *cur = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = SimClock::new();
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn starts_at_origin() {
        let c = SimClock::new();
        c.advance(42.5);
        assert_eq!(c.now(), 42.5);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(1.5);
        c.advance(2.5);
        assert!((c.now() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn clones_share_time() {
        let c = SimClock::new();
        let c2 = c.clone();
        c.advance(3.0);
        assert_eq!(c2.now(), 3.0);
    }

    #[test]
    fn set_moves_forward() {
        let c = SimClock::new();
        c.set(10.0);
        assert_eq!(c.now(), 10.0);
    }

    #[test]
    #[should_panic]
    fn set_backwards_panics() {
        let c = SimClock::new();
        c.advance(5.0);
        c.set(1.0);
    }

    #[test]
    #[should_panic]
    fn negative_advance_panics() {
        let c = SimClock::new();
        c.advance(-1.0);
    }

    #[test]
    fn concurrent_advances_are_all_counted() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.advance(0.001);
                    }
                });
            }
        });
        assert!((c.now() - 8.0).abs() < 1e-6);
    }
}
