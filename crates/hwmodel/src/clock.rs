//! Simulated clock.
//!
//! Every component of the hardware model reads time from a [`SimClock`]. The clock
//! only moves when the workload executor calls [`SimClock::advance`], which lets a
//! paper-scale campaign (hundreds of simulated seconds per run) complete in
//! milliseconds of host time, while all power→energy integrations still operate on
//! the realistic simulated durations.
//!
//! Every sensor read and every meter boundary reads the clock, so a read takes
//! no lock: the time is one atomic word holding the `f64`'s bits, and an
//! advance is a compare-and-swap loop around one IEEE addition, so concurrent
//! advances are each counted and the time is their plain sum, bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shareable simulated clock counting seconds since the start of the simulation.
///
/// Cloning a `SimClock` yields a handle to the *same* underlying clock.
#[derive(Clone, Default)]
pub struct SimClock {
    /// The current time, as `f64::to_bits`.
    bits: Arc<AtomicU64>,
}

impl SimClock {
    /// Create a new clock at t = 0 s.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Advance the clock by `dt` seconds. Panics on negative or non-finite steps.
    pub fn advance(&self, dt: f64) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "clock can only advance forward (dt = {dt})"
        );
        let add = |bits| Some((f64::from_bits(bits) + dt).to_bits());
        let _ = self.bits.fetch_update(Ordering::AcqRel, Ordering::Acquire, add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Set `clock` to an absolute time, which must not be in the past.
    fn set(clock: &SimClock, t: f64) {
        assert!(t.is_finite(), "time must be finite");
        let forward = |bits| (t >= f64::from_bits(bits)).then_some(t.to_bits());
        if let Err(cur) = clock.bits.fetch_update(Ordering::AcqRel, Ordering::Acquire, forward) {
            panic!("clock cannot move backwards ({} -> {})", f64::from_bits(cur), t);
        }
    }

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
        set(&c, 10.0);
        assert_eq!(c.now(), 10.0);
    }

    #[test]
    #[should_panic]
    fn set_backwards_panics() {
        let c = SimClock::new();
        c.advance(5.0);
        set(&c, 1.0);
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
