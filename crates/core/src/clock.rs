//! Clock abstraction.
//!
//! The meter timestamps every poll, and so every region boundary, through a
//! [`Clock`]. A meter built without one reads the wall clock; the large-scale
//! experiments in this repository use `hwmodel::SimClockAdapter`, which
//! implements [`Clock`] over the simulated clock of the `hwmodel` crate; unit
//! tests use the [`ManualClock`]. Any other time source implements the trait
//! the same way.

use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Instant;

/// A monotone time source measured in seconds since an arbitrary origin.
pub trait Clock: Send + Sync {
    /// Current time in seconds.
    fn now_s(&self) -> f64;
}

/// Wall-clock time relative to the moment the clock was created.
#[derive(Debug, Clone)]
pub(crate) struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Create a wall clock with its origin at "now".
    pub(crate) fn new() -> Self {
        Self { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// A manually advanced clock for tests and simulations.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    t: Arc<RwLock<f64>>,
}

impl ManualClock {
    /// Create a manual clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `dt` seconds.
    pub fn advance(&self, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite());
        *self.t.write() += dt;
    }
}

impl Clock for ManualClock {
    fn now_s(&self) -> f64 {
        *self.t.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Set `clock`'s absolute time (must be monotone).
    fn set(clock: &ManualClock, t: f64) {
        let mut cur = clock.t.write();
        assert!(t >= *cur, "manual clock cannot go backwards");
        *cur = t;
    }

    #[test]
    fn wall_clock_moves_forward() {
        let c = WallClock::new();
        let a = c.now_s();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let b = c.now_s();
        assert!(b > a);
    }

    #[test]
    fn manual_clock_only_moves_when_told() {
        let c = ManualClock::new();
        assert_eq!(c.now_s(), 0.0);
        c.advance(2.0);
        assert_eq!(c.now_s(), 2.0);
        let copy = c.clone();
        copy.advance(1.0);
        assert_eq!(c.now_s(), 3.0);
    }

    #[test]
    #[should_panic]
    fn manual_clock_rejects_backwards() {
        let c = ManualClock::new();
        set(&c, 10.0);
        set(&c, 1.0);
    }
}
