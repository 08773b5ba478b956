//! The state every simulated device shares: the inputs of its power
//! formula, the power they draw and a cumulative energy counter that
//! advances with simulated time. The cumulative counters are what the vendor
//! interfaces (RAPL `energy_uj`, Cray `pm_counters` `energy`) expose on real
//! machines; a node's are read under its one lock through
//! [`Node::read`](crate::node::Node::read).

/// The inputs of a GPU die's power formula: its occupancy in `[0, 1]` and
/// its compute clock in Hz. The host devices have no clock: a socket's, the
/// DRAM's and the board's input is one load.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LoadAndClock {
    pub(crate) load: f64,
    pub(crate) freq_hz: f64,
}

/// The mutable state of one device, a slot of its node's state: the inputs
/// of its power formula (`I`), the power they draw, and the energy
/// integrated so far.
///
/// Power is state, not a read-time evaluation. The fields are private to
/// this module, so the inputs change only through [`DeviceState::set`],
/// which runs the formula on them once: a reading is a copy and an advance a
/// multiply-add, and the formula runs only when a load or a clock changes.
#[derive(Debug)]
pub(crate) struct DeviceState<I> {
    inputs: I,
    power_w: f64,
    energy_j: f64,
}

impl<I: Copy> DeviceState<I> {
    /// A device on `inputs`, drawing `power_of(inputs)`, with nothing
    /// integrated yet.
    pub(crate) fn new(inputs: I, power_of: impl FnOnce(I) -> f64) -> Self {
        Self {
            inputs,
            power_w: power_of(inputs),
            energy_j: 0.0,
        }
    }

    /// The inputs of the power formula.
    pub(crate) fn inputs(&self) -> I {
        self.inputs
    }

    /// Put the device on `inputs`, drawing `power_of(inputs)` from now on.
    pub(crate) fn set(&mut self, inputs: I, power_of: impl FnOnce(I) -> f64) {
        self.inputs = inputs;
        self.power_w = power_of(inputs);
    }

    /// `(power_w, energy_j)`.
    pub(crate) fn reading(&self) -> (f64, f64) {
        (self.power_w, self.energy_j)
    }

    /// Integrate the stored power over `dt` seconds.
    pub(crate) fn advance(&mut self, dt: f64) {
        self.energy_j += self.power_w * dt;
    }
}
