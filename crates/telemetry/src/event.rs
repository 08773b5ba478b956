//! The event model the sink records and the trace exporter writes.
//!
//! A [`Telemetry`](crate::Telemetry) sink records a flat, append-only stream
//! of [`Event`]s. Each event carries a globally monotonic sequence number
//! (assigned under a single shared atomic, so per-rank streams merge into one
//! total order), a microsecond timestamp relative to the sink's epoch, and
//! rank/thread tags. The Chrome-trace exporter ([`crate::trace`]) reshapes
//! these events into the `traceEvents` format Perfetto understands, and the
//! in-memory copy ([`Telemetry::events_snapshot`](crate::Telemetry::events_snapshot))
//! is what the summary tables and the tests read.

/// What kind of event a record is.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A completed span: a named interval with identity and parentage.
    Span {
        /// Unique span id within the sink.
        id: u64,
        /// Id of the enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A sampled value (Chrome counter track).
    Gauge {
        /// The sampled value.
        value: f64,
    },
    /// A monotonic running total (Chrome counter track).
    Counter {
        /// The running total at the time of the event.
        value: f64,
    },
}

/// One record in the telemetry stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Globally monotonic sequence number (total order across ranks).
    pub seq: u64,
    /// Start time in microseconds since the sink's epoch.
    pub ts_us: u64,
    /// Rank tag (0 for single-rank runs).
    pub rank: u32,
    /// Small per-process thread tag (not the OS thread id).
    pub thread: u32,
    /// Category, e.g. `"stage"`, `"health"`, `"power"`, `"comm"`.
    pub cat: &'static str,
    /// Event name, e.g. a stage label or gauge name.
    pub name: String,
    /// Numeric key/value payload.
    pub args: Vec<(String, f64)>,
    /// The kind-specific payload.
    pub kind: EventKind,
}

/// Escape a string for inclusion in a JSON document.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` so it survives a JSON round trip (`NaN`/`inf` are not
/// representable in JSON; they encode as `null` and decode as absent).
pub fn format_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on an integral f64 prints no decimal point; that is still
        // valid JSON and parses back as the same number.
        s
    } else {
        "null".to_string()
    }
}
