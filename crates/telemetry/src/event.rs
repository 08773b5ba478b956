//! The event model shared by every exporter.
//!
//! A [`Telemetry`](crate::Telemetry) sink records a flat, append-only stream
//! of [`Event`]s. Each event carries a globally monotonic sequence number
//! (assigned under a single shared atomic, so per-rank streams merge into one
//! total order), a microsecond timestamp relative to the sink's epoch, and
//! rank/thread tags. The JSONL exporter writes one event per line in exactly
//! this shape; the Chrome-trace exporter reshapes the same events into the
//! `traceEvents` format Perfetto understands.

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

impl EventKind {
    /// The `kind` tag used in the JSONL encoding.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Span { .. } => "span",
            EventKind::Instant => "instant",
            EventKind::Gauge { .. } => "gauge",
            EventKind::Counter { .. } => "counter",
        }
    }
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
    /// Category, e.g. `"stage"`, `"health"`, `"power"`, `"autotune"`.
    pub cat: &'static str,
    /// Event name, e.g. a stage label or gauge name.
    pub name: String,
    /// Numeric key/value payload.
    pub args: Vec<(String, f64)>,
    /// The kind-specific payload.
    pub kind: EventKind,
}

impl Event {
    /// Encode the event as one JSON object on a single line (no trailing
    /// newline). This is the JSONL stream format.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push('{');
        push_kv_u64(&mut s, "seq", self.seq);
        s.push(',');
        push_kv_u64(&mut s, "ts_us", self.ts_us);
        s.push(',');
        push_kv_u64(&mut s, "rank", u64::from(self.rank));
        s.push(',');
        push_kv_u64(&mut s, "thread", u64::from(self.thread));
        s.push(',');
        push_kv_str(&mut s, "cat", self.cat);
        s.push(',');
        push_kv_str(&mut s, "name", &self.name);
        s.push(',');
        push_kv_str(&mut s, "kind", self.kind.tag());
        match &self.kind {
            EventKind::Span { id, parent, dur_us } => {
                s.push(',');
                push_kv_u64(&mut s, "id", *id);
                if let Some(p) = parent {
                    s.push(',');
                    push_kv_u64(&mut s, "parent", *p);
                }
                s.push(',');
                push_kv_u64(&mut s, "dur_us", *dur_us);
            }
            EventKind::Instant => {}
            EventKind::Gauge { value } | EventKind::Counter { value } => {
                s.push(',');
                push_kv_f64(&mut s, "value", *value);
            }
        }
        if !self.args.is_empty() {
            s.push_str(",\"args\":{");
            for (i, (k, v)) in self.args.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_kv_f64_owned_key(&mut s, k, *v);
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// Decode one JSONL line back into an [`Event`]. Returns `None` when the
    /// line is not a well-formed event object.
    // sphlint::allow(dead-pub, decodes the traces the telemetry tests write)
    pub fn from_jsonl(line: &str) -> Option<Event> {
        let value = crate::json::parse(line).ok()?;
        let obj = value.as_object()?;
        let kind_tag = obj.get("kind")?.as_str()?;
        let kind = match kind_tag {
            "span" => EventKind::Span {
                id: obj.get("id")?.as_f64()? as u64,
                parent: obj.get("parent").and_then(|p| p.as_f64()).map(|p| p as u64),
                dur_us: obj.get("dur_us")?.as_f64()? as u64,
            },
            "instant" => EventKind::Instant,
            "gauge" => EventKind::Gauge {
                value: obj.get("value")?.as_f64()?,
            },
            "counter" => EventKind::Counter {
                value: obj.get("value")?.as_f64()?,
            },
            _ => return None,
        };
        let mut args = Vec::new();
        if let Some(a) = obj.get("args").and_then(|a| a.as_object()) {
            for (k, v) in a {
                args.push((k.clone(), v.as_f64()?));
            }
        }
        Some(Event {
            seq: obj.get("seq")?.as_f64()? as u64,
            ts_us: obj.get("ts_us")?.as_f64()? as u64,
            rank: obj.get("rank")?.as_f64()? as u32,
            thread: obj.get("thread")?.as_f64()? as u32,
            cat: cat_static(obj.get("cat")?.as_str()?),
            name: obj.get("name")?.as_str()?.to_string(),
            args,
            kind,
        })
    }
}

/// Intern a decoded category string into the small set of `'static` categories
/// the sinks emit. Unknown categories map to `"other"` — the decoder is only
/// used by validators and round-trip tests, which compare known categories.
fn cat_static(cat: &str) -> &'static str {
    for known in ["step", "stage", "health", "sim", "power", "autotune", "comm", "meta"] {
        if cat == known {
            return known;
        }
    }
    "other"
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

fn push_kv_u64(s: &mut String, key: &str, value: u64) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
    s.push_str(&value.to_string());
}

fn push_kv_f64(s: &mut String, key: &str, value: f64) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
    s.push_str(&format_f64(value));
}

fn push_kv_f64_owned_key(s: &mut String, key: &str, value: f64) {
    s.push('"');
    s.push_str(&escape_json(key));
    s.push_str("\":");
    s.push_str(&format_f64(value));
}

fn push_kv_str(s: &mut String, key: &str, value: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":\"");
    s.push_str(&escape_json(value));
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span() -> Event {
        Event {
            seq: 7,
            ts_us: 1234,
            rank: 2,
            thread: 1,
            cat: "stage",
            name: "MomentumEnergy".to_string(),
            args: vec![("step".to_string(), 3.0)],
            kind: EventKind::Span {
                id: 11,
                parent: Some(10),
                dur_us: 456,
            },
        }
    }

    #[test]
    fn jsonl_round_trips_span() {
        let e = sample_span();
        let line = e.to_jsonl();
        let back = Event::from_jsonl(&line).expect("parse");
        assert_eq!(back, e);
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let mut e = sample_span();
        for kind in [
            EventKind::Instant,
            EventKind::Gauge { value: -1.5e-7 },
            EventKind::Counter { value: 42.0 },
            EventKind::Span {
                id: 1,
                parent: None,
                dur_us: 0,
            },
        ] {
            e.kind = kind.clone();
            let back = Event::from_jsonl(&e.to_jsonl()).expect("parse");
            assert_eq!(back.kind, kind);
            assert_eq!(back, e);
        }
    }

    #[test]
    fn names_with_quotes_and_newlines_survive() {
        let mut e = sample_span();
        e.name = "weird \"label\"\nwith\tescapes\\".to_string();
        let back = Event::from_jsonl(&e.to_jsonl()).expect("parse");
        assert_eq!(back.name, e.name);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Event::from_jsonl("").is_none());
        assert!(Event::from_jsonl("{\"seq\":1}").is_none());
        assert!(Event::from_jsonl("not json at all").is_none());
    }
}
