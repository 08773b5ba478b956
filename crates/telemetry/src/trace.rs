//! Chrome-trace / Perfetto exporter and validator.
//!
//! The exporter reshapes the flat [`Event`] stream into the
//! Chrome tracing `traceEvents` format: spans become complete (`"ph":"X"`)
//! events, gauges and counters become counter-track (`"ph":"C"`) samples,
//! instants become `"ph":"i"` markers. Ranks map to `pid` and thread tags to
//! `tid`, so a 4-rank run renders as four process lanes in `ui.perfetto.dev`.
//!
//! The validator parses a written trace back (via the vendored-free
//! [`crate::json`] parser) and summarises what it contains —
//! `tests/telemetry_trace.rs` and the schema round-trip tests are built on it.

use crate::event::{escape_json, format_f64, Event, EventKind};
use std::collections::BTreeSet;

/// Render events as a complete Chrome-trace JSON document.
pub(crate) fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    // Name the process lanes after their ranks.
    let ranks: BTreeSet<u32> = events.iter().map(|e| e.rank).collect();
    for rank in ranks {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        ));
    }
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        push_trace_event(&mut out, e);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn push_trace_event(out: &mut String, e: &Event) {
    out.push_str("{\"name\":\"");
    out.push_str(&escape_json(&e.name));
    out.push_str("\",\"cat\":\"");
    out.push_str(e.cat);
    out.push('"');
    match &e.kind {
        EventKind::Span { id, parent, dur_us } => {
            out.push_str(&format!(",\"ph\":\"X\",\"ts\":{},\"dur\":{}", e.ts_us, dur_us));
            push_common(out, e);
            out.push_str(&format!(",\"args\":{{\"seq\":{},\"span_id\":{}", e.seq, id));
            if let Some(p) = parent {
                out.push_str(&format!(",\"parent\":{p}"));
            }
            push_args(out, &e.args);
            out.push_str("}}");
        }
        EventKind::Instant => {
            out.push_str(&format!(",\"ph\":\"i\",\"s\":\"t\",\"ts\":{}", e.ts_us));
            push_common(out, e);
            out.push_str(&format!(",\"args\":{{\"seq\":{}", e.seq));
            push_args(out, &e.args);
            out.push_str("}}");
        }
        EventKind::Gauge { value } | EventKind::Counter { value } => {
            out.push_str(&format!(",\"ph\":\"C\",\"ts\":{}", e.ts_us));
            push_common(out, e);
            out.push_str(&format!(",\"args\":{{\"value\":{}}}}}", format_f64(*value)));
        }
    }
}

fn push_common(out: &mut String, e: &Event) {
    out.push_str(&format!(",\"pid\":{},\"tid\":{}", e.rank, e.thread));
}

fn push_args(out: &mut String, args: &[(String, f64)]) {
    for (k, v) in args {
        out.push_str(&format!(",\"{}\":{}", escape_json(k), format_f64(*v)));
    }
}

/// What a parsed Chrome trace contains — the validator's digest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceDigest {
    /// Distinct span names (complete `"X"` events), sorted.
    pub span_names: Vec<String>,
    /// Distinct counter-track names, sorted.
    pub counter_names: Vec<String>,
    /// Distinct pids (ranks) seen on non-metadata events, sorted.
    pub ranks: Vec<u32>,
    /// Sequence numbers of all events that carry one, in document order.
    pub seqs: Vec<u64>,
    /// Total non-metadata events.
    pub events: usize,
}

impl TraceDigest {
    /// True when every `seq` is strictly greater than its predecessor after
    /// sorting by `seq` — i.e. sequence numbers are unique (the merge
    /// invariant for multi-rank streams).
    // sphlint::allow(dead-pub, tests/telemetry_trace.rs validates exported traces with it)
    pub fn seqs_strictly_monotonic(&self) -> bool {
        let mut sorted = self.seqs.clone();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] < w[1])
    }
}

/// Parse a Chrome-trace JSON document and digest it. Errors describe what is
/// structurally wrong (the smoke job surfaces them verbatim).
// sphlint::allow(dead-pub, tests/telemetry_trace.rs validates exported traces with it)
pub fn validate_chrome_trace(doc: &str) -> Result<TraceDigest, String> {
    let value = crate::json::parse(doc).map_err(|e| e.to_string())?;
    let events = value
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut digest = TraceDigest::default();
    let mut span_names = BTreeSet::new();
    let mut counter_names = BTreeSet::new();
    let mut ranks = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let obj = e.as_object().ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i} has no ph"))?;
        let name = obj
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("event {i} has no name"))?;
        if ph == "M" {
            continue;
        }
        digest.events += 1;
        let pid = obj
            .get("pid")
            .and_then(|p| p.as_f64())
            .ok_or_else(|| format!("event {i} has no pid"))?;
        ranks.insert(pid as u32);
        match ph {
            "X" => {
                if obj.get("ts").and_then(|t| t.as_f64()).is_none() || obj.get("dur").and_then(|d| d.as_f64()).is_none()
                {
                    return Err(format!("span event {i} ({name}) lacks ts/dur"));
                }
                span_names.insert(name.to_string());
            }
            "C" => {
                counter_names.insert(name.to_string());
            }
            "i" => {}
            other => return Err(format!("event {i} has unexpected ph {other:?}")),
        }
        if let Some(seq) = e.get("args").and_then(|a| a.get("seq")).and_then(|s| s.as_f64()) {
            digest.seqs.push(seq as u64);
        }
    }
    digest.span_names = span_names.into_iter().collect();
    digest.counter_names = counter_names.into_iter().collect();
    digest.ranks = ranks.into_iter().collect();
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_fixture() -> Vec<Event> {
        vec![
            Event {
                seq: 0,
                ts_us: 10,
                rank: 0,
                thread: 0,
                cat: "step",
                name: "Step".to_string(),
                args: vec![("step".to_string(), 0.0)],
                kind: EventKind::Span {
                    id: 1,
                    parent: None,
                    dur_us: 90,
                },
            },
            Event {
                seq: 1,
                ts_us: 20,
                rank: 1,
                thread: 1,
                cat: "stage",
                name: "FindNeighbors".to_string(),
                args: vec![],
                kind: EventKind::Span {
                    id: 2,
                    parent: Some(1),
                    dur_us: 30,
                },
            },
            Event {
                seq: 2,
                ts_us: 50,
                rank: 0,
                thread: 0,
                cat: "health",
                name: "health.dt".to_string(),
                args: vec![],
                kind: EventKind::Gauge { value: 1e-3 },
            },
            Event {
                seq: 3,
                ts_us: 60,
                rank: 1,
                thread: 1,
                cat: "sim",
                name: "reorder".to_string(),
                args: vec![("step".to_string(), 4.0)],
                kind: EventKind::Instant,
            },
        ]
    }

    #[test]
    fn chrome_trace_round_trips_through_validator() {
        let doc = chrome_trace_json(&events_fixture());
        let digest = validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(digest.span_names, vec!["FindNeighbors".to_string(), "Step".to_string()]);
        assert_eq!(digest.counter_names, vec!["health.dt".to_string()]);
        assert_eq!(digest.ranks, vec![0, 1]);
        assert_eq!(digest.events, 4);
        assert!(digest.seqs_strictly_monotonic());
    }

    #[test]
    fn empty_stream_is_still_a_valid_document() {
        let doc = chrome_trace_json(&[]);
        let digest = validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(digest.events, 0);
        assert!(digest.seqs_strictly_monotonic());
    }

    #[test]
    fn validator_rejects_structural_damage() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn duplicate_seqs_fail_the_merge_invariant() {
        let mut events = events_fixture();
        events[1].seq = 0;
        let doc = chrome_trace_json(&events);
        let digest = validate_chrome_trace(&doc).unwrap();
        assert!(!digest.seqs_strictly_monotonic());
    }

    #[test]
    fn span_names_with_special_characters_survive() {
        let mut events = events_fixture();
        events[0].name = "weird \"stage\"".to_string();
        let doc = chrome_trace_json(&events);
        let digest = validate_chrome_trace(&doc).unwrap();
        assert!(digest.span_names.iter().any(|n| n == "weird \"stage\""));
    }
}
