//! End-of-run aggregation of the event stream into plain rows.
//!
//! `experiments::telemetry_report` renders these rows as its `Table` type
//! (text, CSV); keeping the aggregation here and the rendering there means the
//! human-readable summary and the machine-readable trace are views of the
//! same events and cannot drift apart.

use crate::event::{Event, EventKind};
use std::collections::BTreeMap;

/// Aggregate of all spans sharing one `(category, name)` key.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRow {
    /// Span category (`"stage"`, `"power"`, ...).
    pub cat: String,
    /// Span name (stage label, region label, ...).
    pub name: String,
    /// Number of completed spans.
    pub calls: u64,
    /// Total wall-clock seconds across calls.
    pub total_s: f64,
    /// Mean microseconds per call.
    pub mean_us: f64,
    /// Longest single call in microseconds.
    pub max_us: u64,
    /// Total of the spans' `energy_j` args (0 when absent — only the `pmt`
    /// power bridge attaches energies).
    pub energy_j: f64,
    /// Number of distinct ranks the spans came from.
    pub ranks: usize,
}

/// Aggregate spans by `(cat, name)`, in sorted key order.
pub fn span_rows(events: &[Event]) -> Vec<SpanRow> {
    struct Acc {
        calls: u64,
        total_us: u64,
        max_us: u64,
        energy_j: f64,
        ranks: std::collections::BTreeSet<u32>,
    }
    let mut by_key: BTreeMap<(String, String), Acc> = BTreeMap::new();
    for e in events {
        let EventKind::Span { dur_us, .. } = e.kind else {
            continue;
        };
        let acc = by_key.entry((e.cat.to_string(), e.name.clone())).or_insert_with(|| Acc {
            calls: 0,
            total_us: 0,
            max_us: 0,
            energy_j: 0.0,
            ranks: std::collections::BTreeSet::new(),
        });
        acc.calls += 1;
        acc.total_us += dur_us;
        acc.max_us = acc.max_us.max(dur_us);
        acc.ranks.insert(e.rank);
        if let Some((_, j)) = e.args.iter().find(|(k, _)| k == "energy_j") {
            acc.energy_j += j;
        }
    }
    by_key
        .into_iter()
        .map(|((cat, name), acc)| SpanRow {
            cat,
            name,
            calls: acc.calls,
            total_s: acc.total_us as f64 / 1e6,
            mean_us: acc.total_us as f64 / acc.calls as f64,
            max_us: acc.max_us,
            energy_j: acc.energy_j,
            ranks: acc.ranks.len(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, name: &str, rank: u32, dur_us: u64, energy: Option<f64>) -> Event {
        Event {
            seq: 0,
            ts_us: 0,
            rank,
            thread: 0,
            cat,
            name: name.to_string(),
            args: energy.map(|j| ("energy_j".to_string(), j)).into_iter().collect(),
            kind: EventKind::Span {
                id: 0,
                parent: None,
                dur_us,
            },
        }
    }

    #[test]
    fn rows_aggregate_by_category_and_name() {
        let events = vec![
            span("stage", "XMass", 0, 100, None),
            span("stage", "XMass", 1, 300, None),
            span("power", "XMass", 0, 150, Some(2.0)),
            Event {
                kind: EventKind::Instant,
                ..span("sim", "tick", 0, 0, None)
            },
        ];
        let rows = span_rows(&events);
        assert_eq!(rows.len(), 2);
        let power = &rows[0];
        assert_eq!((power.cat.as_str(), power.name.as_str()), ("power", "XMass"));
        assert_eq!(power.energy_j, 2.0);
        let stage = &rows[1];
        assert_eq!(stage.calls, 2);
        assert_eq!(stage.total_s, 400e-6);
        assert_eq!(stage.mean_us, 200.0);
        assert_eq!(stage.max_us, 300);
        assert_eq!(stage.ranks, 2);
    }

    #[test]
    fn non_span_events_are_ignored() {
        let e = Event {
            kind: EventKind::Gauge { value: 1.0 },
            ..span("health", "dt", 0, 0, None)
        };
        assert!(span_rows(&[e]).is_empty());
    }
}
