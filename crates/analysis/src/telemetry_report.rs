//! Shared end-of-run summary emitters over telemetry data.
//!
//! The `telemetry` crate aggregates its event stream into plain rows
//! ([`telemetry::summary::span_rows`]) and metric snapshots
//! ([`telemetry::MetricsRegistry::snapshot`]); this module renders both as the
//! workspace's standard [`Table`] (text/CSV), so every artefact of
//! `replicate` prints the *same* summary shape instead of hand-rolling
//! `println!` columns.

use crate::report::Table;
use pmt::{DomainKind, FunctionAggregate};
use telemetry::summary::SpanRow;
use telemetry::{HistogramSnapshot, MetricsSnapshot};

/// Render aggregated span rows (one line per `(category, name)`).
fn span_table(title: &str, rows: &[SpanRow]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "cat", "name", "calls", "total_s", "mean_us", "max_us", "energy_J", "ranks",
        ],
    );
    for r in rows {
        t.add_row(&[
            r.cat.clone(),
            r.name.clone(),
            r.calls.to_string(),
            format!("{:.4}", r.total_s),
            format!("{:.1}", r.mean_us),
            r.max_us.to_string(),
            format!("{:.2}", r.energy_j),
            r.ranks.to_string(),
        ]);
    }
    t
}

/// Render the registry's gauges (final values), `None` when there are none.
fn gauge_table(title: &str, snapshot: &MetricsSnapshot) -> Option<Table> {
    if snapshot.gauges.is_empty() {
        return None;
    }
    let mut t = Table::new(title, &["gauge", "value"]);
    for (name, value) in &snapshot.gauges {
        t.add_row(&[name.clone(), format!("{value:.6e}")]);
    }
    Some(t)
}

/// Render the registry's monotonic counters, `None` when there are none.
fn counter_table(title: &str, snapshot: &MetricsSnapshot) -> Option<Table> {
    if snapshot.counters.is_empty() {
        return None;
    }
    let mut t = Table::new(title, &["counter", "total"]);
    for (name, value) in &snapshot.counters {
        t.add_row(&[name.clone(), value.to_string()]);
    }
    Some(t)
}

/// Render one histogram as a bucket table (upper bound → count).
fn histogram_table(hist: &HistogramSnapshot) -> Table {
    let mut t = Table::new(
        format!("{} (n = {}, mean = {:.2})", hist.name, hist.count, hist.mean()),
        &["le", "count"],
    );
    for (i, count) in hist.counts.iter().enumerate() {
        let le = match hist.bounds.get(i) {
            Some(b) => format!("{b}"),
            None => "+inf".to_string(),
        };
        t.add_row(&[le, count.to_string()]);
    }
    t
}

/// Every non-empty summary table for one finished run, in print order: spans,
/// gauges, counters, then one table per histogram.
pub fn telemetry_tables(title_prefix: &str, events: &[telemetry::Event], snapshot: &MetricsSnapshot) -> Vec<Table> {
    let mut tables = Vec::new();
    let rows = telemetry::summary::span_rows(events);
    if !rows.is_empty() {
        tables.push(span_table(&format!("{title_prefix}: spans"), &rows));
    }
    if let Some(t) = gauge_table(&format!("{title_prefix}: gauges"), snapshot) {
        tables.push(t);
    }
    if let Some(t) = counter_table(&format!("{title_prefix}: counters"), snapshot) {
        tables.push(t);
    }
    for hist in &snapshot.histograms {
        tables.push(histogram_table(hist));
    }
    tables
}

/// One rank's identity and per-stage measurement aggregates, as gathered at
/// the end of a distributed run.
pub struct RankStages {
    /// Rank id.
    pub rank: u32,
    /// Hostname the rank ran on.
    pub hostname: String,
    /// Particles owned at the end of the run.
    pub owned: usize,
    /// Ghosts held at the end of the run.
    pub ghosts: usize,
    /// Per-stage aggregates ([`pmt::aggregate_by_label`] of the rank's records).
    pub stages: Vec<FunctionAggregate>,
}

/// The per-rank per-stage energy table of the paper's §2 gathering: one row
/// per (rank, stage), rank identity shown once per block.
pub fn per_rank_stage_table(title: &str, ranks: &[RankStages]) -> Table {
    let mut t = Table::new(
        title,
        &["rank", "host", "owned", "ghosts", "stage", "time_s", "gpu_energy_J"],
    );
    for r in ranks {
        let mut first = true;
        for agg in &r.stages {
            let (rank, host, owned, ghosts) = if first {
                (
                    r.rank.to_string(),
                    r.hostname.clone(),
                    r.owned.to_string(),
                    r.ghosts.to_string(),
                )
            } else {
                (String::new(), String::new(), String::new(), String::new())
            };
            first = false;
            t.add_row(&[
                rank,
                host,
                owned,
                ghosts,
                agg.label.clone(),
                format!("{:.4}", agg.total_time_s),
                format!("{:.2}", agg.energy_by_kind(DomainKind::Gpu)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use telemetry::Telemetry;

    fn populated_sink() -> Arc<Telemetry> {
        let t = Arc::new(Telemetry::new());
        {
            let _step = t.span("step", "Step", 0);
            let _stage = t.span("stage", "XMass", 0);
        }
        t.gauge("health", "health.dt", 0, 1e-3);
        t.metrics().counter("comm.gather.messages").add(4);
        t.metrics().histogram("health.neighbor_count", &[8.0, 64.0]).observe(30.0);
        t
    }

    #[test]
    fn telemetry_tables_cover_all_sections() {
        let sink = populated_sink();
        let tables = telemetry_tables("run", &sink.events_snapshot(), &sink.metrics().snapshot());
        let titles: Vec<&str> = tables.iter().map(|t| t.title()).collect();
        assert_eq!(tables.len(), 4, "spans + gauges + counters + 1 histogram: {titles:?}");
        let spans = &tables[0];
        let text = spans.to_text();
        assert!(text.contains("XMass") && text.contains("Step"));
        assert!(tables[1].to_text().contains("health.dt"));
        assert!(tables[2].to_text().contains("comm.gather.messages"));
        let hist = tables[3].to_text();
        assert!(hist.contains("+inf") && hist.contains("n = 1"));
    }

    #[test]
    fn empty_sink_renders_no_tables() {
        let sink = Arc::new(Telemetry::new());
        let tables = telemetry_tables("run", &sink.events_snapshot(), &sink.metrics().snapshot());
        assert!(tables.is_empty());
    }

    #[test]
    fn per_rank_stage_table_blocks_by_rank() {
        let agg = |label: &str| FunctionAggregate {
            label: label.to_string(),
            calls: 3,
            total_time_s: 0.5,
            energy_j: std::collections::BTreeMap::new(),
        };
        let ranks = vec![
            RankStages {
                rank: 0,
                hostname: "nid0".into(),
                owned: 100,
                ghosts: 20,
                stages: vec![agg("XMass"), agg("MomentumEnergy")],
            },
            RankStages {
                rank: 1,
                hostname: "nid1".into(),
                owned: 90,
                ghosts: 25,
                stages: vec![agg("XMass")],
            },
        ];
        let t = per_rank_stage_table("per-rank stages", &ranks);
        assert_eq!(t.row_count(), 3);
        let csv = t.to_csv();
        assert!(csv.contains("0,nid0,100,20,XMass"));
        assert!(csv.contains(",,,,MomentumEnergy"), "repeated rank identity is blanked");
        assert!(csv.contains("1,nid1,90,25,XMass"));
    }
}
