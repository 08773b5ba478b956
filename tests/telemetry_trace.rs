//! System-level trace tests: the 4-rank merge invariant and the exporter
//! round-trip, exercised through the umbrella crate exactly as a downstream
//! user would drive them.
//!
//! The merge test runs a real 4-rank distributed simulation into **one**
//! shared sink and asserts the property the whole design hangs on: sequence
//! numbers come from a single shared atomic, so the per-rank streams arrive
//! already merged into one strictly monotonic total order with correct rank
//! tags — no post-hoc sorting or clock alignment. The round-trip test drives a
//! single-rank Sedov run and the 4-rank run into one sink whose Chrome trace
//! every step's flush appends to, and validates the file a human would
//! actually open: it parses as Perfetto expects, carries every pipeline stage
//! of both scenarios as a span, and holds every recorded event exactly once,
//! in record order.

use energy_aware_sim::comm::TransportKind;
use energy_aware_sim::sphsim::distributed::run_distributed;
use energy_aware_sim::sphsim::{scenario, Simulation};
use energy_aware_sim::telemetry::{self, Event, EventKind};
use std::sync::Arc;

const RANKS: usize = 4;
const STEPS: u64 = 2;
const HEALTH_GAUGES: [&str; 5] = [
    "health.total_energy",
    "health.energy_drift",
    "health.mass_drift",
    "health.momentum_drift",
    "health.dt",
];

fn traced_four_rank_events() -> (Arc<telemetry::Telemetry>, Vec<Event>) {
    let kh = scenario::get("KH").expect("built-in scenario");
    let sink = Arc::new(telemetry::Telemetry::new());
    let shards = run_distributed(kh, RANKS, 600, 7, STEPS, TransportKind::Shm, Some(Arc::clone(&sink)));
    assert_eq!(shards.len(), RANKS);
    let events = sink.events_snapshot();
    (sink, events)
}

#[test]
fn four_rank_streams_merge_into_one_strictly_monotonic_order() {
    let (_sink, events) = traced_four_rank_events();
    assert!(!events.is_empty());

    // One shared atomic => strictly monotonic sequence across all ranks.
    for pair in events.windows(2) {
        assert!(
            pair[0].seq < pair[1].seq,
            "sequence numbers must be strictly monotonic across ranks: {} then {}",
            pair[0].seq,
            pair[1].seq
        );
    }

    // Every rank contributed stage spans, tagged with its own rank id.
    for rank in 0..RANKS as u32 {
        let spans = events
            .iter()
            .filter(|e| e.rank == rank && matches!(e.kind, EventKind::Span { .. }))
            .count();
        assert!(spans > 0, "rank {rank} recorded no spans");
    }
    let max_rank = events.iter().map(|e| e.rank).max().unwrap();
    assert!(max_rank < RANKS as u32, "rank tag {max_rank} out of range");

    // The health gauges were published once per completed step.
    for gauge in HEALTH_GAUGES {
        let samples = events.iter().filter(|e| e.name == gauge).count();
        assert_eq!(samples, STEPS as usize, "gauge {gauge}: one sample per step");
    }
    // ...and every rank published its own neighbour health, once per step,
    // under its own rank tag.
    for rank in 0..RANKS as u32 {
        let samples = events
            .iter()
            .filter(|e| e.name == "health.neighbor_mean" && e.rank == rank)
            .count();
        assert_eq!(
            samples, STEPS as usize,
            "rank {rank}: one health.neighbor_mean sample per step"
        );
    }
    assert_eq!(
        events.iter().filter(|e| e.name == "health.neighbor_mean").count(),
        RANKS * STEPS as usize
    );
}

#[test]
fn exporters_round_trip_through_disk() {
    let dir = std::env::temp_dir().join(format!("sphsim_trace_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let chrome_path = dir.join("trace.json");

    let sedov = scenario::get("Sedov").expect("built-in scenario");
    let kh = scenario::get("KH").expect("built-in scenario");
    let sink = Arc::new(telemetry::Telemetry::new().with_chrome_trace(&chrome_path));
    // Two runs, one sink: 3 single-rank Sedov steps, then the 4-rank KH run.
    const SEDOV_STEPS: u64 = 3;
    Simulation::from_scenario(sedov, 500, 7)
        .with_telemetry(Arc::clone(&sink))
        .run(SEDOV_STEPS);
    run_distributed(kh, RANKS, 600, 7, STEPS, TransportKind::Shm, Some(Arc::clone(&sink)));
    sink.flush();
    let events = sink.events_snapshot();
    for gauge in HEALTH_GAUGES {
        let samples = events.iter().filter(|e| e.name == gauge).count();
        assert_eq!(
            samples,
            (SEDOV_STEPS + STEPS) as usize,
            "gauge {gauge}: one sample per step of either run"
        );
    }

    // Chrome/Perfetto: the on-disk document must validate structurally and
    // carry the merged stream unchanged.
    let doc = std::fs::read_to_string(&chrome_path).unwrap();
    let digest = telemetry::trace::validate_chrome_trace(&doc).expect("valid Chrome trace");
    assert!(digest.seqs_strictly_monotonic());
    assert!(digest.span_names.iter().any(|n| n == "Step"));
    for stage in sedov.pipeline().iter().chain(kh.pipeline().iter()) {
        assert!(
            digest.span_names.iter().any(|n| n == stage.label()),
            "stage span {} missing from the on-disk trace",
            stage.label()
        );
    }
    for rank in 0..RANKS as u32 {
        assert!(digest.ranks.contains(&rank), "rank {rank} missing from the trace");
    }

    // One non-metadata record per recorded event, and the span and instant
    // records (the kinds that carry their `seq`) in record order.
    assert_eq!(digest.events, events.len(), "one trace record per recorded event");
    let seqs: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. } | EventKind::Instant))
        .map(|e| e.seq)
        .collect();
    assert_eq!(digest.seqs, seqs);

    std::fs::remove_dir_all(&dir).ok();
}
