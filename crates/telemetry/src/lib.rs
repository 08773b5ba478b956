//! Structured tracing and metrics for the energy-aware SPH workspace.
//!
//! Three pieces, mirroring the shape of production tracing stacks but with
//! zero dependencies (the crate sits below everything else in the workspace):
//!
//! 1. **Spans** — hierarchical named intervals with ids/parents and
//!    rank/thread tags. [`Telemetry::span`] returns a RAII guard; the
//!    completed interval is recorded when the guard drops. The disabled path
//!    is a single relaxed atomic load returning an inert guard (proven by the
//!    `disabled_span_overhead` self-test and the release-mode
//!    `telemetry_overhead` integration test).
//! 2. **Metrics** — a [`MetricsRegistry`] of monotonic counters, gauges and
//!    fixed-bucket histograms with typed `Arc` handles.
//! 3. **Exporters** — one Chrome-trace/Perfetto JSON file
//!    ([`Telemetry::with_chrome_trace`], openable at `ui.perfetto.dev`) that
//!    each [`Telemetry::flush`] appends the new events to, a complete trace
//!    after every flush; and plaintext summary tables rendered by the
//!    `experiments::telemetry_report` from [`summary::span_rows`] /
//!    [`MetricsRegistry::snapshot`].
//!
//! Per-rank streams share one sink: every recorded event takes its sequence
//! number from a single shared atomic, so a 4-rank step interleaves into one
//! strictly monotonic total order (asserted by the `telemetry_trace`
//! integration tests).
//!
//! The `SPHSIM_TRACE=<path>` environment hook ([`from_env`]) resolves once,
//! like `SPHSIM_THREADS` in `sphsim::parallel`, and equips the sink with a
//! Chrome trace at `<path>`.

pub mod event;
pub mod json;
pub mod metrics;
pub mod summary;
pub mod trace;

pub use event::{Event, EventKind};
use metrics::MetricsRegistry;
pub use metrics::{HistogramSnapshot, MetricsSnapshot};

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Buffered events plus the trace file, behind the sink's single mutex.
#[derive(Default)]
struct SinkState {
    events: Vec<Event>,
    trace: Option<trace::TraceFile>,
}

/// A telemetry sink: span recorder, metrics registry and exporter state.
///
/// Cheap to share (`Arc<Telemetry>`); all methods take `&self`. One sink is
/// shared by every rank of a distributed run.
pub struct Telemetry {
    enabled: AtomicBool,
    seq: AtomicU64,
    next_span_id: AtomicU64,
    epoch: Instant,
    metrics: MetricsRegistry,
    state: Mutex<SinkState>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An enabled sink with no file exporters attached.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            next_span_id: AtomicU64::new(1),
            epoch: Instant::now(),
            metrics: MetricsRegistry::new(),
            state: Mutex::new(SinkState::default()),
        }
    }

    /// A sink that starts disabled; [`Telemetry::set_enabled`] turns it on.
    // sphlint::allow(dead-pub, the disabled sink five tests start from)
    pub fn disabled() -> Self {
        let t = Self::new();
        t.enabled.store(false, Ordering::Relaxed);
        t
    }

    /// Write a Chrome trace to `path`: the first [`Telemetry::flush`]
    /// creates the file, and each later one appends the events recorded
    /// since the previous flush. The file is a complete trace after every
    /// flush.
    pub fn with_chrome_trace(self, path: impl Into<PathBuf>) -> Self {
        self.state.lock().unwrap().trace = Some(trace::TraceFile::new(path.into()));
        self
    }

    /// Whether recording is on. The hot-path check instrumented code performs.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Microseconds since the sink's epoch.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The metrics registry of this sink.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Open a span. When the sink is disabled this is a single relaxed atomic
    /// load and returns an inert guard — no allocation, no lock, no clock
    /// read. When enabled, the completed interval is recorded when the
    /// returned guard drops.
    #[inline]
    pub fn span(self: &Arc<Self>, cat: &'static str, name: &str, rank: u32) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard(None);
        }
        self.span_enabled(cat, name, rank)
    }

    /// The enabled slow path of [`Telemetry::span`], kept out of line so the
    /// disabled path stays branch-plus-return.
    fn span_enabled(self: &Arc<Self>, cat: &'static str, name: &str, rank: u32) -> SpanGuard {
        let id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        SpanGuard(Some(ActiveSpan {
            sink: Arc::clone(self),
            cat,
            name: name.to_string(),
            rank,
            thread: thread_tag(),
            id,
            parent,
            start_us: self.now_us(),
            args: Vec::new(),
        }))
    }

    /// Record a point-in-time marker.
    pub fn instant(&self, cat: &'static str, name: &str, rank: u32, args: &[(&str, f64)]) {
        if !self.enabled() {
            return;
        }
        let ts_us = self.now_us();
        self.record(Event {
            seq: 0,
            ts_us,
            rank,
            thread: thread_tag(),
            cat,
            name: name.to_string(),
            args: args.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            kind: EventKind::Instant,
        });
    }

    /// Set the registry gauge `name` and record a gauge event (a Chrome
    /// counter-track sample).
    pub fn gauge(&self, cat: &'static str, name: &str, rank: u32, value: f64) {
        if !self.enabled() {
            return;
        }
        self.metrics.gauge(name).set(value);
        let ts_us = self.now_us();
        self.record(Event {
            seq: 0,
            ts_us,
            rank,
            thread: thread_tag(),
            cat,
            name: name.to_string(),
            args: Vec::new(),
            kind: EventKind::Gauge { value },
        });
    }

    /// Record a counter-track sample for a running total (the registry
    /// counter itself is updated by the caller through its typed handle).
    pub fn counter_sample(&self, cat: &'static str, name: &str, rank: u32, value: f64) {
        if !self.enabled() {
            return;
        }
        let ts_us = self.now_us();
        self.record(Event {
            seq: 0,
            ts_us,
            rank,
            thread: thread_tag(),
            cat,
            name: name.to_string(),
            args: Vec::new(),
            kind: EventKind::Counter { value },
        });
    }

    /// Record a completed interval directly (used by the `pmt` power-region
    /// bridge, whose intervals are measured by the meter's own clock). The
    /// span is timestamped `[now - dur, now]` on the sink's timeline.
    pub fn bridge_span(&self, cat: &'static str, name: &str, rank: u32, dur_s: f64, args: &[(&str, f64)]) {
        if !self.enabled() {
            return;
        }
        let dur_us = (dur_s.max(0.0) * 1e6).round() as u64;
        let now = self.now_us();
        let id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        self.record(Event {
            seq: 0,
            ts_us: now.saturating_sub(dur_us),
            rank,
            thread: thread_tag(),
            cat,
            name: name.to_string(),
            args: args.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            kind: EventKind::Span {
                id,
                parent: None,
                dur_us,
            },
        });
    }

    /// Append an event to the buffer, assigning its global sequence number.
    /// The sequence atomic is shared by every rank holding this sink, which
    /// is what makes merged per-rank streams totally ordered. The number is
    /// drawn under the buffer lock: drawn before it, two ranks could append
    /// in the opposite order and the buffer would not ascend.
    fn record(&self, mut event: Event) {
        let mut state = self.state.lock().unwrap();
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        state.events.push(event);
    }

    /// A copy of every event recorded so far, in record order (which is also
    /// strictly increasing `seq` order).
    pub fn events_snapshot(&self) -> Vec<Event> {
        self.state.lock().unwrap().events.clone()
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.state.lock().unwrap().events.len()
    }

    /// Append the events recorded since the previous flush to the Chrome
    /// trace, if one is attached; a no-op otherwise. Errors are reported once
    /// to stderr rather than panicking mid-simulation.
    pub fn flush(&self) {
        let mut state = self.state.lock().unwrap();
        let SinkState { events, trace } = &mut *state;
        if let Some(trace) = trace {
            if let Err(err) = trace.append(events) {
                warn_once(&format!("telemetry: cannot write {}: {err}", trace.path.display()));
            }
        }
    }
}

/// Emit a stderr warning at most once per distinct message.
fn warn_once(message: &str) {
    static SEEN: OnceLock<Mutex<std::collections::BTreeSet<String>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(std::collections::BTreeSet::new()));
    if seen.lock().unwrap().insert(message.to_string()) {
        eprintln!("warning: {message}");
    }
}

thread_local! {
    /// Per-thread stack of open span ids, for parent linkage.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Small per-thread tag, assigned on first use.
    static THREAD_TAG: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

/// Process-wide source of small thread tags.
static NEXT_THREAD_TAG: AtomicU32 = AtomicU32::new(0);

/// The small integer tag of the calling thread (0 for the first thread that
/// records telemetry, 1 for the next, ...). Stable for the thread's lifetime.
fn thread_tag() -> u32 {
    THREAD_TAG.with(|tag| {
        let t = tag.get();
        if t != u32::MAX {
            return t;
        }
        let t = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
        tag.set(t);
        t
    })
}

/// The live half of a [`SpanGuard`].
struct ActiveSpan {
    sink: Arc<Telemetry>,
    cat: &'static str,
    name: String,
    rank: u32,
    thread: u32,
    id: u64,
    parent: Option<u64>,
    start_us: u64,
    args: Vec<(String, f64)>,
}

/// RAII guard for an open span; records the completed interval on drop.
/// Inert (a single `Option::None`) when the sink was disabled at open time.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Attach a numeric argument to the span (no-op on inert guards).
    pub fn arg(&mut self, key: &str, value: f64) {
        if let Some(active) = &mut self.0 {
            active.args.push((key.to_string(), value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(stack.last().copied(), Some(active.id), "span drop order inverted");
            if let Some(pos) = stack.iter().rposition(|&id| id == active.id) {
                stack.remove(pos);
            }
        });
        let end_us = active.sink.now_us();
        active.sink.record(Event {
            seq: 0,
            ts_us: active.start_us,
            rank: active.rank,
            thread: active.thread,
            cat: active.cat,
            name: active.name,
            args: active.args,
            kind: EventKind::Span {
                id: active.id,
                parent: active.parent,
                dur_us: end_us.saturating_sub(active.start_us),
            },
        });
    }
}

/// Resolve the `SPHSIM_TRACE` environment hook **once** per process (the
/// `SPHSIM_THREADS` pattern): when set to a non-empty path, every simulation
/// constructed without an explicit sink shares this one, writing one Chrome
/// trace to `<path>`.
pub fn from_env() -> Option<Arc<Telemetry>> {
    static GLOBAL: OnceLock<Option<Arc<Telemetry>>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let path = std::env::var("SPHSIM_TRACE").ok().filter(|p| !p.is_empty())?;
            Some(Arc::new(Telemetry::new().with_chrome_trace(path)))
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_link_parents() {
        let t = Arc::new(Telemetry::new());
        {
            let _outer = t.span("step", "Step", 0);
            {
                let mut inner = t.span("stage", "FindNeighbors", 0);
                inner.arg("n", 100.0);
            }
            let _sibling = t.span("stage", "XMass", 0);
        }
        let events = t.events_snapshot();
        assert_eq!(events.len(), 3);
        // Drop order: inner, sibling, outer.
        let inner = &events[0];
        let sibling = &events[1];
        let outer = &events[2];
        let id_of = |e: &Event| match e.kind {
            EventKind::Span { id, .. } => id,
            _ => panic!("not a span"),
        };
        let parent_of = |e: &Event| match e.kind {
            EventKind::Span { parent, .. } => parent,
            _ => panic!("not a span"),
        };
        assert_eq!(outer.name, "Step");
        assert_eq!(parent_of(outer), None);
        assert_eq!(parent_of(inner), Some(id_of(outer)));
        assert_eq!(parent_of(sibling), Some(id_of(outer)));
        assert_eq!(inner.args, vec![("n".to_string(), 100.0)]);
    }

    #[test]
    fn sequence_numbers_are_strictly_monotonic_across_threads() {
        let t = Arc::new(Telemetry::new());
        std::thread::scope(|scope| {
            for rank in 0..4u32 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for i in 0..50 {
                        t.instant("sim", "tick", rank, &[("i", f64::from(i))]);
                    }
                });
            }
        });
        let events = t.events_snapshot();
        assert_eq!(events.len(), 200);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        let expected: Vec<u64> = (0..200).collect();
        assert_eq!(seqs, expected, "seq numbers must be dense and unique");
        for rank in 0..4u32 {
            assert!(events.iter().any(|e| e.rank == rank), "missing rank {rank}");
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let t = Arc::new(Telemetry::disabled());
        {
            let mut g = t.span("stage", "XMass", 0);
            g.arg("ignored", 1.0);
        }
        t.instant("sim", "tick", 0, &[]);
        t.gauge("health", "dt", 0, 1.0);
        t.counter_sample("comm", "msgs", 0, 1.0);
        t.bridge_span("power", "XMass", 0, 0.5, &[]);
        assert_eq!(t.event_count(), 0);
        // The registry gauge is also untouched on the disabled path.
        assert!(t.metrics().snapshot().gauges.is_empty());
    }

    #[test]
    fn disabled_span_overhead_is_near_zero() {
        // The overhead self-test from the tentpole: the disabled span path
        // must be within noise of a bare relaxed-atomic check. We bound the
        // mean cost per disabled span at 250ns across one million calls —
        // orders of magnitude below a stage body, and loose enough for CI
        // machines under debug profiles.
        let t = Arc::new(Telemetry::disabled());
        const CALLS: u32 = 1_000_000;
        let start = Instant::now();
        for _ in 0..CALLS {
            let _g = t.span("stage", "MomentumEnergy", 0);
        }
        let per_call = start.elapsed().as_secs_f64() / f64::from(CALLS);
        assert_eq!(t.event_count(), 0);
        assert!(
            per_call < 250e-9,
            "disabled span path too slow: {:.1}ns per call",
            per_call * 1e9
        );
    }

    #[test]
    fn gauge_events_mirror_into_registry() {
        let t = Arc::new(Telemetry::new());
        t.gauge("health", "health.dt", 0, 2.5e-4);
        assert_eq!(t.metrics().snapshot().gauge("health.dt"), Some(2.5e-4));
        let events = t.events_snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Gauge { value: 2.5e-4 });
    }

    #[test]
    fn flush_appends_only_the_new_records_and_keeps_the_trace_valid() {
        let dir = std::env::temp_dir().join(format!("telemetry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let t = Arc::new(Telemetry::new().with_chrome_trace(&path));
        let read = || std::fs::read_to_string(&path).unwrap();
        let digest = |doc: &str| trace::validate_chrome_trace(doc).expect("a valid trace after every flush");

        // A flush with no events leaves a valid, empty trace.
        t.flush();
        let empty = read();
        assert_eq!(digest(&empty).events, 0);

        t.instant("sim", "a", 0, &[]);
        t.flush();
        let first = read();
        assert_eq!(digest(&first).seqs, [0]);

        // The second flush writes only its new records, where the trailer was:
        // a byte of the first flush's body changed on disk in between stays
        // changed, and the trailer ends both files.
        let marked = first.replace("\"name\":\"a\"", "\"name\":\"z\"");
        assert_ne!(marked, first);
        std::fs::write(&path, &marked).unwrap();
        t.instant("sim", "b", 1, &[]);
        t.instant("sim", "c", 0, &[]);
        t.flush();
        let second = read();
        let trailer = "],\"displayTimeUnit\":\"ms\"}";
        let body = marked.strip_suffix(trailer).unwrap();
        assert!(second.starts_with(body) && second.ends_with(trailer));
        let appended = &second[body.len()..second.len() - trailer.len()];
        assert_eq!(appended.matches("\"ph\":\"i\"").count(), 2, "{appended}");
        assert_eq!(appended.matches("process_name").count(), 1, "rank 1 is named once");
        let second_digest = digest(&second);
        assert_eq!(second_digest.seqs, [0, 1, 2], "each event exactly once");
        assert_eq!(second_digest.ranks, [0, 1]);

        // Nothing new: the file is left as it is.
        t.flush();
        assert_eq!(read(), second);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
