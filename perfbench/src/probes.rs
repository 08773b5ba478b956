//! Micro-probes of the layers no workload budget row isolates: the cost of
//! one `parallel_map` dispatch, one transport round trip, one PMT region
//! pair and one telemetry span. They run in a child of their own at
//! `SPHSIM_THREADS=2` (the thread count is latched per process), through
//! public calls only, and report medians.

use crate::child::wall_meter;
use crate::record::{median, Report};
use crate::spec::key;
use energy_aware_sim::cluster::{CommWorld, TransportKind, Wire};
use energy_aware_sim::sphsim::parallel::parallel_map;
use energy_aware_sim::telemetry::Telemetry;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Run every probe; `kick_tires` cuts the iteration counts a hundredfold.
pub fn run(kick_tires: bool) -> Report {
    let iterations = |full: usize| if kick_tires { (full / 100).max(2) } else { full };
    let mut report = Report::default();

    // Spawn + join + concat of one stage call over the smallest row count
    // that is dispatched to threads at all.
    let dispatch = repeat(iterations(2000), || {
        black_box(parallel_map(256, black_box));
    });
    report.set(&key("parallel", "dispatch_us"), median(&dispatch) * 1e6);

    let rtt = |kind| median(&ping_pong(kind, iterations(10_000), || 1.0f64));
    report.set(&key("transport", "socket_rtt_us"), rtt(TransportKind::Socket) * 1e6);
    report.set(&key("transport", "shm_rtt_us"), rtt(TransportKind::Shm) * 1e6);
    let megabyte = || vec![1.0f64; 131_072];
    let bulk = median(&ping_pong(TransportKind::Socket, iterations(200), megabyte));
    report.set(&key("transport", "socket_mb_per_s"), 2.0 * 1.048_576 / bulk);

    // Batches of 1000 pairs: a single pair is too short to time by itself.
    let meter = wall_meter();
    let pairs = repeat(iterations(100), || {
        for _ in 0..1000 {
            meter.start_region("probe").expect("no region is active");
            meter.end_region("probe").expect("the region was started");
        }
        meter.take_records();
    });
    report.set(&key("pmt", "region_pair_us"), median(&pairs) / 1000.0 * 1e6);

    for (name, enabled) in [("span_ns_enabled", true), ("span_ns_disabled", false)] {
        let spans = repeat(iterations(100), || {
            // A fresh sink per batch keeps the enabled sink's event buffer small.
            let sink = Arc::new(Telemetry::new());
            sink.set_enabled(enabled);
            for _ in 0..10_000 {
                drop(black_box(sink.span("stage", "probe", 0)));
            }
        });
        report.set(&key("telemetry", name), median(&spans) / 10_000.0 * 1e9);
    }
    report
}

/// Wall seconds of each of `n` calls of `f`.
fn repeat(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Round-trip seconds of `n` exchanges of `payload()` between two ranks over
/// the nonblocking point-to-point API, timed on rank 0.
fn ping_pong<T: Wire + Send + 'static>(kind: TransportKind, n: usize, payload: impl Fn() -> T + Sync) -> Vec<f64> {
    let mut comms = CommWorld::create_with(2, kind);
    let (echo, origin) = (comms.pop().expect("two ranks"), comms.pop().expect("two ranks"));
    std::thread::scope(|scope| {
        let payload = &payload;
        scope.spawn(move || {
            for _ in 0..n {
                let value: T = echo.irecv(0).wait(&echo).expect("rank 0 is alive");
                echo.isend(0, value).wait().expect("rank 0 is alive");
            }
        });
        repeat(n, || {
            let send = origin.isend(1, payload());
            black_box(origin.irecv::<T>(1).wait(&origin).expect("rank 1 is alive"));
            send.wait().expect("rank 1 is alive");
        })
    })
}
