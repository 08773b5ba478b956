//! Counting-allocator proof of the flat region path: after warm-up a
//! `start_region` / `end_region` pair — nested inside an open outer region,
//! with an observer attached and an iteration set, which is how every driver
//! of this workspace uses the hooks — touches the heap only to grow the record
//! list (amortised: a handful of doublings per ten thousand pairs), and a
//! finished meter hands its records over without copying one of them.
//!
//! This file is its own test binary so the counting global allocator cannot
//! interfere with any other test, and it contains exactly one test so no
//! concurrent test thread can perturb the allocation counter.

use energy_aware_sim::cluster::{Cluster, SimClockAdapter, SimNodeSensor};
use energy_aware_sim::hwmodel::arch::SystemKind;
use energy_aware_sim::pmt::backends::DummySensor;
use energy_aware_sim::pmt::{Domain, MeasurementRecord, PowerMeter, RegionObserver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract; we delegate as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract; we delegate as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract; we delegate as-is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// An observer that looks at what it is handed and keeps nothing.
#[derive(Default)]
struct Seen(AtomicU64);

impl RegionObserver for Seen {
    fn on_region_start(&self, label: &str, _time_s: f64) {
        self.0.fetch_add(label.len() as u64, Ordering::Relaxed);
    }

    fn on_region_end(&self, record: &MeasurementRecord) {
        self.0.fetch_add(record.energy_j.len() as u64, Ordering::Relaxed);
    }
}

const WARM_PAIRS: u64 = 100;
const PAIRS: u64 = 10_000;

fn stage_pairs(meter: &PowerMeter, first: u64, count: u64, between: &impl Fn()) {
    for step in first..first + count {
        meter.set_iteration(Some(step));
        meter.start_region("MomentumEnergy").expect("stage region starts");
        between();
        meter.end_region("MomentumEnergy").expect("stage region ends");
    }
}

/// Allocations of the cheapest of a few attempts at `f`: what `f` allocates is
/// deterministic and dirties every attempt, a libtest harness thread
/// allocating inside the window does not.
fn allocations_of(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            f();
            ALLOCATIONS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("three attempts")
}

/// Gate one meter: warm nested pairs stay under one allocation per hundred,
/// and the records move out whole.
fn assert_flat(meter: PowerMeter, domains: usize, between: impl Fn(), what: &str) {
    meter.add_region_observer(Arc::new(Seen::default()));
    meter.start_region("TimeSteppingLoop").expect("outer region starts");
    stage_pairs(&meter, 0, WARM_PAIRS, &between);

    let mut done = WARM_PAIRS;
    let per_window = allocations_of(|| {
        stage_pairs(&meter, done, PAIRS, &between);
        done += PAIRS;
    });
    assert!(
        per_window * 100 < PAIRS,
        "{what}: {per_window} allocations in {PAIRS} warm region pairs"
    );
    meter.end_region("TimeSteppingLoop").expect("outer region ends");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let report = meter.into_report();
    let moving = ALLOCATIONS.load(Ordering::SeqCst) - before;
    // The report's own hostname is the one allocation a move makes; a copy
    // made two per record.
    assert!(
        moving < 10,
        "{what}: moving {} records out allocated {moving} times",
        report.records.len()
    );

    assert_eq!(report.records.len() as u64, done + 1);
    let last_stage = &report.records[report.records.len() - 2];
    assert_eq!(last_stage.label, "MomentumEnergy");
    assert_eq!(last_stage.iteration, Some(done - 1));
    assert_eq!(last_stage.energy_j.len(), domains);
}

#[test]
fn warm_region_pairs_and_report_moves_do_not_allocate() {
    let wall = PowerMeter::builder().sensor(DummySensor::new(Domain::cpu(0), 1.0)).build();
    assert_flat(wall, 1, || (), "wall-clock meter on a DummySensor");

    let cluster = Cluster::with_gpu_dies(SystemKind::LumiG, 8);
    let node = PowerMeter::builder()
        .sensor(SimNodeSensor::per_card(cluster.node(0).clone()))
        .clock(SimClockAdapter::new(cluster.clock().clone()))
        .build();
    // node, CPU, memory and four cards — the widest record a campaign writes.
    assert_flat(
        node,
        7,
        || cluster.advance(0.01),
        "LUMI-G node meter on the advancing simulated clock",
    );
}
