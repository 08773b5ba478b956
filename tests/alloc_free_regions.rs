//! Counting-allocator proof of the flat region path: after warm-up a
//! `start_region` / `end_region` pair — nested inside an open outer region,
//! with an observer attached and an iteration set, which is how every driver
//! of this workspace uses the hooks — touches the heap only to grow the record
//! list (amortised: a handful of doublings per ten thousand pairs), not at all
//! once the list is reserved (`PowerMeter::reserve_records`), after a hundred
//! warm pairs as after ten thousand, and a finished meter hands its records
//! over without copying one of them. A gathered report decodes as compactly:
//! its allocations grow with its distinct labels and domain lists, not with
//! its records.
//!
//! This file is its own test binary so the counting global allocator cannot
//! interfere with any other test, and each test holds `ONE_AT_A_TIME` for its
//! whole run so no concurrent test thread can perturb the allocation counter.

use energy_aware_sim::comm::WireReader;
use energy_aware_sim::hwmodel::arch::SystemKind;
use energy_aware_sim::hwmodel::{Cluster, SimClockAdapter, SimNodeSensor};
use energy_aware_sim::pmt::backends::DummySensor;
use energy_aware_sim::pmt::{Domain, MeasurementRecord, PowerMeter, RankReport, RegionObserver};
use energy_aware_sim::sphsim::distributed::{decode_report, encode_report};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// `meter` as every driver holds it between stages: an observer attached, the
/// outer region open and `pairs` stage pairs closed.
fn warm(meter: PowerMeter, pairs: u64, between: &impl Fn()) -> PowerMeter {
    meter.add_region_observer(Arc::new(Seen::default()));
    meter.start_region("TimeSteppingLoop").expect("outer region starts");
    stage_pairs(&meter, 0, pairs, between);
    meter
}

/// Allocations made while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// The cheapest of a few attempts: what an attempt allocates is deterministic
/// and dirties every attempt, a libtest harness thread allocating inside the
/// window does not.
fn fewest(attempt: impl FnMut(u64) -> u64) -> u64 {
    (0..3).map(attempt).min().expect("three attempts")
}

/// Close the outer region of a meter that has closed `done` stage pairs, and
/// check that its records move out whole.
fn assert_moves_whole(meter: PowerMeter, done: u64, domains: usize, what: &str) {
    meter.end_region("TimeSteppingLoop").expect("outer region ends");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let report = meter.into_report();
    let moving = ALLOCATIONS.load(Ordering::SeqCst) - before;
    // The report's own hostname and the shared header of its record list
    // are the two allocations a move makes; a copy made two per record.
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

/// Gate one meter: warm nested pairs stay under one allocation per hundred,
/// and the records move out whole.
fn assert_flat(meter: PowerMeter, domains: usize, between: impl Fn(), what: &str) {
    let meter = warm(meter, WARM_PAIRS, &between);
    let per_window =
        fewest(|attempt| allocations_in(|| stage_pairs(&meter, WARM_PAIRS + attempt * PAIRS, PAIRS, &between)));
    assert!(
        per_window * 100 < PAIRS,
        "{what}: {per_window} allocations in {PAIRS} warm region pairs"
    );
    assert_moves_whole(meter, WARM_PAIRS + 3 * PAIRS, domains, what);
}

/// Gate the reservation: a meter warmed by `warm_pairs` pairs and given
/// `reserve_records(PAIRS + 1)` makes no allocation in its next `PAIRS`
/// pairs. Each attempt is a fresh meter, whose unreserved list would cross a
/// doubling in them.
fn assert_reserved_flat(
    meter: impl Fn() -> PowerMeter,
    warm_pairs: u64,
    domains: usize,
    between: impl Fn(),
    what: &str,
) {
    let mut last = None;
    let per_window = fewest(|_| {
        let meter = warm(meter(), warm_pairs, &between);
        meter.reserve_records(PAIRS as usize + 1);
        let allocations = allocations_in(|| stage_pairs(&meter, warm_pairs, PAIRS, &between));
        last = Some(meter);
        allocations
    });
    assert_eq!(
        per_window, 0,
        "{what}: {per_window} allocations in {PAIRS} region pairs after {warm_pairs} warm ones and reserving their records"
    );
    assert_moves_whole(last.expect("an attempt"), warm_pairs + PAIRS, domains, what);
}

#[test]
fn warm_region_pairs_and_report_moves_do_not_allocate() {
    let _alone = alone();
    let wall = PowerMeter::builder().sensor(DummySensor::new(Domain::cpu(0), 1.0)).build();
    assert_flat(wall, 1, || (), "wall-clock meter on a DummySensor");

    let cluster = Cluster::with_gpu_dies(SystemKind::LumiG, 8);
    let node_meter = || {
        PowerMeter::builder()
            .sensor(SimNodeSensor::per_card(cluster.node(0).clone()))
            .clock(SimClockAdapter::new(cluster.clock().clone()))
            .build()
    };
    let advance = || cluster.advance(0.01);
    // node, CPU, memory and four cards — the widest record a campaign writes.
    assert_flat(
        node_meter(),
        7,
        advance,
        "LUMI-G node meter on the advancing simulated clock",
    );
    for warm_pairs in [WARM_PAIRS, PAIRS] {
        assert_reserved_flat(
            node_meter,
            warm_pairs,
            7,
            advance,
            "LUMI-G node meter with its records reserved",
        );
    }
}

/// A report of `n` records as a campaign rank gathers them: four stage labels
/// in turn, the first half over a LUMI-G node's seven domains, the second
/// half over eight GPU dies.
fn gathered_report(n: usize) -> RankReport {
    let node = [
        Domain::node(),
        Domain::cpu(0),
        Domain::gpu_card(0),
        Domain::gpu_card(1),
        Domain::gpu_card(2),
        Domain::gpu_card(3),
        Domain::memory(),
    ];
    let dies: Vec<Domain> = (0..8).map(Domain::gpu).collect();
    let records: Vec<MeasurementRecord> = (0..n)
        .map(|i| {
            let domains = if i < n / 2 { &node[..] } else { &dies[..] };
            MeasurementRecord {
                label: ["XMass", "MomentumEnergy", "Timestep", "UpdateQuantities"][i % 4].into(),
                iteration: Some(i as u64),
                start_s: i as f64,
                end_s: i as f64 + 0.5,
                energy_j: domains.iter().map(|d| (*d, i as f64 + f64::from(d.index))).collect(),
            }
        })
        .collect();
    RankReport {
        rank: 3,
        hostname: "nid000042".into(),
        records: records.into(),
    }
}

#[test]
fn a_decoded_report_allocates_per_distinct_label_and_domain_list_not_per_record() {
    let _alone = alone();
    let decode = |records: usize| {
        let mut bytes = Vec::new();
        encode_report(&gathered_report(records), &mut bytes);
        let from_wire = || decode_report(&mut WireReader::new(&bytes)).expect("a report decodes");
        assert_eq!(from_wire(), gathered_report(records));
        fewest(|_| {
            allocations_in(|| {
                std::hint::black_box(from_wire());
            })
        })
    };
    let (few, many) = (decode(10), decode(1000));
    // The record list and its shared header, the hostname, four labels and
    // two domain lists, plus the decoder's label table and energy buffer
    // (grown once, from four domains to eight): twelve, however many
    // records share them.
    assert_eq!(many, few, "1000 records allocated {many} times, 10 records {few}");
    assert!(many <= 12, "a two-list, four-label report allocated {many} times");
}
