//! Micro-benchmark: sampling overhead of the back-ends and the meter,
//! including the file-based pm_counters/RAPL path over a virtual sysfs, and
//! the region path at rate: a campaign the size of the largest Figure 1 point
//! (LUMI-G, 96 ranks, 100 timesteps — 105 696 region pairs on 96 per-rank
//! meters).

use bench::{bench_scenario, run_bench_campaign};
use cluster::{Cluster, SimClockAdapter, SimNodeSensor};
use criterion::{criterion_group, criterion_main, Criterion};
use hwmodel::arch::SystemKind;
use hwmodel::VirtualSysfs;
use pmt::backends::CrayPmCountersSensor;
use pmt::{PowerMeter, Sensor};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensor_sampling");
    group.sample_size(20);

    let cluster = Cluster::new(SystemKind::LumiG, 1);
    let node = cluster.node(0).clone();

    let sensor = SimNodeSensor::per_card(node.clone());
    group.bench_function("in_memory_node_sensor_sample", |b| b.iter(|| sensor.sample().unwrap()));

    let meter = PowerMeter::builder()
        .sensor(SimNodeSensor::per_card(node.clone()))
        .clock(SimClockAdapter::new(cluster.clock().clone()))
        .build();
    let mut pairs = 0u32;
    group.bench_function("meter_region_start_end", |b| {
        b.iter(|| {
            meter.start_region("bench").unwrap();
            let record = meter.end_region("bench").unwrap();
            // Drained now and then: the measurement is of a pair, not of a
            // record list that grows for as long as the bench runs.
            pairs += 1;
            if pairs.is_multiple_of(1024) {
                meter.take_records();
            }
            record
        })
    });

    let dir = std::env::temp_dir().join(format!("bench-sysfs-{}", std::process::id()));
    let sysfs = VirtualSysfs::new(&dir, node, cluster.clock().clone());
    sysfs.materialize().unwrap();
    let file_sensor = CrayPmCountersSensor::discover(sysfs.pm_counters_root()).unwrap();
    group.bench_function("pm_counters_file_sample", |b| b.iter(|| file_sensor.sample().unwrap()));
    group.bench_function("campaign_lumi_96x100", |b| {
        b.iter(|| run_bench_campaign(SystemKind::LumiG, bench_scenario("Turb"), 96, 100).total_meter_polls)
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
