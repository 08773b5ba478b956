//! Micro-benchmark: octree construction and the Barnes–Hut walk (the
//! substrate of the Gravity stage).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sphsim::Octree;

fn cloud(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(7);
    let x = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let y = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let z = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let m = vec![1.0; n];
    (x, y, z, m)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("octree");
    group.sample_size(15);
    let (x, y, z, m) = cloud(20_000);

    group.bench_function("build_20k", |b| b.iter(|| Octree::build(&x, &y, &z, &m, 32)));

    let tree = Octree::build(&x, &y, &z, &m, 32);
    group.bench_function("gravity_walk_20k", |b| {
        b.iter(|| tree.gravity_at((0.5, 0.5, 0.5), 0.5, 0.01, &x, &y, &z, &m, usize::MAX))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
