//! The metrics registry: monotonic counters, gauges and fixed-bucket
//! histograms with typed, lock-free handles.
//!
//! A handle (`Arc<Counter>` etc.) is fetched once per call site via the
//! get-or-create accessors and then updated with a single atomic operation —
//! the registry mutex is only touched at handle-creation time. Snapshots are
//! cheap, consistent-enough reads for end-of-run reporting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a last-write-wins sampled value.
#[derive(Debug)]
pub(crate) struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Set the gauge.
    pub(crate) fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The last value set.
    fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram. Bucket `i` counts observations `< bounds[i]`
/// (cumulative-exclusive upper bounds); one extra overflow bucket counts
/// everything at or above the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    /// Sum of observations, stored as f64 bits and updated by CAS.
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        self.counts[self.bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.add_to_sum(value);
    }

    /// The bucket [`Histogram::observe`] counts `value` in: index `i` for the
    /// first bound above it, `bounds().len()` for the overflow bucket.
    pub fn bucket(&self, value: f64) -> usize {
        self.bounds.partition_point(|&b| b <= value)
    }

    /// Record a batch the caller folded itself: `counts[i]` observations in
    /// bucket `i` (as [`Histogram::bucket`] assigns them) whose values sum to
    /// `sum`. One atomic add per non-empty bucket, one for the total and one
    /// compare-and-swap for the sum, however large the batch — where
    /// [`Histogram::observe`] pays all three per value. Counts and total come
    /// out as observing each value would leave them; so does the sum whenever
    /// every partial sum is exact in `f64` (integer values below 2⁵³).
    ///
    /// # Panics
    ///
    /// Panics if `counts` has more entries than the histogram has buckets.
    pub fn observe_batch(&self, counts: &[u64], sum: f64) {
        assert!(
            counts.len() <= self.counts.len(),
            "{} batch buckets for a histogram of {}",
            counts.len(),
            self.counts.len()
        );
        for (bucket, &n) in self.counts.iter().zip(counts).filter(|&(_, &n)| n > 0) {
            bucket.fetch_add(n, Ordering::Relaxed);
        }
        self.total.fetch_add(counts.iter().sum(), Ordering::Relaxed);
        self.add_to_sum(sum);
    }

    fn add_to_sum(&self, value: f64) {
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// A consistent-enough snapshot for reporting.
    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            bounds: self.bounds.clone(),
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count: self.total.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of a histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: String,
    /// Bucket upper bounds (exclusive); the final count bucket is overflow.
    pub bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket (`bounds.len() + 1`).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → total.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → last value.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Look up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Get-or-create registry of named metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub(crate) fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created with `bounds` on first use.
    /// Later calls ignore `bounds` and return the existing histogram.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(bounds)))
            .clone()
    }

    /// Snapshot every metric for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self.gauges.lock().unwrap().iter().map(|(n, g)| (n.clone(), g.get())).collect(),
            histograms: self.histograms.lock().unwrap().iter().map(|(n, h)| h.snapshot(n)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("comm.gather.messages");
        let b = reg.counter("comm.gather.messages");
        a.inc();
        b.add(4);
        assert_eq!(reg.snapshot().counter("comm.gather.messages"), Some(5));
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("health.dt");
        g.set(1e-3);
        g.set(2e-3);
        assert_eq!(reg.snapshot().gauge("health.dt"), Some(2e-3));
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("neigh", &[10.0, 20.0, 40.0]);
        for v in [0.0, 9.9, 10.0, 15.0, 39.9, 40.0, 1e9] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("neigh").unwrap();
        assert_eq!(hs.counts, vec![2, 2, 1, 2]);
        assert_eq!(hs.count, 7);
        assert!((hs.mean() - (0.0 + 9.9 + 10.0 + 15.0 + 39.9 + 40.0 + 1e9) / 7.0).abs() < 1e-3);
    }

    #[test]
    fn a_folded_batch_records_what_observing_each_value_records() {
        let bounds = [8.0, 16.0, 32.0, 48.0, 64.0];
        let (reg, batch_reg) = (MetricsRegistry::new(), MetricsRegistry::new());
        let (each, batch) = (reg.histogram("w", &bounds), batch_reg.histogram("w", &bounds));
        // Integers below, on and above every bound, the overflow bucket
        // included; two rounds, as two steps publish.
        let values: Vec<f64> = (0..200u32).map(|k| f64::from(k * 7 % 97)).collect();
        for round in values.chunks(120) {
            let mut counts = [0u64; 6];
            let mut sum = 0.0;
            for &v in round {
                each.observe(v);
                counts[batch.bucket(v)] += 1;
                sum += v;
            }
            batch.observe_batch(&counts, sum);
        }
        let (a, b) = (each.snapshot("w"), batch.snapshot("w"));
        assert!(a.counts.iter().all(|&n| n > 0), "every bucket observed: {:?}", a.counts);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.count, b.count);
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
        // An empty batch changes nothing.
        batch.observe_batch(&[], 0.0);
        assert_eq!(batch.snapshot("w"), b);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = reg.histogram("x", &[0.5]);
        let c = reg.counter("c");
        let mut joins = Vec::new();
        for _ in 0..4 {
            let h = h.clone();
            let c = c.clone();
            joins.push(thread::spawn(move || {
                for i in 0..1000 {
                    h.observe(i as f64);
                    c.inc();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(4000));
        let hs = snap.histogram("x").unwrap();
        assert_eq!(hs.count, 4000);
        assert!((hs.sum - 4.0 * (999.0 * 1000.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[1.0, 1.0]);
    }
}
