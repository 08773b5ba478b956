//! Host-speed probe: a fixed, benchmark-owned pair loop sampled between the
//! timed steps, so that times are reported in *reference-host seconds*.
//!
//! The reference host is a 2-vCPU microVM on shared hardware. Identical work
//! there drifts by 10–30 % over minutes (memory-system and sibling-thread
//! contention from neighbours), in plateaus no estimator within a run removes;
//! raw wall clock made the previous benchmark fail its bounds and would fail
//! honest later changes. The probe has the mix of the SPH pair kernels —
//! neighbour-list gathers over a cache-sized working set feeding a square
//! root and a divide per pair — so it slows down when they do. Dividing a
//! time by the probe's slow-down relative to [`REFERENCE_SAMPLE_S`] removes
//! most of the host's share: between two sets of ten runs 25 minutes apart
//! the raw medians of `evrard_gravity` and `turb_ranks_instrumented` moved
//! +11.8 % and +9.2 %, the normalised ones +2.4 % and +4.0 %, and the widest
//! quartile spread of any workload fell from 18 % to 12 %. The price is the
//! probe's own jitter, a few percent on a quiet host. The probe never changes
//! with the library, so the normalisation is the same on every commit; the
//! raw times and the slow-down are in every record's manifest.

use crate::record::{cpu_seconds, Report};
use std::hint::black_box;
use std::time::Instant;

const PARTICLES: usize = 20_000;
const NEIGHBOURS: usize = 32;
/// Sweeps over the particle set per sample (one sample ≈ 6 ms).
const SWEEPS: usize = 3;

/// Seconds one sample takes on the reference host in its usual state (the
/// median over forty runs): the unit the end-to-end times are expressed in.
pub const REFERENCE_SAMPLE_S: f64 = 0.0062;

pub struct HostSpeed {
    x: Vec<f64>,
    h: Vec<f64>,
    m: Vec<f64>,
    /// `NEIGHBOURS` indices per particle, each within ±1000 slots of it — the
    /// locality a Morton-sorted particle set gives the real neighbour lists.
    neighbours: Vec<u32>,
    samples: u32,
    total_s: f64,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        let neighbours = (0..PARTICLES * NEIGHBOURS)
            .map(|k| ((k / NEIGHBOURS + PARTICLES + draw() % 2000 - 1000) % PARTICLES) as u32)
            .collect();
        Self {
            x: (0..PARTICLES).map(|i| i as f64 * 1e-3).collect(),
            h: (0..PARTICLES).map(|i| 0.1 + (i % 7) as f64 * 0.01).collect(),
            m: (0..PARTICLES).map(|i| 1.0 + (i % 3) as f64).collect(),
            neighbours,
            samples: 0,
            total_s: 0.0,
        }
    }

    fn sweep(&self) -> f64 {
        let mut total = 0.0;
        for (i, row) in self.neighbours.chunks_exact(NEIGHBOURS).enumerate() {
            let xi = self.x[i];
            let mut sum = 0.0;
            for &j in row {
                let j = j as usize;
                let d = self.x[j] - xi;
                sum += self.m[j] / ((d * d + 1e-6).sqrt() + self.h[j]);
            }
            total += sum;
        }
        total
    }

    /// Take `n` samples.
    pub fn sample(&mut self, n: u32) {
        for _ in 0..n {
            let t = Instant::now();
            for _ in 0..SWEEPS {
                black_box(self.sweep());
            }
            self.total_s += t.elapsed().as_secs_f64();
            self.samples += 1;
        }
    }

    /// Seconds spent sampling so far.
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// Mean sample time over [`REFERENCE_SAMPLE_S`]: how much slower than the
    /// quiet reference host this host ran while the samples were taken.
    pub fn slowdown(&self) -> f64 {
        self.total_s / f64::from(self.samples) / REFERENCE_SAMPLE_S
    }

    /// Forget the samples taken so far.
    pub fn reset(&mut self) {
        self.samples = 0;
        self.total_s = 0.0;
    }
}

/// Samples taken right after set-up to normalise `setup_s` (≈ 0.1 s).
const SETUP_SAMPLES: u32 = 20;

/// Share of the timed loop's length spent sampling between its steps.
const SAMPLED_SHARE: f64 = 0.04;

/// The clocks of one child: the set-up phase, then the timed loop, both
/// reported in reference-host seconds.
pub struct RunClock {
    host: HostSpeed,
    /// Threads that sample concurrently (one per rank): their probe time is
    /// taken out of the process's CPU time.
    probing_threads: f64,
    loop_wall_s: f64,
    samples_owed: f64,
    cpu_at_start: f64,
}

impl RunClock {
    /// Close the set-up phase that began at `start`, recording `setup_s`, and
    /// open the timed loop.
    pub fn end_of_setup(start: Instant, probing_threads: usize, report: &mut Report) -> Self {
        let raw = start.elapsed().as_secs_f64();
        let mut host = HostSpeed::new();
        host.sample(SETUP_SAMPLES);
        report.set("setup_s", raw / host.slowdown());
        report.note("raw_setup_s", raw);
        host.reset();
        Self {
            host,
            probing_threads: probing_threads as f64,
            loop_wall_s: 0.0,
            // The first step is followed by a sample whatever its length.
            samples_owed: 1.0,
            cpu_at_start: cpu_seconds(),
        }
    }

    /// Run `f` as part of the timed loop; outside it, sample the host speed
    /// for [`SAMPLED_SHARE`] of the time the loop has taken.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let took = t.elapsed().as_secs_f64();
        self.loop_wall_s += took;
        // Whole samples only: a step shorter than a sample carries its share
        // over to the next.
        self.samples_owed += SAMPLED_SHARE * took / REFERENCE_SAMPLE_S;
        let due = self.samples_owed.floor();
        self.samples_owed -= due;
        self.host.sample(due as u32);
        out
    }

    /// Close the timed loop, recording `time_to_solution_s` and
    /// `cpu_s_to_solution`.
    pub fn finish(self, report: &mut Report) {
        let slowdown = self.host.slowdown();
        let cpu = cpu_seconds() - self.cpu_at_start - self.probing_threads * self.host.total_s();
        report.set("time_to_solution_s", self.loop_wall_s / slowdown);
        report.set("cpu_s_to_solution", cpu / slowdown);
        report.set("raw_wall_s", self.loop_wall_s);
        report.note("raw_wall_s", self.loop_wall_s);
        report.note("raw_cpu_s", cpu);
        report.note("host_slowdown", slowdown);
    }
}
