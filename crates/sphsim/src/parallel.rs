//! Minimal data-parallel helpers.
//!
//! The physics kernels are embarrassingly parallel per-particle loops. These
//! helpers split them across OS threads with `std::thread::scope`, keeping the
//! dependency footprint small (no rayon) while still using every core for the
//! CPU-executed reference simulations. Every stage kernel goes through one
//! row dispatch, [`reduce_row_blocks`] (or its write-only form [`for_each_row`]).
//!
//! That dispatch is also the one place the stage kernels meet the host's
//! instruction set. The crate is built for the baseline target (SSE2 on
//! x86-64), and [`reduce_row_blocks`] holds a second, AVX2 instantiation of the
//! block body that it enters when [`simd_tier`] detected AVX2 at run time: the
//! kernel closures are `#[inline(always)]`, so their fixed-trip lane loops
//! are compiled into both instantiations, two and four doubles wide. Neither
//! tier has fused multiply-add (`avx2` does not enable `fma`, and rustc never
//! contracts `a * b + c`), so every lane executes the same IEEE operations in
//! the same order on both and results are bit-identical.

use std::sync::{Mutex, OnceLock};

/// Default upper bound on the worker-thread count. The per-particle loops
/// scale near-linearly to this width; past it, `thread::scope` spawn/join
/// overhead on every kernel call and host memory-bandwidth saturation eat the
/// gains. (The previous cap of 16 silently left most of a 64–128-core HPC
/// node idle.)
pub const MAX_DEFAULT_THREADS: usize = 64;

/// Hard ceiling on an explicit `SPHSIM_THREADS` override.
pub const MAX_THREADS: usize = 1024;

/// Number of worker threads to use.
///
/// Honours the `SPHSIM_THREADS` environment variable when it parses to a
/// positive integer (clamped to [`MAX_THREADS`]); otherwise defaults to the
/// machine's available parallelism clamped to [`MAX_DEFAULT_THREADS`].
///
/// The environment is consulted exactly once per process (this function sits
/// on every kernel invocation, and `std::env::var` takes a process-global
/// lock); set `SPHSIM_THREADS` before the first kernel call.
pub fn worker_threads() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        resolve_worker_threads(std::env::var("SPHSIM_THREADS").ok().as_deref(), available)
    })
}

/// Pure resolution of the worker-thread count from an optional `SPHSIM_THREADS`
/// override and the machine's available parallelism (kept separate from the
/// environment read so the policy is testable without mutating process-global
/// state from a multi-threaded test binary).
fn resolve_worker_threads(env_override: Option<&str>, available: usize) -> usize {
    if let Some(value) = env_override {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
        // Unparsable or zero: fall through to the default rather than
        // silently serialising the whole simulation.
    }
    available.clamp(1, MAX_DEFAULT_THREADS)
}

/// The instruction-set extensions the run-time dispatches may use: the row
/// dispatch of the stage kernels ([`reduce_row_blocks`]) and the cell-list sweep
/// (`crate::celllist`). All-false is the portable tier, the code as built for
/// the baseline target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SimdTier {
    /// AVX2: the four-doubles-wide instantiations.
    pub avx2: bool,
    /// AVX-512 F + VL (and POPCNT, which every such CPU has): the
    /// compress-store candidate scan of the cell sweep.
    pub avx512: bool,
}

/// The tier of this process: what the CPU reports, or the portable tier when
/// `SPHSIM_FORCE_PORTABLE_SWEEP` is set — the lever the equivalence tests and
/// CI use to hold the portable instantiations to the same pinned results on
/// wide-SIMD hosts. Detected once and cached (this sits on every kernel
/// invocation); set the variable before the first kernel call.
pub(crate) fn simd_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::env::var_os("SPHSIM_FORCE_PORTABLE_SWEEP").is_none() {
            return SimdTier {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                avx512: std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                    && std::arch::is_x86_feature_detected!("popcnt"),
            };
        }
        SimdTier {
            avx2: false,
            avx512: false,
        }
    })
}

/// The name a run manifest records for this process's [`simd_tier`].
pub fn simd_tier_name() -> &'static str {
    match simd_tier() {
        SimdTier { avx512: true, .. } => "avx512",
        SimdTier { avx2: true, .. } => "avx2",
        _ => "portable",
    }
}

/// Compute `f(i)` for every `i in 0..n` in parallel and collect the results in
/// index order.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = worker_threads().min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 || n < MIN_BLOCK_ROWS {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut pieces: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                let start = t * chunk;
                let end = ((t + 1) * chunk).min(n);
                scope.spawn(move || (start..end).map(f).collect::<Vec<T>>())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let mut out = Vec::with_capacity(n);
    for piece in pieces.iter_mut() {
        out.append(piece);
    }
    out
}

/// Fewest rows per block of [`reduce_row_blocks`], and fewest rows per worker
/// worth spawning (the cutoff of [`parallel_map`]).
const MIN_BLOCK_ROWS: usize = 256;

/// The rows a kernel visits inside one index range: every index of the range,
/// or the entries of an ascending row list that fall into it.
#[derive(Clone)]
pub enum BlockRows<'a> {
    /// Every row of the range.
    All(std::ops::Range<usize>),
    /// The listed rows that lie in the range.
    Listed(std::slice::Iter<'a, u32>),
}

impl<'a> BlockRows<'a> {
    /// The rows of `rows` that lie in `range` — `None` means every row, the
    /// way all stage kernels read their `rows` argument, without ever
    /// materialising `0..n`; a list must ascend.
    pub fn within(rows: Option<&'a [u32]>, range: std::ops::Range<usize>) -> Self {
        match rows {
            None => Self::All(range),
            Some(list) => {
                let from = list.partition_point(|&r| (r as usize) < range.start);
                let len = list[from..].partition_point(|&r| (r as usize) < range.end);
                Self::Listed(list[from..from + len].iter())
            }
        }
    }
}

impl Iterator for BlockRows<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Self::All(range) => range.next(),
            Self::Listed(list) => list.next().map(|&r| r as usize),
        }
    }
}

/// The one row dispatch of the stage kernels: cut the equally long output
/// `lanes` into blocks, let workers claim whole blocks (disjoint `&mut`
/// pieces, so every kernel writes **in place** — no per-call `Vec`, no scatter
/// loop) until none is left, and call `f(base, block_lanes, block_rows)` for
/// each, where lane index `i − base` of the block is row `i`. `rows` selects
/// the rows visited: `None` every row, `Some` an ascending list (the active
/// set of an individual-timestep substep, or one half of a distributed
/// rank's overlap split).
///
/// Returns `fold(… fold(identity, first block's result) …, last block's)`.
/// The block length depends on the lane length only and the results fold in
/// block order, so the value does not depend on the thread count. Below
/// [`MIN_BLOCK_ROWS`] rows per worker the calling thread claims every block
/// itself and nothing touches the heap.
///
/// Dispatch rule: `f` runs through the AVX2 instantiation of the block call
/// when [`simd_tier`] reports AVX2, directly (the portable tier) otherwise —
/// chosen once per call, the same for every block. An `#[inline(always)]`
/// closure is compiled into both and its lane loops vectorise at either
/// width; any other closure is merely called from both. The tiers differ in
/// vector width only, never in results (module docs).
pub fn reduce_row_blocks<T, F, const K: usize>(
    rows: Option<&[u32]>,
    lanes: [&mut [T]; K],
    identity: f64,
    fold: fn(f64, f64) -> f64,
    f: F,
) -> f64
where
    T: Send,
    F: Fn(usize, [&mut [T]; K], BlockRows<'_>) -> f64 + Sync,
{
    let n = lanes[0].len();
    debug_assert!(
        lanes.iter().all(|lane| lane.len() == n),
        "output lanes differ in length"
    );
    debug_assert!(
        rows.is_none_or(|list| list.windows(2).all(|w| w[0] < w[1])),
        "kernel rows must ascend"
    );
    let n_rows = rows.map_or(n, <[u32]>::len);
    // At most MAX_THREADS blocks, so their results fit on the stack.
    let block = n.div_ceil(MAX_THREADS).max(MIN_BLOCK_ROWS);
    let mut partial = [identity; MAX_THREADS];
    let avx2 = simd_tier().avx2;
    {
        let blocks = Mutex::new((lanes.map(|lane| lane.chunks_mut(block)), partial.iter_mut().enumerate()));
        let work = || loop {
            let (b, pieces, sum) = {
                let mut claim = blocks.lock().expect("a row-block worker panicked");
                let pieces = claim.0.each_mut().map(Iterator::next);
                if pieces[0].is_none() {
                    return;
                }
                let (b, sum) = claim.1.next().expect("at most MAX_THREADS blocks");
                (b, pieces, sum)
            };
            let pieces = pieces.map(|piece| piece.expect("output lanes differ in length"));
            let base = b * block;
            let block_rows = BlockRows::within(rows, base..base + pieces[0].len());
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: `avx2` is only true when run-time feature detection
                // reported AVX2 support on this CPU.
                *sum = unsafe { block_avx2(&f, base, pieces, block_rows) };
                continue;
            }
            let _ = avx2;
            *sum = f(base, pieces, block_rows);
        };
        let threads = worker_threads().min(n_rows / MIN_BLOCK_ROWS);
        if threads <= 1 {
            work();
        } else {
            std::thread::scope(|scope| (0..threads).for_each(|_| drop(scope.spawn(work))));
        }
    }
    partial.iter().copied().fold(identity, fold)
}

/// The AVX2 instantiation of one block call of [`reduce_row_blocks`]: the same
/// `f`, but an `#[inline(always)]` closure lands inside a function compiled
/// with AVX2 enabled, so the autovectorizer runs its lane loops four doubles
/// per instruction instead of baseline SSE2 pairs. Per-lane arithmetic stays
/// plain IEEE (no `fma`, no contraction).
///
/// # Safety
/// The caller must have verified at run time that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_avx2<T, F, const K: usize>(f: &F, base: usize, lanes: [&mut [T]; K], rows: BlockRows<'_>) -> f64
where
    F: Fn(usize, [&mut [T]; K], BlockRows<'_>) -> f64,
{
    f(base, lanes, rows)
}

/// [`reduce_row_blocks`] for kernels that only write: `f(i, outputs)` receives
/// row `i` and that row's slot of every output lane. Mark `f`
/// `#[inline(always)]` when its body holds a lane loop — it then compiles into
/// both tiers of the dispatch — or is so cheap that a call per row would show:
/// with two tiers calling it, the inliner no longer takes a closure for granted.
pub fn for_each_row<T, F, const K: usize>(rows: Option<&[u32]>, lanes: [&mut [T]; K], f: F)
where
    T: Send,
    F: Fn(usize, [&mut T; K]) + Sync,
{
    reduce_row_blocks(
        rows,
        lanes,
        0.0,
        |sum, e| sum + e,
        #[inline(always)]
        |base, mut block, block_rows| {
            for i in block_rows {
                f(i, block.each_mut().map(|lane| &mut lane[i - base]));
            }
            0.0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let out = parallel_map(10_000, |i| i * 2);
        assert_eq!(out.len(), 10_000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn map_handles_small_and_empty_inputs() {
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn row_blocks_visit_each_selected_row_once_in_place() {
        // Several blocks, and the threaded path wherever the host has workers.
        let n = 5000;
        let rows: Vec<u32> = (0..n as u32).filter(|i| i % 7 == 3).collect();
        let mut tag = vec![0usize; n];
        let mut visits = vec![0usize; n];
        let visited = reduce_row_blocks(
            Some(&rows),
            [&mut tag[..], &mut visits[..]],
            0.0,
            |sum, e| sum + e,
            |base, [tag, visits], block| {
                let mut count = 0.0;
                for i in block {
                    tag[i - base] = i;
                    visits[i - base] += 1;
                    count += 1.0;
                }
                count
            },
        );
        assert_eq!(visited, rows.len() as f64);
        for i in 0..n {
            let listed = i % 7 == 3;
            assert_eq!((tag[i], visits[i]), if listed { (i, 1) } else { (0, 0) }, "row {i}");
        }
        // `None` is every row; an empty list and empty lanes are no-ops.
        for_each_row(None, [&mut tag[..]], |i, [tag]| *tag = 2 * i);
        assert!(tag.iter().enumerate().all(|(i, &t)| t == 2 * i));
        for_each_row(Some(&[]), [&mut visits[..]], |_, [v]| *v = usize::MAX);
        assert!(visits.iter().all(|&v| v <= 1));
        for_each_row(None, [&mut [0u8; 0][..]], |_, [_]| unreachable!("no rows"));
    }

    #[test]
    fn worker_threads_is_reasonable() {
        let t = worker_threads();
        assert!((1..=MAX_THREADS).contains(&t));
    }

    #[test]
    fn worker_threads_is_stable_across_calls() {
        // The count is resolved once (OnceLock); repeated calls on the hot
        // path must return the same value without touching the environment.
        let first = worker_threads();
        assert!((0..1000).all(|_| worker_threads() == first));
    }

    #[test]
    fn worker_threads_honours_env_override() {
        // Exercise the resolution policy directly rather than via
        // std::env::set_var: mutating the process environment races the
        // env reads of every other test in this multi-threaded binary.
        assert_eq!(resolve_worker_threads(Some("5"), 32), 5);
        assert_eq!(resolve_worker_threads(Some(" 12 "), 32), 12);
        // An override larger than the default cap is allowed (that is the
        // point of the override)...
        assert_eq!(resolve_worker_threads(Some("128"), 32), 128);
        // ...but still bounded against absurd values.
        assert_eq!(resolve_worker_threads(Some("999999"), 32), MAX_THREADS);
        // Zero or garbage falls back to the default.
        assert_eq!(resolve_worker_threads(Some("0"), 32), 32);
        assert_eq!(resolve_worker_threads(Some("not-a-number"), 32), 32);
        assert_eq!(resolve_worker_threads(None, 32), 32);
        // The default respects machines both smaller and larger than the cap.
        assert_eq!(resolve_worker_threads(None, 8), 8);
        assert_eq!(resolve_worker_threads(None, 256), MAX_DEFAULT_THREADS);
        // The old cap of 16 silently underused large nodes; a 32-core machine
        // must now get all 32 workers by default.
        assert_eq!(resolve_worker_threads(None, 32), 32);
    }
}
