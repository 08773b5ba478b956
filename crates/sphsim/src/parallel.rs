//! Minimal data-parallel helpers.
//!
//! The physics kernels are embarrassingly parallel per-particle loops. These
//! helpers split them across OS threads with `std::thread::scope`, keeping the
//! dependency footprint small (no rayon) while still using every core for the
//! CPU-executed reference simulations. `run_blocks` is the crate's one block
//! runner, the only place that spawns kernel or sweep threads (`block_threads`
//! of them) and enters the AVX2 tier: every stage kernel reaches it through the
//! row dispatch `reduce_row_blocks` (or its write-only form `for_each_row`), and
//! the cell sweep of `FindNeighbors` hands it one block per thread.
//!
//! The crate is built for the baseline target (SSE2 on x86-64), and
//! `run_blocks` holds a second, AVX2 instantiation of its item call that it
//! enters when `simd_tier` detected AVX2 at run time: the kernel and sweep
//! closures are `#[inline(always)]`, so their fixed-trip lane loops are
//! compiled into both, two and four doubles wide. Neither tier has fused
//! multiply-add (`avx2` does not enable `fma`, and rustc never contracts
//! `a * b + c`), so every lane executes the same IEEE operations in the same
//! order on both and results are bit-identical.

use std::sync::{Mutex, OnceLock};

/// Default upper bound on the worker-thread count. The per-particle loops
/// scale near-linearly to this width; past it, `thread::scope` spawn/join
/// overhead on every kernel call and host memory-bandwidth saturation eat the
/// gains. (The previous cap of 16 silently left most of a 64–128-core HPC
/// node idle.)
const MAX_DEFAULT_THREADS: usize = 64;

/// Hard ceiling on an explicit `SPHSIM_THREADS` override.
const MAX_THREADS: usize = 1024;

/// Number of worker threads to use.
///
/// Honours the `SPHSIM_THREADS` environment variable when it parses to a
/// positive integer (clamped to `MAX_THREADS`); otherwise defaults to the
/// machine's available parallelism clamped to `MAX_DEFAULT_THREADS`.
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

/// The instruction-set extensions the run-time dispatch may use: AVX2 in
/// [`run_blocks`], AVX-512 in the cell sweep's candidate scan
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

/// The name a run manifest records for this process's `simd_tier`.
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
/// worth spawning ([`block_threads`], and the cutoff of [`parallel_map`]).
const MIN_BLOCK_ROWS: usize = 256;

/// Threads for a call over `rows` rows: one per [`MIN_BLOCK_ROWS`], at most
/// [`worker_threads`], at least one (the path the allocation gate covers).
pub(crate) fn block_threads(rows: usize) -> usize {
    worker_threads().min(rows / MIN_BLOCK_ROWS).max(1)
}

/// The one block runner: call `work(item)` for every item of `items` on
/// `threads` scoped threads (callers pass [`block_threads`]), each claiming
/// the next item until none is left; at one thread, in order on the calling
/// thread, off the heap. Every item runs through the AVX2 instantiation when
/// [`simd_tier`] reports AVX2, directly (the portable tier) otherwise. An
/// `#[inline(always)]` `work` is compiled into both and its lane loops
/// vectorise at either width; any other closure is merely called from both.
pub(crate) fn run_blocks<I, W>(threads: usize, items: I, work: W)
where
    I: Iterator + Send,
    I::Item: Send,
    W: Fn(I::Item) + Sync,
{
    let avx2 = simd_tier().avx2;
    let run = |item| {
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // SAFETY: `avx2` is only true when run-time feature detection
            // reported AVX2 support on this CPU.
            return unsafe { block_avx2(&work, item) };
        }
        let _ = avx2;
        work(item);
    };
    if threads <= 1 {
        items.for_each(run);
        return;
    }
    let items = Mutex::new(items);
    let claim = || loop {
        let Some(item) = items.lock().expect("a block worker panicked").next() else {
            return;
        };
        run(item);
    };
    std::thread::scope(|scope| (0..threads).for_each(|_| drop(scope.spawn(claim))));
}

/// The AVX2 instantiation of one item call of [`run_blocks`]: an
/// `#[inline(always)]` `work` lands in a function compiled with AVX2, so its
/// lane loops run four doubles per instruction (plain IEEE, no `fma`).
///
/// # Safety
/// The caller must have verified at run time that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_avx2<T, W: Fn(T)>(work: &W, item: T) {
    work(item)
}

/// The rows a kernel visits inside one index range: every index of the range,
/// or the entries of an ascending row list that fall into it.
#[derive(Clone)]
pub(crate) enum BlockRows<'a> {
    /// Every row of the range.
    All(std::ops::Range<usize>),
    /// The listed rows that lie in the range.
    Listed(std::slice::Iter<'a, u32>),
}

impl<'a> BlockRows<'a> {
    /// The rows of `rows` that lie in `range` — `None` means every row, the
    /// way all stage kernels read their `rows` argument, without ever
    /// materialising `0..n`; a list must ascend.
    pub(crate) fn within(rows: Option<&'a [u32]>, range: std::ops::Range<usize>) -> Self {
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
/// `lanes` into blocks, hand them to [`run_blocks`] as disjoint `&mut`
/// pieces (so every kernel writes **in place** — no per-call `Vec`, no
/// scatter loop), and call `f(base, block_lanes, block_rows)` for each, where
/// lane index `i − base` of the block is row `i`. `rows` selects the rows
/// visited: `None` every row, `Some` an ascending list (the active set of an
/// individual-timestep substep, or one half of a distributed rank's overlap
/// split).
///
/// Returns `fold(… fold(identity, first block's result) …, last block's)`.
/// The block length depends on the lane length only and the results fold in
/// block order, so the value does not depend on the thread count. The
/// blocks run on [`block_threads`] of the visited rows; mark `f`
/// `#[inline(always)]` to compile it into both SIMD tiers of the runner.
pub(crate) fn reduce_row_blocks<T, F, const K: usize>(
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
    let mut chunks = lanes.map(|lane| lane.chunks_mut(block));
    let blocks = partial.iter_mut().enumerate().map_while(|(b, sum)| {
        let pieces = chunks.each_mut().map(Iterator::next);
        pieces[0].as_ref()?;
        Some((
            b,
            pieces.map(|piece| piece.expect("output lanes differ in length")),
            sum,
        ))
    });
    run_blocks(
        block_threads(n_rows),
        blocks,
        #[inline(always)]
        |(b, pieces, sum)| {
            let base = b * block;
            let block_rows = BlockRows::within(rows, base..base + pieces[0].len());
            *sum = f(base, pieces, block_rows);
        },
    );
    partial.iter().copied().fold(identity, fold)
}

/// [`reduce_row_blocks`] for kernels that only write: `f(i, outputs)` receives
/// row `i` and that row's slot of every output lane. Mark `f`
/// `#[inline(always)]` when its body holds a lane loop — it then compiles into
/// both tiers of the dispatch — or is so cheap that a call per row would show:
/// with two tiers calling it, the inliner no longer takes a closure for granted.
pub(crate) fn for_each_row<T, F, const K: usize>(rows: Option<&[u32]>, lanes: [&mut [T]; K], f: F)
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
    fn block_runner_visits_each_item_once_at_any_thread_count() {
        // Fewer items than threads, more items than threads, and one thread.
        for (threads, items) in [(4, 2), (3, 1000), (1, 50)] {
            let caller = std::thread::current().id();
            let visits = Mutex::new(Vec::new());
            run_blocks(threads, 0..items, |i| {
                visits.lock().unwrap().push((i, std::thread::current().id() == caller));
            });
            let visits = visits.into_inner().unwrap();
            if threads == 1 {
                assert!(
                    visits.iter().copied().eq((0..items).map(|i| (i, true))),
                    "in order on the calling thread"
                );
            }
            let mut seen: Vec<usize> = visits.iter().map(|&(i, _)| i).collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..items).collect::<Vec<_>>(),
                "{threads} threads, {items} items: each once"
            );
        }
    }

    #[test]
    fn block_threads_takes_one_thread_per_min_block_rows() {
        assert_eq!(block_threads(0), 1);
        assert_eq!(block_threads(2 * MIN_BLOCK_ROWS - 1), 1);
        assert_eq!(block_threads(2 * MIN_BLOCK_ROWS), worker_threads().min(2));
        assert_eq!(block_threads(usize::MAX), worker_threads());
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
