//! Shared-memory parallel execution context for the hot kernels.
//!
//! The paper's SMP experiments (Table 5) thread the flux kernel with
//! OpenMP-style worksharing: each thread owns a contiguous chunk of the
//! iteration space, writes land in private or disjoint storage, and
//! reductions gather per-thread partials *in thread order* so results are
//! deterministic for a fixed thread count.  [`ParCtx`] packages that model
//! so the SpMV, BLAS-1, flux-residual and triangular-solve kernels can all
//! share one partitioning scheme.
//!
//! Determinism contract: every helper here computes with the same chunk
//! boundaries whether the chunks execute on worker threads or (for small
//! `n`) on the calling thread, and reductions always combine partials in
//! ascending thread order.  A result therefore depends only on the inputs
//! and `nthreads`, never on scheduling.
//!
//! Every helper takes a stable `&'static str` region label.  When the
//! global [`crate::profile`] layer is enabled, each fork/join records its
//! wall time and per-thread busy times under that label; when disabled (the
//! default) the label costs one relaxed atomic load and the execution path
//! is the unprofiled one above — bitwise identical results either way.

use crate::profile;
use std::marker::PhantomData;
use std::ops::Range;
use std::time::Instant;

/// Below this many work items the helpers run their chunks on the calling
/// thread instead of spawning: one 2-thread `thread::scope` region costs
/// 55–90 µs on a 2-vCPU host, which dwarfs a small kernel.  The value dates
/// from an estimate of ~10 µs per spawn; whether a fork pays from here for
/// SpMV rows, flux edges or triangular-solve level rows is unmeasured.
/// The BLAS-1 helpers pass their own, measured minimum.  The chunking is
/// identical either way, so the numerics do not change — only where the
/// chunks execute.
pub(crate) const PAR_MIN_N: usize = 4096;

#[cfg(test)]
thread_local! {
    /// Regions forked from this thread; see [`forked_regions`].
    static FORKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many regions the calling thread has forked so far, so unit tests
/// can tell whether a helper ran its chunks on workers or inline.
#[cfg(test)]
pub(crate) fn forked_regions() -> usize {
    FORKED.with(|f| f.get())
}

/// A shared-memory parallel context: a thread count plus the contiguous
/// block partitioning derived from it.
///
/// `ParCtx` is `Copy` and cheap to pass by value; it holds no thread pool.
/// Worker threads are spawned per call with `std::thread::scope`, matching
/// the fork/join worksharing of the paper's OpenMP loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParCtx {
    nthreads: usize,
}

impl Default for ParCtx {
    fn default() -> Self {
        Self::seq()
    }
}

impl ParCtx {
    /// A context with `nthreads` workers (clamped to at least 1).
    pub fn new(nthreads: usize) -> Self {
        Self {
            nthreads: nthreads.max(1),
        }
    }

    /// The sequential context: one thread, every helper degenerates to the
    /// plain loop.
    pub fn seq() -> Self {
        Self { nthreads: 1 }
    }

    /// Number of worker threads.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The contiguous sub-range of `0..n` owned by thread `t`: `n / nthreads`
    /// items each, with the remainder spread one-per-thread over the lowest
    /// thread indices.  Ranges are ascending, disjoint, and cover `0..n`
    /// exactly; when `nthreads > n` the trailing threads get empty ranges.
    ///
    /// # Panics
    /// Panics if `t >= nthreads` — an out-of-range index would otherwise
    /// yield a range past the end of the data.
    pub fn chunk(&self, n: usize, t: usize) -> Range<usize> {
        assert!(
            t < self.nthreads,
            "chunk: thread index {t} out of range for {} threads",
            self.nthreads
        );
        let per = n / self.nthreads;
        let rem = n % self.nthreads;
        let start = t * per + t.min(rem);
        let len = per + usize::from(t < rem);
        start..start + len
    }

    /// Whether a region over `n` items, forking from `min_n` up, spawns.
    /// Each helper asks once per region, on the calling thread.
    fn should_spawn(&self, n: usize, min_n: usize) -> bool {
        let spawn = self.nthreads > 1 && n >= min_n;
        #[cfg(test)]
        FORKED.with(|f| f.set(f.get() + usize::from(spawn)));
        spawn
    }

    /// Whether [`Self::parallel_for`] over `n` items forks worker threads.
    pub(crate) fn forks(&self, n: usize) -> bool {
        self.nthreads > 1 && n >= PAR_MIN_N
    }

    /// Run `body(t, range)` over each thread's chunk of `0..n`.  Empty
    /// chunks (possible when `nthreads > n`) are skipped entirely — no
    /// thread is spawned and `body` is not called for them.  `label` names
    /// the region in [`crate::profile`] output.
    pub fn parallel_for<F>(&self, label: &'static str, n: usize, body: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let spawn = self.should_spawn(n, PAR_MIN_N);
        if profile::is_enabled() {
            return self.parallel_for_profiled(label, n, spawn, body);
        }
        if !spawn {
            for t in 0..self.nthreads {
                let r = self.chunk(n, t);
                if !r.is_empty() {
                    body(t, r);
                }
            }
            return;
        }
        std::thread::scope(|s| {
            for t in 0..self.nthreads {
                let r = self.chunk(n, t);
                if r.is_empty() {
                    continue;
                }
                let body = &body;
                s.spawn(move || body(t, r));
            }
        });
    }

    /// [`Self::parallel_for`] with per-thread busy timing: same chunks, same
    /// spawn decision, plus one `Instant` pair around each body call and one
    /// around the whole fork/join.
    fn parallel_for_profiled<F>(&self, label: &'static str, n: usize, spawn: bool, body: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let wall0 = Instant::now();
        let mut busy = vec![0.0f64; self.nthreads];
        if !spawn {
            for t in 0..self.nthreads {
                let r = self.chunk(n, t);
                if !r.is_empty() {
                    let b0 = Instant::now();
                    body(t, r);
                    busy[t] = b0.elapsed().as_secs_f64();
                }
            }
        } else {
            let view = DisjointSliceMut::new(&mut busy);
            std::thread::scope(|s| {
                for t in 0..self.nthreads {
                    let r = self.chunk(n, t);
                    if r.is_empty() {
                        continue;
                    }
                    let body = &body;
                    let view = &view;
                    s.spawn(move || {
                        let b0 = Instant::now();
                        body(t, r);
                        // SAFETY: each thread writes only its own slot `t`.
                        unsafe { view.set(t, b0.elapsed().as_secs_f64()) };
                    });
                }
            });
        }
        profile::record(label, self.nthreads, wall0.elapsed().as_secs_f64(), &busy);
    }

    /// Map each thread's chunk of `0..n` to a value and return the values in
    /// ascending thread order — the ordered-partials half of the determinism
    /// contract.  `f` *is* called for empty chunks so the result always has
    /// `nthreads` entries (an empty chunk contributes its identity value).
    /// `label` names the region in [`crate::profile`] output.
    pub fn map_chunks<R, F>(&self, label: &'static str, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        self.map_chunks_with_min(label, n, PAR_MIN_N, f)
    }

    /// [`Self::map_chunks`] that forks only from `min_n` items up, for
    /// kernels too light per item to pay for a fork at [`PAR_MIN_N`].
    pub(crate) fn map_chunks_with_min<R, F>(
        &self,
        label: &'static str,
        n: usize,
        min_n: usize,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let spawn = self.should_spawn(n, min_n);
        if profile::is_enabled() {
            return self.map_chunks_profiled(label, n, spawn, f);
        }
        if !spawn {
            return (0..self.nthreads).map(|t| f(t, self.chunk(n, t))).collect();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.nthreads)
                .map(|t| {
                    let r = self.chunk(n, t);
                    let f = &f;
                    s.spawn(move || f(t, r))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel_for worker panicked"))
                .collect()
        })
    }

    /// [`Self::map_chunks`] with per-thread busy timing.
    fn map_chunks_profiled<R, F>(&self, label: &'static str, n: usize, spawn: bool, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let wall0 = Instant::now();
        let mut busy = vec![0.0f64; self.nthreads];
        let out: Vec<R> = if !spawn {
            (0..self.nthreads)
                .map(|t| {
                    let b0 = Instant::now();
                    let v = f(t, self.chunk(n, t));
                    busy[t] = b0.elapsed().as_secs_f64();
                    v
                })
                .collect()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.nthreads)
                    .map(|t| {
                        let r = self.chunk(n, t);
                        let f = &f;
                        s.spawn(move || {
                            let b0 = Instant::now();
                            let v = f(t, r);
                            (v, b0.elapsed().as_secs_f64())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .zip(busy.iter_mut())
                    .map(|(h, slot)| {
                        let (v, b) = h.join().expect("parallel_for worker panicked");
                        *slot = b;
                        v
                    })
                    .collect()
            })
        };
        profile::record(label, self.nthreads, wall0.elapsed().as_secs_f64(), &busy);
        out
    }

    /// Partition `data` by thread chunk and run `body(t, units, sub)` on
    /// each piece, where `units` is the chunk of `0..data.len() /
    /// granularity` and `sub` the matching sub-slice.  `granularity` is the
    /// number of elements per work unit (1 for point vectors, the block size
    /// `b` for BCSR block rows).  `label` names the region in
    /// [`crate::profile`] output.
    ///
    /// # Panics
    /// Panics if `granularity` is zero or does not divide `data.len()`.
    pub fn parallel_for_slices<T, F>(
        &self,
        label: &'static str,
        data: &mut [T],
        granularity: usize,
        body: F,
    ) where
        T: Send,
        F: Fn(usize, Range<usize>, &mut [T]) + Sync,
    {
        self.parallel_for_slices_with_min(label, data, granularity, PAR_MIN_N, body)
    }

    /// [`Self::parallel_for_slices`] that forks only from `min_n` work units
    /// up, for kernels too light per unit to pay for a fork at
    /// [`PAR_MIN_N`].
    pub(crate) fn parallel_for_slices_with_min<T, F>(
        &self,
        label: &'static str,
        data: &mut [T],
        granularity: usize,
        min_n: usize,
        body: F,
    ) where
        T: Send,
        F: Fn(usize, Range<usize>, &mut [T]) + Sync,
    {
        assert!(granularity > 0, "parallel_for_slices: zero granularity");
        assert_eq!(
            data.len() % granularity,
            0,
            "parallel_for_slices: granularity {granularity} does not divide length {}",
            data.len()
        );
        let n = data.len() / granularity;
        let spawn = self.should_spawn(n, min_n);
        if profile::is_enabled() {
            return self.parallel_for_slices_profiled(label, data, granularity, n, spawn, body);
        }
        if !spawn {
            for t in 0..self.nthreads {
                let r = self.chunk(n, t);
                if !r.is_empty() {
                    let sub = &mut data[r.start * granularity..r.end * granularity];
                    body(t, r, sub);
                }
            }
            return;
        }
        std::thread::scope(|s| {
            // Chunks are ascending and contiguous, so peeling sub-slices off
            // the front in thread order partitions `data` exactly.
            let mut rest = data;
            for t in 0..self.nthreads {
                let r = self.chunk(n, t);
                if r.is_empty() {
                    continue;
                }
                let (sub, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * granularity);
                rest = tail;
                let body = &body;
                s.spawn(move || body(t, r, sub));
            }
        });
    }

    /// [`Self::parallel_for_slices`] with per-thread busy timing.
    fn parallel_for_slices_profiled<T, F>(
        &self,
        label: &'static str,
        data: &mut [T],
        granularity: usize,
        n: usize,
        spawn: bool,
        body: F,
    ) where
        T: Send,
        F: Fn(usize, Range<usize>, &mut [T]) + Sync,
    {
        let wall0 = Instant::now();
        let mut busy = vec![0.0f64; self.nthreads];
        if !spawn {
            for t in 0..self.nthreads {
                let r = self.chunk(n, t);
                if !r.is_empty() {
                    let sub = &mut data[r.start * granularity..r.end * granularity];
                    let b0 = Instant::now();
                    body(t, r, sub);
                    busy[t] = b0.elapsed().as_secs_f64();
                }
            }
        } else {
            let view = DisjointSliceMut::new(&mut busy);
            std::thread::scope(|s| {
                let mut rest = data;
                for t in 0..self.nthreads {
                    let r = self.chunk(n, t);
                    if r.is_empty() {
                        continue;
                    }
                    let (sub, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * granularity);
                    rest = tail;
                    let body = &body;
                    let view = &view;
                    s.spawn(move || {
                        let b0 = Instant::now();
                        body(t, r, sub);
                        // SAFETY: each thread writes only its own slot `t`.
                        unsafe { view.set(t, b0.elapsed().as_secs_f64()) };
                    });
                }
            });
        }
        profile::record(label, self.nthreads, wall0.elapsed().as_secs_f64(), &busy);
    }
}

/// A shared, writable view of a slice for kernels whose threads write
/// provably disjoint index sets — the level-scheduled triangular sweeps,
/// where every row in a level writes only its own `x[i]` and reads entries
/// finalized in earlier levels.
///
/// All access is `unsafe`: the *caller* carries the disjointness proof that
/// the borrow checker cannot see.
pub struct DisjointSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: sharing the view across threads is sound as long as every access
// honors the per-call contracts below (disjoint writes, no read/write races).
unsafe impl<T: Send + Sync> Sync for DisjointSliceMut<'_, T> {}
unsafe impl<T: Send> Send for DisjointSliceMut<'_, T> {}

impl<'a, T> DisjointSliceMut<'a, T> {
    /// Wrap `data`, exclusively borrowing it for the view's lifetime.
    pub fn new(data: &'a mut [T]) -> Self {
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read `[i]`.
    ///
    /// # Safety
    /// `i < len()`, and no thread may be writing index `i` concurrently.
    pub unsafe fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) }
    }

    /// Write `[i] = v`.
    ///
    /// # Safety
    /// `i < len()`, and no other thread may access index `i` concurrently.
    pub unsafe fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) = v };
    }

    /// A mutable view of `r` — used for block rows, where one thread owns a
    /// contiguous run of `b` entries.
    ///
    /// # Safety
    /// `r` must be in bounds and no other thread may access any index in
    /// `r` concurrently.
    #[allow(clippy::mut_from_ref)] // the disjointness contract is the caller's
    pub unsafe fn slice_mut(&self, r: Range<usize>) -> &mut [T] {
        debug_assert!(r.end <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.len()) }
    }

    /// A shared view of `r`.
    ///
    /// # Safety
    /// `r` must be in bounds and no thread may write any index in `r`
    /// concurrently.
    pub unsafe fn slice(&self, r: Range<usize>) -> &[T] {
        debug_assert!(r.end <= self.len);
        unsafe { std::slice::from_raw_parts(self.ptr.add(r.start), r.len()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_exactly_with_remainder() {
        for nthreads in 1..9 {
            let ctx = ParCtx::new(nthreads);
            for n in [0usize, 1, 2, 3, 7, 100, 101, 199] {
                let mut next = 0;
                for t in 0..nthreads {
                    let r = ctx.chunk(n, t);
                    assert_eq!(r.start, next, "n={n} nthreads={nthreads} t={t}");
                    next = r.end;
                }
                assert_eq!(next, n);
                // Remainder is spread one-per-thread over the low indices:
                // sizes differ by at most one and are non-increasing.
                let sizes: Vec<usize> = (0..nthreads).map(|t| ctx.chunk(n, t).len()).collect();
                for w in sizes.windows(2) {
                    assert!(w[0] >= w[1] && w[0] - w[1] <= 1, "sizes {sizes:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chunk_rejects_thread_index_past_team() {
        ParCtx::new(2).chunk(10, 2);
    }

    #[test]
    fn more_threads_than_items_yields_empty_tails() {
        let ctx = ParCtx::new(8);
        let sizes: Vec<usize> = (0..8).map(|t| ctx.chunk(3, t).len()).collect();
        assert_eq!(sizes, [1, 1, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn parallel_for_visits_each_index_once() {
        for nthreads in [1, 3, 8] {
            let ctx = ParCtx::new(nthreads);
            for n in [0usize, 5, PAR_MIN_N + 17] {
                let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                ctx.parallel_for("test_for", n, |_, r| {
                    for i in r {
                        counts[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn map_chunks_is_ordered_and_spawn_invariant() {
        // The partials must come back in thread order, and the values must
        // not depend on whether the chunks actually ran on worker threads.
        let n = PAR_MIN_N + 123;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let ctx = ParCtx::new(4);
        let threaded = ctx.map_chunks("test_map", n, |_, r| x[r].iter().sum::<f64>());
        let inline: Vec<f64> = (0..4).map(|t| x[ctx.chunk(n, t)].iter().sum()).collect();
        assert_eq!(threaded, inline);
    }

    #[test]
    fn parallel_for_slices_partitions_writes() {
        for nthreads in [1, 2, 5] {
            for granularity in [1usize, 3] {
                let n_units = PAR_MIN_N + 7;
                let mut data = vec![0.0f64; n_units * granularity];
                let ctx = ParCtx::new(nthreads);
                ctx.parallel_for_slices("test_slices", &mut data, granularity, |t, units, sub| {
                    assert_eq!(sub.len(), units.len() * granularity);
                    for v in sub {
                        *v += (t + 1) as f64;
                    }
                });
                // Every element written exactly once, by its owning thread.
                for (i, v) in data.iter().enumerate() {
                    let unit = i / granularity;
                    let owner = (0..nthreads)
                        .find(|&t| ctx.chunk(n_units, t).contains(&unit))
                        .unwrap();
                    assert_eq!(*v, (owner + 1) as f64);
                }
            }
        }
    }

    /// The fork decision follows the minimum the caller passes: chunks run
    /// on worker threads from `min_n` items up and on the calling thread
    /// below it, with the same boundaries and the same values either way.
    #[test]
    fn fork_minimum_decides_where_chunks_run() {
        let ctx = ParCtx::new(2);
        let me = std::thread::current().id();
        let min_n = 2 * PAR_MIN_N;
        let x: Vec<f64> = (0..min_n).map(|i| (i as f64 * 0.37).sin()).collect();
        for (n, forks) in [(min_n - 1, false), (min_n, true)] {
            let ran = ctx.map_chunks_with_min("test_min", n, min_n, |_, r| {
                (std::thread::current().id(), x[r].iter().sum::<f64>())
            });
            assert!(ran.iter().all(|&(id, _)| (id != me) == forks), "n={n}");
            let sums: Vec<f64> = ran.iter().map(|&(_, v)| v).collect();
            let inline: Vec<f64> = (0..2).map(|t| x[ctx.chunk(n, t)].iter().sum()).collect();
            assert_eq!(sums, inline, "n={n}");

            let mut owner = vec![me; n];
            ctx.parallel_for_slices_with_min("test_min", &mut owner, 1, min_n, |_, _, sub| {
                sub.fill(std::thread::current().id());
            });
            assert!(owner.iter().all(|&id| (id != me) == forks), "n={n}");
        }
        // `forks` answers for the default minimum, which the public
        // helpers use.
        assert!(ctx.forks(PAR_MIN_N));
        assert!(!ctx.forks(PAR_MIN_N - 1));
        assert!(!ParCtx::seq().forks(usize::MAX));
    }

    /// Every profiled invariant in one sweep: for each helper shape, at team
    /// sizes straddling `n` and the spawn threshold, the recorded region
    /// satisfies `sum(busy) + join_wait == nthreads * wall` (exact, by
    /// construction), `busy_max <= wall + eps`, and `join_wait >= -eps`.
    #[test]
    fn profiled_regions_honor_busy_wall_identity() {
        let _g = crate::profile::test_lock();
        crate::profile::set_enabled(true);
        crate::profile::reset();
        for nthreads in [1usize, 2, 5] {
            let ctx = ParCtx::new(nthreads);
            for n in [3usize, PAR_MIN_N + 31] {
                let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let mut y = vec![0.0f64; n];
                ctx.parallel_for("id_for", n, |_, r| {
                    for i in r {
                        std::hint::black_box(x[i].sqrt());
                    }
                });
                let sums = ctx.map_chunks("id_map", n, |_, r| x[r].iter().sum::<f64>());
                assert_eq!(sums.len(), nthreads);
                ctx.parallel_for_slices("id_slices", &mut y, 1, |_, r, sub| {
                    for (v, i) in sub.iter_mut().zip(r) {
                        *v = x[i] * 2.0;
                    }
                });
            }
        }
        let stats = crate::profile::drain();
        crate::profile::set_enabled(false);
        let labels: Vec<&str> = stats.iter().map(|s| s.label).collect();
        for want in ["id_for", "id_map", "id_slices"] {
            assert!(labels.contains(&want), "missing region {want}: {labels:?}");
        }
        const EPS: f64 = 1e-6;
        // Tests running concurrently may record their own regions while
        // profiling is on; only this test's regions are checked.
        for s in stats.iter().filter(|s| s.label.starts_with("id_")) {
            assert_eq!(s.invocations, 2, "{s:?}");
            assert!(s.wall_s >= 0.0, "{s:?}");
            assert!(s.busy_s.len() <= s.nthreads, "{s:?}");
            let sum: f64 = s.busy_s.iter().sum();
            let team_seconds = s.nthreads as f64 * s.wall_s;
            assert!(
                (sum + s.join_wait_s() - team_seconds).abs() <= 1e-12,
                "identity violated: {s:?}"
            );
            assert!(s.busy_max_s() <= s.wall_s + EPS, "busy exceeds wall: {s:?}");
            assert!(s.join_wait_s() >= -EPS * s.nthreads as f64, "{s:?}");
            assert!(s.imbalance() >= 1.0 - 1e-12, "{s:?}");
        }
    }

    /// Profiling must not change what the helpers compute: same values from
    /// `map_chunks`, same writes from `parallel_for_slices`, bit for bit.
    #[test]
    fn profiling_is_bitwise_invisible_to_results() {
        let _g = crate::profile::test_lock();
        let n = PAR_MIN_N + 257;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let ctx = ParCtx::new(4);
        crate::profile::set_enabled(false);
        let off = ctx.map_chunks("bitwise_map", n, |_, r| x[r].iter().sum::<f64>());
        let mut y_off = vec![0.0f64; n];
        ctx.parallel_for_slices("bitwise_slices", &mut y_off, 1, |_, r, sub| {
            for (v, i) in sub.iter_mut().zip(r) {
                *v = x[i] * 3.0 + 1.0;
            }
        });
        crate::profile::set_enabled(true);
        crate::profile::reset();
        let on = ctx.map_chunks("bitwise_map", n, |_, r| x[r].iter().sum::<f64>());
        let mut y_on = vec![0.0f64; n];
        ctx.parallel_for_slices("bitwise_slices", &mut y_on, 1, |_, r, sub| {
            for (v, i) in sub.iter_mut().zip(r) {
                *v = x[i] * 3.0 + 1.0;
            }
        });
        crate::profile::set_enabled(false);
        crate::profile::reset();
        assert_eq!(off, on);
        assert_eq!(y_off, y_on);
    }

    #[test]
    fn disjoint_slice_round_trips() {
        let mut data = vec![0.0f64; 64];
        let view = DisjointSliceMut::new(&mut data);
        let ctx = ParCtx::new(4);
        ctx.parallel_for("test_disjoint", 64, |_, r| {
            for i in r {
                // SAFETY: chunks are disjoint, each index written once.
                unsafe { view.set(i, i as f64) };
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as f64));
    }
}
