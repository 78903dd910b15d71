//! BLAS-1 style vector kernels used throughout the solver stack.
//!
//! The Krylov solvers in `fun3d-solver` are assembled from these primitives,
//! mirroring the PETSc `Vec` operations the paper's code used.  They are kept
//! free of allocation so that the memory traffic of a GMRES iteration is
//! exactly the traffic of these loops plus the SpMV / triangular solves.
//!
//! The `_par` variants partition the vectors across a [`ParCtx`] thread
//! team.  Elementwise updates are bitwise identical to the sequential
//! kernels; the reductions (`dot_par`/`norm2_par`) combine per-thread
//! partial sums in thread order, so they are deterministic for a fixed
//! thread count and agree with the sequential result to rounding.  Below a
//! break-even length of 2^21 elements the chunks run inline on the calling
//! thread, with the same boundaries and therefore the same results.  There
//! the reductions sum all chunks in one pass, one accumulator per chunk,
//! which gives the same partials as a chunk-by-chunk loop but as
//! independent floating-point chains: a 2-thread team's inline `dot` at
//! 4,800 entries took 2.3 µs against 3.8 µs chunk by chunk (`vecops-par`
//! bench, medians of three runs on a shared 2-vCPU host).

use crate::par::ParCtx;

/// Fewest elements at which the BLAS-1 `_par` helpers fork.  A BLAS-1 op
/// does one or two flops per 16–24 bytes moved, so a fork has to split a
/// long vector to pay for itself.  The `vecops-par` group of `cargo bench
/// -p fun3d-bench --bench vecops`, run 20–25 times on a shared 2-vCPU
/// host, gave these medians of the 2-thread forked time per op over the
/// 1-thread time (dot / axpy), with the share of runs where the fork won:
/// 1.21× / 1.47× at 262,144 elements (4 / 0 of 25); 0.84× / 0.92× at
/// 524,288 (17 / 14 of 25); 0.69× / 0.75× at 1 Mi (18 / 22 of 25);
/// 0.60× / 0.72× at 2 Mi (18 / 19 of 20); 0.33× / 0.51× at 4 Mi (24 / 25
/// of 25).  2 Mi is the smallest size where the fork won at least 9 runs
/// in 10 for both ops.
const BLAS1_PAR_MIN_N: usize = 1 << 21;

/// `y <- alpha * x + y`.
///
/// # Panics
/// Panics if `x` and `y` differ in length.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y <- alpha * x + beta * y` (PETSc `VecAXPBY`).
pub fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * xi + beta * *yi;
    }
}

/// `w <- alpha * x + beta * y` without touching the inputs (PETSc `VecWAXPY`
/// generalization).
pub fn waxpby(alpha: f64, x: &[f64], beta: f64, y: &[f64], w: &mut [f64]) {
    assert_eq!(x.len(), w.len(), "waxpby length mismatch");
    assert_eq!(y.len(), w.len(), "waxpby length mismatch");
    for ((wi, xi), yi) in w.iter_mut().zip(x).zip(y) {
        *wi = alpha * xi + beta * yi;
    }
}

/// `x <- alpha * x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Dot product `x . y`.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `||x||_2`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Max norm `||x||_inf`.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// Copy `x` into `y`.
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// Parallel [`axpy`]: each thread updates its contiguous chunk of `y`.
/// Elementwise, so bitwise identical to the sequential kernel.
pub fn axpy_par(alpha: f64, x: &[f64], y: &mut [f64], ctx: &ParCtx) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    if ctx.nthreads() == 1 {
        return axpy(alpha, x, y);
    }
    ctx.parallel_for_slices_with_min("axpy", y, 1, BLAS1_PAR_MIN_N, |_, r, ysub| {
        axpy(alpha, &x[r], ysub)
    });
}

/// Parallel [`axpby`] (elementwise; bitwise identical to sequential).
pub fn axpby_par(alpha: f64, x: &[f64], beta: f64, y: &mut [f64], ctx: &ParCtx) {
    assert_eq!(x.len(), y.len(), "axpby length mismatch");
    if ctx.nthreads() == 1 {
        return axpby(alpha, x, beta, y);
    }
    ctx.parallel_for_slices_with_min("axpby", y, 1, BLAS1_PAR_MIN_N, |_, r, ysub| {
        axpby(alpha, &x[r], beta, ysub)
    });
}

/// Parallel [`waxpby`] (elementwise; bitwise identical to sequential).
pub fn waxpby_par(alpha: f64, x: &[f64], beta: f64, y: &[f64], w: &mut [f64], ctx: &ParCtx) {
    assert_eq!(x.len(), w.len(), "waxpby length mismatch");
    assert_eq!(y.len(), w.len(), "waxpby length mismatch");
    if ctx.nthreads() == 1 {
        return waxpby(alpha, x, beta, y, w);
    }
    ctx.parallel_for_slices_with_min("waxpby", w, 1, BLAS1_PAR_MIN_N, |_, r, wsub| {
        waxpby(alpha, &x[r.clone()], beta, &y[r], wsub)
    });
}

/// Parallel [`dot`]: per-thread partial sums over the chunk partition,
/// reduced in ascending thread order.  Deterministic for a fixed thread
/// count; matches the sequential `dot` to rounding (not bitwise).
///
/// Below the fork break-even, with the profiler off, a team of 2 to 8
/// accumulates all its chunks in one pass, one accumulator per chunk: the
/// same partials as chunk-by-chunk `dot`s, bit for bit, but as independent
/// dependency chains instead of one.  A team of one, a forked region and a
/// profiled region (which records its `dot` region) keep the per-chunk
/// path.
pub fn dot_par(x: &[f64], y: &[f64], ctx: &ParCtx) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    if ctx.nthreads() == 1 {
        return dot(x, y);
    }
    if x.len() < BLAS1_PAR_MIN_N && !crate::profile::is_enabled() {
        let sum = |partials: &[f64]| partials.iter().sum();
        match ctx.nthreads() {
            2 => return sum(&interleaved_partials::<2>(x, y, ctx)),
            3 => return sum(&interleaved_partials::<3>(x, y, ctx)),
            4 => return sum(&interleaved_partials::<4>(x, y, ctx)),
            5 => return sum(&interleaved_partials::<5>(x, y, ctx)),
            6 => return sum(&interleaved_partials::<6>(x, y, ctx)),
            7 => return sum(&interleaved_partials::<7>(x, y, ctx)),
            8 => return sum(&interleaved_partials::<8>(x, y, ctx)),
            _ => {}
        }
    }
    ctx.map_chunks_with_min("dot", x.len(), BLAS1_PAR_MIN_N, |_, r| {
        dot(&x[r.clone()], &y[r])
    })
    .iter()
    .sum()
}

/// The `T` per-chunk partial dot products of `ctx`'s chunk partition, in
/// thread order, summed in one pass with one accumulator per chunk.  Each
/// accumulator starts where [`dot`]'s sum starts and adds its chunk's
/// products in ascending order, so each partial is bitwise that chunk's
/// `dot`.
fn interleaved_partials<const T: usize>(x: &[f64], y: &[f64], ctx: &ParCtx) -> [f64; T] {
    let n = x.len();
    let chunks: [std::ops::Range<usize>; T] = std::array::from_fn(|t| ctx.chunk(n, t));
    // Every chunk holds `n / T` entries; the first `n % T` hold one more.
    let per = n / T;
    let xs: [&[f64]; T] = std::array::from_fn(|t| &x[chunks[t].start..][..per]);
    let ys: [&[f64]; T] = std::array::from_fn(|t| &y[chunks[t].start..][..per]);
    let mut acc = [std::iter::empty::<f64>().sum::<f64>(); T];
    for k in 0..per {
        for t in 0..T {
            acc[t] += xs[t][k] * ys[t][k];
        }
    }
    for (a, r) in acc.iter_mut().zip(chunks) {
        if r.len() > per {
            *a += x[r.start + per] * y[r.start + per];
        }
    }
    acc
}

/// Parallel [`norm2`] built on [`dot_par`]'s ordered reduction.
pub fn norm2_par(x: &[f64], ctx: &ParCtx) -> f64 {
    dot_par(x, x, ctx).sqrt()
}

/// Analytic bytes moved by one [`axpy`]/[`axpby`] on length-`n` vectors:
/// stream `x` in, read-modify-write `y` (8 B each way).
pub fn axpy_traffic_bytes(n: usize) -> f64 {
    24.0 * n as f64
}

/// Analytic bytes moved by one [`waxpby`]: read `x` and `y`, write `w`.
pub fn waxpby_traffic_bytes(n: usize) -> f64 {
    24.0 * n as f64
}

/// Analytic bytes moved by one [`dot`] (or [`norm2`]): read both operands.
pub fn dot_traffic_bytes(n: usize) -> f64 {
    16.0 * n as f64
}

/// Set every entry of `x` to `v`.
pub fn set(v: f64, x: &mut [f64]) {
    for xi in x {
        *xi = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_adds_scaled_vector() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpby_combines_both() {
        let x = [1.0, 2.0];
        let mut y = [4.0, 8.0];
        axpby(3.0, &x, 0.5, &mut y);
        assert_eq!(y, [5.0, 10.0]);
    }

    #[test]
    fn waxpby_leaves_inputs_untouched() {
        let x = [1.0, 0.0];
        let y = [0.0, 1.0];
        let mut w = [9.0, 9.0];
        waxpby(2.0, &x, -1.0, &y, &mut w);
        assert_eq!(w, [2.0, -1.0]);
        assert_eq!(x, [1.0, 0.0]);
        assert_eq!(y, [0.0, 1.0]);
    }

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn scale_and_set() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
        set(0.5, &mut x);
        assert_eq!(x, [0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_length_mismatch_panics() {
        let x = [1.0];
        let mut y = [1.0, 2.0];
        axpy(1.0, &x, &mut y);
    }

    /// `op`'s result and the number of regions it forked.
    fn forking<R>(op: impl FnOnce() -> R) -> (R, usize) {
        let before = crate::par::forked_regions();
        let r = op();
        (r, crate::par::forked_regions() - before)
    }

    /// The `_par` helpers fork from the break-even up and run inline below
    /// it.  On either side they compute exactly what their per-thread
    /// chunks give inline: elementwise results equal the sequential kernel,
    /// and reductions the ordered sum of the per-chunk partials.
    #[test]
    fn par_helpers_match_inline_chunks_across_the_break_even() {
        for n in [BLAS1_PAR_MIN_N - 1, BLAS1_PAR_MIN_N] {
            let forks = usize::from(n >= BLAS1_PAR_MIN_N);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| 1.0 - (i % 17) as f64 * 0.25).collect();
            let (mut ys, mut yp) = (vec![0.0; n], vec![0.0; n]);
            for nthreads in [2, 3] {
                let ctx = ParCtx::new(nthreads);
                let at = format!("n={n} nthreads={nthreads}");
                let chunked_dot = |u: &[f64], v: &[f64]| -> f64 {
                    (0..nthreads)
                        .map(|t| {
                            let r = ctx.chunk(n, t);
                            dot(&u[r.clone()], &v[r])
                        })
                        .sum()
                };
                let d = (chunked_dot(&x, &y), forks);
                assert_eq!(forking(|| dot_par(&x, &y, &ctx)), d, "dot {at}");
                let nrm = (chunked_dot(&x, &x).sqrt(), forks);
                assert_eq!(forking(|| norm2_par(&x, &ctx)), nrm, "norm2 {at}");

                ys.copy_from_slice(&y);
                yp.copy_from_slice(&y);
                axpy(0.3, &x, &mut ys);
                let (_, ran) = forking(|| axpy_par(0.3, &x, &mut yp, &ctx));
                assert_eq!(ran, forks, "axpy {at}");
                assert_eq!(ys, yp, "axpy {at}");

                ys.copy_from_slice(&y);
                yp.copy_from_slice(&y);
                axpby(0.5, &x, -2.0, &mut ys);
                let (_, ran) = forking(|| axpby_par(0.5, &x, -2.0, &mut yp, &ctx));
                assert_eq!(ran, forks, "axpby {at}");
                assert_eq!(ys, yp, "axpby {at}");

                // NaN shows any entry a chunk left unwritten.
                yp.fill(f64::NAN);
                waxpby(2.0, &x, -0.5, &y, &mut ys);
                let (_, ran) = forking(|| waxpby_par(2.0, &x, -0.5, &y, &mut yp, &ctx));
                assert_eq!(ran, forks, "waxpby {at}");
                assert_eq!(ys, yp, "waxpby {at}");
            }
        }
    }

    /// Inline `dot_par` and `norm2_par` give bitwise the ordered sum of
    /// chunk-by-chunk `dot`s, for teams of 2 to 8 (which take the
    /// interleaved partials) and 9, on lengths with uneven chunks, shorter
    /// than the team, and empty, including sums of negative zeros.
    #[test]
    fn interleaved_partials_equal_chunk_by_chunk_sums() {
        for nthreads in 2..=9 {
            let ctx = ParCtx::new(nthreads);
            for n in [
                0,
                1,
                nthreads - 1,
                nthreads,
                4_800,
                4_801,
                4_800 + nthreads - 1,
            ] {
                let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
                let y: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
                let neg_zero = vec![-0.0; n];
                for (u, v) in [(&x, &y), (&neg_zero, &y), (&neg_zero, &neg_zero)] {
                    let chunks: f64 = (0..nthreads)
                        .map(|t| {
                            let r = ctx.chunk(n, t);
                            dot(&u[r.clone()], &v[r])
                        })
                        .sum();
                    let at = format!("n={n} nthreads={nthreads}");
                    assert_eq!(dot_par(u, v, &ctx).to_bits(), chunks.to_bits(), "{at}");
                }
                let chunks: f64 = (0..nthreads)
                    .map(|t| {
                        let r = ctx.chunk(n, t);
                        dot(&x[r.clone()], &x[r])
                    })
                    .sum();
                let norm = norm2_par(&x, &ctx).to_bits();
                assert_eq!(
                    norm,
                    chunks.sqrt().to_bits(),
                    "norm2 n={n} nthreads={nthreads}"
                );
            }
        }
    }

    #[test]
    fn norm2_of_empty_is_zero() {
        assert_eq!(norm2(&[]), 0.0);
    }
}
