//! Small dense block helpers for the block (BAIJ-style) kernels.
//!
//! Structural blocking stores the Jacobian of a multicomponent PDE system as
//! small dense `b x b` blocks (`b` = unknowns per mesh point: 4 incompressible,
//! 5 compressible).  The block preconditioners need to factor and apply those
//! blocks; this module provides an LU factorization with partial pivoting for
//! tiny row-major matrices, plus the matvec/axpy kernels used inside block
//! SpMV and block triangular solves.

/// LU factorization with partial pivoting of a small row-major `n x n` matrix,
/// stored in place.  `piv[i]` records the row swapped into position `i`.
///
/// Returns `Err(i)` if a zero (or subnormal) pivot is met at step `i`.
///
/// Always inlined, so a caller with a constant `n` (the const-`B` block-ILU
/// elimination) gets loops unrolled for that size.
#[inline(always)]
pub fn lu_factor(a: &mut [f64], piv: &mut [usize], n: usize) -> Result<(), usize> {
    assert_eq!(a.len(), n * n);
    assert_eq!(piv.len(), n);
    for k in 0..n {
        // Partial pivoting: find the largest entry in column k at/below row k.
        let mut p = k;
        let mut pmax = a[k * n + k].abs();
        for i in (k + 1)..n {
            let v = a[i * n + k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        // Negated on purpose: a NaN pivot must also take the error path.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(pmax > f64::MIN_POSITIVE) {
            return Err(k);
        }
        piv[k] = p;
        if p != k {
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
        }
        let pivot = a[k * n + k];
        for i in (k + 1)..n {
            let m = a[i * n + k] / pivot;
            a[i * n + k] = m;
            for j in (k + 1)..n {
                a[i * n + j] -= m * a[k * n + j];
            }
        }
    }
    Ok(())
}

/// Solve `A x = b` given the factors produced by [`lu_factor`]; `x` holds `b`
/// on entry and the solution on exit.
pub fn lu_solve(lu: &[f64], piv: &[usize], x: &mut [f64], n: usize) {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(piv.len(), n);
    debug_assert_eq!(x.len(), n);
    // Apply the row interchanges, then L (unit lower), then U.
    for k in 0..n {
        x.swap(k, piv[k]);
    }
    for i in 1..n {
        let mut s = x[i];
        for j in 0..i {
            s -= lu[i * n + j] * x[j];
        }
        x[i] = s;
    }
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= lu[i * n + j] * x[j];
        }
        x[i] = s / lu[i * n + i];
    }
}

/// Invert a small matrix using its LU factors: `inv` receives the inverse in
/// row-major order.  Used to store explicit inverses of ILU diagonal blocks so
/// that the block triangular solves become pure matvecs (the layout the
/// paper's BAIJ kernels use).
pub fn lu_invert(lu: &[f64], piv: &[usize], inv: &mut [f64], n: usize) {
    debug_assert_eq!(inv.len(), n * n);
    let mut col = vec![0.0; n];
    for j in 0..n {
        col.iter_mut().for_each(|v| *v = 0.0);
        col[j] = 1.0;
        lu_solve(lu, piv, &mut col, n);
        for i in 0..n {
            inv[i * n + j] = col[i];
        }
    }
}

/// `y <- y + A x` for a row-major `n x n` block.
#[inline]
pub fn block_gemv_add(a: &[f64], x: &[f64], y: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    for i in 0..n {
        let row = &a[i * n..(i + 1) * n];
        let mut s = y[i];
        for j in 0..n {
            s += row[j] * x[j];
        }
        y[i] = s;
    }
}

/// `y <- y - A x` for a row-major `n x n` block.
#[inline]
pub fn block_gemv_sub(a: &[f64], x: &[f64], y: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    for i in 0..n {
        let row = &a[i * n..(i + 1) * n];
        let mut s = y[i];
        for j in 0..n {
            s -= row[j] * x[j];
        }
        y[i] = s;
    }
}

/// `y <- A x` for a row-major `n x n` block.
#[inline]
pub fn block_gemv(a: &[f64], x: &[f64], y: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    for i in 0..n {
        let row = &a[i * n..(i + 1) * n];
        let mut s = 0.0;
        for j in 0..n {
            s += row[j] * x[j];
        }
        y[i] = s;
    }
}

/// `y <- y - A x` for a row-major `N x N` block with `N` known at compile
/// time: the const-unrolled lane twin of [`block_gemv_sub`], used by the
/// block-ILU sweeps for block sizes up to 5.
///
/// Bitwise identical to [`block_gemv_sub`]: each accumulator `y[r]` sees
/// its subtractions in ascending-column order either way (the lane form
/// only interleaves updates to *different* accumulators), and Rust never
/// contracts `f64` mul+sub into a fused op.
#[inline(always)]
pub fn block_gemv_sub_b<const N: usize>(a: &[f64], x: &[f64], y: &mut [f64; N]) {
    debug_assert!(a.len() >= N * N);
    debug_assert!(x.len() >= N);
    for c in 0..N {
        let xc = x[c];
        for r in 0..N {
            y[r] -= a[r * N + c] * xc;
        }
    }
}

/// `A x` for a row-major `N x N` block with `N` known at compile time —
/// the const-unrolled twin of [`block_gemv`], bitwise identical by the
/// same argument as [`block_gemv_sub_b`].
#[inline(always)]
pub fn block_gemv_b<const N: usize>(a: &[f64], x: &[f64; N]) -> [f64; N] {
    debug_assert!(a.len() >= N * N);
    let mut y = [0.0f64; N];
    for c in 0..N {
        let xc = x[c];
        for r in 0..N {
            y[r] += a[r * N + c] * xc;
        }
    }
    y
}

/// [`lu_invert`] for an `N x N` block with `N` known at compile time: the
/// same column-by-column [`lu_solve`] arithmetic on a stack column, so it is
/// bitwise identical and allocates nothing.
#[inline]
pub(crate) fn lu_invert_b<const N: usize>(lu: &[f64], piv: &[usize], inv: &mut [f64]) {
    debug_assert!(lu.len() >= N * N && piv.len() >= N && inv.len() >= N * N);
    for j in 0..N {
        let mut col = [0.0f64; N];
        col[j] = 1.0;
        for k in 0..N {
            col.swap(k, piv[k]);
        }
        for i in 1..N {
            let mut s = col[i];
            for q in 0..i {
                s -= lu[i * N + q] * col[q];
            }
            col[i] = s;
        }
        for i in (0..N).rev() {
            let mut s = col[i];
            for q in (i + 1)..N {
                s -= lu[i * N + q] * col[q];
            }
            col[i] = s / lu[i * N + i];
        }
        for i in 0..N {
            inv[i * N + j] = col[i];
        }
    }
}

/// `C <- C - A * B` for `N x N` blocks with `N` known at compile time — the
/// const-unrolled twin of [`block_gemm_sub`], with the same loop order and
/// every `A` entry applied, zero or not, hence bitwise identical.
#[inline(always)]
pub(crate) fn block_gemm_sub_b<const N: usize>(a: &[f64], b: &[f64], c: &mut [f64]) {
    debug_assert!(a.len() >= N * N && b.len() >= N * N && c.len() >= N * N);
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            for j in 0..N {
                c[i * N + j] -= aik * b[k * N + j];
            }
        }
    }
}

/// `C <- A * B` for `N x N` blocks with `N` known at compile time — the
/// const-unrolled twin of [`block_gemm`], bitwise identical.
#[inline(always)]
pub(crate) fn block_gemm_b<const N: usize>(a: &[f64], b: &[f64], c: &mut [f64]) {
    debug_assert!(a.len() >= N * N && b.len() >= N * N && c.len() >= N * N);
    c[..N * N].iter_mut().for_each(|v| *v = 0.0);
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += aik * b[k * N + j];
            }
        }
    }
}

/// `C <- C - A * B` for row-major `n x n` blocks (the Schur update inside the
/// block ILU factorization).
///
/// Like PETSc's BAIJ kernels it applies whole blocks: a zero entry of `A`
/// is multiplied through, not skipped, so the inner loop has no branch and
/// vectorizes.  It gives the bits a loop skipping zero `A` entries gives,
/// except in two cases: a `-0.0` entry of `C` minus a `-0.0` product is
/// `+0.0`, and a zero of `A` times a non-finite `B` entry is NaN.  Neither
/// arises on assembled Jacobians, whose zeros are `+0.0` and whose values
/// are finite.
#[inline]
pub fn block_gemm_sub(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    debug_assert_eq!(c.len(), n * n);
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] -= aik * b[k * n + j];
            }
        }
    }
}

/// `C <- A * B` for row-major `n x n` blocks.
#[inline]
pub fn block_gemm(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    debug_assert_eq!(c.len(), n * n);
    for v in c.iter_mut() {
        *v = 0.0;
    }
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matvec(a: &[f64], x: &[f64], n: usize) -> Vec<f64> {
        let mut y = vec![0.0; n];
        block_gemv(a, x, &mut y, n);
        y
    }

    #[test]
    fn lu_solves_identity() {
        let n = 3;
        let mut a = vec![0.0; 9];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let mut piv = vec![0; n];
        lu_factor(&mut a, &mut piv, n).unwrap();
        let mut x = vec![1.0, 2.0, 3.0];
        lu_solve(&a, &piv, &mut x, n);
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn lu_solves_general_4x4() {
        let n = 4;
        // A well-conditioned but unsymmetric matrix.
        let a0: Vec<f64> = vec![
            4.0, 1.0, 0.0, 2.0, //
            1.0, 5.0, 1.0, 0.0, //
            0.0, 2.0, 6.0, 1.0, //
            1.0, 0.0, 1.0, 7.0,
        ];
        let xtrue = vec![1.0, -2.0, 3.0, -4.0];
        let b = matvec(&a0, &xtrue, n);
        let mut lu = a0.clone();
        let mut piv = vec![0; n];
        lu_factor(&mut lu, &mut piv, n).unwrap();
        let mut x = b;
        lu_solve(&lu, &piv, &mut x, n);
        for (xi, ti) in x.iter().zip(&xtrue) {
            assert!((xi - ti).abs() < 1e-12, "{xi} vs {ti}");
        }
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let n = 2;
        let a0 = vec![0.0, 1.0, 1.0, 0.0];
        let mut lu = a0.clone();
        let mut piv = vec![0; n];
        lu_factor(&mut lu, &mut piv, n).unwrap();
        let mut x = vec![3.0, 5.0]; // b = [3,5] => x = [5,3]
        lu_solve(&lu, &piv, &mut x, n);
        assert!((x[0] - 5.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn lu_detects_singularity() {
        let n = 2;
        let mut a = vec![1.0, 2.0, 2.0, 4.0]; // rank 1
        let mut piv = vec![0; n];
        assert_eq!(lu_factor(&mut a, &mut piv, n), Err(1));
    }

    #[test]
    fn invert_recovers_inverse() {
        let n = 3;
        let a0 = vec![2.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.0, 0.0, 2.0];
        let mut lu = a0.clone();
        let mut piv = vec![0; n];
        lu_factor(&mut lu, &mut piv, n).unwrap();
        let mut inv = vec![0.0; 9];
        lu_invert(&lu, &piv, &mut inv, n);
        // A * inv(A) = I
        let mut prod = vec![0.0; 9];
        block_gemm(&a0, &inv, &mut prod, n);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[i * n + j] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemv_add_sub_roundtrip() {
        let n = 2;
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let x = vec![5.0, 6.0];
        let mut y = vec![1.0, 1.0];
        block_gemv_add(&a, &x, &mut y, n);
        block_gemv_sub(&a, &x, &mut y, n);
        assert_eq!(y, vec![1.0, 1.0]);
    }

    #[test]
    fn fixed_gemv_twins_match_runtime_bitwise() {
        // The const-unrolled lane kernels must be bitwise equal to the
        // runtime-n loops — they feed the kernel-identity guarantee.
        let n = 5;
        let a: Vec<f64> = (0..n * n)
            .map(|i| ((i * 37) % 13) as f64 * 0.17 - 1.0)
            .collect();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin()).collect();
        let mut y1 = vec![0.5; n];
        block_gemv_sub(&a, &x, &mut y1, n);
        let mut y2 = [0.5f64; 5];
        block_gemv_sub_b::<5>(&a, &x, &mut y2);
        assert_eq!(y1, y2);
        let mut y3 = vec![0.0; n];
        block_gemv(&a, &x, &mut y3, n);
        let xa: [f64; 5] = x.as_slice().try_into().unwrap();
        let y4 = block_gemv_b::<5>(&a, &xa);
        assert_eq!(y3, y4);
    }

    #[test]
    fn fixed_factor_twins_match_runtime_bitwise() {
        // The block-ILU elimination's const kernels, against the runtime-n
        // ones, bit for bit.  Zero entries of `A` (including -0.0) and a
        // -0.0 in `C` pin that both twins apply zero multipliers the same
        // way.
        fn check<const N: usize>() {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let a: Vec<f64> = (0..N * N)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((i * 29) % 11) as f64 * 0.23 - 1.1,
                })
                .collect();
            let b: Vec<f64> = (0..N * N).map(|i| -((i as f64) * 0.37).cos()).collect();
            let mut c0: Vec<f64> = (0..N * N).map(|i| (i as f64 * 0.53).sin()).collect();
            c0[0] = -0.0;
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            block_gemm_sub(&a, &b, &mut c1, N);
            block_gemm_sub_b::<N>(&a, &b, &mut c2);
            assert_eq!(bits(&c1), bits(&c2), "gemm_sub N={N}");
            block_gemm(&a, &b, &mut c1, N);
            block_gemm_b::<N>(&a, &b, &mut c2);
            assert_eq!(bits(&c1), bits(&c2), "gemm N={N}");
            // A pivoting factorization: diagonally weak, so rows swap.
            let mut lu: Vec<f64> = (0..N * N)
                .map(|i| ((i * 17) % 7) as f64 - 3.0 + if i % (N + 1) == 0 { 0.5 } else { 0.0 })
                .collect();
            let mut piv = vec![0usize; N];
            lu_factor(&mut lu, &mut piv, N).unwrap();
            let mut inv1 = vec![0.0; N * N];
            let mut inv2 = vec![0.0; N * N];
            lu_invert(&lu, &piv, &mut inv1, N);
            lu_invert_b::<N>(&lu, &piv, &mut inv2);
            assert_eq!(bits(&inv1), bits(&inv2), "invert N={N}");
        }
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
        check::<5>();
    }

    #[test]
    fn gemm_sub_applies_zero_multipliers() {
        // Whole blocks are applied, as PETSc's BAIJ kernels do: a -0.0
        // target minus a -0.0 product is +0.0, and a zero multiplier times
        // a non-finite entry is NaN, in both twins.
        fn check<const N: usize>() {
            let a = vec![0.0; N * N];
            let mut b = vec![-1.0; N * N];
            let mut c1 = vec![-0.0; N * N];
            let mut c2 = c1.clone();
            block_gemm_sub(&a, &b, &mut c1, N);
            block_gemm_sub_b::<N>(&a, &b, &mut c2);
            for (&x1, &x2) in c1.iter().zip(&c2) {
                assert_eq!(x1.to_bits(), 0.0f64.to_bits(), "N={N}");
                assert_eq!(x2.to_bits(), 0.0f64.to_bits(), "N={N}");
            }
            b[N * N - 1] = f64::INFINITY;
            block_gemm_sub(&a, &b, &mut c1, N);
            block_gemm_sub_b::<N>(&a, &b, &mut c2);
            // Every row of `C` meets the last row of `B` in its last column.
            for i in 0..N {
                assert!(c1[i * N + N - 1].is_nan(), "N={N}");
                assert!(c2[i * N + N - 1].is_nan(), "N={N}");
            }
        }
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
        check::<5>();
    }

    #[test]
    fn gemm_sub_matches_manual() {
        let n = 2;
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![10.0, 10.0, 10.0, 10.0];
        block_gemm_sub(&a, &b, &mut c, n);
        assert_eq!(c, vec![9.0, 8.0, 7.0, 6.0]);
    }
}
