//! Threaded-vs-sequential equivalence for the `_par` kernels.
//!
//! Property tests over random shapes — including empty rows, `nthreads >
//! nrows`, and one thread — plus deterministic large cases that cross the
//! spawn thresholds so the actually-threaded code paths run under the test
//! harness (and under `cargo miri`/TSan if ever enabled).  SpMV and
//! triangular-sweep levels fork from 4,096 rows; the BLAS-1 helpers only
//! from a far larger break-even, which the `vec_ops` unit tests cross.

use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::block_ilu::BlockIluFactors;
use fun3d_sparse::ilu::{IluFactors, IluOptions};
use fun3d_sparse::par::ParCtx;
use fun3d_sparse::triplet::TripletMatrix;
use fun3d_sparse::{vec_ops, CsrMatrix};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// A random square matrix that may have completely empty rows.
fn sparse_from_entries(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut t = TripletMatrix::new(n, n);
    for &(i, j, v) in entries {
        if i < n && j < n {
            t.push(i, j, v);
        }
    }
    t.to_csr()
}

/// A diagonally dominant matrix (factorizable) with a few couplings per row.
fn dd_from_entries(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut t = TripletMatrix::new(n, n);
    let mut rowsum = vec![0.0f64; n];
    for &(i, j, v) in entries {
        if i < n && j < n && i != j {
            t.push(i, j, v);
            rowsum[i] += v.abs();
        }
    }
    for (i, s) in rowsum.iter().enumerate() {
        t.push(i, i, s + 1.0);
    }
    t.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn csr_spmv_par_matches_sequential(
        n in 1usize..80,
        entries in proptest::collection::vec((0usize..80, 0usize..80, -1.0f64..1.0), 0..250),
    ) {
        let a = sparse_from_entries(n, &entries);
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) / 7.0 - 2.0).collect();
        let mut ys = vec![0.0; n];
        a.spmv(&x, &mut ys);
        for nthreads in THREAD_COUNTS {
            let mut yp = vec![f64::NAN; n];
            a.spmv_par(&x, &mut yp, &ParCtx::new(nthreads));
            // Row sums are computed identically: bitwise equal.
            prop_assert_eq!(&ys, &yp, "nthreads={}", nthreads);
        }
    }

    #[test]
    fn bcsr_spmv_par_matches_sequential(
        nb in 1usize..16,
        b in 1usize..7,
        entries in proptest::collection::vec((0usize..16, 0usize..16, -1.0f64..1.0), 0..80),
    ) {
        let mut t = TripletMatrix::new(nb * b, nb * b);
        for &(bi, bj, v) in &entries {
            if bi < nb && bj < nb {
                let blk: Vec<f64> = (0..b * b).map(|q| v + q as f64 * 0.01).collect();
                t.push_block(bi, bj, b, &blk);
            }
        }
        let a = t.to_csr();
        let ab = BcsrMatrix::from_csr(&a, b);
        let x: Vec<f64> = (0..nb * b).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut ys = vec![0.0; nb * b];
        ab.spmv(&x, &mut ys);
        for nthreads in THREAD_COUNTS {
            let mut yp = vec![f64::NAN; nb * b];
            ab.spmv_par(&x, &mut yp, &ParCtx::new(nthreads));
            prop_assert_eq!(&ys, &yp, "b={} nthreads={}", b, nthreads);
        }
    }

    #[test]
    fn vec_ops_par_match_sequential(
        x in proptest::collection::vec(-10.0f64..10.0, 1..200),
        alpha in -3.0f64..3.0,
        beta in -3.0f64..3.0,
    ) {
        let n = x.len();
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 - 1.0).collect();
        for nthreads in THREAD_COUNTS {
            let ctx = ParCtx::new(nthreads);
            // Elementwise ops: bitwise identical.
            let mut ys = y.clone();
            let mut yp = y.clone();
            vec_ops::axpy(alpha, &x, &mut ys);
            vec_ops::axpy_par(alpha, &x, &mut yp, &ctx);
            prop_assert_eq!(&ys, &yp);
            vec_ops::axpby(alpha, &x, beta, &mut ys);
            vec_ops::axpby_par(alpha, &x, beta, &mut yp, &ctx);
            prop_assert_eq!(&ys, &yp);
            let mut ws = vec![0.0; n];
            let mut wp = vec![0.0; n];
            vec_ops::waxpby(alpha, &x, beta, &y, &mut ws);
            vec_ops::waxpby_par(alpha, &x, beta, &y, &mut wp, &ctx);
            prop_assert_eq!(&ws, &wp);
            // Reductions: within rounding of sequential, and exactly the
            // ordered sum of the per-chunk partials (determinism contract).
            let ds = vec_ops::dot(&x, &y);
            let dp = vec_ops::dot_par(&x, &y, &ctx);
            prop_assert!((ds - dp).abs() <= 1e-12 * (1.0 + ds.abs()));
            if nthreads > 1 {
                let ordered: f64 = (0..nthreads)
                    .map(|t| {
                        let r = ctx.chunk(n, t);
                        vec_ops::dot(&x[r.clone()], &y[r])
                    })
                    .sum();
                prop_assert_eq!(dp, ordered);
            }
            let np = vec_ops::norm2_par(&x, &ctx);
            prop_assert!((vec_ops::norm2(&x) - np).abs() <= 1e-12 * (1.0 + np));
        }
    }

    #[test]
    fn ilu_solve_par_matches_sequential(
        n in 1usize..60,
        fill in 0usize..2,
        entries in proptest::collection::vec((0usize..60, 0usize..60, -1.0f64..1.0), 0..150),
    ) {
        let a = dd_from_entries(n, &entries);
        let f = IluFactors::factor(&a, &IluOptions::with_fill(fill)).unwrap();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();
        let mut xs = vec![0.0; n];
        f.solve(&rhs, &mut xs);
        for nthreads in THREAD_COUNTS {
            let mut xp = vec![0.0; n];
            f.solve_par(&rhs, &mut xp, &ParCtx::new(nthreads));
            prop_assert_eq!(&xs, &xp, "fill={} nthreads={}", fill, nthreads);
        }
    }
}

#[test]
fn large_kernels_cross_the_spawn_threshold() {
    // Big enough that the SpMV helpers actually fork worker threads;
    // everything above ran on the inline fallback with identical chunking.
    // The BLAS-1 calls here stay inline below their break-even; the
    // `vec_ops` unit tests run their threaded branch.
    let n = 9000usize;
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 4.0);
        if i > 0 {
            t.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            t.push(i, i + 1, -1.0);
        }
        t.push(i, (i * 7919) % n, 0.25);
    }
    let a = t.to_csr();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let ctx = ParCtx::new(4);

    let mut ys = vec![0.0; n];
    let mut yp = vec![0.0; n];
    a.spmv(&x, &mut ys);
    a.spmv_par(&x, &mut yp, &ctx);
    assert_eq!(ys, yp, "threaded CSR SpMV");

    let b = 2usize;
    let ab = BcsrMatrix::from_csr(&a, b);
    ab.spmv(&x, &mut ys);
    ab.spmv_par(&x, &mut yp, &ctx);
    assert_eq!(ys, yp, "threaded BCSR SpMV");

    let ds = vec_ops::dot(&x, &ys);
    let dp = vec_ops::dot_par(&x, &ys, &ctx);
    assert!((ds - dp).abs() <= 1e-12 * ds.abs().max(1.0), "{ds} vs {dp}");

    let mut w = x.clone();
    let mut wp = x.clone();
    vec_ops::axpy(0.3, &ys, &mut w);
    vec_ops::axpy_par(0.3, &ys, &mut wp, &ctx);
    assert_eq!(w, wp, "threaded axpy");
}

/// Rows in the wide level of the hub matrices below: more than the 4,096
/// from which a level sweep forks.
const WIDE_LEVEL: usize = 4200;

#[test]
fn ilu_solve_par_with_wide_levels() {
    // Every row but the hub depends on row 0 (forward) or is read by it
    // (backward), so each sweep has one level of WIDE_LEVEL - 1 rows and
    // the level-scheduled sweep forks on it.
    let n = WIDE_LEVEL;
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 5.0 + (i % 7) as f64 * 0.1);
        if i > 0 {
            t.push(i, 0, 0.1 + (i % 5) as f64 * 0.01);
            t.push(0, i, -0.2 / n as f64);
        }
    }
    let a = t.to_csr();
    let f = IluFactors::factor(&a, &IluOptions::with_fill(0)).unwrap();
    assert_eq!(f.level_counts(), (2, 2));
    // rhs[0] != 0, so the hub's value reaches every row of the wide level.
    let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
    let mut xs = vec![0.0; n];
    f.solve(&rhs, &mut xs);
    for nthreads in [2usize, 5, 100] {
        let mut xp = vec![0.0; n];
        f.solve_par(&rhs, &mut xp, &ParCtx::new(nthreads));
        assert_eq!(xs, xp, "nthreads={nthreads}");
    }
}

#[test]
fn block_ilu_solve_par_with_wide_levels() {
    // A block matrix whose rows mostly depend on one hub row: nearly all
    // block rows land in one wide level, so the level sweep actually
    // partitions work across threads.
    let b = 3usize;
    let nb = WIDE_LEVEL;
    let mut t = TripletMatrix::new(nb * b, nb * b);
    let diag: Vec<f64> = (0..b * b)
        .map(|q| if q % (b + 1) == 0 { 5.0 } else { 0.2 })
        .collect();
    let off: Vec<f64> = (0..b * b).map(|q| 0.1 + (q as f64) * 0.01).collect();
    for i in 0..nb {
        t.push_block(i, i, b, &diag);
        if i > 0 {
            t.push_block(i, 0, b, &off);
            t.push_block(0, i, b, &off);
        }
    }
    let ab = BcsrMatrix::from_csr(&t.to_csr(), b);
    let f = BlockIluFactors::factor(&ab).unwrap();
    assert_eq!(f.level_counts(), (2, 2));
    let rhs: Vec<f64> = (0..nb * b).map(|i| (i as f64 * 0.23).sin()).collect();
    let mut xs = vec![0.0; nb * b];
    f.solve(&rhs, &mut xs);
    for nthreads in [2usize, 5, 100] {
        let mut xp = vec![0.0; nb * b];
        f.solve_par(&rhs, &mut xp, &ParCtx::new(nthreads));
        assert_eq!(xs, xp, "nthreads={nthreads}");
    }
}

#[test]
fn narrow_level_solve_par_is_bitwise_solve() {
    // Tridiagonal factors have one row per level, so no level forks and a
    // team sweeps in natural order, at a size where SpMV would fork.
    let n = 4800usize;
    let b = 5usize;
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 4.0 + (i % 3) as f64 * 0.5);
        if i > 0 {
            t.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            t.push(i, i + 1, -1.0 + (i % 11) as f64 * 0.01);
        }
    }
    let a = t.to_csr();
    let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).cos()).collect();
    let point = IluFactors::factor(&a, &IluOptions::with_fill(0)).unwrap();
    assert_eq!(point.level_counts(), (n, n));
    let block = BlockIluFactors::factor(&BcsrMatrix::from_csr(&a, b)).unwrap();
    assert_eq!(block.level_counts(), (n / b, n / b));
    let mut xs = vec![0.0; n];
    let mut bs = vec![0.0; n];
    point.solve(&rhs, &mut xs);
    block.solve(&rhs, &mut bs);
    for nthreads in [2usize, 3] {
        let ctx = ParCtx::new(nthreads);
        let mut xp = vec![f64::NAN; n];
        point.solve_par(&rhs, &mut xp, &ctx);
        assert_eq!(xs, xp, "point nthreads={nthreads}");
        let mut bp = vec![f64::NAN; n];
        block.solve_par(&rhs, &mut bp, &ctx);
        assert_eq!(bs, bp, "block nthreads={nthreads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fun3d-profile accounting identity over random shapes: for every
    /// recorded region, per-thread busy times sum to within the join-wait of
    /// `nthreads * wall` (exactly, by construction), no thread is busier
    /// than the region wall, and profiling never perturbs kernel results.
    ///
    /// The profiler is process-global, so this drains whatever regions any
    /// concurrently running test recorded too — the invariants are
    /// per-invocation and additive, so they must hold for all of them.
    #[test]
    fn profiled_busy_sums_within_join_wait_of_wall(
        n in 1usize..6000,
        nthreads in 1usize..6,
    ) {
        use fun3d_sparse::profile;
        let ctx = ParCtx::new(nthreads);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| 1.0 - (i % 17) as f64 * 0.25).collect();
        let mut w_off = vec![0.0; n];
        profile::set_enabled(false);
        let d_off = vec_ops::dot_par(&x, &y, &ctx);
        vec_ops::waxpby_par(2.0, &x, -1.0, &y, &mut w_off, &ctx);

        profile::set_enabled(true);
        let mut w_on = vec![0.0; n];
        let d_on = vec_ops::dot_par(&x, &y, &ctx);
        vec_ops::waxpby_par(2.0, &x, -1.0, &y, &mut w_on, &ctx);
        profile::set_enabled(false);
        let stats = profile::drain();

        prop_assert_eq!(d_off, d_on, "profiling perturbed a reduction");
        prop_assert_eq!(w_off, w_on, "profiling perturbed an elementwise kernel");
        const EPS: f64 = 1e-6;
        for s in &stats {
            let sum: f64 = s.busy_s.iter().sum();
            let team = s.nthreads as f64 * s.wall_s;
            prop_assert!((sum + s.join_wait_s() - team).abs() <= 1e-9,
                "identity violated: {:?}", s);
            prop_assert!(s.busy_max_s() <= s.wall_s + EPS, "busy > wall: {:?}", s);
            prop_assert!(s.join_wait_s() >= -EPS * s.nthreads as f64, "{:?}", s);
        }
        // nthreads == 1 short-circuits to the sequential kernels: the _par
        // wrappers never enter a region, so labels only appear for teams.
        if nthreads > 1 {
            prop_assert!(stats.iter().any(|s| s.label == "dot" && s.nthreads == nthreads));
            prop_assert!(stats.iter().any(|s| s.label == "waxpby" && s.nthreads == nthreads));
        }
    }
}
