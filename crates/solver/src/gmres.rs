//! Restarted GMRES with modified Gram–Schmidt, right-preconditioned.
//!
//! Right preconditioning solves `A M^{-1} (M x) = b`, so the Arnoldi
//! residual norms are *true* residual norms and convergence tolerances mean
//! what Table 4 reports.  The restart dimension (`GMRES(20)` in the paper's
//! Table 4 runs; "values in the range of 10–30" per Section 2.4.2) bounds
//! the Krylov memory, trading convergence speed for storage — one of the
//! tunables the paper sweeps.

use crate::op::LinearOperator;
use crate::precond::Preconditioner;
use fun3d_sparse::par::ParCtx;
use fun3d_sparse::vec_ops::{axpy_par, dot_par};
use fun3d_telemetry::events::{EventRecord, EventSink};
use fun3d_telemetry::Registry;

/// Options for a GMRES solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresOptions {
    /// Restart dimension `m` (simultaneously storable Krylov vectors).
    pub restart: usize,
    /// Relative tolerance on `||b - A x|| / ||b||`.
    pub rtol: f64,
    /// Absolute tolerance on `||b - A x||`.
    pub atol: f64,
    /// Overall iteration (matvec) limit.
    pub max_iters: usize,
    /// Thread context for the BLAS-1 kernels inside the Arnoldi loop
    /// (dots, norms, axpys).  Sequential by default; reductions are ordered
    /// sums of per-thread partials, so results are deterministic for a
    /// fixed team size.
    pub par: ParCtx,
}

impl Default for GmresOptions {
    fn default() -> Self {
        Self {
            restart: 20,
            rtol: 1e-2,
            atol: 1e-50,
            max_iters: 200,
            par: ParCtx::seq(),
        }
    }
}

/// Outcome of a GMRES solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresResult {
    /// Total Krylov iterations (matvec + preconditioner applications).
    pub iterations: usize,
    /// Final true residual norm.
    pub residual_norm: f64,
    /// Whether a tolerance was met (vs. hitting the iteration limit).
    pub converged: bool,
}

/// Where GMRES sums its inner products: over this process's entries
/// ([`CommSelf`]), or over every rank's share of a distributed vector by
/// allreduce.  It is a parameter of [`gmres_with_events`], not an operator
/// method, so no operator wrapper can make a global dot a local one.
pub trait Comm {
    /// `x · y` over every process's entries, of which this process holds
    /// `x` and `y`; `par` is the solve's thread team.
    fn dot(&self, x: &[f64], y: &[f64], par: &ParCtx) -> f64;
}

/// One process holds the whole vector (PETSc's `PETSC_COMM_SELF`): the dot
/// is [`dot_par`].
#[derive(Debug, Clone, Copy)]
pub struct CommSelf;

impl Comm for CommSelf {
    fn dot(&self, x: &[f64], y: &[f64], par: &ParCtx) -> f64 {
        dot_par(x, y, par)
    }
}

/// Solve `A x = b` with restarted, right-preconditioned GMRES.  `x` carries
/// the initial guess in and the solution out.
pub fn gmres<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    m: &M,
    b: &[f64],
    x: &mut [f64],
    opts: &GmresOptions,
) -> GmresResult {
    let (tel, events) = (Registry::disabled(), EventSink::disabled());
    gmres_with_events(a, m, b, x, opts, &CommSelf, &tel, &events, 0)
}

/// [`gmres`] with its inner products summed by `comm` and with profiling:
/// records `gmres` / `gmres/precond` / `gmres/apply` / `gmres/orth` spans
/// in `tel` (relative to whatever span is currently open; with a disabled
/// registry each span is one branch), and emits one
/// [`EventRecord::KrylovIter`] per inner iteration into `events`, tagged
/// with the enclosing pseudo-timestep `newton_step`.  The residual norm in
/// each record is the Arnoldi estimate, which with right preconditioning is
/// the *true* residual norm.
///
/// An all-zero initial guess (PETSc's `KSP_GUESS_ZERO`) starts from
/// `r = b` without applying the operator: every operator here maps a zero
/// vector to `+0.0` entries when it is finite, and `b - (+0.0)` is `b` bit
/// for bit, so only the apply is saved.  Restarts recompute the true
/// residual as usual.
#[allow(clippy::too_many_arguments)]
pub fn gmres_with_events<A, M, C>(
    a: &A,
    m: &M,
    b: &[f64],
    x: &mut [f64],
    opts: &GmresOptions,
    comm: &C,
    tel: &Registry,
    events: &EventSink,
    newton_step: u64,
) -> GmresResult
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
    C: Comm + ?Sized,
{
    let zero_guess = x.iter().all(|&v| v == 0.0);
    gmres_cycles(a, m, b, x, opts, comm, tel, events, newton_step, zero_guess)
}

/// The restarted GMRES cycles of [`gmres_with_events`]; `zero_guess` says
/// that `x` is all zeros on entry, so the first residual is `b`.
#[allow(clippy::too_many_arguments)]
fn gmres_cycles<A, M, C>(
    a: &A,
    m: &M,
    b: &[f64],
    x: &mut [f64],
    opts: &GmresOptions,
    comm: &C,
    tel: &Registry,
    events: &EventSink,
    newton_step: u64,
    mut zero_guess: bool,
) -> GmresResult
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
    C: Comm + ?Sized,
{
    let _gmres_span = tel.span("gmres");
    // Analytic per-apply traffic, when the operator/preconditioner know it:
    // attached as a `bytes` counter on each apply/precond span so profiled
    // runs derive achieved GB/s per phase (PerfReport::bandwidth_metrics).
    let apply_bytes = a.traffic_bytes();
    let precond_bytes = m.traffic_bytes();
    let n = a.n();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    assert!(opts.restart >= 1);
    let restart = opts.restart;
    let par = &opts.par;
    let norm = |v: &[f64]| comm.dot(v, v, par).sqrt();
    let norm_b = norm(b);
    let target = (opts.rtol * norm_b).max(opts.atol);

    let mut total_iters = 0usize;
    let mut r = vec![0.0; n];
    let mut w = vec![0.0; n];
    let mut z = vec![0.0; n];
    // Krylov basis.
    let mut v: Vec<Vec<f64>> = Vec::new();
    // Hessenberg in column-major compact form: h[j] has j+2 entries.
    let mut h: Vec<Vec<f64>> = Vec::new();
    // Givens rotations and RHS of the least-squares problem.
    let mut cs = vec![0.0f64; restart + 1];
    let mut sn = vec![0.0f64; restart + 1];
    let mut g = vec![0.0f64; restart + 1];

    loop {
        // r = b - A x.
        if std::mem::take(&mut zero_guess) {
            r.copy_from_slice(b);
        } else {
            {
                let _g = tel.span("apply");
                if let Some(bytes) = apply_bytes {
                    tel.counter("bytes", bytes);
                }
                a.apply(x, &mut r);
            }
            for (ri, bi) in r.iter_mut().zip(b) {
                *ri = bi - *ri;
            }
        }
        let beta = norm(&r);
        if beta <= target || total_iters >= opts.max_iters {
            return GmresResult {
                iterations: total_iters,
                residual_norm: beta,
                converged: beta <= target,
            };
        }
        v.clear();
        h.clear();
        let mut v0 = r.clone();
        for vi in v0.iter_mut() {
            *vi /= beta;
        }
        v.push(v0);
        g.iter_mut().for_each(|x| *x = 0.0);
        g[0] = beta;

        let mut j = 0usize;
        while j < restart && total_iters < opts.max_iters {
            // w = A M^{-1} v_j.
            {
                let _g = tel.span("precond");
                if let Some(bytes) = precond_bytes {
                    tel.counter("bytes", bytes);
                }
                m.apply(&v[j], &mut z);
            }
            {
                let _g = tel.span("apply");
                if let Some(bytes) = apply_bytes {
                    tel.counter("bytes", bytes);
                }
                a.apply(&z, &mut w);
            }
            total_iters += 1;
            // Modified Gram-Schmidt.
            let _orth = tel.span("orth");
            let mut hj = vec![0.0f64; j + 2];
            for (i, vi) in v.iter().enumerate().take(j + 1) {
                let hij = comm.dot(&w, vi, par);
                hj[i] = hij;
                axpy_par(-hij, vi, &mut w, par);
            }
            let wnorm = norm(&w);
            hj[j + 1] = wnorm;
            // Apply existing Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
                hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
                hj[i] = t;
            }
            // New rotation to zero hj[j+1].
            let denom = (hj[j] * hj[j] + hj[j + 1] * hj[j + 1]).sqrt();
            if denom > 0.0 {
                cs[j] = hj[j] / denom;
                sn[j] = hj[j + 1] / denom;
            } else {
                cs[j] = 1.0;
                sn[j] = 0.0;
            }
            hj[j] = cs[j] * hj[j] + sn[j] * hj[j + 1];
            hj[j + 1] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            let res_est = g[j + 1].abs();
            events.emit(EventRecord::KrylovIter {
                step: newton_step,
                iter: total_iters as u64,
                residual_norm: res_est,
            });
            h.push(hj);
            j += 1;
            if wnorm == 0.0 {
                // Lucky breakdown: exact solution in the current space.
                break;
            }
            if j < restart {
                let mut vj = w.clone();
                for vi in vj.iter_mut() {
                    *vi /= wnorm;
                }
                v.push(vj);
            }
            if res_est <= target {
                break;
            }
        }
        // Back-substitute y from the triangular system H y = g.
        let k = j;
        let mut y = vec![0.0f64; k];
        for i in (0..k).rev() {
            let mut s = g[i];
            for l in (i + 1)..k {
                s -= h[l][i] * y[l];
            }
            y[i] = s / h[i][i];
        }
        // x += M^{-1} (V y).
        let mut update = vec![0.0; n];
        for (l, yl) in y.iter().enumerate() {
            axpy_par(*yl, &v[l], &mut update, par);
        }
        {
            let _g = tel.span("precond");
            if let Some(bytes) = precond_bytes {
                tel.counter("bytes", bytes);
            }
            m.apply(&update, &mut z);
        }
        axpy_par(1.0, &z, x, par);
        // Loop back: recompute the true residual and re-test.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CsrOperator;
    use crate::precond::{IdentityPrecond, IluPrecond};
    use fun3d_sparse::csr::CsrMatrix;
    use fun3d_sparse::ilu::{IluFactors, IluOptions};
    use fun3d_sparse::triplet::TripletMatrix;
    use fun3d_sparse::vec_ops::norm2;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn laplacian_2d(nx: usize) -> CsrMatrix {
        let n = nx * nx;
        let mut t = TripletMatrix::new(n, n);
        let id = |i: usize, j: usize| i * nx + j;
        for i in 0..nx {
            for j in 0..nx {
                t.push(id(i, j), id(i, j), 4.0);
                if i > 0 {
                    t.push(id(i, j), id(i - 1, j), -1.0);
                }
                if i + 1 < nx {
                    t.push(id(i, j), id(i + 1, j), -1.0);
                }
                if j > 0 {
                    t.push(id(i, j), id(i, j - 1), -1.0);
                }
                if j + 1 < nx {
                    t.push(id(i, j), id(i, j + 1), -1.0);
                }
            }
        }
        t.to_csr()
    }

    fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.spmv(x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri -= bi;
        }
        norm2(&r)
    }

    #[test]
    fn solves_identity_in_one_iteration() {
        let a = CsrMatrix::identity(10);
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut x = vec![0.0; 10];
        let r = gmres(
            &CsrOperator::new(&a),
            &IdentityPrecond,
            &b,
            &mut x,
            &GmresOptions {
                rtol: 1e-12,
                ..Default::default()
            },
        );
        assert!(r.converged);
        assert!(r.iterations <= 2);
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn converges_on_laplacian_unpreconditioned() {
        let a = laplacian_2d(12);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut x = vec![0.0; n];
        let r = gmres(
            &CsrOperator::new(&a),
            &IdentityPrecond,
            &b,
            &mut x,
            &GmresOptions {
                restart: 30,
                rtol: 1e-8,
                max_iters: 2000,
                ..Default::default()
            },
        );
        assert!(r.converged, "{r:?}");
        assert!(residual_norm(&a, &x, &b) <= 1e-8 * norm2(&b) * 1.01);
    }

    #[test]
    fn ilu_preconditioning_cuts_iterations() {
        let a = laplacian_2d(16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let opts = GmresOptions {
            restart: 30,
            rtol: 1e-8,
            max_iters: 3000,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let r1 = gmres(&CsrOperator::new(&a), &IdentityPrecond, &b, &mut x1, &opts);
        let f = IluFactors::factor(&a, &IluOptions::with_fill(1)).unwrap();
        let pc = IluPrecond::new(f);
        let mut x2 = vec![0.0; n];
        let r2 = gmres(&CsrOperator::new(&a), &pc, &b, &mut x2, &opts);
        assert!(r1.converged && r2.converged);
        assert!(
            r2.iterations * 2 < r1.iterations,
            "ILU should at least halve iterations: {} vs {}",
            r2.iterations,
            r1.iterations
        );
        assert!(residual_norm(&a, &x2, &b) <= 1e-7 * norm2(&b));
    }

    #[test]
    fn restart_survives_and_converges() {
        // Small restart on a problem needing many iterations.
        let a = laplacian_2d(14);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut x = vec![0.0; n];
        let r = gmres(
            &CsrOperator::new(&a),
            &IdentityPrecond,
            &b,
            &mut x,
            &GmresOptions {
                restart: 5,
                rtol: 1e-6,
                max_iters: 5000,
                ..Default::default()
            },
        );
        assert!(r.converged, "{r:?}");
    }

    #[test]
    fn nonsymmetric_system_converges() {
        let n = 80;
        let mut rng = SmallRng::seed_from_u64(3);
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 5.0);
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j != i {
                    t.push(i, j, rng.gen_range(-1.0..1.0));
                }
            }
        }
        let a = t.to_csr();
        let xtrue: Vec<f64> = (0..n).map(|i| (i % 4) as f64 - 1.5).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xtrue, &mut b);
        let mut x = vec![0.0; n];
        let r = gmres(
            &CsrOperator::new(&a),
            &IdentityPrecond,
            &b,
            &mut x,
            &GmresOptions {
                restart: 40,
                rtol: 1e-10,
                max_iters: 1000,
                ..Default::default()
            },
        );
        assert!(r.converged);
        for (u, v) in x.iter().zip(&xtrue) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn nonzero_initial_guess_is_used() {
        let a = laplacian_2d(8);
        let n = a.nrows();
        let xtrue: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xtrue, &mut b);
        // Start at the exact solution: zero iterations needed.
        let mut x = xtrue.clone();
        let r = gmres(
            &CsrOperator::new(&a),
            &IdentityPrecond,
            &b,
            &mut x,
            &GmresOptions::default(),
        );
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn iteration_limit_reported_as_not_converged() {
        let a = laplacian_2d(16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let r = gmres(
            &CsrOperator::new(&a),
            &IdentityPrecond,
            &b,
            &mut x,
            &GmresOptions {
                restart: 10,
                rtol: 1e-14,
                max_iters: 7,
                ..Default::default()
            },
        );
        assert!(!r.converged);
        assert_eq!(r.iterations, 7);
    }

    #[test]
    fn krylov_iter_events_track_iterations() {
        let a = laplacian_2d(10);
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let sink = EventSink::enabled();
        let r = gmres_with_events(
            &CsrOperator::new(&a),
            &IdentityPrecond,
            &b,
            &mut x,
            &GmresOptions {
                restart: 30,
                rtol: 1e-6,
                max_iters: 2000,
                ..Default::default()
            },
            &CommSelf,
            &Registry::disabled(),
            &sink,
            7,
        );
        assert!(r.converged);
        let evs = sink.drain();
        assert_eq!(evs.len(), r.iterations);
        // Every record carries the enclosing step and a positive iteration
        // index; the trajectory as a whole descends toward the target.
        let mut norms = Vec::new();
        for ev in &evs {
            let EventRecord::KrylovIter {
                step,
                iter,
                residual_norm,
            } = ev
            else {
                panic!("unexpected event {ev:?}");
            };
            assert_eq!(*step, 7);
            assert!(*iter >= 1 && *iter <= r.iterations as u64);
            norms.push(*residual_norm);
        }
        assert!(norms.last().unwrap() < &(1e-6 * norm2(&b) * 1.01));
        assert!(norms.first().unwrap() > norms.last().unwrap());
    }

    #[test]
    fn threaded_solve_matches_sequential() {
        // Threaded matvecs and axpys are bitwise sequential; the dots are
        // ordered partial sums, so the whole Arnoldi process — and therefore
        // the iterate sequence — stays reproducible and lands on the same
        // solution to rounding.
        use fun3d_sparse::par::ParCtx;
        let a = laplacian_2d(14);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 * 0.4).sin()).collect();
        let base = GmresOptions {
            restart: 25,
            rtol: 1e-9,
            max_iters: 3000,
            ..Default::default()
        };
        let mut xs = vec![0.0; n];
        let rs = gmres(&CsrOperator::new(&a), &IdentityPrecond, &b, &mut xs, &base);
        assert!(rs.converged);
        for nthreads in [2usize, 3, 8] {
            let par = ParCtx::new(nthreads);
            let opts = GmresOptions { par, ..base };
            let mut xp = vec![0.0; n];
            let rp = gmres(
                &CsrOperator::with_par(&a, par),
                &IdentityPrecond,
                &b,
                &mut xp,
                &opts,
            );
            assert!(rp.converged, "nthreads={nthreads}: {rp:?}");
            assert_eq!(rp.iterations, rs.iterations, "nthreads={nthreads}");
            for (u, v) in xp.iter().zip(&xs) {
                assert!((u - v).abs() < 1e-10, "nthreads={nthreads}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn apply_and_precond_spans_carry_byte_traffic() {
        // With a telemetry registry on, the solver's apply/precond spans
        // must accumulate the analytic Eq. (1)/(2) traffic — one matvec's
        // (resp. one triangular solve's) worth per call — so a profiled run
        // derives achieved bandwidth per solver phase.
        let a = laplacian_2d(12);
        let n = a.nrows();
        let b = vec![1.0; n];
        let f = IluFactors::factor(&a, &IluOptions::with_fill(0)).unwrap();
        let pc = IluPrecond::new(f);
        let op = CsrOperator::new(&a);
        assert_eq!(op.traffic_bytes(), Some(a.spmv_traffic_bytes()));
        let pc_bytes = pc.traffic_bytes().unwrap();
        assert!(pc_bytes > 0.0);
        let tel = Registry::enabled(0);
        let mut x = vec![0.0; n];
        let r = gmres_with_events(
            &op,
            &pc,
            &b,
            &mut x,
            &GmresOptions {
                rtol: 1e-8,
                max_iters: 500,
                ..Default::default()
            },
            &CommSelf,
            &tel,
            &EventSink::disabled(),
            0,
        );
        assert!(r.converged);
        let snap = tel.snapshot();
        let apply = snap.span("gmres/apply").expect("apply span");
        let expected_apply = apply.calls as f64 * a.spmv_traffic_bytes();
        assert!((apply.counter("bytes").unwrap() - expected_apply).abs() < 1e-6);
        let precond = snap.span("gmres/precond").expect("precond span");
        let expected_pc = precond.calls as f64 * pc_bytes;
        assert!((precond.counter("bytes").unwrap() - expected_pc).abs() < 1e-6);
        // The matrix-free operator declines: no footprint of its own.
        use crate::op::test_problems::Bratu1d;
        use crate::op::{FdJacobianOperator, PseudoTransientProblem};
        let p = Bratu1d::new(8, 0.0);
        let q = vec![0.0; 8];
        let mut r0 = vec![0.0; 8];
        p.residual(&q, &mut r0);
        let fd = FdJacobianOperator::new(&p, q, r0, vec![0.0; 8]);
        assert_eq!(fd.traffic_bytes(), None);
    }

    #[test]
    fn tighter_tolerance_takes_more_iterations() {
        let a = laplacian_2d(12);
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut iters = Vec::new();
        for rtol in [1e-2, 1e-6, 1e-10] {
            let mut x = vec![0.0; n];
            let r = gmres(
                &CsrOperator::new(&a),
                &IdentityPrecond,
                &b,
                &mut x,
                &GmresOptions {
                    restart: 30,
                    rtol,
                    max_iters: 5000,
                    ..Default::default()
                },
            );
            assert!(r.converged);
            iters.push(r.iterations);
        }
        assert!(iters[0] < iters[1] && iters[1] < iters[2], "{iters:?}");
    }

    /// An operator that counts its applications.
    struct Counting<'a> {
        inner: &'a dyn LinearOperator,
        applies: std::cell::Cell<usize>,
    }

    impl LinearOperator for Counting<'_> {
        fn n(&self) -> usize {
            self.inner.n()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.applies.set(self.applies.get() + 1);
            self.inner.apply(x, y);
        }
    }

    /// The blocked operator of an assembled blocked solve.
    struct Bcsr<'a>(&'a fun3d_sparse::bcsr::BcsrMatrix);

    impl LinearOperator for Bcsr<'_> {
        fn n(&self) -> usize {
            self.0.nrows()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.0.spmv(x, y);
        }
    }

    #[test]
    fn zero_guess_skips_the_first_apply_and_keeps_the_bits() {
        use crate::op::test_problems::Bratu1d;
        use crate::op::{FdJacobianOperator, PseudoTransientProblem};
        let a = laplacian_2d(10);
        let n = a.nrows();
        let blocked = fun3d_sparse::bcsr::BcsrMatrix::from_csr(&a, 4);
        let p = Bratu1d::new(n, 0.5);
        let q: Vec<f64> = (0..n).map(|i| 0.01 * i as f64).collect();
        let mut r0 = vec![0.0; n];
        p.residual(&q, &mut r0);
        let fd = FdJacobianOperator::new(&p, q, r0, vec![1.0; n]);
        let csr = CsrOperator::new(&a);
        let ops: [(&str, &dyn LinearOperator); 3] =
            [("csr", &csr), ("bcsr", &Bcsr(&blocked)), ("fd", &fd)];
        let mut b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) * 0.25).collect();
        b[5] = -0.0;
        // A short restart, so later cycles recompute the true residual.
        let opts = GmresOptions {
            restart: 8,
            rtol: 1e-8,
            max_iters: 120,
            ..Default::default()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (name, op) in ops {
            // `Some(false)`: the cycles as they ran before the zero-guess
            // path, applying the operator to every initial guess.
            let run = |x0: &[f64], zero_guess: Option<bool>| {
                let counted = Counting {
                    inner: op,
                    applies: Default::default(),
                };
                let mut x = x0.to_vec();
                let res = match zero_guess {
                    None => gmres(&counted, &IdentityPrecond, &b, &mut x, &opts),
                    Some(z) => gmres_cycles(
                        &counted,
                        &IdentityPrecond,
                        &b,
                        &mut x,
                        &opts,
                        &CommSelf,
                        &Registry::disabled(),
                        &EventSink::disabled(),
                        0,
                        z,
                    ),
                };
                (res, x, counted.applies.get())
            };
            let zero = vec![0.0; n];
            let (fast, x_fast, n_fast) = run(&zero, None);
            let (slow, x_slow, n_slow) = run(&zero, Some(false));
            assert!(slow.iterations > opts.restart, "{name}: {slow:?}");
            assert_eq!(n_fast + 1, n_slow, "{name}: one apply fewer");
            assert_eq!(fast.iterations, slow.iterations, "{name}");
            assert_eq!(
                fast.residual_norm.to_bits(),
                slow.residual_norm.to_bits(),
                "{name}"
            );
            assert_eq!(fast.converged, slow.converged, "{name}");
            assert_eq!(bits(&x_fast), bits(&x_slow), "{name}");
            // A nonzero guess applies the operator to it, as before.
            let guess: Vec<f64> = (0..n).map(|i| 0.1 * (i % 3) as f64).collect();
            let (g, x_g, n_g) = run(&guess, None);
            let (g_slow, x_g_slow, n_g_slow) = run(&guess, Some(false));
            assert_eq!(n_g, n_g_slow, "{name}");
            assert_eq!(g, g_slow, "{name}");
            assert_eq!(bits(&x_g), bits(&x_g_slow), "{name}");
        }
    }
}
