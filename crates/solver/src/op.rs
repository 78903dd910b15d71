//! Operator and problem abstractions for the solver stack.

use fun3d_sparse::csr::CsrMatrix;
use fun3d_sparse::par::ParCtx;

/// A linear operator `y = A x`.
pub trait LinearOperator {
    /// Dimension.
    fn n(&self) -> usize;
    /// `y <- A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// Analytic minimum memory traffic of one `apply` in bytes (the Eq. (1)
    /// perfect-cache bound), when the operator knows its own footprint.
    /// `None` for matrix-free operators whose traffic rides on the residual
    /// evaluation instead.  GMRES attaches this as a `bytes` counter on its
    /// `apply` spans so profiled solver runs get achieved-bandwidth rows.
    fn traffic_bytes(&self) -> Option<f64> {
        None
    }
}

/// A CSR matrix as an operator.
pub struct CsrOperator<'a> {
    a: &'a CsrMatrix,
    par: ParCtx,
}

impl<'a> CsrOperator<'a> {
    /// Wrap a square CSR matrix (sequential matvec).
    pub fn new(a: &'a CsrMatrix) -> Self {
        Self::with_par(a, ParCtx::seq())
    }

    /// Wrap a square CSR matrix, applying it with the given thread context
    /// (row-block-parallel matvec; bitwise identical to sequential).
    pub fn with_par(a: &'a CsrMatrix, par: ParCtx) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        Self { a, par }
    }
}

impl LinearOperator for CsrOperator<'_> {
    fn n(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.spmv_par(x, y, &self.par);
    }

    fn traffic_bytes(&self) -> Option<f64> {
        Some(self.a.spmv_traffic_bytes())
    }
}

/// The nonlinear problem a pseudo-transient Newton–Krylov–Schwarz solver
/// drives: a steady residual `R(q)`, its first-order analytic Jacobian (the
/// preconditioner basis), and the local-timestep scaling.
pub trait PseudoTransientProblem {
    /// Number of unknowns.
    fn n(&self) -> usize;

    /// Evaluate `R(q)` into `out` (the full-order spatial residual).
    fn residual(&self, q: &[f64], out: &mut [f64]);

    /// Assemble the first-order analytic Jacobian `dR/dq` at `q`.  Every
    /// call must return the same sparsity pattern, whatever `q`: the ΨNKS
    /// driver refactors its preconditioner and refills its block operator
    /// on the pattern of the first call.
    fn jacobian(&self, q: &[f64]) -> CsrMatrix;

    /// Per-unknown `V_i / dtau_i` at `CFL = 1`; the ΨNKS driver divides by
    /// the current CFL number and adds the result to the Jacobian diagonal.
    fn inverse_timestep_scale(&self, q: &[f64]) -> Vec<f64>;

    /// Hook: called when the driver switches discretization order during
    /// continuation (first -> second); default does nothing.
    fn set_second_order(&mut self, _enable: bool) {}
}

/// Matrix-free Jacobian-vector products by first-order finite differencing
/// of the residual: `J v ~ (R(q + eps v) - R(q)) / eps`, with the
/// pseudo-timestep diagonal added analytically.  This is the paper's
/// "matrix-free implementation [where] the Jacobian itself is never
/// explicitly needed".
pub struct FdJacobianOperator<'p, P: PseudoTransientProblem> {
    problem: &'p P,
    q: Vec<f64>,
    /// `‖q‖₂`, fixed for the operator's life; sets the differencing step.
    norm_q: f64,
    r0: Vec<f64>,
    /// Per-unknown diagonal shift `V_i / (CFL * dtau_i)`.
    shift: Vec<f64>,
    /// Scratch for the perturbed state/residual (interior mutability keeps
    /// the operator `&self` like any other).
    scratch: std::cell::RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'p, P: PseudoTransientProblem> FdJacobianOperator<'p, P> {
    /// Create at the linearization state `q` with base residual `r0` and the
    /// diagonal shift (may be all-zero for a pure steady Jacobian).
    pub fn new(problem: &'p P, q: Vec<f64>, r0: Vec<f64>, shift: Vec<f64>) -> Self {
        let n = problem.n();
        assert_eq!(q.len(), n);
        assert_eq!(r0.len(), n);
        assert_eq!(shift.len(), n);
        Self {
            problem,
            norm_q: fun3d_sparse::vec_ops::norm2(&q),
            q,
            r0,
            shift,
            scratch: std::cell::RefCell::new((vec![0.0; n], vec![0.0; n])),
        }
    }
}

impl<P: PseudoTransientProblem> LinearOperator for FdJacobianOperator<'_, P> {
    fn n(&self) -> usize {
        self.q.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let norm_x = fun3d_sparse::vec_ops::norm2(x);
        if norm_x == 0.0 {
            y.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        // PETSc-style differencing parameter.
        let eps = 1e-7 * (1.0 + self.norm_q) / norm_x;
        let mut scratch = self.scratch.borrow_mut();
        let (qp, rp) = &mut *scratch;
        for i in 0..x.len() {
            qp[i] = self.q[i] + eps * x[i];
        }
        self.problem.residual(qp, rp);
        for i in 0..x.len() {
            y[i] = (rp[i] - self.r0[i]) / eps + self.shift[i] * x[i];
        }
    }
}

#[cfg(test)]
pub(crate) mod test_problems {
    use super::*;
    use fun3d_sparse::triplet::TripletMatrix;

    /// A small nonlinear reaction-diffusion style problem on a 1-D grid:
    /// `R_i(q) = (2 q_i - q_{i-1} - q_{i+1}) + alpha (exp(q_i) - 1) - f_i`,
    /// with Dirichlet-like ends folded in. Smooth, diagonally dominant for
    /// small alpha, and has an interesting Newton path for larger alpha.
    pub struct Bratu1d {
        pub n: usize,
        pub alpha: f64,
        pub f: Vec<f64>,
    }

    impl Bratu1d {
        pub fn new(n: usize, alpha: f64) -> Self {
            // Manufacture f so that q*_i = sin(pi i / (n+1)) is the solution.
            let qstar: Vec<f64> = (0..n)
                .map(|i| (std::f64::consts::PI * (i + 1) as f64 / (n + 1) as f64).sin())
                .collect();
            let mut me = Self {
                n,
                alpha,
                f: vec![0.0; n],
            };
            let mut r = vec![0.0; n];
            me.residual_raw(&qstar, &mut r);
            me.f = r;
            me
        }

        pub fn solution(&self) -> Vec<f64> {
            (0..self.n)
                .map(|i| (std::f64::consts::PI * (i + 1) as f64 / (self.n + 1) as f64).sin())
                .collect()
        }

        fn residual_raw(&self, q: &[f64], out: &mut [f64]) {
            let n = self.n;
            for i in 0..n {
                let left = if i > 0 { q[i - 1] } else { 0.0 };
                let right = if i + 1 < n { q[i + 1] } else { 0.0 };
                out[i] = 2.0 * q[i] - left - right + self.alpha * (q[i].exp() - 1.0);
            }
        }
    }

    impl PseudoTransientProblem for Bratu1d {
        fn n(&self) -> usize {
            self.n
        }

        fn residual(&self, q: &[f64], out: &mut [f64]) {
            self.residual_raw(q, out);
            for (o, f) in out.iter_mut().zip(&self.f) {
                *o -= f;
            }
        }

        fn jacobian(&self, q: &[f64]) -> CsrMatrix {
            let n = self.n;
            let mut t = TripletMatrix::new(n, n);
            for i in 0..n {
                t.push(i, i, 2.0 + self.alpha * q[i].exp());
                if i > 0 {
                    t.push(i, i - 1, -1.0);
                }
                if i + 1 < n {
                    t.push(i, i + 1, -1.0);
                }
            }
            t.to_csr()
        }

        fn inverse_timestep_scale(&self, _q: &[f64]) -> Vec<f64> {
            vec![1.0; self.n]
        }
    }

    /// A coupled `b`-component version of [`Bratu1d`] on an `nx x ny` grid,
    /// unknowns interlaced (`p * b + c`):
    /// `R_p(q) = A q_p - sum_{nbr} K q_nbr + alpha (exp(q_p) - 1) - f_p`
    /// with dense `b x b` matrices `A` and `K`.  Its Jacobian is made of
    /// dense blocks, like a structurally blocked flow Jacobian, and the
    /// grid's cycles make ILU(0) on it drop fill.
    pub struct BlockGrid2d {
        nx: usize,
        ny: usize,
        b: usize,
        alpha: f64,
        a: Vec<f64>,
        k: Vec<f64>,
        f: Vec<f64>,
    }

    impl BlockGrid2d {
        pub fn new(nx: usize, ny: usize, b: usize, alpha: f64) -> Self {
            let a = (0..b * b)
                .map(|e| {
                    if e % (b + 1) == 0 {
                        4.5
                    } else {
                        0.3 + 0.05 * (e % 3) as f64
                    }
                })
                .collect();
            let k = (0..b * b)
                .map(|e| {
                    if e % (b + 1) == 0 {
                        1.0
                    } else {
                        0.1 + 0.02 * (e % 4) as f64
                    }
                })
                .collect();
            let mut me = Self {
                nx,
                ny,
                b,
                alpha,
                a,
                k,
                f: vec![0.0; nx * ny * b],
            };
            let mut r = vec![0.0; me.f.len()];
            me.residual_raw(&me.solution(), &mut r);
            me.f = r;
            me
        }

        pub fn solution(&self) -> Vec<f64> {
            let s =
                |i: usize, m: usize| (std::f64::consts::PI * (i + 1) as f64 / (m + 1) as f64).sin();
            (0..self.f.len())
                .map(|u| {
                    let (p, c) = (u / self.b, u % self.b);
                    s(p % self.nx, self.nx) * s(p / self.nx, self.ny) * (1.0 + 0.1 * c as f64)
                })
                .collect()
        }

        fn neighbors(&self, p: usize) -> impl Iterator<Item = usize> {
            let (x, y, nx, ny) = (p % self.nx, p / self.nx, self.nx, self.ny);
            [
                (x > 0).then(|| p - 1),
                (x + 1 < nx).then(|| p + 1),
                (y > 0).then(|| p - nx),
                (y + 1 < ny).then(|| p + nx),
            ]
            .into_iter()
            .flatten()
        }

        fn residual_raw(&self, q: &[f64], out: &mut [f64]) {
            let b = self.b;
            for p in 0..self.nx * self.ny {
                for r in 0..b {
                    let mut s = self.alpha * (q[p * b + r].exp() - 1.0);
                    for c in 0..b {
                        s += self.a[r * b + c] * q[p * b + c];
                        for nb in self.neighbors(p) {
                            s -= self.k[r * b + c] * q[nb * b + c];
                        }
                    }
                    out[p * b + r] = s;
                }
            }
        }
    }

    impl PseudoTransientProblem for BlockGrid2d {
        fn n(&self) -> usize {
            self.f.len()
        }

        fn residual(&self, q: &[f64], out: &mut [f64]) {
            self.residual_raw(q, out);
            for (o, f) in out.iter_mut().zip(&self.f) {
                *o -= f;
            }
        }

        fn jacobian(&self, q: &[f64]) -> CsrMatrix {
            let (b, n) = (self.b, self.f.len());
            let mut t = TripletMatrix::new(n, n);
            let off: Vec<f64> = self.k.iter().map(|v| -v).collect();
            for p in 0..self.nx * self.ny {
                let mut diag = self.a.clone();
                for c in 0..b {
                    diag[c * b + c] += self.alpha * q[p * b + c].exp();
                }
                t.push_block(p, p, b, &diag);
                for nb in self.neighbors(p) {
                    t.push_block(p, nb, b, &off);
                }
            }
            t.to_csr()
        }

        fn inverse_timestep_scale(&self, _q: &[f64]) -> Vec<f64> {
            vec![1.0; self.f.len()]
        }
    }

    #[test]
    fn block_grid_solution_has_zero_residual() {
        let p = BlockGrid2d::new(5, 4, 3, 0.5);
        let q = p.solution();
        let mut r = vec![0.0; p.n()];
        p.residual(&q, &mut r);
        assert!(fun3d_sparse::vec_ops::norm2(&r) < 1e-12);
        // Every stored block is dense.
        let jac = p.jacobian(&q);
        let blocked = fun3d_sparse::bcsr::BcsrMatrix::from_csr(&jac, 3);
        assert_eq!(blocked.nnz_blocks() * 9, jac.nnz());
    }

    #[test]
    fn bratu_solution_has_zero_residual() {
        let p = Bratu1d::new(20, 1.0);
        let q = p.solution();
        let mut r = vec![0.0; 20];
        p.residual(&q, &mut r);
        assert!(fun3d_sparse::vec_ops::norm2(&r) < 1e-12);
    }

    #[test]
    fn fd_operator_matches_assembled_jacobian() {
        let p = Bratu1d::new(15, 0.5);
        let q: Vec<f64> = (0..15).map(|i| 0.1 * (i as f64)).collect();
        let mut r0 = vec![0.0; 15];
        p.residual(&q, &mut r0);
        let jac = p.jacobian(&q);
        let shift = vec![0.0; 15];
        let fd = FdJacobianOperator::new(&p, q.clone(), r0, shift);
        let x: Vec<f64> = (0..15).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mut y1 = vec![0.0; 15];
        let mut y2 = vec![0.0; 15];
        jac.spmv(&x, &mut y1);
        fd.apply(&x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-4 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn fd_operator_adds_shift() {
        let p = Bratu1d::new(10, 0.0);
        let q = vec![0.0; 10];
        let mut r0 = vec![0.0; 10];
        p.residual(&q, &mut r0);
        let shift = vec![100.0; 10];
        let fd = FdJacobianOperator::new(&p, q, r0, shift);
        let x = vec![1.0; 10];
        let mut y = vec![0.0; 10];
        fd.apply(&x, &mut y);
        // Diagonal shift dominates: y_i ~ 100 + small.
        for v in &y {
            assert!((v - 100.0).abs() < 3.0, "{v}");
        }
    }
}
