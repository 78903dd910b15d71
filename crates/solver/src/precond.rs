//! Preconditioners: ILU, block Jacobi, and (restricted) additive Schwarz.
//!
//! Table 4's axes live here: the number of subdomains, the ILU fill level of
//! the subdomain solver, and the overlap.  Block Jacobi is additive Schwarz
//! with zero overlap; RASM (Cai–Sarkis) applies the full overlapped
//! subdomain solve but *restricts* the correction to owned unknowns, halving
//! the communication of classic ASM — the variant PETSc-FUN3D uses.

use crate::op::LinearOperator;
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::block_ilu::BlockIluFactors;
use fun3d_sparse::csr::CsrMatrix;
use fun3d_sparse::ilu::{IluError, IluFactors, IluOptions};
use fun3d_sparse::par::ParCtx;

/// Application of an approximate inverse: `z ~ A^{-1} r`.
pub trait Preconditioner {
    /// `z <- M^{-1} r`.
    fn apply(&self, r: &[f64], z: &mut [f64]);
    /// Analytic minimum memory traffic of one `apply` in bytes (the Eq. (2)
    /// perfect-cache bound for the triangular sweeps), when known.  GMRES
    /// attaches this as a `bytes` counter on its `precond` spans so profiled
    /// solver runs get achieved-bandwidth rows.
    fn traffic_bytes(&self) -> Option<f64> {
        None
    }
}

/// No preconditioning.
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Global ILU(k) — the single-subdomain limit.
pub struct IluPrecond {
    factors: IluFactors,
    par: ParCtx,
}

impl IluPrecond {
    /// Wrap existing factors.
    pub fn new(factors: IluFactors) -> Self {
        Self {
            factors,
            par: ParCtx::seq(),
        }
    }

    /// Factor `a` with the given options.
    pub fn factor(a: &CsrMatrix, opts: &IluOptions) -> Result<Self, IluError> {
        Ok(Self::new(IluFactors::factor(a, opts)?))
    }

    /// Apply with level-scheduled parallel triangular solves on this team
    /// (bitwise identical to the sequential sweep).
    pub fn with_par(mut self, par: ParCtx) -> Self {
        self.par = par;
        self
    }

    /// The underlying factors.
    pub fn factors(&self) -> &IluFactors {
        &self.factors
    }

    /// Refactor from a new matrix with the same pattern, keeping the
    /// symbolic analysis and level schedules (bitwise identical to a fresh
    /// [`IluPrecond::factor`]).
    pub fn refactor(&mut self, a: &CsrMatrix) -> Result<(), IluError> {
        self.factors.refactor(a)
    }
}

impl Preconditioner for IluPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.factors.solve_par(r, z, &self.par);
    }

    fn traffic_bytes(&self) -> Option<f64> {
        Some(self.factors.solve_traffic_bytes())
    }
}

/// Point-block ILU(0) on the blocked matrix — the preconditioner
/// PETSc-FUN3D applies when structural blocking is active.
pub struct BlockIluPrecond {
    factors: BlockIluFactors,
    par: ParCtx,
}

impl BlockIluPrecond {
    /// Wrap existing factors.
    pub fn new(factors: BlockIluFactors) -> Self {
        Self {
            factors,
            par: ParCtx::seq(),
        }
    }

    /// Apply with level-scheduled parallel triangular solves on this team
    /// (bitwise identical to the sequential sweep).
    pub fn with_par(mut self, par: ParCtx) -> Self {
        self.par = par;
        self
    }

    /// The underlying factors.
    pub fn factors(&self) -> &BlockIluFactors {
        &self.factors
    }

    /// Refactor from a new matrix with the same block pattern, keeping the
    /// split pattern and level schedules (bitwise identical to factoring it
    /// afresh).
    pub fn refactor(&mut self, a: &BcsrMatrix) -> Result<(), IluError> {
        self.factors.refactor(a)
    }
}

impl Preconditioner for BlockIluPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.factors.solve_par(r, z, &self.par);
    }

    fn traffic_bytes(&self) -> Option<f64> {
        Some(self.factors.solve_traffic_bytes())
    }
}

/// One Schwarz subdomain: its extended row set (owned first), the number of
/// owned rows, and the ILU factors of the local submatrix.
struct Subdomain {
    /// Global row indices, owned rows first then overlap layers.
    rows: Vec<usize>,
    /// How many of `rows` are owned.
    nowned: usize,
    factors: IluFactors,
}

/// Additive Schwarz with ILU(k) subdomain solves.
pub struct AdditiveSchwarz {
    n: usize,
    subdomains: Vec<Subdomain>,
    /// RASM: restrict corrections to owned unknowns (one communication per
    /// application instead of two).
    restricted: bool,
    overlap: usize,
}

impl AdditiveSchwarz {
    /// Build from a matrix and disjoint owned-row sets covering `0..n`.
    ///
    /// `overlap` layers are added through the matrix adjacency (PETSc's
    /// `MatIncreaseOverlap`); each extended submatrix is factored with
    /// ILU(`opts.fill_level`).  A zero pivot reports its global row.
    pub fn new(
        a: &CsrMatrix,
        owned_sets: &[Vec<usize>],
        overlap: usize,
        opts: &IluOptions,
        restricted: bool,
    ) -> Result<Self, IluError> {
        let n = a.nrows();
        debug_assert_eq!(
            owned_sets.iter().map(Vec::len).sum::<usize>(),
            n,
            "owned sets must cover all rows"
        );
        let mut subdomains = Vec::with_capacity(owned_sets.len());
        for owned in owned_sets {
            let rows = expand_rows_by_pattern(a, owned, overlap);
            let local = a.extract_principal_submatrix(&rows);
            let factors = IluFactors::factor(&local, opts).map_err(|e| global_row(e, &rows))?;
            subdomains.push(Subdomain {
                rows,
                nowned: owned.len(),
                factors,
            });
        }
        Ok(Self {
            n,
            subdomains,
            restricted,
            overlap,
        })
    }

    /// Block Jacobi: zero overlap (restriction is then irrelevant).
    pub fn block_jacobi(
        a: &CsrMatrix,
        owned_sets: &[Vec<usize>],
        opts: &IluOptions,
    ) -> Result<Self, IluError> {
        Self::new(a, owned_sets, 0, opts, true)
    }

    /// Number of subdomains.
    pub fn nsubdomains(&self) -> usize {
        self.subdomains.len()
    }

    /// The overlap this preconditioner was built with.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Total factor storage across subdomains (overlap costs memory —
    /// "both increases consume more memory").
    pub fn total_factor_nnz(&self) -> usize {
        self.subdomains.iter().map(|s| s.factors.nnz()).sum()
    }

    /// Refactor all subdomain matrices from a new global matrix with the
    /// same pattern.  A zero pivot reports its global row.
    pub fn refactor(&mut self, a: &CsrMatrix) -> Result<(), IluError> {
        for s in &mut self.subdomains {
            let local = a.extract_principal_submatrix(&s.rows);
            s.factors
                .refactor(&local)
                .map_err(|e| global_row(e, &s.rows))?;
        }
        Ok(())
    }
}

/// `e` with its subdomain row mapped through `rows` to the global row.
fn global_row(e: IluError, rows: &[usize]) -> IluError {
    let IluError::ZeroPivot(local) = e;
    IluError::ZeroPivot(rows[local])
}

impl Preconditioner for AdditiveSchwarz {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n);
        assert_eq!(z.len(), self.n);
        z.iter_mut().for_each(|v| *v = 0.0);
        let mut rl = Vec::new();
        let mut zl = Vec::new();
        for s in &self.subdomains {
            rl.clear();
            rl.extend(s.rows.iter().map(|&g| r[g]));
            zl.resize(rl.len(), 0.0);
            s.factors.solve(&rl, &mut zl);
            let take = if self.restricted {
                s.nowned
            } else {
                s.rows.len()
            };
            for (l, &g) in s.rows.iter().enumerate().take(take) {
                z[g] += zl[l];
            }
        }
    }

    fn traffic_bytes(&self) -> Option<f64> {
        Some(
            self.subdomains
                .iter()
                .map(|s| s.factors.solve_traffic_bytes())
                .sum(),
        )
    }
}

/// Blanket impl so `&P` works wherever a preconditioner is expected.
impl<P: Preconditioner + ?Sized> Preconditioner for &P {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (**self).apply(r, z);
    }

    fn traffic_bytes(&self) -> Option<f64> {
        (**self).traffic_bytes()
    }
}

/// Blanket impl so `&A` works wherever an operator is expected.
impl<A: LinearOperator + ?Sized> LinearOperator for &A {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y);
    }

    fn traffic_bytes(&self) -> Option<f64> {
        (**self).traffic_bytes()
    }
}

/// Expand a row set through the matrix pattern `levels` times; returns the
/// extended set, owned rows first (in their given order) then each layer in
/// ascending order.
fn expand_rows_by_pattern(a: &CsrMatrix, owned: &[usize], levels: usize) -> Vec<usize> {
    let mut in_set = vec![false; a.nrows()];
    for &r in owned {
        in_set[r] = true;
    }
    let mut rows = owned.to_vec();
    let mut frontier: Vec<usize> = owned.to_vec();
    for _ in 0..levels {
        let mut next = Vec::new();
        for &r in &frontier {
            for &c in a.row_cols(r) {
                let c = c as usize;
                if !in_set[c] {
                    in_set[c] = true;
                    next.push(c);
                }
            }
        }
        next.sort_unstable();
        rows.extend_from_slice(&next);
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::{gmres, GmresOptions};
    use crate::op::CsrOperator;
    use fun3d_sparse::triplet::TripletMatrix;
    use fun3d_sparse::vec_ops::norm2;

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

    fn strip_partition(n: usize, k: usize) -> Vec<Vec<usize>> {
        (0..k)
            .map(|p| (p * n / k..(p + 1) * n / k).collect())
            .collect()
    }

    fn solve_iters<P: Preconditioner>(a: &CsrMatrix, pc: &P) -> usize {
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let r = gmres(
            &CsrOperator::new(a),
            pc,
            &b,
            &mut x,
            &GmresOptions {
                restart: 30,
                rtol: 1e-8,
                max_iters: 3000,
                ..Default::default()
            },
        );
        assert!(r.converged, "{r:?}");
        // Verify the solution actually solves the system.
        let mut res = vec![0.0; n];
        a.spmv(&x, &mut res);
        for (ri, bi) in res.iter_mut().zip(&b) {
            *ri -= bi;
        }
        assert!(norm2(&res) <= 1e-7 * norm2(&b));
        r.iterations
    }

    #[test]
    fn single_subdomain_asm_equals_global_ilu() {
        let a = laplacian_2d(10);
        let n = a.nrows();
        let owned = vec![(0..n).collect::<Vec<_>>()];
        let asm = AdditiveSchwarz::block_jacobi(&a, &owned, &IluOptions::with_fill(0)).unwrap();
        let ilu = IluPrecond::factor(&a, &IluOptions::with_fill(0)).unwrap();
        let r = vec![1.0; n];
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        asm.apply(&r, &mut z1);
        ilu.apply(&r, &mut z2);
        for (u, v) in z1.iter().zip(&z2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn more_subdomains_means_more_iterations() {
        // The algorithmic degradation eta_alg of Table 3: block-iterative
        // convergence decays with block count.
        let a = laplacian_2d(20);
        let n = a.nrows();
        let mut iters = Vec::new();
        for k in [1usize, 4, 16] {
            let owned = strip_partition(n, k);
            let pc = AdditiveSchwarz::block_jacobi(&a, &owned, &IluOptions::with_fill(0)).unwrap();
            iters.push(solve_iters(&a, &pc));
        }
        assert!(
            iters[0] <= iters[1] && iters[1] <= iters[2],
            "iterations must grow with subdomains: {iters:?}"
        );
        assert!(iters[2] > iters[0], "{iters:?}");
    }

    #[test]
    fn overlap_reduces_iterations() {
        let a = laplacian_2d(20);
        let n = a.nrows();
        let owned = strip_partition(n, 8);
        let mut iters = Vec::new();
        for overlap in [0usize, 1, 2] {
            let pc =
                AdditiveSchwarz::new(&a, &owned, overlap, &IluOptions::with_fill(0), true).unwrap();
            iters.push(solve_iters(&a, &pc));
        }
        assert!(
            iters[1] <= iters[0] && iters[2] <= iters[1],
            "overlap helps convergence: {iters:?}"
        );
        assert!(iters[2] < iters[0], "{iters:?}");
    }

    #[test]
    fn fill_reduces_iterations() {
        let a = laplacian_2d(20);
        let n = a.nrows();
        let owned = strip_partition(n, 4);
        let mut iters = Vec::new();
        for fill in [0usize, 1, 2] {
            let pc =
                AdditiveSchwarz::block_jacobi(&a, &owned, &IluOptions::with_fill(fill)).unwrap();
            iters.push(solve_iters(&a, &pc));
        }
        assert!(
            iters[2] < iters[0],
            "fill improves the subdomain solves: {iters:?}"
        );
    }

    #[test]
    fn overlap_consumes_memory() {
        let a = laplacian_2d(16);
        let n = a.nrows();
        let owned = strip_partition(n, 4);
        let p0 = AdditiveSchwarz::new(&a, &owned, 0, &IluOptions::with_fill(0), true).unwrap();
        let p2 = AdditiveSchwarz::new(&a, &owned, 2, &IluOptions::with_fill(0), true).unwrap();
        assert!(
            p2.total_factor_nnz() > p0.total_factor_nnz(),
            "overlapped factors must be larger"
        );
    }

    #[test]
    fn rasm_and_asm_both_converge() {
        let a = laplacian_2d(16);
        let n = a.nrows();
        let owned = strip_partition(n, 8);
        let rasm = AdditiveSchwarz::new(&a, &owned, 1, &IluOptions::with_fill(0), true).unwrap();
        let asm = AdditiveSchwarz::new(&a, &owned, 1, &IluOptions::with_fill(0), false).unwrap();
        let ir = solve_iters(&a, &rasm);
        let ia = solve_iters(&a, &asm);
        // Both work; RASM is typically no worse than ASM.
        assert!(ir <= ia + 5, "RASM {ir} vs ASM {ia}");
    }

    #[test]
    fn refactor_tracks_matrix_changes() {
        let a = laplacian_2d(8);
        let n = a.nrows();
        let owned = strip_partition(n, 2);
        let mut pc = AdditiveSchwarz::block_jacobi(&a, &owned, &IluOptions::with_fill(0)).unwrap();
        let mut a2 = a.clone();
        a2.scale(4.0);
        pc.refactor(&a2).unwrap();
        // Preconditioner of 4A applied to r equals (1/4) * precond of A.
        let r: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let mut z_scaled = vec![0.0; n];
        pc.apply(&r, &mut z_scaled);
        let pc1 = AdditiveSchwarz::block_jacobi(&a, &owned, &IluOptions::with_fill(0)).unwrap();
        let mut z = vec![0.0; n];
        pc1.apply(&r, &mut z);
        for (u, v) in z.iter().zip(&z_scaled) {
            assert!((u - 4.0 * v).abs() < 1e-10);
        }
    }

    #[test]
    fn ilu_refactor_is_bitwise_a_fresh_factor() {
        let a = laplacian_2d(9);
        let n = a.nrows();
        let mut a2 = a.clone();
        for (k, v) in a2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * (k % 7) as f64;
        }
        let opts = IluOptions::with_fill(1);
        let mut reused = IluPrecond::factor(&a, &opts).unwrap();
        reused.refactor(&a2).unwrap();
        let fresh = IluPrecond::factor(&a2, &opts).unwrap();
        let r: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        reused.apply(&r, &mut z1);
        fresh.apply(&r, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn expand_rows_matches_graph_distance() {
        let a = laplacian_2d(5); // 25 rows, 5-point stencil
        let rows = expand_rows_by_pattern(&a, &[12], 1);
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![7, 11, 12, 13, 17]);
        assert_eq!(rows[0], 12, "owned rows stay first");
        let rows2 = expand_rows_by_pattern(&a, &[12], 2);
        assert_eq!(rows2.len(), 13); // distance-2 diamond in a 5x5 grid
    }
}
