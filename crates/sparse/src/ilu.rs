//! Incomplete LU factorization with level-of-fill — ILU(k) — and the
//! sparse triangular solves that dominate the preconditioner application.
//!
//! Two paper sections live here:
//!
//! * **Section 2.4.3 / Table 4** varies the fill level `k` in {0, 1, 2} of the
//!   subdomain solver inside the additive Schwarz preconditioner.
//! * **Section 2.2 / Table 2** stores the factors in *single precision* while
//!   performing all arithmetic in double precision: the triangular solves are
//!   memory-bandwidth bound, so halving the bytes moved nearly doubles the
//!   rate without affecting the convergence of the (already approximate)
//!   preconditioner.
//!
//! The factors are held as split L / U CSR arrays with an inverted diagonal,
//! the layout PETSc's native ILU uses so that the inner solve loops contain
//! no divisions.

use crate::csr::CsrMatrix;
use crate::par::{DisjointSliceMut, ParCtx};

/// Precision in which the factor *values* are stored.  Arithmetic is always
/// performed in `f64` (values are widened on load), exactly like the paper's
/// single-precision-storage experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrecStorage {
    /// Store factors as `f64` (8 bytes per entry).
    #[default]
    Double,
    /// Store factors as `f32` (4 bytes per entry), halving solve-phase
    /// memory traffic.
    Single,
}

/// Options controlling the incomplete factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IluOptions {
    /// Level of fill `k` in ILU(k). 0 keeps the pattern of `A`.
    pub fill_level: usize,
    /// Storage precision of the factors.
    pub storage: PrecStorage,
}

impl IluOptions {
    /// ILU(k) with double-precision storage.
    pub fn with_fill(fill_level: usize) -> Self {
        Self {
            fill_level,
            storage: PrecStorage::Double,
        }
    }
}

/// Errors from the numeric factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IluError {
    /// A zero (or denormal) pivot at the given row; the matrix needs a shift
    /// or a different ordering.
    ZeroPivot(usize),
}

impl std::fmt::Display for IluError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IluError::ZeroPivot(i) => write!(f, "zero pivot encountered at row {i}"),
        }
    }
}

impl std::error::Error for IluError {}

/// Factor values in the selected storage precision.
#[derive(Debug, Clone)]
enum FactorValues {
    F64 {
        l: Vec<f64>,
        u: Vec<f64>,
        inv_diag: Vec<f64>,
    },
    F32 {
        l: Vec<f32>,
        u: Vec<f32>,
        inv_diag: Vec<f32>,
    },
}

/// Rows bucketed by dependency depth through a triangular pattern — the
/// level sets of a level-scheduled parallel sweep.  Depends only on the
/// symbolic pattern, so it is computed once at factor time and survives
/// numeric refactorization.
#[derive(Debug, Clone, Default)]
pub(crate) struct LevelSchedule {
    /// CSR-style offsets into `rows`, length `nlevels + 1`.
    pub ptr: Vec<usize>,
    /// Row indices grouped by level.  Rows within one level have no
    /// dependencies on each other and may be processed concurrently.
    pub rows: Vec<u32>,
    /// Rows in the widest level.  When a team would not fork on it, the
    /// level walk only adds indirection to the natural-order sweep.
    pub widest: usize,
}

impl LevelSchedule {
    pub fn nlevels(&self) -> usize {
        self.ptr.len() - 1
    }

    pub fn level(&self, l: usize) -> &[u32] {
        &self.rows[self.ptr[l]..self.ptr[l + 1]]
    }
}

/// Bucket the `n` rows of a triangular pattern `(ptr, idx)` by dependency
/// depth: `depth(i) = 1 + max(depth(j))` over the rows `j` that row `i`
/// reads.  `reverse = false` walks rows ascending (forward / lower solve,
/// dependencies point down), `reverse = true` walks descending (backward /
/// upper solve, dependencies point up).
pub(crate) fn level_schedule(n: usize, ptr: &[usize], idx: &[u32], reverse: bool) -> LevelSchedule {
    let mut depth = vec![0u32; n];
    let mut nlev = 0usize;
    let row_depth = |i: usize, depth: &[u32]| -> u32 {
        let mut d = 0;
        for &j in &idx[ptr[i]..ptr[i + 1]] {
            d = d.max(depth[j as usize] + 1);
        }
        d
    };
    if reverse {
        for i in (0..n).rev() {
            let d = row_depth(i, &depth);
            depth[i] = d;
            nlev = nlev.max(d as usize + 1);
        }
    } else {
        for i in 0..n {
            let d = row_depth(i, &depth);
            depth[i] = d;
            nlev = nlev.max(d as usize + 1);
        }
    }
    // Counting sort by depth keeps rows ascending within each level.
    let mut counts = vec![0usize; nlev + 1];
    for &d in &depth {
        counts[d as usize + 1] += 1;
    }
    for l in 0..nlev {
        counts[l + 1] += counts[l];
    }
    let out_ptr = counts.clone();
    let widest = out_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let mut next = counts;
    let mut rows = vec![0u32; n];
    for (i, &d) in depth.iter().enumerate() {
        rows[next[d as usize]] = i as u32;
        next[d as usize] += 1;
    }
    LevelSchedule {
        ptr: out_ptr,
        rows,
        widest,
    }
}

/// An ILU(k) factorization `A ~= L U` with unit-diagonal `L` and inverted
/// stored diagonal of `U`.
#[derive(Debug, Clone)]
pub struct IluFactors {
    n: usize,
    fill_level: usize,
    /// Strictly-lower pattern, per row.
    l_ptr: Vec<usize>,
    l_idx: Vec<u32>,
    /// Strictly-upper pattern, per row.
    u_ptr: Vec<usize>,
    u_idx: Vec<u32>,
    vals: FactorValues,
    /// Level sets for the parallel forward (L) and backward (U) sweeps,
    /// widest level included.  Pattern-only, so `refactor` keeps them.
    l_levels: LevelSchedule,
    u_levels: LevelSchedule,
}

impl IluFactors {
    /// Compute the ILU(k) factorization of a square CSR matrix.
    pub fn factor(a: &CsrMatrix, opts: &IluOptions) -> Result<Self, IluError> {
        assert_eq!(a.nrows(), a.ncols(), "ILU requires a square matrix");
        let n = a.nrows();
        let (l_ptr, l_idx, u_ptr, u_idx) = symbolic_iluk(a, opts.fill_level);
        let l_levels = level_schedule(n, &l_ptr, &l_idx, false);
        let u_levels = level_schedule(n, &u_ptr, &u_idx, true);
        let mut me = Self {
            n,
            fill_level: opts.fill_level,
            l_ptr,
            l_idx,
            u_ptr,
            u_idx,
            vals: FactorValues::F64 {
                l: Vec::new(),
                u: Vec::new(),
                inv_diag: Vec::new(),
            },
            l_levels,
            u_levels,
        };
        me.refactor_with_storage(a, opts.storage)?;
        Ok(me)
    }

    /// Recompute numeric values on the existing symbolic pattern (the paper's
    /// "refresh frequency for Jacobian preconditioner" knob relies on cheap
    /// refactorization).
    pub fn refactor(&mut self, a: &CsrMatrix) -> Result<(), IluError> {
        let storage = match &self.vals {
            FactorValues::F64 { .. } => PrecStorage::Double,
            FactorValues::F32 { .. } => PrecStorage::Single,
        };
        self.refactor_with_storage(a, storage)
    }

    fn refactor_with_storage(
        &mut self,
        a: &CsrMatrix,
        storage: PrecStorage,
    ) -> Result<(), IluError> {
        let n = self.n;
        assert_eq!(a.nrows(), n, "refactor dimension mismatch");
        let mut lvals = vec![0.0f64; self.l_idx.len()];
        let mut uvals = vec![0.0f64; self.u_idx.len()];
        let mut inv_diag = vec![0.0f64; n];

        // Dense work row with a stamp-based membership mask.
        let mut w = vec![0.0f64; n];
        let mut stamp = vec![usize::MAX; n];

        for i in 0..n {
            // Scatter the pattern of row i.
            let lr = self.l_ptr[i]..self.l_ptr[i + 1];
            let ur = self.u_ptr[i]..self.u_ptr[i + 1];
            for &j in self.l_idx[lr.clone()].iter().chain(&self.u_idx[ur.clone()]) {
                stamp[j as usize] = i;
                w[j as usize] = 0.0;
            }
            stamp[i] = i;
            w[i] = 0.0;
            // Scatter A's row i (entries outside the pattern cannot exist:
            // the symbolic pattern contains A's pattern).
            for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                w[c as usize] = v;
            }
            // Eliminate using previously factored rows, ascending column order
            // (l_idx rows are sorted by construction).
            for &k in &self.l_idx[lr.clone()] {
                let k = k as usize;
                let lik = w[k] * inv_diag[k];
                w[k] = lik;
                // Update against U row k, dropping fill outside the pattern.
                let uk = self.u_ptr[k]..self.u_ptr[k + 1];
                for (&j, &ukj) in self.u_idx[uk.clone()].iter().zip(&uvals[uk]) {
                    let j = j as usize;
                    if stamp[j] == i {
                        w[j] -= lik * ukj;
                    }
                }
            }
            let piv = w[i];
            // Negated on purpose: a NaN pivot must also take the error path.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(piv.abs() > f64::MIN_POSITIVE) {
                return Err(IluError::ZeroPivot(i));
            }
            inv_diag[i] = 1.0 / piv;
            for li in lr {
                lvals[li] = w[self.l_idx[li] as usize];
            }
            for ui in ur {
                uvals[ui] = w[self.u_idx[ui] as usize];
            }
        }

        self.vals = match storage {
            PrecStorage::Double => FactorValues::F64 {
                l: lvals,
                u: uvals,
                inv_diag,
            },
            PrecStorage::Single => FactorValues::F32 {
                l: lvals.iter().map(|&v| v as f32).collect(),
                u: uvals.iter().map(|&v| v as f32).collect(),
                inv_diag: inv_diag.iter().map(|&v| v as f32).collect(),
            },
        };
        Ok(())
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The fill level this factorization was built with.
    pub fn fill_level(&self) -> usize {
        self.fill_level
    }

    /// The precision the factor values are stored in.
    pub fn storage(&self) -> PrecStorage {
        match &self.vals {
            FactorValues::F64 { .. } => PrecStorage::Double,
            FactorValues::F32 { .. } => PrecStorage::Single,
        }
    }

    /// Whether this factorization can serve as a symbolic template for
    /// factoring matrices with `opts` via clone + [`IluFactors::refactor`]:
    /// same dimension, fill level, and storage precision.  The caller must
    /// additionally guarantee the matrix *pattern* matches the one this was
    /// factored from (e.g. Jacobians of the same mesh family and layout);
    /// the numeric refactorization is then bitwise identical to a fresh
    /// [`IluFactors::factor`], with the symbolic analysis skipped.
    pub fn is_template_for(&self, n: usize, opts: &IluOptions) -> bool {
        self.n == n && self.fill_level == opts.fill_level && self.storage() == opts.storage
    }

    /// Total stored entries (L + U + diagonal).
    pub fn nnz(&self) -> usize {
        self.l_idx.len() + self.u_idx.len() + self.n
    }

    /// Bytes occupied by factor values — the quantity the single-precision
    /// experiment halves.
    pub fn value_bytes(&self) -> usize {
        match &self.vals {
            FactorValues::F64 { .. } => self.nnz() * 8,
            FactorValues::F32 { .. } => self.nnz() * 4,
        }
    }

    /// Analytic bytes moved by one triangular solve (forward + backward):
    /// every factor value is touched exactly once (4 or 8 B each per
    /// [`Self::value_bytes`]), each off-diagonal entry carries a 4-byte
    /// column index, the two row-pointer arrays stream once, and `x` is
    /// read and written through both sweeps (Section 2.2's
    /// bandwidth-bound loop).
    pub fn solve_traffic_bytes(&self) -> f64 {
        let n = self.n as f64;
        let offdiag = (self.l_idx.len() + self.u_idx.len()) as f64;
        self.value_bytes() as f64 + 4.0 * offdiag + 2.0 * 8.0 * (n + 1.0) + 4.0 * 8.0 * n
    }

    /// Strictly-lower pattern arrays `(ptr, idx)`.
    pub fn l_pattern(&self) -> (&[usize], &[u32]) {
        (&self.l_ptr, &self.l_idx)
    }

    /// Strictly-upper pattern arrays `(ptr, idx)`.
    pub fn u_pattern(&self) -> (&[usize], &[u32]) {
        (&self.u_ptr, &self.u_idx)
    }

    /// Apply the preconditioner: `x <- U^{-1} L^{-1} b`.
    pub fn solve(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        assert_eq!(x.len(), self.n);
        x.copy_from_slice(b);
        self.solve_in_place(x);
    }

    /// In-place triangular solves. This is the memory-bandwidth-bound loop of
    /// Section 2.2: each factor value is touched exactly once per solve.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        match &self.vals {
            FactorValues::F64 { l, u, inv_diag } => tri_solve(
                &self.l_ptr,
                &self.l_idx,
                l,
                &self.u_ptr,
                &self.u_idx,
                u,
                inv_diag,
                x,
            ),
            FactorValues::F32 { l, u, inv_diag } => tri_solve(
                &self.l_ptr,
                &self.l_idx,
                l,
                &self.u_ptr,
                &self.u_idx,
                u,
                inv_diag,
                x,
            ),
        }
    }

    /// Number of dependency levels in the (forward, backward) sweeps.  The
    /// available solve-phase parallelism is `n / max(levels)` rows per
    /// level on average.
    pub fn level_counts(&self) -> (usize, usize) {
        (self.l_levels.nlevels(), self.u_levels.nlevels())
    }

    /// Parallel [`solve`](Self::solve) via level-scheduled sweeps.
    pub fn solve_par(&self, b: &[f64], x: &mut [f64], ctx: &ParCtx) {
        assert_eq!(b.len(), self.n);
        assert_eq!(x.len(), self.n);
        x.copy_from_slice(b);
        self.solve_in_place_par(x, ctx);
    }

    /// Level-scheduled parallel [`solve_in_place`](Self::solve_in_place):
    /// rows are swept level by level (levels computed at factor time from
    /// the symbolic pattern); rows within a level have no mutual
    /// dependencies and are partitioned across the team.  Each `x[i]` is
    /// produced by the exact sequential row loop, so the result is bitwise
    /// identical for any thread count.  When no level is wide enough for
    /// `ctx` to fork on, the natural-order sequential sweep runs instead.
    pub fn solve_in_place_par(&self, x: &mut [f64], ctx: &ParCtx) {
        if !(ctx.forks(self.l_levels.widest) || ctx.forks(self.u_levels.widest)) {
            return self.solve_in_place(x);
        }
        self.solve_in_place_levels(x, ctx);
    }

    /// The level walk of [`Self::solve_in_place_par`], whether or not any
    /// level forks.
    pub(crate) fn solve_in_place_levels(&self, x: &mut [f64], ctx: &ParCtx) {
        match &self.vals {
            FactorValues::F64 { l, u, inv_diag } => self.tri_solve_par(l, u, inv_diag, x, ctx),
            FactorValues::F32 { l, u, inv_diag } => self.tri_solve_par(l, u, inv_diag, x, ctx),
        }
    }

    fn tri_solve_par<T: WidenToF64 + Sync>(
        &self,
        lvals: &[T],
        uvals: &[T],
        inv_diag: &[T],
        x: &mut [f64],
        ctx: &ParCtx,
    ) {
        let view = DisjointSliceMut::new(x);
        // Forward: L y = b.  Every row in a level writes only its own x[i]
        // and reads x[j] finalized in an earlier level.
        for lev in 0..self.l_levels.nlevels() {
            let rows = self.l_levels.level(lev);
            ctx.parallel_for("ilu_lower", rows.len(), |_, r| {
                for &iu in &rows[r] {
                    let i = iu as usize;
                    // SAFETY: rows within a level are distinct (each writes
                    // only index i) and l_idx reads were finalized by the
                    // barrier at the end of the previous level.
                    unsafe {
                        let mut s = view.get(i);
                        for k in self.l_ptr[i]..self.l_ptr[i + 1] {
                            s -= lvals[k].widen() * view.get(self.l_idx[k] as usize);
                        }
                        view.set(i, s);
                    }
                }
            });
        }
        // Backward: U x = y.
        for lev in 0..self.u_levels.nlevels() {
            let rows = self.u_levels.level(lev);
            ctx.parallel_for("ilu_upper", rows.len(), |_, r| {
                for &iu in &rows[r] {
                    let i = iu as usize;
                    // SAFETY: as above, with dependencies pointing upward.
                    unsafe {
                        let mut s = view.get(i);
                        for k in self.u_ptr[i]..self.u_ptr[i + 1] {
                            s -= uvals[k].widen() * view.get(self.u_idx[k] as usize);
                        }
                        view.set(i, s * inv_diag[i].widen());
                    }
                }
            });
        }
    }
}

/// Scalar that can be widened to `f64` on load — the "store narrow, compute
/// wide" trick of Table 2.
pub trait WidenToF64: Copy {
    /// Widen to f64.
    fn widen(self) -> f64;
}

impl WidenToF64 for f64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }
}

impl WidenToF64 for f32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }
}

#[allow(clippy::too_many_arguments)]
fn tri_solve<T: WidenToF64>(
    l_ptr: &[usize],
    l_idx: &[u32],
    lvals: &[T],
    u_ptr: &[usize],
    u_idx: &[u32],
    uvals: &[T],
    inv_diag: &[T],
    x: &mut [f64],
) {
    let n = inv_diag.len();
    // Forward: L y = b (unit diagonal).
    for i in 0..n {
        let mut s = x[i];
        for k in l_ptr[i]..l_ptr[i + 1] {
            s -= lvals[k].widen() * x[l_idx[k] as usize];
        }
        x[i] = s;
    }
    // Backward: U x = y.
    for i in (0..n).rev() {
        let mut s = x[i];
        for k in u_ptr[i]..u_ptr[i + 1] {
            s -= uvals[k].widen() * x[u_idx[k] as usize];
        }
        x[i] = s * inv_diag[i].widen();
    }
}

/// Level-of-fill symbolic factorization.  Returns the strictly-lower and
/// strictly-upper patterns (`(l_ptr, l_idx, u_ptr, u_idx)`), rows sorted
/// ascending.
///
/// Standard ILU(k) level rule: an entry `(i, j)` created while eliminating
/// pivot `k` gets `level(i,j) = min(level(i,j), level(i,k) + level(k,j) + 1)`
/// and is kept iff its level is `<= fill`.
fn symbolic_iluk(a: &CsrMatrix, fill: usize) -> (Vec<usize>, Vec<u32>, Vec<usize>, Vec<u32>) {
    let n = a.nrows();
    // Retained upper-pattern rows with levels, needed while factoring later rows.
    let mut urows: Vec<Vec<(u32, u16)>> = Vec::with_capacity(n);
    let mut l_ptr = Vec::with_capacity(n + 1);
    let mut l_idx: Vec<u32> = Vec::new();
    let mut u_ptr = Vec::with_capacity(n + 1);
    let mut u_idx: Vec<u32> = Vec::new();
    l_ptr.push(0);
    u_ptr.push(0);

    // Dense level workspace, stamped per row.
    let mut lev = vec![u16::MAX; n];
    let mut stamp = vec![usize::MAX; n];

    for i in 0..n {
        // Sorted active column list for this row (always kept sorted).
        let mut cols: Vec<u32> = Vec::with_capacity(a.row_cols(i).len() * (fill + 1) + 4);
        for &c in a.row_cols(i) {
            cols.push(c);
            lev[c as usize] = 0;
            stamp[c as usize] = i;
        }
        if stamp[i] != i {
            // Ensure a structural diagonal.
            cols.push(i as u32);
            lev[i] = 0;
            stamp[i] = i;
        }
        cols.sort_unstable();

        // Process pivots in ascending order; `cols` may grow behind the
        // cursor's position only with columns > current pivot, so a simple
        // index walk is safe as long as we re-scan insert positions.
        let mut ci = 0;
        while ci < cols.len() {
            let k = cols[ci] as usize;
            if k >= i {
                break;
            }
            let lev_ik = lev[k];
            // Merge U-row k.
            for &(j, lev_kj) in &urows[k] {
                let ju = j as usize;
                let new_lev = lev_ik as u32 + lev_kj as u32 + 1;
                if new_lev > fill as u32 {
                    continue;
                }
                let new_lev = new_lev as u16;
                if stamp[ju] == i {
                    if new_lev < lev[ju] {
                        lev[ju] = new_lev;
                    }
                } else {
                    stamp[ju] = i;
                    lev[ju] = new_lev;
                    // Insert keeping `cols` sorted; j > k >= cols[ci] so the
                    // insertion point is after the cursor.
                    let ins = match cols[ci + 1..].binary_search(&j) {
                        Ok(p) | Err(p) => ci + 1 + p,
                    };
                    cols.insert(ins, j);
                }
            }
            ci += 1;
        }

        // Emit the row pattern.
        let mut urow: Vec<(u32, u16)> = Vec::new();
        for &c in &cols {
            let cu = c as usize;
            match cu.cmp(&i) {
                std::cmp::Ordering::Less => l_idx.push(c),
                std::cmp::Ordering::Equal => {}
                std::cmp::Ordering::Greater => {
                    u_idx.push(c);
                    urow.push((c, lev[cu]));
                }
            }
        }
        l_ptr.push(l_idx.len());
        u_ptr.push(u_idx.len());
        urows.push(urow);
    }
    (l_ptr, l_idx, u_ptr, u_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;
    use crate::vec_ops::norm2;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// A diagonally dominant random sparse matrix (1-D Laplacian-ish plus
    /// random couplings).
    fn dd_matrix(n: usize, seed: u64) -> CsrMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            let mut offdiag_sum = 0.0;
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j != i {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    t.push(i, j, v);
                    offdiag_sum += v.abs();
                }
            }
            if i > 0 {
                t.push(i, i - 1, -1.0);
                offdiag_sum += 1.0;
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                offdiag_sum += 1.0;
            }
            t.push(i, i, offdiag_sum + 1.0);
        }
        t.to_csr()
    }

    /// Tridiagonal SPD matrix: ILU(0) == exact LU (no fill exists).
    fn tridiag(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        t.to_csr()
    }

    fn residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.spmv(x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri -= bi;
        }
        norm2(&r)
    }

    #[test]
    fn ilu0_on_tridiagonal_is_exact() {
        let n = 50;
        let a = tridiag(n);
        let f = IluFactors::factor(&a, &IluOptions::with_fill(0)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut x = vec![0.0; n];
        f.solve(&b, &mut x);
        assert!(
            residual(&a, &x, &b) < 1e-10,
            "tridiagonal ILU(0) must solve exactly"
        );
    }

    #[test]
    fn higher_fill_gives_better_preconditioner() {
        let n = 120;
        let a = dd_matrix(n, 5);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut errs = Vec::new();
        for k in 0..3 {
            let f = IluFactors::factor(&a, &IluOptions::with_fill(k)).unwrap();
            let mut x = vec![0.0; n];
            f.solve(&b, &mut x);
            errs.push(residual(&a, &x, &b));
        }
        assert!(
            errs[2] <= errs[0] * 1.5,
            "ILU(2) should be no worse than ILU(0): {errs:?}"
        );
    }

    #[test]
    fn fill_pattern_is_monotone_in_k() {
        let a = dd_matrix(80, 11);
        let mut last = 0;
        for k in 0..4 {
            let f = IluFactors::factor(&a, &IluOptions::with_fill(k)).unwrap();
            assert!(
                f.nnz() >= last,
                "ILU({k}) pattern must contain ILU({}) pattern",
                k - 1
            );
            last = f.nnz();
        }
    }

    #[test]
    fn ilu0_pattern_matches_matrix() {
        let a = dd_matrix(60, 3);
        let f = IluFactors::factor(&a, &IluOptions::with_fill(0)).unwrap();
        // nnz(L)+nnz(U)+n == nnz(A) when A has a full structural diagonal.
        assert_eq!(f.nnz(), a.nnz());
    }

    #[test]
    fn single_precision_storage_close_to_double() {
        let n = 100;
        let a = dd_matrix(n, 17);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let fd = IluFactors::factor(&a, &IluOptions::with_fill(1)).unwrap();
        let fs = IluFactors::factor(
            &a,
            &IluOptions {
                fill_level: 1,
                storage: PrecStorage::Single,
            },
        )
        .unwrap();
        let mut xd = vec![0.0; n];
        let mut xs = vec![0.0; n];
        fd.solve(&b, &mut xd);
        fs.solve(&b, &mut xs);
        let diff: f64 = xd
            .iter()
            .zip(&xs)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        let scale = xd.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(
            diff / scale < 1e-4,
            "f32 storage should be a small perturbation: {diff}"
        );
        assert_eq!(fs.value_bytes() * 2, fd.value_bytes());
    }

    #[test]
    fn refactor_reuses_pattern() {
        let n = 60;
        let a = dd_matrix(n, 23);
        let mut f = IluFactors::factor(&a, &IluOptions::with_fill(1)).unwrap();
        let nnz = f.nnz();
        // Scale the matrix; refactor; solve should now reflect the new values.
        let mut a2 = a.clone();
        a2.scale(2.0);
        f.refactor(&a2).unwrap();
        assert_eq!(f.nnz(), nnz);
        let b = vec![1.0; n];
        let mut x2 = vec![0.0; n];
        f.solve(&b, &mut x2);
        let f1 = IluFactors::factor(&a, &IluOptions::with_fill(1)).unwrap();
        let mut x1 = vec![0.0; n];
        f1.solve(&b, &mut x1);
        for (u, v) in x1.iter().zip(&x2) {
            assert!(
                (u - 2.0 * v).abs() < 1e-12,
                "scaling A by 2 halves the solution"
            );
        }
    }

    #[test]
    fn zero_pivot_is_reported() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 0.0);
        t.push(1, 1, 1.0);
        let a = t.to_csr();
        match IluFactors::factor(&a, &IluOptions::default()) {
            Err(IluError::ZeroPivot(0)) => {}
            other => panic!("expected zero pivot at row 0, got {other:?}"),
        }
    }

    #[test]
    fn missing_structural_diagonal_is_added() {
        // Row 1 has no diagonal entry in A; the symbolic phase must add one
        // (it will be numerically filled by elimination).
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 2, 1.0);
        t.push(2, 1, 1.0);
        t.push(2, 2, 2.0);
        let a = t.to_csr();
        // ILU(1): eliminating row 1 against row 0 creates (1,1) fill.
        let f = IluFactors::factor(&a, &IluOptions::with_fill(1)).unwrap();
        assert!(f.n() == 3);
    }

    #[test]
    fn tridiagonal_levels_are_chains() {
        // Every row of a tridiagonal L depends on the previous one: the
        // forward schedule degenerates to n levels of one row each, and the
        // parallel sweep must still be correct (it just runs sequentially).
        let n = 20;
        let a = tridiag(n);
        let f = IluFactors::factor(&a, &IluOptions::with_fill(0)).unwrap();
        assert_eq!(f.level_counts(), (n, n));
    }

    #[test]
    fn diagonal_matrix_is_one_level() {
        let a = CsrMatrix::identity(8);
        let f = IluFactors::factor(&a, &IluOptions::with_fill(0)).unwrap();
        assert_eq!(f.level_counts(), (1, 1));
    }

    #[test]
    fn widest_level_decides_the_level_walk_and_survives_refactor() {
        use crate::par::{forked_regions, ParCtx, PAR_MIN_N};
        let n = PAR_MIN_N + 10;
        let team = ParCtx::new(2);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut x = vec![0.0; n];
        let forks = |f: &IluFactors, x: &mut [f64], ctx: &ParCtx| {
            let before = forked_regions();
            f.solve_par(&b, x, ctx);
            forked_regions() - before
        };
        // Diagonal: a single level of n rows, wide enough to fork on.
        let mut d = IluFactors::factor(&CsrMatrix::identity(n), &IluOptions::default()).unwrap();
        assert_eq!((d.l_levels.widest, d.u_levels.widest), (n, n));
        let mut a2 = CsrMatrix::identity(n);
        a2.scale(2.0);
        d.refactor(&a2).unwrap();
        assert_eq!((d.l_levels.widest, d.u_levels.widest), (n, n));
        assert_eq!(forks(&d, &mut x, &team), 2, "one level per sweep");
        assert_eq!(forks(&d, &mut x, &ParCtx::seq()), 0);
        // Tridiagonal: chains of one row, so a team sweeps in natural order.
        let t = IluFactors::factor(&tridiag(n), &IluOptions::default()).unwrap();
        assert_eq!((t.l_levels.widest, t.u_levels.widest), (1, 1));
        assert!(!team.forks(t.l_levels.widest) && !team.forks(t.u_levels.widest));
        assert_eq!(forks(&t, &mut x, &team), 0);
    }

    #[test]
    fn level_schedule_orders_dependencies() {
        let n = 120;
        let a = dd_matrix(n, 41);
        let f = IluFactors::factor(&a, &IluOptions::with_fill(1)).unwrap();
        // Forward: every dependency of a row must sit in an earlier level.
        let mut level_of = vec![usize::MAX; n];
        for lev in 0..f.l_levels.nlevels() {
            for &i in f.l_levels.level(lev) {
                level_of[i as usize] = lev;
            }
        }
        for i in 0..n {
            for k in f.l_ptr[i]..f.l_ptr[i + 1] {
                let j = f.l_idx[k] as usize;
                assert!(level_of[j] < level_of[i], "dep ({i},{j}) not ordered");
            }
        }
    }

    #[test]
    fn parallel_solve_is_bitwise_sequential() {
        use crate::par::ParCtx;
        for (n, seed, fill) in [(150usize, 19u64, 0usize), (300, 23, 1)] {
            let a = dd_matrix(n, seed);
            for storage in [PrecStorage::Double, PrecStorage::Single] {
                let f = IluFactors::factor(
                    &a,
                    &IluOptions {
                        fill_level: fill,
                        storage,
                    },
                )
                .unwrap();
                let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
                let mut xs = vec![0.0; n];
                f.solve(&b, &mut xs);
                for nthreads in [1usize, 2, 3, 8, 301] {
                    let ctx = ParCtx::new(nthreads);
                    let mut xp = vec![0.0; n];
                    f.solve_par(&b, &mut xp, &ctx);
                    assert_eq!(xs, xp, "n={n} fill={fill} nthreads={nthreads}");
                    // The level walk itself, which `solve_par` skips on
                    // levels this narrow.
                    xp.copy_from_slice(&b);
                    f.solve_in_place_levels(&mut xp, &ctx);
                    assert_eq!(xs, xp, "levels n={n} fill={fill} nthreads={nthreads}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// The level walk equals the natural-order sweep bit for bit on
        /// random ILU(0)/ILU(1) patterns (empty rows, wide and chained
        /// levels) in both storages, at every team size.
        #[test]
        fn level_walk_is_bitwise_sequential(
            n in 1usize..60,
            fill in 0usize..2,
            storage in 0usize..2,
            entries in proptest::collection::vec((0usize..60, 0usize..60, -1.0f64..1.0), 0..150),
        ) {
            use crate::par::ParCtx;
            let mut t = TripletMatrix::new(n, n);
            let mut rowsum = vec![0.0f64; n];
            for &(i, j, v) in &entries {
                if i < n && j < n && i != j {
                    t.push(i, j, v);
                    rowsum[i] += v.abs();
                }
            }
            for (i, s) in rowsum.iter().enumerate() {
                t.push(i, i, s + 1.0);
            }
            let storage = [PrecStorage::Double, PrecStorage::Single][storage];
            let opts = IluOptions { fill_level: fill, storage };
            let f = IluFactors::factor(&t.to_csr(), &opts).unwrap();
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();
            let mut xs = vec![0.0; n];
            f.solve(&rhs, &mut xs);
            for nthreads in [1usize, 2, 3, 7] {
                let mut xp = rhs.clone();
                f.solve_in_place_levels(&mut xp, &ParCtx::new(nthreads));
                proptest::prop_assert_eq!(&xs, &xp, "fill={} nthreads={}", fill, nthreads);
            }
        }
    }

    #[test]
    fn solve_matches_dense_reference_high_fill() {
        // With fill >= n, ILU == complete LU, so the solve is exact.
        let n = 30;
        let a = dd_matrix(n, 31);
        let f = IluFactors::factor(&a, &IluOptions::with_fill(n)).unwrap();
        let xtrue: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xtrue, &mut b);
        let mut x = vec![0.0; n];
        f.solve(&b, &mut x);
        for (u, v) in x.iter().zip(&xtrue) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }
}
