//! Compressed sparse row (CSR) storage — the PETSc `AIJ` analogue.
//!
//! CSR is the point-wise (non-blocked) format the paper's Table 1 baseline
//! uses.  Column indices are stored as `u32`: at the meshes considered (up to
//! 2.8M vertices x 5 unknowns = 14M rows) 32-bit indices suffice, and the
//! integer-load traffic of the index array is itself one of the quantities the
//! paper's SpMV model accounts for.
//!
//! A matrix is a [`CsrPattern`] (dimensions, row pointer, column indices)
//! plus its own value array.  The pattern is immutable and reference
//! counted: it is validated once when built, clones of a matrix share it,
//! and [`CsrMatrix::from_pattern`] puts fresh values on an existing pattern
//! after checking only their count — the way PETSc assembles every Newton
//! step into one preallocated matrix.  Values are never shared.  The
//! pattern also caches each row's diagonal position (PETSc's `a->diag`),
//! found on the first diagonal shift, so the per-step pseudo-timestep shift
//! is one pass over the rows instead of a binary search per row, and its
//! block size ([`CsrPattern::block_size`]): the size of the dense, aligned
//! blocks it is made of, found on first use.

use std::sync::{Arc, OnceLock};

/// The immutable sparsity pattern of a [`CsrMatrix`]: a cheap handle that
/// matrices on the same structure share.
///
/// Equality compares contents, so patterns built separately from equal
/// arrays are equal; [`CsrPattern::ptr_eq`] tells whether two handles are
/// the same pattern.
#[derive(Debug, Clone)]
pub struct CsrPattern(Arc<PatternData>);

#[derive(Debug)]
struct PatternData {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    /// Per row: the position of its diagonal entry in `col_idx`, or
    /// [`NO_DIAG`].  Found on the first diagonal shift, never at
    /// construction, so patterns that are never shifted pay nothing.
    diag: OnceLock<Box<[usize]>>,
    /// [`CsrPattern::block_size`], found on its first call.
    block_size: OnceLock<usize>,
}

/// Diagonal-cache marker for a row without a stored diagonal entry.
const NO_DIAG: usize = usize::MAX;

/// The block sizes [`CsrPattern::block_size`] detects, largest first: the
/// unknowns per vertex of the compressible (5) and incompressible (4)
/// models, and the smaller sizes the block kernels unroll.
const DETECTED_BLOCK_SIZES: [usize; 4] = [5, 4, 3, 2];

impl CsrPattern {
    /// Build a pattern from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong lengths, non-monotone row
    /// pointers, or column indices out of range).
    pub fn new(nrows: usize, ncols: usize, row_ptr: Vec<usize>, col_idx: Vec<u32>) -> Self {
        assert_eq!(
            row_ptr.len(),
            nrows + 1,
            "row_ptr must have nrows+1 entries"
        );
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr end != nnz"
        );
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr not monotone"
        );
        assert!(
            col_idx.iter().all(|&c| (c as usize) < ncols),
            "column index out of range"
        );
        Self(Arc::new(PatternData {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            diag: OnceLock::new(),
            block_size: OnceLock::new(),
        }))
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.0.col_idx.len()
    }

    /// Whether `a` and `b` are handles to the same pattern (not merely
    /// equal ones).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Each row's diagonal position in the column-index array, found once
    /// per pattern by the same binary search within the row that
    /// [`CsrMatrix::get`] does.
    fn diag(&self) -> &[usize] {
        self.0.diag.get_or_init(|| {
            let d = &*self.0;
            (0..d.nrows)
                .map(|i| {
                    let lo = d.row_ptr[i];
                    match d.col_idx[lo..d.row_ptr[i + 1]].binary_search(&(i as u32)) {
                        Ok(k) => lo + k,
                        Err(_) => NO_DIAG,
                    }
                })
                .collect()
        })
    }

    /// Whether the pattern is made of dense, aligned `b x b` blocks: `b`
    /// divides both dimensions, and the `b` rows of each block row list
    /// the same columns, in ascending runs of `b` consecutive columns that
    /// each start at a multiple of `b`.  Point row `bi*b + r` then lists
    /// row `r` of each block of block row `bi`, in order, and a BCSR copy
    /// with block size `b` stores no padding.  A block row with no entries
    /// has no blocks, which counts as blocked.
    pub fn is_blocked(&self, b: usize) -> bool {
        let d = &*self.0;
        b >= 1
            && d.nrows.is_multiple_of(b)
            && d.ncols.is_multiple_of(b)
            && (0..d.nrows / b).all(|bi| self.is_blocked_row(bi, b))
    }

    /// [`Self::is_blocked`] for block row `bi` alone.
    fn is_blocked_row(&self, bi: usize, b: usize) -> bool {
        let d = &*self.0;
        let row = |i: usize| &d.col_idx[d.row_ptr[i]..d.row_ptr[i + 1]];
        let first = row(bi * b);
        if !first.len().is_multiple_of(b) {
            return false;
        }
        let mut next = 0; // the smallest start the next run may have
        for run in first.chunks_exact(b) {
            let start = run[0] as usize;
            if start < next
                || !start.is_multiple_of(b)
                || run.iter().zip(start..).any(|(&c, want)| c as usize != want)
            {
                return false;
            }
            next = start + b;
        }
        (bi * b + 1..(bi + 1) * b).all(|i| row(i) == first)
    }

    /// The size of the dense blocks the pattern is made of: the largest
    /// `b` in 2..=5 for which it [`is_blocked`](Self::is_blocked), or 1
    /// when there is none or the pattern stores no entry.  An interlaced
    /// Jacobian with `b` unknowns per vertex has block size `b` (unless its
    /// vertex blocks line up into larger ones), a segregated one 1.  Found
    /// on the first call and cached, like the diagonal positions.
    pub fn block_size(&self) -> usize {
        *self.0.block_size.get_or_init(|| {
            if self.nnz() == 0 {
                return 1;
            }
            DETECTED_BLOCK_SIZES
                .into_iter()
                .find(|&b| self.is_blocked(b))
                .unwrap_or(1)
        })
    }
}

impl PartialEq for CsrPattern {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        Self::ptr_eq(self, other)
            || (a.nrows == b.nrows
                && a.ncols == b.ncols
                && a.row_ptr == b.row_ptr
                && a.col_idx == b.col_idx)
    }
}

/// A sparse matrix in compressed sparse row format with `f64` values.
///
/// Clones share the pattern and copy the values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    pattern: CsrPattern,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong lengths, non-monotone row
    /// pointers, or column indices out of range).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(
            row_ptr.len(),
            nrows + 1,
            "row_ptr must have nrows+1 entries"
        );
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx/values length mismatch"
        );
        Self::from_pattern(&CsrPattern::new(nrows, ncols, row_ptr, col_idx), values)
    }

    /// A matrix with `values` on an existing `pattern`, which it shares:
    /// only the value count is checked.
    ///
    /// # Panics
    /// Panics if `values` does not hold one value per stored entry.
    pub fn from_pattern(pattern: &CsrPattern, values: Vec<f64>) -> Self {
        assert_eq!(
            pattern.nnz(),
            values.len(),
            "col_idx/values length mismatch"
        );
        Self {
            pattern: pattern.clone(),
            values,
        }
    }

    /// The sparsity pattern (shared with clones and with every matrix built
    /// on it by [`from_pattern`](Self::from_pattern)).
    pub fn pattern(&self) -> &CsrPattern {
        &self.pattern
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_raw(
            n,
            n,
            (0..=n).collect(),
            (0..n as u32).collect(),
            vec![1.0; n],
        )
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.pattern.0.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.pattern.0.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row pointer array (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.pattern.0.row_ptr
    }

    /// The column index array (length `nnz`).
    pub fn col_idx(&self) -> &[u32] {
        &self.pattern.0.col_idx
    }

    /// The value array (length `nnz`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (the sparsity pattern is fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Column indices of row `i`.
    pub fn row_cols(&self, i: usize) -> &[u32] {
        let row_ptr = self.row_ptr();
        &self.col_idx()[row_ptr[i]..row_ptr[i + 1]]
    }

    /// Values of row `i`.
    pub fn row_vals(&self, i: usize) -> &[f64] {
        let row_ptr = self.row_ptr();
        &self.values[row_ptr[i]..row_ptr[i + 1]]
    }

    /// Entry `(i, j)`, or `0.0` when not stored. Binary search within the row
    /// (rows are kept sorted by the builders).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let cols = self.row_cols(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => self.row_vals(i)[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix-vector product `y <- A x`.
    ///
    /// This is the kernel whose cache behaviour Section 2.1.1 models; its
    /// reference stream is: the row pointer (streamed), the column indices
    /// (streamed), the values (streamed), and the gathered entries of `x`
    /// (indexed — the locality-sensitive part).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols(), "spmv x length mismatch");
        assert_eq!(y.len(), self.nrows(), "spmv y length mismatch");
        let (row_ptr, col_idx) = (self.row_ptr(), self.col_idx());
        for i in 0..self.nrows() {
            let lo = row_ptr[i];
            let hi = row_ptr[i + 1];
            let mut sum = 0.0;
            for k in lo..hi {
                sum += self.values[k] * x[col_idx[k] as usize];
            }
            y[i] = sum;
        }
    }

    /// Row-partitioned parallel [`spmv`](Self::spmv): each thread computes
    /// the rows of its contiguous chunk into the matching disjoint slice of
    /// `y`.  Every `y[i]` is the same left-to-right row sum as the
    /// sequential kernel, so the result is bitwise identical for any thread
    /// count.
    pub fn spmv_par(&self, x: &[f64], y: &mut [f64], ctx: &crate::par::ParCtx) {
        assert_eq!(x.len(), self.ncols(), "spmv x length mismatch");
        assert_eq!(y.len(), self.nrows(), "spmv y length mismatch");
        if ctx.nthreads() == 1 {
            return self.spmv(x, y);
        }
        let (row_ptr, col_idx) = (self.row_ptr(), self.col_idx());
        ctx.parallel_for_slices("spmv_csr", y, 1, |_, rows, ysub| {
            for (yi, i) in ysub.iter_mut().zip(rows) {
                let mut sum = 0.0;
                for k in row_ptr[i]..row_ptr[i + 1] {
                    sum += self.values[k] * x[col_idx[k] as usize];
                }
                *yi = sum;
            }
        });
    }

    /// Analytic bytes moved by one [`spmv`](Self::spmv) call under perfect
    /// source-vector reuse — the Eq. 1 traffic floor with `miss_factor = 1`:
    /// streamed values (8 B/nnz), column indices (4 B/nnz), the row pointer
    /// (8 B/row), one read of the gathered source entries and one write of
    /// the destination (8 B/row each).  Dividing by a measured span time
    /// gives the achieved-bandwidth figure the profiler reports.
    pub fn spmv_traffic_bytes(&self) -> f64 {
        let nnz = self.values.len() as f64;
        let nrows = self.nrows() as f64;
        8.0 * nnz + 4.0 * nnz + 8.0 * (nrows + 1.0) + 8.0 * nrows + 8.0 * nrows
    }

    /// `y <- y + A x`.
    pub fn spmv_add(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols(), "spmv x length mismatch");
        assert_eq!(y.len(), self.nrows(), "spmv y length mismatch");
        let (row_ptr, col_idx) = (self.row_ptr(), self.col_idx());
        for i in 0..self.nrows() {
            let lo = row_ptr[i];
            let hi = row_ptr[i + 1];
            let mut sum = y[i];
            for k in lo..hi {
                sum += self.values[k] * x[col_idx[k] as usize];
            }
            y[i] = sum;
        }
    }

    /// Matrix bandwidth: `max_i max_{j in row i} |i - j|`.
    ///
    /// The interlaced-layout miss bound (Eq. 2 of the paper) is parameterized
    /// by this quantity (`beta`).
    pub fn bandwidth(&self) -> usize {
        let mut beta = 0usize;
        for i in 0..self.nrows() {
            for &c in self.row_cols(i) {
                beta = beta.max(i.abs_diff(c as usize));
            }
        }
        beta
    }

    /// Symmetrically permute a square matrix: `B[p[i], p[j]] = A[i, j]`.
    ///
    /// `perm` maps old index -> new index; this is how RCM vertex orderings
    /// are applied to assembled Jacobians.
    pub fn permute_symmetric(&self, perm: &[usize]) -> CsrMatrix {
        let n = self.nrows();
        assert_eq!(n, self.ncols(), "symmetric permute needs square matrix");
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut inv = vec![usize::MAX; perm.len()];
        for (old, &new) in perm.iter().enumerate() {
            assert!(new < perm.len(), "permutation value out of range");
            assert!(inv[new] == usize::MAX, "permutation is not a bijection");
            inv[new] = old;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for new_i in 0..n {
            let old_i = inv[new_i];
            scratch.clear();
            for (k, &c) in self.row_cols(old_i).iter().enumerate() {
                scratch.push((perm[c as usize] as u32, self.row_vals(old_i)[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)
    }

    /// Transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let (nrows, ncols) = (self.nrows(), self.ncols());
        let (row_ptr, col_idx_in) = (self.row_ptr(), self.col_idx());
        let mut counts = vec![0usize; ncols + 1];
        for &c in col_idx_in {
            counts[c as usize + 1] += 1;
        }
        for j in 0..ncols {
            counts[j + 1] += counts[j];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts.clone();
        for i in 0..nrows {
            for k in row_ptr[i]..row_ptr[i + 1] {
                let j = col_idx_in[k] as usize;
                let slot = next[j];
                col_idx[slot] = i as u32;
                values[slot] = self.values[k];
                next[j] += 1;
            }
        }
        CsrMatrix::from_raw(ncols, nrows, counts, col_idx, values)
    }

    /// Extract the principal submatrix on `rows` (same index set for columns),
    /// renumbering to local indices. Used to build subdomain (Schwarz) blocks.
    /// `rows` need not be sorted; local ordering follows `rows` order.
    pub fn extract_principal_submatrix(&self, rows: &[usize]) -> CsrMatrix {
        assert_eq!(self.nrows(), self.ncols());
        let mut global_to_local = vec![u32::MAX; self.ncols()];
        for (l, &g) in rows.iter().enumerate() {
            global_to_local[g] = l as u32;
        }
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for &g in rows {
            scratch.clear();
            for (k, &c) in self.row_cols(g).iter().enumerate() {
                let l = global_to_local[c as usize];
                if l != u32::MAX {
                    scratch.push((l, self.row_vals(g)[k]));
                }
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw(rows.len(), rows.len(), row_ptr, col_idx, values)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scale all values by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Add `alpha` to each diagonal entry (the entry must exist in the
    /// pattern). Used by pseudo-transient continuation to add `V/dt` terms.
    ///
    /// The diagonal positions come from the pattern's cache, found on the
    /// first shift of any matrix on it.
    ///
    /// # Panics
    /// Panics if some diagonal entry is not in the sparsity pattern.
    pub fn shift_diagonal(&mut self, alpha: f64) {
        assert_eq!(self.nrows(), self.ncols());
        for (i, &k) in self.pattern.diag().iter().enumerate() {
            if k == NO_DIAG {
                panic!("diagonal entry ({i},{i}) missing from pattern");
            }
            self.values[k] += alpha;
        }
    }

    /// Add `alpha * d[i]` to diagonal entry `i` (per-row shift, e.g. cell
    /// volume over timestep), through the same diagonal cache as
    /// [`shift_diagonal`](Self::shift_diagonal).
    pub fn shift_diagonal_by(&mut self, alpha: f64, d: &[f64]) {
        assert_eq!(self.nrows(), self.ncols());
        assert_eq!(d.len(), self.nrows());
        for (i, &k) in self.pattern.diag().iter().enumerate() {
            if k == NO_DIAG {
                panic!("diagonal entry ({i},{i}) missing from pattern");
            }
            self.values[k] += alpha * d[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn small() -> CsrMatrix {
        // [ 2 1 0 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        t.to_csr()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [4.0, 6.0, 19.0]);
    }

    #[test]
    fn spmv_add_accumulates() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        a.spmv_add(&x, &mut y);
        assert_eq!(y, [5.0, 7.0, 20.0]);
    }

    #[test]
    fn identity_spmv_is_noop() {
        let a = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        a.spmv(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn bandwidth_of_small() {
        assert_eq!(small().bandwidth(), 2); // entry (2,0)
        assert_eq!(CsrMatrix::identity(5).bandwidth(), 0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = small();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        assert_eq!(a.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn symmetric_permute_preserves_entries() {
        let a = small();
        let perm = vec![2usize, 0, 1]; // old->new
        let b = a.permute_symmetric(&perm);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a.get(i, j), b.get(perm[i], perm[j]), "({i},{j})");
            }
        }
    }

    #[test]
    fn submatrix_extraction() {
        let a = small();
        let s = a.extract_principal_submatrix(&[0, 2]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 0), 2.0); // (0,0)
        assert_eq!(s.get(1, 0), 4.0); // (2,0)
        assert_eq!(s.get(1, 1), 5.0); // (2,2)
        assert_eq!(s.get(0, 1), 0.0); // (0,2) not stored
    }

    #[test]
    fn submatrix_respects_row_order() {
        let a = small();
        let s = a.extract_principal_submatrix(&[2, 0]);
        assert_eq!(s.get(0, 0), 5.0); // (2,2)
        assert_eq!(s.get(0, 1), 4.0); // (2,0)
        assert_eq!(s.get(1, 1), 2.0); // (0,0)
    }

    #[test]
    fn shift_diagonal_adds() {
        let mut a = small();
        a.shift_diagonal(10.0);
        assert_eq!(a.get(0, 0), 12.0);
        assert_eq!(a.get(1, 1), 13.0);
        assert_eq!(a.get(2, 2), 15.0);
    }

    #[test]
    fn shift_diagonal_by_uses_weights() {
        let mut a = small();
        a.shift_diagonal_by(2.0, &[1.0, 10.0, 100.0]);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(1, 1), 23.0);
        assert_eq!(a.get(2, 2), 205.0);
    }

    #[test]
    #[should_panic(expected = "missing from pattern")]
    fn shift_diagonal_missing_panics() {
        // No (1,1) entry.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        let mut a = t.to_csr();
        a.shift_diagonal(1.0);
    }

    #[test]
    #[should_panic(expected = "not monotone")]
    fn from_raw_validates_row_ptr() {
        CsrMatrix::from_raw(3, 2, vec![0, 2, 1, 2], vec![0, 1], vec![1.0, 2.0]);
    }

    #[test]
    fn frobenius_and_scale() {
        let mut a = CsrMatrix::identity(4);
        assert_eq!(a.frobenius_norm(), 2.0);
        a.scale(3.0);
        assert_eq!(a.frobenius_norm(), 6.0);
    }

    #[test]
    fn a_missing_diagonal_panics_after_shifting_the_rows_above_it() {
        // No (1,1) entry: row 0 is shifted, row 2 is not, as with the
        // per-row binary search.
        let a = CsrMatrix::from_raw(3, 3, vec![0, 1, 2, 3], vec![0, 0, 2], vec![1.0, 2.0, 3.0]);
        for by in [false, true] {
            let mut b = a.clone();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if by {
                    b.shift_diagonal_by(1.0, &[1.0; 3]);
                } else {
                    b.shift_diagonal(1.0);
                }
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert_eq!(msg, "diagonal entry (1,1) missing from pattern");
            assert_eq!(b.values(), [2.0, 2.0, 3.0], "by={by}");
        }
    }

    #[test]
    fn clones_share_the_pattern_not_the_values() {
        let a = small();
        let mut b = a.clone();
        assert!(CsrPattern::ptr_eq(a.pattern(), b.pattern()));
        b.values_mut()[0] = 40.0;
        b.shift_diagonal(2.0);
        assert_eq!((a.get(0, 0), a.get(2, 2)), (2.0, 5.0));
        assert_eq!((b.get(0, 0), b.get(2, 2)), (42.0, 7.0));
        let c = CsrMatrix::from_pattern(b.pattern(), a.values().to_vec());
        assert!(CsrPattern::ptr_eq(a.pattern(), c.pattern()));
        assert_eq!(a, c);
    }

    #[test]
    fn matrices_on_separately_built_equal_patterns_compare_equal() {
        let (a, b) = (small(), small());
        assert!(!CsrPattern::ptr_eq(a.pattern(), b.pattern()));
        assert_eq!(a.pattern(), b.pattern());
        assert_eq!(a, b);
        let mut c = b.clone();
        c.values_mut()[1] = 0.5;
        assert_ne!(a, c);
        let t = a.transpose();
        assert_ne!(a.pattern(), t.pattern());
        assert_ne!(a, t);
    }

    /// An `nb x nb` block tridiagonal pattern of dense `b x b` blocks.
    fn block_tridiagonal(nb: usize, b: usize) -> CsrPattern {
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for bi in 0..nb {
            for _ in 0..b {
                for bj in bi.saturating_sub(1)..(bi + 2).min(nb) {
                    col_idx.extend((bj * b..(bj + 1) * b).map(|c| c as u32));
                }
                row_ptr.push(col_idx.len());
            }
        }
        CsrPattern::new(nb * b, nb * b, row_ptr, col_idx)
    }

    /// `p` with row `i`'s columns replaced by `cols`.
    fn with_row(p: &CsrPattern, i: usize, cols: &[u32]) -> CsrPattern {
        let d = &*p.0;
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for r in 0..d.nrows {
            if r == i {
                col_idx.extend_from_slice(cols);
            } else {
                col_idx.extend_from_slice(&d.col_idx[d.row_ptr[r]..d.row_ptr[r + 1]]);
            }
            row_ptr.push(col_idx.len());
        }
        CsrPattern::new(d.nrows, d.ncols, row_ptr, col_idx)
    }

    #[test]
    fn block_size_is_the_largest_dense_aligned_block() {
        for b in 2..=5 {
            let p = block_tridiagonal(6, b);
            assert_eq!(p.block_size(), b, "b={b}");
            assert!(p.is_blocked(b) && p.is_blocked(1));
        }
        // A 4x4-blocked pattern is 2x2-blocked too; the larger size wins.
        let p = block_tridiagonal(5, 4);
        assert!(p.is_blocked(2));
        assert_eq!(p.block_size(), 4);
        // 10x10 blocks are 5x5 and 2x2 blocks: 5, the largest detected.
        assert_eq!(block_tridiagonal(3, 10).block_size(), 5);
        // Larger blocks than 5 that no smaller size tiles stay point-wise.
        assert_eq!(block_tridiagonal(4, 7).block_size(), 1);
        // A point tridiagonal pattern has no dense blocks.
        assert_eq!(block_tridiagonal(9, 1).block_size(), 1);
        assert_eq!(small().pattern().block_size(), 1);
    }

    #[test]
    fn block_size_is_one_unless_every_block_row_is_dense_and_aligned() {
        let p = block_tridiagonal(6, 4);
        // Row 5 (second row of block row 1) drops column 4: one row of the
        // group differs.
        let short: Vec<u32> = (5..12).collect();
        assert_eq!(with_row(&p, 5, &short).block_size(), 1);
        // Row 4 lists the same columns as its group but the group is
        // misaligned: all of block row 1's rows shifted by one column.
        let mut q = p.clone();
        for i in 4..8 {
            q = with_row(&q, i, &(1..13).collect::<Vec<u32>>());
        }
        assert!(!q.is_blocked(4));
        assert_eq!(q.block_size(), 1);
        // b does not divide n: 4x4 blocks on 20 of 22 rows, a 2x2 block on
        // the last two.
        let odd = CsrPattern::new(
            22,
            22,
            (0..=22)
                .map(|i: usize| 4 * i.min(20) + 2 * i.saturating_sub(20))
                .collect(),
            (0..20)
                .flat_map(|i| (i / 4 * 4..i / 4 * 4 + 4).map(|c| c as u32))
                .chain([20, 21, 20, 21])
                .collect(),
        );
        assert!(!odd.is_blocked(4));
        assert_eq!(odd.block_size(), 2, "the 22 rows are 2x2-blocked");
        let odd = with_row(&odd, 21, &[20]);
        assert_eq!(odd.block_size(), 1);
        // No stored entry at all: empty, and 0 rows.
        assert_eq!(CsrPattern::new(20, 20, vec![0; 21], vec![]).block_size(), 1);
        assert_eq!(CsrPattern::new(0, 0, vec![0], vec![]).block_size(), 1);
        // Unsorted runs and repeated columns are not blocks.
        let mut q = p.clone();
        for i in 0..4 {
            q = with_row(&q, i, &[4, 5, 6, 7, 0, 1, 2, 3]);
        }
        assert_eq!(q.block_size(), 1);
        assert!(!with_row(&p, 0, &[0, 1, 2, 2, 4, 5, 6, 7]).is_blocked(4));
    }

    #[test]
    #[should_panic(expected = "col_idx/values length mismatch")]
    fn from_pattern_checks_the_value_count() {
        CsrMatrix::from_pattern(small().pattern(), vec![1.0; 4]);
    }

    /// A square matrix on a fresh pattern: a diagonal in every row plus the
    /// off-diagonal `entries`, each row's columns ascending.
    fn random_square(n: usize, entries: &[(usize, usize)]) -> CsrMatrix {
        let mut rows = vec![std::collections::BTreeSet::new(); n];
        for &(i, j) in entries {
            rows[i].insert(j as u32);
        }
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for (i, mut row) in rows.into_iter().enumerate() {
            row.insert(i as u32);
            col_idx.extend(row);
            row_ptr.push(col_idx.len());
        }
        let values = (0..col_idx.len())
            .map(|k| ((k * 37 + 11) % 17) as f64 * 0.125 - 1.0)
            .collect();
        CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)
    }

    /// The shifts as a binary search within each row; `d = None` is
    /// `shift_diagonal`.
    fn reference_shift(a: &CsrMatrix, values: &mut [f64], alpha: f64, d: Option<&[f64]>) {
        for i in 0..a.nrows() {
            let k = a.row_cols(i).binary_search(&(i as u32)).unwrap();
            values[a.row_ptr()[i] + k] += d.map_or(alpha, |d| alpha * d[i]);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cached_shifts_match_the_binary_search_reference(
            (entries, d) in (1usize..24).prop_flat_map(|n| (
                proptest::collection::vec((0..n, 0..n), 0..4 * n),
                proptest::collection::vec(-2.0f64..2.0, n..n + 1),
            )),
            alpha in -3.0f64..3.0,
            beta in -3.0f64..3.0,
        ) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let n = d.len();
            let a = random_square(n, &entries);
            let mut want = a.values().to_vec();
            reference_shift(&a, &mut want, alpha, None);
            reference_shift(&a, &mut want, beta, Some(&d));
            // The first shift fills the cache, the second reads it.
            let mut got = a.clone();
            got.shift_diagonal(alpha);
            got.shift_diagonal_by(beta, &d);
            prop_assert_eq!(bits(got.values()), bits(&want));
            // Another matrix on the pattern reads the filled cache.
            let mut again = CsrMatrix::from_pattern(a.pattern(), a.values().to_vec());
            again.shift_diagonal(alpha);
            again.shift_diagonal_by(beta, &d);
            prop_assert_eq!(bits(again.values()), bits(&want));
            // The shifted matrices' values are their own.
            prop_assert_eq!(a, random_square(n, &entries));
        }
    }
}
