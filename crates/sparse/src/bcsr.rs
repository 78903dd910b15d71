//! Block compressed sparse row (BCSR) storage — the PETSc `BAIJ` analogue.
//!
//! "Structural blocking" (Section 2.1.2 of the paper): once the field
//! variables at a grid point are interlaced, the Jacobian of a `b`-component
//! PDE system decomposes into dense `b x b` blocks, one per pair of adjacent
//! mesh points.  Storing the matrix block-wise divides the column-index
//! array by `b*b` relative to point CSR — the reduction of integer loads and
//! the register-level reuse of `x` sub-vectors are what Table 1's "Structural
//! Blocking" column measures.
//!
//! A matrix converted with [`BcsrMatrix::from_csr`] keeps a handle to its
//! source's point pattern, so a Newton step's new point values are copied
//! straight into the blocks by [`BcsrMatrix::refill_from_csr`].  Refill
//! accepts only the source pattern (the same handle, or one with equal
//! contents, which the matrix then adopts).  When the source pattern is
//! made of dense, aligned blocks ([`CsrPattern::is_blocked`]), as an
//! interlaced Jacobian's is, each point row's values are row `r` of its
//! block row's blocks in order, and both the conversion and the refill
//! copy them in `b`-wide runs.  Any other source keeps a map from each
//! source value to its block slot, and its refill skips zeroing the blocks
//! when every stored block entry has a source value.
//!
//! The SpMV kernel is chosen by the block size alone: const-`B` lane
//! kernels for `b` = 1..=5 (4: incompressible, 5: compressible), the
//! runtime-`b` loops otherwise.  Both compute bitwise-identical results, so
//! the runtime-`b` loops are also the reference the unit tests compare the
//! unrolled kernels with.

use crate::csr::{CsrMatrix, CsrPattern};
use crate::par::ParCtx;
use std::ops::Range;

/// A square-blocked sparse matrix with dense `b x b` blocks in row-major
/// order within each block.
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix {
    /// Number of block rows.
    nbrows: usize,
    /// Number of block columns.
    nbcols: usize,
    /// Block size `b`.
    b: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    /// Blocks, `b*b` values each, row-major within the block.
    values: Vec<f64>,
    /// When built via [`BcsrMatrix::from_csr`]: the source's point pattern,
    /// the only one [`BcsrMatrix::refill_from_csr`] accepts, and where its
    /// values go.
    csr_source: Option<(CsrPattern, CsrFill)>,
}

/// Where [`BcsrMatrix::refill_from_csr`] puts the source's values.
#[derive(Debug, Clone, PartialEq)]
enum CsrFill {
    /// The source pattern is blocked ([`CsrPattern::is_blocked`]): point
    /// row `bi*b + r` is row `r` of each block of block row `bi`, in
    /// order, so the values are copied in `b`-wide runs and every slot is
    /// written.
    Blocked,
    /// Any other source: each source value's slot in `values`, and whether
    /// the slots hit every value (no block is padded with explicit zeros),
    /// so a refill need not zero them first.
    Scattered { slots: Vec<u32>, covers: bool },
}

impl BcsrMatrix {
    /// Build from raw block-CSR arrays.
    ///
    /// # Panics
    /// Panics on inconsistent arrays.
    pub fn from_raw(
        nbrows: usize,
        nbcols: usize,
        b: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert!(b >= 1, "block size must be >= 1");
        assert_eq!(row_ptr.len(), nbrows + 1);
        assert_eq!(
            values.len(),
            col_idx.len() * b * b,
            "values must hold b*b per block"
        );
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr not monotone"
        );
        assert!(col_idx.iter().all(|&c| (c as usize) < nbcols));
        Self {
            nbrows,
            nbcols,
            b,
            row_ptr,
            col_idx,
            values,
            csr_source: None,
        }
    }

    /// Convert a point CSR matrix into BCSR with block size `b`.
    ///
    /// A block is stored whenever *any* of its `b*b` point entries is stored;
    /// absent point entries within a stored block become explicit zeros (this
    /// is exactly what `MatConvert` to BAIJ does, and is the source of the
    /// slight nnz inflation blocking trades for fewer index loads).
    ///
    /// A blocked source ([`CsrPattern::is_blocked`]), such as an
    /// interlaced Jacobian, is converted in O(nnz): its block columns are
    /// read off each block row's first point row and its values copied in
    /// `b`-wide runs into arrays allocated at their final size.  Any other
    /// source merges each block row's block columns by sorting its `b`
    /// rows' entries and places every entry by binary search.
    ///
    /// # Panics
    /// Panics if the dimensions are not multiples of `b`.
    pub fn from_csr(a: &CsrMatrix, b: usize) -> Self {
        assert!(b >= 1);
        assert_eq!(a.nrows() % b, 0, "rows not a multiple of block size");
        assert_eq!(a.ncols() % b, 0, "cols not a multiple of block size");
        if a.pattern().is_blocked(b) {
            Self::from_blocked_csr(a, b)
        } else {
            Self::from_unblocked_csr(a, b)
        }
    }

    /// [`Self::from_csr`] of a blocked source: block row `bi` holds one
    /// block per run of `b` columns in point row `bi*b`.
    fn from_blocked_csr(a: &CsrMatrix, b: usize) -> Self {
        let (nbrows, nbcols) = (a.nrows() / b, a.ncols() / b);
        let (src_ptr, src_idx) = (a.row_ptr(), a.col_idx());
        let first_row = |bi: usize| &src_idx[src_ptr[bi * b]..src_ptr[bi * b + 1]];
        let mut row_ptr = Vec::with_capacity(nbrows + 1);
        row_ptr.push(0);
        for bi in 0..nbrows {
            row_ptr.push(row_ptr[bi] + first_row(bi).len() / b);
        }
        let nblocks = row_ptr[nbrows];
        let mut col_idx = Vec::with_capacity(nblocks);
        for bi in 0..nbrows {
            col_idx.extend(first_row(bi).iter().step_by(b).map(|&c| c / b as u32));
        }
        let mut out = Self {
            nbrows,
            nbcols,
            b,
            row_ptr,
            col_idx,
            values: vec![0.0; nblocks * b * b],
            csr_source: Some((a.pattern().clone(), CsrFill::Blocked)),
        };
        out.copy_blocked_values(a.values());
        out
    }

    /// [`Self::from_csr`] of any other source, padding partly stored
    /// blocks with explicit zeros.
    fn from_unblocked_csr(a: &CsrMatrix, b: usize) -> Self {
        let nbrows = a.nrows() / b;
        let nbcols = a.ncols() / b;
        let mut row_ptr = Vec::with_capacity(nbrows + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut slots = vec![0u32; a.nnz()];
        row_ptr.push(0usize);
        // For each block row, merge the block-column sets of its b point rows.
        let mut bcols: Vec<u32> = Vec::new();
        for bi in 0..nbrows {
            bcols.clear();
            for r in 0..b {
                for &c in a.row_cols(bi * b + r) {
                    bcols.push(c / b as u32);
                }
            }
            bcols.sort_unstable();
            bcols.dedup();
            let base_block = col_idx.len();
            col_idx.extend_from_slice(&bcols);
            values.resize(col_idx.len() * b * b, 0.0);
            for r in 0..b {
                let i = bi * b + r;
                let cols = a.row_cols(i);
                let vals = a.row_vals(i);
                let row_base = a.row_ptr()[i];
                for (k, &c) in cols.iter().enumerate() {
                    let bc = c / b as u32;
                    let within = (c % b as u32) as usize;
                    // bcols is sorted & deduped: binary search.
                    let pos = bcols.binary_search(&bc).expect("block col must exist");
                    let blk = base_block + pos;
                    let slot = blk * b * b + r * b + within;
                    values[slot] = vals[k];
                    slots[row_base + k] = slot as u32;
                }
            }
            row_ptr.push(col_idx.len());
        }
        // The slots cover every value iff there is one per value and no two
        // source entries share a slot (a row listing a column twice).
        let covers = slots.len() == values.len() && {
            let mut hit = vec![false; values.len()];
            slots
                .iter()
                .all(|&slot| !std::mem::replace(&mut hit[slot as usize], true))
        };
        let mut out = Self::from_raw(nbrows, nbcols, b, row_ptr, col_idx, values);
        out.csr_source = Some((a.pattern().clone(), CsrFill::Scattered { slots, covers }));
        out
    }

    /// Whether `a` has the point pattern this matrix was built from by
    /// [`BcsrMatrix::from_csr`] — the question to ask before reusing it as
    /// a structure template for `a`.  A handle to the same pattern answers
    /// at once; a separately built pattern is compared by content, and on a
    /// match this matrix adopts `a`'s handle, so later checks against it
    /// are one pointer comparison.  Always `false` for matrices built from
    /// raw arrays.
    pub fn adopt_source_pattern(&mut self, a: &CsrMatrix) -> bool {
        let Some((source, _)) = &mut self.csr_source else {
            return false;
        };
        if CsrPattern::ptr_eq(source, a.pattern()) {
            return true;
        }
        let matches = source == a.pattern();
        if matches {
            *source = a.pattern().clone();
        }
        matches
    }

    /// Refill values from a point CSR matrix with the *same pattern* this
    /// BCSR was built from, without re-deriving the symbolic structure.
    /// This is the per-Newton-step path: the Jacobian pattern is fixed, only
    /// values change.  A blocked source is copied in `b`-wide runs; any
    /// other has each value copied to its block slot, after zeroing the
    /// blocks only when some block entry has no source value.
    ///
    /// # Panics
    /// Panics unless `a` has the source pattern
    /// ([`BcsrMatrix::adopt_source_pattern`]).
    pub fn refill_from_csr(&mut self, a: &CsrMatrix) {
        assert_eq!(a.nrows(), self.nrows(), "refill dimension mismatch");
        assert_eq!(a.ncols(), self.ncols(), "refill dimension mismatch");
        assert!(
            self.adopt_source_pattern(a),
            "refill requires the pattern this BCSR was built from"
        );
        match &self.csr_source {
            Some((_, CsrFill::Blocked)) => self.copy_blocked_values(a.values()),
            Some((_, CsrFill::Scattered { slots, covers })) => {
                if !covers {
                    self.values.fill(0.0);
                }
                for (&slot, &v) in slots.iter().zip(a.values()) {
                    self.values[slot as usize] = v;
                }
            }
            None => unreachable!("a matrix without a source adopts no pattern"),
        }
    }

    /// Copy the values of a blocked source into the blocks.  The copy loop
    /// is picked by the block size alone, as for SpMV: its runs have a
    /// constant length for `b` = 1..=5.
    fn copy_blocked_values(&mut self, src: &[f64]) {
        let (row_ptr, values) = (&self.row_ptr, &mut self.values[..]);
        match self.b {
            4 => copy_blocked_runs(row_ptr, 4, src, values),
            5 => copy_blocked_runs(row_ptr, 5, src, values),
            3 => copy_blocked_runs(row_ptr, 3, src, values),
            2 => copy_blocked_runs(row_ptr, 2, src, values),
            1 => copy_blocked_runs(row_ptr, 1, src, values),
            b => copy_blocked_runs(row_ptr, b, src, values),
        }
    }

    /// Expand back to point CSR (explicit zeros inside blocks are kept, so
    /// the pattern is the blocked pattern).
    pub fn to_csr(&self) -> CsrMatrix {
        let b = self.b;
        let mut row_ptr = Vec::with_capacity(self.nbrows * b + 1);
        let mut col_idx = Vec::with_capacity(self.nnz_blocks() * b * b);
        let mut values = Vec::with_capacity(self.nnz_blocks() * b * b);
        row_ptr.push(0usize);
        for bi in 0..self.nbrows {
            for r in 0..b {
                for k in self.row_ptr[bi]..self.row_ptr[bi + 1] {
                    let bc = self.col_idx[k] as usize;
                    for c in 0..b {
                        col_idx.push((bc * b + c) as u32);
                        values.push(self.values[k * b * b + r * b + c]);
                    }
                }
                row_ptr.push(col_idx.len());
            }
        }
        CsrMatrix::from_raw(self.nbrows * b, self.nbcols * b, row_ptr, col_idx, values)
    }

    /// Block size.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Number of block rows.
    pub fn nbrows(&self) -> usize {
        self.nbrows
    }

    /// Number of block columns.
    pub fn nbcols(&self) -> usize {
        self.nbcols
    }

    /// Number of point rows (`nbrows * b`).
    pub fn nrows(&self) -> usize {
        self.nbrows * self.b
    }

    /// Number of point columns.
    pub fn ncols(&self) -> usize {
        self.nbcols * self.b
    }

    /// Number of stored blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Block row pointer array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Block column index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw block values (`nnz_blocks * b * b`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw block values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The `k`-th stored block as a `b*b` row-major slice.
    pub fn block(&self, k: usize) -> &[f64] {
        let bb = self.b * self.b;
        &self.values[k * bb..(k + 1) * bb]
    }

    /// Block-column indices of block row `bi`.
    pub fn row_bcols(&self, bi: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[bi]..self.row_ptr[bi + 1]]
    }

    /// Block sparse matrix-vector product `y <- A x`.
    ///
    /// Each `b`-entry slice of `x` is loaded once per adjacent block and
    /// reused across the block's `b` rows — the register-level reuse that
    /// point CSR cannot express.  Block sizes 1..=5 run unrolled lane
    /// kernels, larger ones the runtime-`b` loops; the results are bitwise
    /// identical either way.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols(), "spmv x length mismatch");
        assert_eq!(y.len(), self.nrows(), "spmv y length mismatch");
        self.spmv_rows(x, 0..self.nbrows, y);
    }

    /// Block-row-partitioned parallel [`spmv`](Self::spmv): each thread
    /// computes its contiguous chunk of block rows into the matching
    /// disjoint `b`-aligned slice of `y`.  Block rows are independent, so
    /// the result is bitwise identical to the sequential kernel for any
    /// thread count.
    pub fn spmv_par(&self, x: &[f64], y: &mut [f64], ctx: &ParCtx) {
        assert_eq!(x.len(), self.ncols(), "spmv x length mismatch");
        assert_eq!(y.len(), self.nrows(), "spmv y length mismatch");
        if ctx.nthreads() == 1 {
            return self.spmv(x, y);
        }
        ctx.parallel_for_slices("spmv_bcsr", y, self.b, |_, brows, ysub| {
            self.spmv_rows(x, brows, ysub)
        });
    }

    /// Analytic bytes moved by one [`spmv`](Self::spmv) call under perfect
    /// source reuse — the blocked Eq. 1 traffic floor with `miss_factor =
    /// 1`: streamed block values (8 B per block entry), one 4-byte block
    /// column index per block, the block-row pointer (8 B/block row), plus
    /// one read of the source and one write of the destination vector.
    /// `<span>:gbps` numbers are this floor over the measured time, so a
    /// faster kernel shows up as a higher effective bandwidth.
    pub fn spmv_traffic_bytes(&self) -> f64 {
        let b = self.b as f64;
        let nblocks = (self.values.len() as f64) / (b * b);
        let nbrows = self.nbrows as f64;
        let n = nbrows * b;
        8.0 * nblocks * b * b + 4.0 * nblocks + 8.0 * (nbrows + 1.0) + 8.0 * n + 8.0 * n
    }

    /// Compute block rows `brows` into `y`, which holds exactly those rows
    /// (`y[0]` is point row `brows.start * b`).
    ///
    /// Dispatch happens here, once per (sequential call | thread chunk),
    /// never per row.  Both kernel shapes are bitwise identical — they
    /// only reorder updates to *independent* accumulators.
    fn spmv_rows(&self, x: &[f64], brows: Range<usize>, y: &mut [f64]) {
        match self.b {
            4 => self.spmv_rows_b::<4>(x, brows, y),
            5 => self.spmv_rows_b::<5>(x, brows, y),
            3 => self.spmv_rows_b::<3>(x, brows, y),
            2 => self.spmv_rows_b::<2>(x, brows, y),
            1 => self.spmv_rows_b::<1>(x, brows, y),
            _ => self.spmv_rows_generic(x, brows, y),
        }
    }

    /// Const-unrolled lane kernel: the whole `B x B` block and both `B`
    /// vectors live in registers, the loop nest fully unrolls, and the `B`
    /// accumulators update in lane-parallel (column-broadcast) order.
    fn spmv_rows_b<const B: usize>(&self, x: &[f64], brows: Range<usize>, y: &mut [f64]) {
        debug_assert_eq!(self.b, B);
        let base = brows.start;
        for bi in brows {
            let mut acc = [0.0f64; B];
            for k in self.row_ptr[bi]..self.row_ptr[bi + 1] {
                let bc = self.col_idx[k] as usize;
                let xs = &x[bc * B..bc * B + B];
                let blk = &self.values[k * B * B..(k + 1) * B * B];
                block_madd::<B>(blk, xs, &mut acc);
            }
            let o = (bi - base) * B;
            y[o..o + B].copy_from_slice(&acc);
        }
    }

    /// Runtime-`b` row-dot loops: the path for `b > 5`, and the reference
    /// the unit tests compare the lane kernels with.
    fn spmv_rows_generic(&self, x: &[f64], brows: Range<usize>, y: &mut [f64]) {
        let b = self.b;
        let bb = b * b;
        let base = brows.start;
        for bi in brows {
            let ys = &mut y[(bi - base) * b..(bi - base + 1) * b];
            ys.fill(0.0);
            for k in self.row_ptr[bi]..self.row_ptr[bi + 1] {
                let bc = self.col_idx[k] as usize;
                let xs = &x[bc * b..(bc + 1) * b];
                let blk = &self.values[k * bb..(k + 1) * bb];
                for r in 0..b {
                    let mut s = ys[r];
                    for c in 0..b {
                        s += blk[r * b + c] * xs[c];
                    }
                    ys[r] = s;
                }
            }
        }
    }

    /// Block bandwidth in block units.
    pub fn block_bandwidth(&self) -> usize {
        let mut beta = 0usize;
        for bi in 0..self.nbrows {
            for &c in self.row_bcols(bi) {
                beta = beta.max(bi.abs_diff(c as usize));
            }
        }
        beta
    }
}

/// `acc += blk * xs` for one row-major `B x B` block, in column-broadcast
/// (lane) order: each source entry `xs[c]` is broadcast against block
/// column `c`, updating all `B` accumulators at once.
///
/// Bitwise-identity invariant: for a fixed accumulator `acc[r]`, the
/// additions arrive in ascending-`c` order — exactly the order of the
/// generic row-dot loop — so reordering across *rows* changes nothing.
/// Rust never contracts `f64` mul+add into a fused multiply-add, so the
/// rounding sequence is identical too.
#[inline(always)]
fn block_madd<const B: usize>(blk: &[f64], xs: &[f64], acc: &mut [f64; B]) {
    debug_assert!(blk.len() >= B * B);
    debug_assert!(xs.len() >= B);
    for c in 0..B {
        let xc = xs[c];
        for r in 0..B {
            acc[r] += blk[r * B + c] * xc;
        }
    }
}

/// Copy a blocked source's values `src` into the blocks `values` of block
/// rows `row_ptr`: point row `bi*b + r` holds row `r` of each of block row
/// `bi`'s blocks, in order, so each run of `b` values is one row of one
/// block.  Always inlined, so a literal `b` at the call site gives
/// constant-length runs.
#[inline(always)]
fn copy_blocked_runs(row_ptr: &[usize], b: usize, src: &[f64], values: &mut [f64]) {
    let bb = b * b;
    let mut rest = src;
    for w in row_ptr.windows(2) {
        let blocks = &mut values[w[0] * bb..w[1] * bb];
        let row_len = (w[1] - w[0]) * b;
        for r in 0..b {
            let (row, tail) = rest.split_at(row_len);
            rest = tail;
            for (blk, run) in blocks.chunks_exact_mut(bb).zip(row.chunks_exact(b)) {
                blk[r * b..(r + 1) * b].copy_from_slice(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Random block-structured matrix: nb block rows, each with diagonal plus
    /// a few off-diagonal blocks, fully dense inside the blocks.
    fn random_block_matrix(nb: usize, b: usize, seed: u64) -> CsrMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = TripletMatrix::new(nb * b, nb * b);
        for i in 0..nb {
            let mut js = vec![i];
            for _ in 0..3 {
                js.push(rng.gen_range(0..nb));
            }
            js.sort_unstable();
            js.dedup();
            for j in js {
                let blk: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
                t.push_block(i, j, b, &blk);
            }
        }
        t.to_csr()
    }

    #[test]
    fn from_csr_roundtrip_pattern() {
        for b in [1usize, 2, 4, 5] {
            let a = random_block_matrix(7, b, 42 + b as u64);
            let ab = BcsrMatrix::from_csr(&a, b);
            let back = ab.to_csr();
            // Every original entry must be preserved.
            for i in 0..a.nrows() {
                for (k, &c) in a.row_cols(i).iter().enumerate() {
                    assert_eq!(back.get(i, c as usize), a.row_vals(i)[k], "b={b} ({i},{c})");
                }
            }
        }
    }

    #[test]
    fn spmv_matches_csr() {
        let mut rng = SmallRng::seed_from_u64(7);
        for b in [1usize, 2, 3, 4, 5, 6] {
            let a = random_block_matrix(9, b, 100 + b as u64);
            let ab = BcsrMatrix::from_csr(&a, b);
            let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut y1 = vec![0.0; a.nrows()];
            let mut y2 = vec![0.0; a.nrows()];
            a.spmv(&x, &mut y1);
            ab.spmv(&x, &mut y2);
            for (u, v) in y1.iter().zip(&y2) {
                assert!((u - v).abs() < 1e-12, "b={b}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn blocking_reduces_index_storage() {
        let b = 4;
        let a = random_block_matrix(20, b, 3);
        let ab = BcsrMatrix::from_csr(&a, b);
        // One index per block instead of one per point entry.
        assert!(ab.nnz_blocks() * b * b >= a.nnz());
        assert!(ab.nnz_blocks() <= a.nnz() / (b * b) + a.nrows());
        assert!(
            ab.nnz_blocks() < a.nnz() / 4,
            "index array should shrink markedly"
        );
    }

    #[test]
    fn block_bandwidth_scales() {
        let b = 2;
        let a = random_block_matrix(15, b, 9);
        let ab = BcsrMatrix::from_csr(&a, b);
        // Point bandwidth is at most b * (block bandwidth + 1) - 1.
        assert!(a.bandwidth() < b * (ab.block_bandwidth() + 1));
    }

    #[test]
    fn dims_accessors() {
        let a = random_block_matrix(6, 5, 11);
        let ab = BcsrMatrix::from_csr(&a, 5);
        assert_eq!(ab.nbrows(), 6);
        assert_eq!(ab.nrows(), 30);
        assert_eq!(ab.block_size(), 5);
        assert_eq!(ab.block(0).len(), 25);
    }

    #[test]
    fn refill_matches_rebuild() {
        let b = 4;
        let a1 = random_block_matrix(8, b, 77);
        let mut a2 = a1.clone();
        a2.scale(3.5);
        let mut ab = BcsrMatrix::from_csr(&a1, b);
        ab.refill_from_csr(&a2);
        let fresh = BcsrMatrix::from_csr(&a2, b);
        assert_eq!(ab, fresh);
    }

    #[test]
    fn padded_blocks_are_zeroed_on_refill() {
        // A point tridiagonal matrix in blocks of 3: every stored block is
        // partly filled, so refill must zero the padding.
        let n = 12;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + i as f64);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -0.5);
            }
        }
        let a1 = t.to_csr();
        let mut ab = BcsrMatrix::from_csr(&a1, 3);
        assert!(ab.nnz_blocks() * 9 > a1.nnz());
        assert!(!covers_values(&ab));
        ab.values_mut().fill(f64::NAN);
        let mut a2 = a1.clone();
        a2.scale(-1.5);
        ab.refill_from_csr(&a2);
        let fresh = BcsrMatrix::from_csr(&a2, 3);
        let bits = |m: &BcsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ab), bits(&fresh));
        assert_eq!(ab, fresh);
    }

    /// `a` with its block rows renumbered `v -> 3v mod nb` (`nb` coprime
    /// with 3): same nnz, another pattern.
    fn permuted_blocks(a: &CsrMatrix, b: usize) -> CsrMatrix {
        let nb = a.nrows() / b;
        let perm: Vec<usize> = (0..a.nrows())
            .map(|u| (3 * (u / b)) % nb * b + u % b)
            .collect();
        a.permute_symmetric(&perm)
    }

    #[test]
    fn refill_accepts_only_the_source_pattern() {
        let a = random_block_matrix(8, 4, 77);
        let mut ab = BcsrMatrix::from_csr(&a, 4);
        assert!(covers_values(&ab), "dense blocks need no zero fill");
        assert_eq!(fill(&ab), &CsrFill::Blocked, "dense blocks need no map");
        // A separately built equal pattern is compared once, then adopted.
        let twin = random_block_matrix(8, 4, 77);
        assert!(!CsrPattern::ptr_eq(a.pattern(), twin.pattern()));
        assert!(ab.adopt_source_pattern(&twin));
        assert!(CsrPattern::ptr_eq(
            &ab.csr_source.as_ref().unwrap().0,
            twin.pattern()
        ));
        // Same dimensions and nnz, other columns: refused.
        let other = permuted_blocks(&a, 4);
        assert_eq!(other.nnz(), a.nnz());
        assert_ne!(other.pattern(), a.pattern());
        assert!(!ab.adopt_source_pattern(&other));
        // A matrix built from raw arrays has no source.
        let mut raw = BcsrMatrix::from_raw(1, 1, 1, vec![0, 1], vec![0], vec![1.0]);
        assert!(!raw.adopt_source_pattern(&CsrMatrix::identity(1)));
    }

    #[test]
    #[should_panic(expected = "refill requires the pattern this BCSR was built from")]
    fn refill_rejects_another_pattern_with_the_same_nnz() {
        let a = random_block_matrix(8, 4, 77);
        BcsrMatrix::from_csr(&a, 4).refill_from_csr(&permuted_blocks(&a, 4));
    }

    #[test]
    #[should_panic(expected = "multiple of block size")]
    fn from_csr_rejects_nonmultiple() {
        let a = CsrMatrix::identity(7);
        BcsrMatrix::from_csr(&a, 2);
    }

    /// The runtime-`b` reference product `A x`, whatever the block size.
    fn spmv_reference(a: &BcsrMatrix, x: &[f64]) -> Vec<f64> {
        let mut y = vec![f64::NAN; a.nrows()];
        a.spmv_rows_generic(x, 0..a.nbrows(), &mut y);
        y
    }

    /// `spmv` and `spmv_par` against the runtime-`b` reference, bit for
    /// bit; every output entry must be written.
    fn assert_spmv_is_the_reference(a: &BcsrMatrix, x: &[f64], threads: &[usize]) {
        let b = a.block_size();
        let y0 = spmv_reference(a, x);
        let mut y = vec![f64::NAN; a.nrows()];
        a.spmv(x, &mut y);
        assert_eq!(y0, y, "b={b}: must be bitwise identical");
        for &nthreads in threads {
            let mut yp = vec![f64::NAN; a.nrows()];
            a.spmv_par(x, &mut yp, &ParCtx::new(nthreads));
            assert_eq!(y0, yp, "b={b} nthreads={nthreads}");
        }
    }

    #[test]
    fn kernel_tiers_are_bitwise_identical() {
        let mut rng = SmallRng::seed_from_u64(23);
        for b in [1usize, 2, 3, 4, 5, 6] {
            let a = random_block_matrix(11, b, 500 + b as u64);
            let ab = BcsrMatrix::from_csr(&a, b);
            let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            assert_spmv_is_the_reference(&ab, &x, &[2, 5]);
        }
    }

    /// A block matrix from block-triplet entries; rows with no entries at
    /// all stay genuinely empty (no diagonal is forced).
    fn block_matrix(nb: usize, b: usize, entries: &[(usize, usize, f64)]) -> BcsrMatrix {
        let mut t = TripletMatrix::new(nb * b, nb * b);
        for &(bi, bj, v) in entries {
            if bi < nb && bj < nb {
                let blk: Vec<f64> = (0..b * b).map(|q| v + q as f64 * 0.01).collect();
                t.push_block(bi, bj, b, &blk);
            }
        }
        BcsrMatrix::from_csr(&t.to_csr(), b)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// The size-dispatched SpMV equals the runtime-`b` reference bit
        /// for bit, sequential and parallel, for block sizes spanning the
        /// unrolled kernels (1..=5) and the runtime-`b` path (6), on
        /// patterns that include empty block rows.
        #[test]
        fn spmv_dispatch_is_bitwise_the_reference(
            nb in 1usize..16,
            b in 1usize..7,
            entries in proptest::collection::vec((0usize..16, 0usize..16, -1.0f64..1.0), 0..80),
        ) {
            let a = block_matrix(nb, b, &entries);
            let x: Vec<f64> = (0..nb * b).map(|i| (i as f64 * 0.37).sin()).collect();
            assert_spmv_is_the_reference(&a, &x, &[2, 3, 7]);
        }
    }

    /// How a matrix converted from CSR refills its values.
    fn fill(m: &BcsrMatrix) -> &CsrFill {
        &m.csr_source.as_ref().expect("converted from CSR").1
    }

    /// Whether a refill of `m` writes every value.
    fn covers_values(m: &BcsrMatrix) -> bool {
        match fill(m) {
            CsrFill::Blocked => true,
            CsrFill::Scattered { covers, .. } => *covers,
        }
    }

    /// The slot of each value of `m`'s source `a`: kept as a map for a
    /// scattered source, implied by the block order for a blocked one.
    fn source_slots(m: &BcsrMatrix, a: &CsrMatrix) -> Vec<u32> {
        let b = m.block_size();
        match fill(m) {
            CsrFill::Scattered { slots, .. } => slots.clone(),
            CsrFill::Blocked => (0..a.nrows())
                .flat_map(|i| {
                    let (blocks, r) = (m.row_ptr()[i / b], i % b);
                    (0..a.row_cols(i).len())
                        .map(move |k| ((blocks + k / b) * b * b + r * b + k % b) as u32)
                })
                .collect(),
        }
    }

    /// A point matrix with `nb` block rows of size `b`: dense blocks at
    /// `blocks`, single entries at `points` (padded blocks), and every
    /// other row empty.  `shape` 2 lists each row's columns in descending
    /// order, and `shape` 3 lists each nonempty row's first column again
    /// at its end, with another value.
    fn arbitrary_source(
        nb: usize,
        b: usize,
        blocks: &[(usize, usize)],
        points: &[(usize, usize)],
        shape: u8,
    ) -> CsrMatrix {
        let n = nb * b;
        let mut rows = vec![std::collections::BTreeSet::new(); n];
        for &(bi, bj) in blocks.iter().filter(|&&(bi, bj)| bi < nb && bj < nb) {
            for r in 0..b {
                rows[bi * b + r].extend((0..b).map(|c| (bj * b + c) as u32));
            }
        }
        if shape > 0 {
            for &(i, j) in points.iter().filter(|&&(i, j)| i < n && j < n) {
                rows[i].insert(j as u32);
            }
        }
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for row in rows {
            let start = col_idx.len();
            col_idx.extend(row);
            match shape {
                2 => col_idx[start..].reverse(),
                3 if col_idx.len() > start => col_idx.push(col_idx[start]),
                _ => {}
            }
            row_ptr.push(col_idx.len());
        }
        let values = (0..col_idx.len())
            .map(|k| ((k * 29 + 7) % 23) as f64 * 0.25 - 2.5)
            .collect();
        CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    use proptest::prelude::{prop_assert, prop_assert_eq};

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// A blocked source, copied in runs, converts bit for bit to what
        /// the sort-and-search conversion of other sources builds from it,
        /// slots and coverage included, and only a blocked source keeps
        /// no map.  A refill from a scaled source, over poisoned values,
        /// equals a fresh conversion of it bit for bit.  Sources: blocked
        /// (dense blocks only), padded, padded with descending rows, and
        /// padded with a repeated column; block sizes 1..=6, with empty
        /// rows.
        #[test]
        fn blocked_conversion_is_bitwise_the_search(
            nb in 1usize..10,
            b in 1usize..7,
            blocks in proptest::collection::vec((0usize..10, 0usize..10), 0..30),
            points in proptest::collection::vec((0usize..60, 0usize..60), 0..12),
            shape in 0u8..4,
        ) {
            let a = arbitrary_source(nb, b, &blocks, &points, shape);
            let m = BcsrMatrix::from_csr(&a, b);
            let blocked = a.pattern().is_blocked(b);
            prop_assert_eq!(fill(&m) == &CsrFill::Blocked, blocked);
            if shape == 0 {
                prop_assert!(blocked, "dense blocks only");
            }
            let searched = BcsrMatrix::from_unblocked_csr(&a, b);
            prop_assert_eq!(m.row_ptr(), searched.row_ptr());
            prop_assert_eq!(m.col_idx(), searched.col_idx());
            prop_assert_eq!(bits(m.values()), bits(searched.values()));
            prop_assert_eq!(source_slots(&m, &a), source_slots(&searched, &a));
            prop_assert_eq!(covers_values(&m), covers_values(&searched));
            let mut a2 = a.clone();
            a2.scale(-1.75);
            let mut refilled = m.clone();
            refilled.values_mut().fill(f64::NAN);
            refilled.refill_from_csr(&a2);
            let fresh = BcsrMatrix::from_csr(&a2, b);
            prop_assert_eq!(bits(refilled.values()), bits(fresh.values()));
            prop_assert_eq!(refilled, fresh);
        }
    }

    #[test]
    fn blocked_sources_need_no_map_and_padded_ones_keep_it() {
        let dense = random_block_matrix(6, 4, 5);
        assert_eq!(fill(&BcsrMatrix::from_csr(&dense, 4)), &CsrFill::Blocked);
        // Dense 4x4 blocks are dense 2x2 blocks too, but not 3x3 ones.
        assert_eq!(fill(&BcsrMatrix::from_csr(&dense, 2)), &CsrFill::Blocked);
        assert!(matches!(
            fill(&BcsrMatrix::from_csr(&dense, 3)),
            CsrFill::Scattered { covers: false, .. }
        ));
        let mut eye = BcsrMatrix::from_csr(&CsrMatrix::identity(8), 2);
        assert!(matches!(
            fill(&eye),
            CsrFill::Scattered { covers: false, .. }
        ));
        eye.refill_from_csr(&CsrMatrix::identity(8));
        assert_eq!(eye.block(1), [1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn a_row_listing_a_column_twice_leaves_its_block_padded() {
        // One 2x2 block with as many source entries as slots, but row 1
        // lists column 0 twice and column 1 never: the refill must still
        // zero the slot no entry reaches (the later duplicate wins).
        let a = CsrMatrix::from_raw(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 0],
            vec![1.0, 2.0, 3.0, 4.0],
        );
        let mut m = BcsrMatrix::from_csr(&a, 2);
        assert!(!covers_values(&m));
        assert_eq!(m.block(0), [1.0, 2.0, 4.0, 0.0]);
        m.values_mut().fill(f64::NAN);
        m.refill_from_csr(&a);
        assert_eq!(m.block(0), [1.0, 2.0, 4.0, 0.0]);
    }

    /// Shapes the proptest may not hit: a single block row, and a matrix
    /// whose rows are all empty (the product must still zero the output).
    #[test]
    fn degenerate_shapes_are_bitwise_equal() {
        for b in [1usize, 4, 5, 6] {
            for a in [block_matrix(1, b, &[(0, 0, 0.5)]), block_matrix(3, b, &[])] {
                let x: Vec<f64> = (0..a.ncols()).map(|i| i as f64 + 0.5).collect();
                assert_spmv_is_the_reference(&a, &x, &[2, 3, 7]);
            }
        }
    }
}
