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
//!
//! # I-nodes
//!
//! The rows of one interlaced vertex share their column pattern.  As in
//! PETSc's AIJ I-nodes (`MatLUFactorNumeric_SeqAIJ_Inode`,
//! `MatSolve_SeqAIJ_Inode`), the factorization groups maximal runs of at
//! most [`INODE_MAX`] consecutive rows whose ILU(k) column sets
//! L ∪ {i} ∪ U are identical into one node.  A row joins a node only when
//! its whole column set matches, so one membership mark and one list of
//! below-node columns serve every row of the node.  The partition is found
//! once from the symbolic pattern and kept by `refactor` and template
//! clones, together with each row's count of in-node U entries.  The
//! numeric elimination and both sweeps then run one node at a time:
//!
//! * *Elimination.*  Phase 1 takes each pivot `k` below the node in
//!   ascending order, forms every row's multiplier `w_r[k] * inv_diag[k]`,
//!   and applies U row `k` to all the node's rows from one walk of its
//!   columns, skipping columns outside the node's set.  Phase 2 takes the
//!   rows in order: each applies its in-node pivots in ascending order,
//!   then checks its pivot, sets `inv_diag` and stores its values.
//! * *Forward sweep.*  The node's shared below-node columns feed one
//!   accumulator per row, with one load of each column index and `x` entry.
//!   Then each row subtracts its in-node entries in order.
//! * *Backward sweep.*  The node's shared above-node columns (its last
//!   row's U row) feed one accumulator per row in the same way.  Then the
//!   rows, bottom up, subtract their in-node entries in ascending column
//!   order and scale by their inverted pivots, as PETSc's
//!   `MatSolve_SeqAIJ_Inode` does.
//!
//! Every factor entry still receives its updates in ascending pivot order,
//! and every forward-sweep row its subtractions in ascending column order,
//! so the factors and the forward sweep are bitwise those of the row-by-row
//! loops.  A backward-sweep row subtracts its above-node columns before its
//! in-node ones, both ascending.  That is a different summation order from
//! the ascending row loop, so a node of several rows rounds differently.
//! On the seed-1 15×8×8 benchmark Jacobians the solves differ by at most
//! 1.0e-13 (compressible) and 6.1e-14 (incompressible) relative to each
//! entry, and by 1.2e-16 and 1.5e-16 norm-wise.  The level walk uses the
//! same per-row order, so it stays bitwise equal to the node sweep.  A
//! one-row node (segregated or irregular patterns) has no in-node entries
//! and runs exactly the row-by-row loops.  Phase 1 finalizes no pivot, so a
//! zero pivot names the same first row as the row-by-row elimination.

use crate::csr::CsrMatrix;
use crate::par::{DisjointSliceMut, ParCtx};

/// Most rows one I-node holds: PETSc's I-node limit, which covers the 4 and
/// 5 unknowns per vertex of the incompressible and compressible models.
/// Larger vertex blocks split into nodes of this size and a remainder.
pub const INODE_MAX: usize = 5;

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
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// I-node partition: the first row of each node, then `n`.
    /// Pattern-only, like the level schedules.
    node_ptr: Vec<usize>,
    /// Per row, how many of its U entries lie in its own I-node: the first
    /// ones of its U row.  Pattern-only; the level walk reads it.
    u_in_node: Vec<u8>,
    /// One bit per factor entry, row by row (L, diagonal, U), set where the
    /// factored matrix has the entry: the source pattern a template must
    /// match ([`Self::matches_pattern`]).
    source: Vec<u64>,
}

/// Factor values in `f64` plus the elimination's O(n) work arrays.
struct Elimination {
    l: Vec<f64>,
    u: Vec<f64>,
    inv_diag: Vec<f64>,
    /// The current node's work rows, interleaved: the entry of node row `r`
    /// in column `j` sits at `j * M + r` for a node of `M` rows.
    w: Vec<f64>,
    /// `mark[j] == i0` iff column `j` is in the column set of the node
    /// starting at row `i0`.
    mark: Vec<usize>,
}

impl IluFactors {
    /// Compute the ILU(k) factorization of a square CSR matrix.
    pub fn factor(a: &CsrMatrix, opts: &IluOptions) -> Result<Self, IluError> {
        let mut me = Self::analyze(a, opts.fill_level);
        me.refactor_with_storage(a, opts.storage)?;
        Ok(me)
    }

    /// The symbolic phase of [`Self::factor`]: the ILU(k) pattern, the level
    /// schedules, the I-node partition and `a`'s pattern, with no values.
    /// ILU(0) keeps `a`'s pattern plus the diagonal, so it splits each row
    /// of `a` at the diagonal instead of running the level-of-fill analysis.
    fn analyze(a: &CsrMatrix, fill_level: usize) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "ILU requires a square matrix");
        if fill_level > 0 {
            return Self::analyze_iluk(a, fill_level);
        }
        let (pattern, source) = split_at_diagonal(a);
        Self::with_pattern(0, pattern, source)
    }

    /// [`Self::analyze`] through the level-of-fill symbolic factorization.
    fn analyze_iluk(a: &CsrMatrix, fill_level: usize) -> Self {
        let mut me = Self::with_pattern(fill_level, symbolic_iluk(a, fill_level), Vec::new());
        me.source = me.source_bits(a);
        me
    }

    /// Factors with no values on the symbolic `pattern`, with its level
    /// schedules and I-node partition, and the `source` bits of the matrix.
    fn with_pattern(fill_level: usize, pattern: Pattern, source: Vec<u64>) -> Self {
        let (l_ptr, l_idx, u_ptr, u_idx) = pattern;
        let n = l_ptr.len() - 1;
        let l_levels = level_schedule(n, &l_ptr, &l_idx, false);
        let u_levels = level_schedule(n, &u_ptr, &u_idx, true);
        let mut me = Self {
            n,
            fill_level,
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
            node_ptr: Vec::new(),
            u_in_node: vec![0; n],
            source,
        };
        me.node_ptr = me.inode_partition();
        for node in me.node_ptr.windows(2) {
            for i in node[0]..node[1] {
                me.u_in_node[i] = (node[1] - 1 - i) as u8;
            }
        }
        me
    }

    /// The `source` bits of `a`, whose pattern this factorization's
    /// pattern contains.
    fn source_bits(&self, a: &CsrMatrix) -> Vec<u64> {
        let mut source = vec![0u64; self.nnz().div_ceil(64)];
        for i in 0..self.n {
            let (base, l, u) = (self.row_base(i), self.l_row(i), self.u_row(i));
            for &c in a.row_cols(i) {
                let p = match (c as usize).cmp(&i) {
                    std::cmp::Ordering::Less => l.binary_search(&c),
                    std::cmp::Ordering::Equal => Ok(l.len()),
                    std::cmp::Ordering::Greater => u.binary_search(&c).map(|q| l.len() + 1 + q),
                }
                .expect("the ILU(k) pattern contains the matrix's pattern");
                source[(base + p) / 64] |= 1 << ((base + p) % 64);
            }
        }
        source
    }

    fn l_row(&self, i: usize) -> &[u32] {
        &self.l_idx[self.l_ptr[i]..self.l_ptr[i + 1]]
    }

    fn u_row(&self, i: usize) -> &[u32] {
        &self.u_idx[self.u_ptr[i]..self.u_ptr[i + 1]]
    }

    /// Row `i`'s column set L ∪ {i} ∪ U, ascending.
    fn row_set(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        let lower = self.l_row(i).iter().copied();
        lower.chain([i as u32]).chain(self.u_row(i).iter().copied())
    }

    /// Start rows of the I-nodes, then `n`: maximal runs of at most
    /// [`INODE_MAX`] consecutive rows with one column set.
    fn inode_partition(&self) -> Vec<usize> {
        let mut ptr = vec![0];
        for i in 1..self.n {
            let i0 = ptr[ptr.len() - 1];
            if i - i0 == INODE_MAX || !self.row_set(i).eq(self.row_set(i0)) {
                ptr.push(i);
            }
        }
        if self.n > 0 {
            ptr.push(self.n);
        }
        ptr
    }

    /// Index of row `i`'s first entry among all factor entries, counted row
    /// by row as L, diagonal, U.
    fn row_base(&self, i: usize) -> usize {
        self.l_ptr[i] + i + self.u_ptr[i]
    }

    /// Whether `a` has exactly the pattern this factorization was computed
    /// from (same dimension and the same sorted columns in every row), so
    /// that a clone refactored against `a` is bitwise a fresh factorization
    /// of `a`.
    pub fn matches_pattern(&self, a: &CsrMatrix) -> bool {
        a.nrows() == self.n
            && a.ncols() == self.n
            && (0..self.n).all(|i| {
                let base = self.row_base(i);
                let kept = self
                    .row_set(i)
                    .enumerate()
                    .filter(|&(p, _)| self.source[(base + p) / 64] >> ((base + p) % 64) & 1 == 1)
                    .map(|(_, c)| c);
                a.row_cols(i).iter().copied().eq(kept)
            })
    }

    /// Row ranges of the I-nodes, in row order.
    pub fn inodes(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.node_ptr.windows(2).map(|w| w[0]..w[1])
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

    /// Rerun the numeric elimination and store the values in `storage`.  On
    /// a zero pivot the previous values stay in place.
    fn refactor_with_storage(
        &mut self,
        a: &CsrMatrix,
        storage: PrecStorage,
    ) -> Result<(), IluError> {
        assert_eq!(a.nrows(), self.n, "refactor dimension mismatch");
        let [lvals, uvals, inv_diag] = self.eliminate(a)?;
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

    /// The numeric ILU(k) elimination on the symbolic pattern, one I-node
    /// at a time, in `f64`: `[l, u, inv_diag]`.
    fn eliminate(&self, a: &CsrMatrix) -> Result<[Vec<f64>; 3], IluError> {
        let n = self.n;
        let mut e = Elimination {
            l: vec![0.0; self.l_idx.len()],
            u: vec![0.0; self.u_idx.len()],
            inv_diag: vec![0.0; n],
            w: vec![0.0; INODE_MAX * n],
            mark: vec![usize::MAX; n],
        };
        for node in self.node_ptr.windows(2) {
            let i0 = node[0];
            match node[1] - i0 {
                1 => self.eliminate_node::<1>(i0, a, &mut e),
                2 => self.eliminate_node::<2>(i0, a, &mut e),
                3 => self.eliminate_node::<3>(i0, a, &mut e),
                4 => self.eliminate_node::<4>(i0, a, &mut e),
                5 => self.eliminate_node::<5>(i0, a, &mut e),
                _ => unreachable!("I-nodes hold 1 to INODE_MAX rows"),
            }?;
        }
        Ok([e.l, e.u, e.inv_diag])
    }

    /// Eliminate the `M` rows of the I-node starting at row `i0`: phase 1
    /// applies the pivots below the node to all its rows, phase 2 finishes
    /// each row in order (see the module docs).
    fn eliminate_node<const M: usize>(
        &self,
        i0: usize,
        a: &CsrMatrix,
        e: &mut Elimination,
    ) -> Result<(), IluError> {
        let Elimination {
            l,
            u,
            inv_diag,
            w,
            mark,
        } = e;
        let last = i0 + M - 1;
        // The node's column set: the pivots below it (row i0's L row), its
        // own rows, and the columns above it (the last row's U row).
        let below = self.l_row(i0);
        let above = self.u_row(last);
        for j in below
            .iter()
            .chain(above)
            .map(|&j| j as usize)
            .chain(i0..=last)
        {
            mark[j] = i0;
            w[j * M..(j + 1) * M].fill(0.0);
        }
        // Scatter A's rows (the symbolic pattern contains A's pattern).
        for r in 0..M {
            let i = i0 + r;
            for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                w[c as usize * M + r] = v;
            }
        }
        // Phase 1: each pivot below the node, ascending, updates every row
        // from one walk of its U row, dropping fill outside the pattern.
        for &k in below {
            let k = k as usize;
            let d = inv_diag[k];
            let mut lk = [0.0f64; M];
            for (lr, wr) in lk.iter_mut().zip(&mut w[k * M..(k + 1) * M]) {
                *lr = *wr * d;
                *wr = *lr;
            }
            let uk = self.u_ptr[k]..self.u_ptr[k + 1];
            for (&j, &ukj) in self.u_idx[uk.clone()].iter().zip(&u[uk]) {
                let j = j as usize;
                if mark[j] == i0 {
                    for (wr, lr) in w[j * M..(j + 1) * M].iter_mut().zip(&lk) {
                        *wr -= lr * ukj;
                    }
                }
            }
        }
        // Phase 2: each row in order applies its in-node pivots, whose U
        // rows lie inside the node's column set, then finishes.
        for r in 0..M {
            let i = i0 + r;
            for k in i0..i {
                let lik = w[k * M + r] * inv_diag[k];
                w[k * M + r] = lik;
                let uk = self.u_ptr[k]..self.u_ptr[k + 1];
                for (&j, &ukj) in self.u_idx[uk.clone()].iter().zip(&u[uk]) {
                    w[j as usize * M + r] -= lik * ukj;
                }
            }
            let piv = w[i * M + r];
            // Negated on purpose: a NaN pivot must also take the error path.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(piv.abs() > f64::MIN_POSITIVE) {
                return Err(IluError::ZeroPivot(i));
            }
            inv_diag[i] = 1.0 / piv;
            for li in self.l_ptr[i]..self.l_ptr[i + 1] {
                l[li] = w[self.l_idx[li] as usize * M + r];
            }
            for ui in self.u_ptr[i]..self.u_ptr[i + 1] {
                u[ui] = w[self.u_idx[ui] as usize * M + r];
            }
        }
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
    /// factoring `a` with `opts` via clone + [`IluFactors::refactor`]: same
    /// fill level, storage precision and source pattern
    /// ([`Self::matches_pattern`]).  The numeric refactorization is then
    /// bitwise identical to a fresh [`IluFactors::factor`], with the
    /// symbolic analysis skipped.
    pub fn is_template_for(&self, a: &CsrMatrix, opts: &IluOptions) -> bool {
        self.fill_level == opts.fill_level
            && self.storage() == opts.storage
            && self.matches_pattern(a)
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
    ///
    /// This models the row-by-row sweeps' index traffic.  The I-node
    /// forward and backward sweeps load a node's shared column indices
    /// once, so they read fewer index bytes than counted here; the model is
    /// kept so that rates derived from it compare across kernels.
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
            FactorValues::F64 { l, u, inv_diag } => self.tri_solve(l, u, inv_diag, x),
            FactorValues::F32 { l, u, inv_diag } => self.tri_solve(l, u, inv_diag, x),
        }
    }

    fn tri_solve<T: WidenToF64>(&self, lvals: &[T], uvals: &[T], inv_diag: &[T], x: &mut [f64]) {
        // Forward: L y = b (unit diagonal), one I-node at a time.
        let (l_ptr, l_idx) = (&self.l_ptr[..], &self.l_idx[..]);
        for node in self.node_ptr.windows(2) {
            let i0 = node[0];
            match node[1] - i0 {
                1 => forward_node::<T, 1>(i0, l_ptr, l_idx, lvals, x),
                2 => forward_node::<T, 2>(i0, l_ptr, l_idx, lvals, x),
                3 => forward_node::<T, 3>(i0, l_ptr, l_idx, lvals, x),
                4 => forward_node::<T, 4>(i0, l_ptr, l_idx, lvals, x),
                5 => forward_node::<T, 5>(i0, l_ptr, l_idx, lvals, x),
                _ => unreachable!("I-nodes hold 1 to INODE_MAX rows"),
            }
        }
        // Backward: U x = y, one I-node at a time, bottom up.
        let (u_ptr, u_idx) = (&self.u_ptr[..], &self.u_idx[..]);
        for node in self.node_ptr.windows(2).rev() {
            let i0 = node[0];
            match node[1] - i0 {
                1 => backward_node::<T, 1>(i0, u_ptr, u_idx, uvals, inv_diag, x),
                2 => backward_node::<T, 2>(i0, u_ptr, u_idx, uvals, inv_diag, x),
                3 => backward_node::<T, 3>(i0, u_ptr, u_idx, uvals, inv_diag, x),
                4 => backward_node::<T, 4>(i0, u_ptr, u_idx, uvals, inv_diag, x),
                5 => backward_node::<T, 5>(i0, u_ptr, u_idx, uvals, inv_diag, x),
                _ => unreachable!("I-nodes hold 1 to INODE_MAX rows"),
            }
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
        // Backward: U x = y, each row in the I-node sweep's order: its
        // above-node columns, then its in-node ones.
        for lev in 0..self.u_levels.nlevels() {
            let rows = self.u_levels.level(lev);
            ctx.parallel_for("ilu_upper", rows.len(), |_, r| {
                for &iu in &rows[r] {
                    let i = iu as usize;
                    let (start, end) = (self.u_ptr[i], self.u_ptr[i + 1]);
                    let split = start + self.u_in_node[i] as usize;
                    // SAFETY: as above, with dependencies pointing upward.
                    unsafe {
                        let mut s = view.get(i);
                        for k in (split..end).chain(start..split) {
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

/// Forward-sweep (`L y = b`, unit diagonal) the `M` rows of the I-node
/// starting at row `i0`.  Row `i0 + r`'s L row is the node's shared
/// below-node columns (row `i0`'s L row), then `r` in-node entries.
#[inline(always)]
fn forward_node<T: WidenToF64, const M: usize>(
    i0: usize,
    l_ptr: &[usize],
    l_idx: &[u32],
    lvals: &[T],
    x: &mut [f64],
) {
    let below = &l_idx[l_ptr[i0]..l_ptr[i0 + 1]];
    let nb = below.len();
    let rows: [&[T]; M] = std::array::from_fn(|r| &lvals[l_ptr[i0 + r]..l_ptr[i0 + r + 1]]);
    let shared: [&[T]; M] = std::array::from_fn(|r| &rows[r][..nb]);
    let mut s: [f64; M] = std::array::from_fn(|r| x[i0 + r]);
    for (c, &j) in below.iter().enumerate() {
        let xj = x[j as usize];
        for r in 0..M {
            s[r] -= shared[r][c].widen() * xj;
        }
    }
    for r in 0..M {
        for (t, v) in rows[r][nb..].iter().enumerate() {
            s[r] -= v.widen() * x[i0 + t];
        }
        x[i0 + r] = s[r];
    }
}

/// Backward-sweep (`U x = y`) the `M` rows of the I-node starting at row
/// `i0`.  Row `i0 + r`'s U row is its `M - 1 - r` in-node entries, then the
/// node's shared above-node columns (the last row's U row).  Each row
/// subtracts the shared columns first; then the rows, bottom up, subtract
/// their in-node entries and scale by their inverted pivots.
#[inline(always)]
fn backward_node<T: WidenToF64, const M: usize>(
    i0: usize,
    u_ptr: &[usize],
    u_idx: &[u32],
    uvals: &[T],
    inv_diag: &[T],
    x: &mut [f64],
) {
    let last = i0 + M - 1;
    let above = &u_idx[u_ptr[last]..u_ptr[last + 1]];
    let na = above.len();
    let rows: [&[T]; M] = std::array::from_fn(|r| &uvals[u_ptr[i0 + r]..u_ptr[i0 + r + 1]]);
    // Slices of exactly `na` entries, so the column loop needs no bounds
    // checks on them (6–17% of the sweep on the benchmark Jacobians).
    let shared: [&[T]; M] = std::array::from_fn(|r| &rows[r][M - 1 - r..][..na]);
    let mut s: [f64; M] = std::array::from_fn(|r| x[i0 + r]);
    for (c, &j) in above.iter().enumerate() {
        let xj = x[j as usize];
        for r in 0..M {
            s[r] -= shared[r][c].widen() * xj;
        }
    }
    for r in (0..M).rev() {
        for (t, v) in rows[r][..M - 1 - r].iter().enumerate() {
            s[r] -= v.widen() * x[i0 + r + 1 + t];
        }
        x[i0 + r] = s[r] * inv_diag[i0 + r].widen();
    }
}

/// A symbolic factor pattern: the strictly-lower and strictly-upper CSR
/// patterns `(l_ptr, l_idx, u_ptr, u_idx)`, rows sorted ascending.
type Pattern = (Vec<usize>, Vec<u32>, Vec<usize>, Vec<u32>);

/// ILU(0)'s symbolic pattern: each row of `a` (sorted, as the CSR builders
/// keep it) split at the diagonal, which the factors always hold.  Also
/// returns the `source` bits: every factor entry comes from `a`, except a
/// diagonal that `a` lacks.
fn split_at_diagonal(a: &CsrMatrix) -> (Pattern, Vec<u64>) {
    let n = a.nrows();
    let (mut l_ptr, mut u_ptr) = (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1));
    let (mut l_idx, mut u_idx) = (Vec::new(), Vec::new());
    l_ptr.push(0);
    u_ptr.push(0);
    let mut no_diagonal = Vec::new();
    for i in 0..n {
        let cols = a.row_cols(i);
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "row {i} is not sorted"
        );
        let d = cols.partition_point(|&c| (c as usize) < i);
        let has_diagonal = cols.get(d) == Some(&(i as u32));
        l_idx.extend_from_slice(&cols[..d]);
        u_idx.extend_from_slice(&cols[d + usize::from(has_diagonal)..]);
        if !has_diagonal {
            no_diagonal.push(i);
        }
        l_ptr.push(l_idx.len());
        u_ptr.push(u_idx.len());
    }
    let nnz = l_idx.len() + u_idx.len() + n;
    let mut source = vec![u64::MAX; nnz / 64];
    let tail = nnz % 64;
    if tail > 0 {
        source.push((1 << tail) - 1);
    }
    for i in no_diagonal {
        let p = l_ptr[i + 1] + i + u_ptr[i];
        source[p / 64] &= !(1 << (p % 64));
    }
    ((l_ptr, l_idx, u_ptr, u_idx), source)
}

/// Level-of-fill symbolic factorization: the ILU(k) [`Pattern`].
///
/// Standard ILU(k) level rule: an entry `(i, j)` created while eliminating
/// pivot `k` gets `level(i,j) = min(level(i,j), level(i,k) + level(k,j) + 1)`
/// and is kept iff its level is `<= fill`.
fn symbolic_iluk(a: &CsrMatrix, fill: usize) -> Pattern {
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

    /// The row-by-row elimination and sweeps that the I-node kernels
    /// replaced, kept as their bitwise reference.
    mod reference {
        use super::super::*;

        /// Row-by-row ILU(k) elimination on `f`'s pattern, in `f64`:
        /// `[l, u, inv_diag]`.
        pub fn eliminate(f: &IluFactors, a: &CsrMatrix) -> Result<[Vec<f64>; 3], IluError> {
            let n = f.n;
            let mut lvals = vec![0.0f64; f.l_idx.len()];
            let mut uvals = vec![0.0f64; f.u_idx.len()];
            let mut inv_diag = vec![0.0f64; n];
            // Dense work row with a stamp-based membership mask.
            let mut w = vec![0.0f64; n];
            let mut stamp = vec![usize::MAX; n];
            for i in 0..n {
                let lr = f.l_ptr[i]..f.l_ptr[i + 1];
                let ur = f.u_ptr[i]..f.u_ptr[i + 1];
                for &j in f.l_idx[lr.clone()].iter().chain(&f.u_idx[ur.clone()]) {
                    stamp[j as usize] = i;
                    w[j as usize] = 0.0;
                }
                stamp[i] = i;
                w[i] = 0.0;
                for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                    w[c as usize] = v;
                }
                for &k in &f.l_idx[lr.clone()] {
                    let k = k as usize;
                    let lik = w[k] * inv_diag[k];
                    w[k] = lik;
                    let uk = f.u_ptr[k]..f.u_ptr[k + 1];
                    for (&j, &ukj) in f.u_idx[uk.clone()].iter().zip(&uvals[uk]) {
                        let j = j as usize;
                        if stamp[j] == i {
                            w[j] -= lik * ukj;
                        }
                    }
                }
                let piv = w[i];
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(piv.abs() > f64::MIN_POSITIVE) {
                    return Err(IluError::ZeroPivot(i));
                }
                inv_diag[i] = 1.0 / piv;
                for li in lr {
                    lvals[li] = w[f.l_idx[li] as usize];
                }
                for ui in ur {
                    uvals[ui] = w[f.u_idx[ui] as usize];
                }
            }
            Ok([lvals, uvals, inv_diag])
        }

        /// Which order the row-by-row backward sweep subtracts a row's U
        /// entries in.
        #[derive(Clone, Copy)]
        pub enum Backward {
            /// Above-node columns, then in-node ones, each ascending: the
            /// I-node sweep's order, found here from the node partition.
            Inode,
            /// Ascending columns: the sweep before I-node backward sweeps.
            Ascending,
        }

        /// `x <- U^{-1} L^{-1} x` with row-by-row sweeps: the forward sweep
        /// in ascending column order, the backward sweep in `order`.
        pub fn solve_in_place(f: &IluFactors, x: &mut [f64], order: Backward) {
            match &f.vals {
                FactorValues::F64 { l, u, inv_diag } => sweeps(f, l, u, inv_diag, x, order),
                FactorValues::F32 { l, u, inv_diag } => sweeps(f, l, u, inv_diag, x, order),
            }
        }

        fn sweeps<T: WidenToF64>(
            f: &IluFactors,
            lvals: &[T],
            uvals: &[T],
            inv_diag: &[T],
            x: &mut [f64],
            order: Backward,
        ) {
            for i in 0..f.n {
                let mut s = x[i];
                for k in f.l_ptr[i]..f.l_ptr[i + 1] {
                    s -= lvals[k].widen() * x[f.l_idx[k] as usize];
                }
                x[i] = s;
            }
            let mut in_node = vec![0; f.n];
            if let Backward::Inode = order {
                for node in f.inodes() {
                    for i in node.clone() {
                        in_node[i] = node.end - 1 - i;
                    }
                }
            }
            for i in (0..f.n).rev() {
                let (start, end) = (f.u_ptr[i], f.u_ptr[i + 1]);
                let split = start + in_node[i];
                let mut s = x[i];
                for k in (split..end).chain(start..split) {
                    s -= uvals[k].widen() * x[f.u_idx[k] as usize];
                }
                x[i] = s * inv_diag[i].widen();
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Bits of the stored `[l, u, inv_diag]` values.
    fn value_bits(f: &IluFactors) -> [Vec<u64>; 3] {
        match &f.vals {
            FactorValues::F64 { l, u, inv_diag } => [bits(l), bits(u), bits(inv_diag)],
            FactorValues::F32 { l, u, inv_diag } => {
                [l, u, inv_diag].map(|v| v.iter().map(|x| x.to_bits() as u64).collect())
            }
        }
    }

    /// Largest norm-wise relative difference [`check_against_reference`]
    /// allows between the I-node backward order and the ascending one.  The
    /// test matrices reach 1.5e-16.
    const BACKWARD_ORDER_TOL: f64 = 1e-14;

    /// Factor `a` with the I-node kernels and check the stored values, the
    /// zero-pivot row, `solve` and the level walk bit for bit against the
    /// row-by-row reference.  The ascending-order backward sweep must agree
    /// within [`BACKWARD_ORDER_TOL`] norm-wise, and bit for bit when every
    /// node has one row.  Returns the factors when `a` factors.
    fn check_against_reference(a: &CsrMatrix, opts: &IluOptions, what: &str) -> Option<IluFactors> {
        let want = reference::eliminate(&IluFactors::analyze(a, opts.fill_level), a);
        let f = match IluFactors::factor(a, opts) {
            Err(e) => {
                assert_eq!(Err(e), want.map(|_| ()), "{what}");
                return None;
            }
            Ok(f) => f,
        };
        let [l, u, d] = want.unwrap_or_else(|e| panic!("{what}: only the reference fails: {e}"));
        let narrow = |v: Vec<f64>| match opts.storage {
            PrecStorage::Double => bits(&v),
            PrecStorage::Single => v.iter().map(|&x| (x as f32).to_bits() as u64).collect(),
        };
        assert!(
            value_bits(&f) == [narrow(l), narrow(u), narrow(d)],
            "{what}: factor values"
        );
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.25).collect();
        let mut x = vec![0.0; n];
        f.solve(&b, &mut x);
        let mut want = b.clone();
        reference::solve_in_place(&f, &mut want, reference::Backward::Inode);
        assert_eq!(bits(&x), bits(&want), "{what}: solve");
        for nthreads in [1, 2, 3] {
            let mut levels = b.clone();
            f.solve_in_place_levels(&mut levels, &ParCtx::new(nthreads));
            assert_eq!(
                bits(&levels),
                bits(&want),
                "{what}: level walk, {nthreads} threads"
            );
        }
        let mut ascending = b;
        reference::solve_in_place(&f, &mut ascending, reference::Backward::Ascending);
        if f.inodes().all(|node| node.len() == 1) {
            assert_eq!(bits(&x), bits(&ascending), "{what}: one-row nodes");
        }
        let diff: Vec<f64> = x.iter().zip(&ascending).map(|(u, v)| u - v).collect();
        assert!(
            norm2(&diff) <= BACKWARD_ORDER_TOL * norm2(&ascending),
            "{what}: ascending order differs by {:.2e}",
            norm2(&diff) / norm2(&ascending)
        );
        Some(f)
    }

    /// A diagonally dominant matrix with `nv` vertices of `b` unknowns and
    /// dense `b x b` blocks on a random vertex graph, numbered interlaced
    /// (`family` 0) or segregated (1).  Family 2 is interlaced plus a few
    /// entries to the right of single rows' vertex blocks, so a vertex's
    /// rows share their L columns but not their U columns.  Vertices
    /// without neighbours give rows with only their diagonal block, and now
    /// and then one row is left empty, so its pivot is zero.
    fn block_matrix(nv: usize, b: usize, family: usize, seed: u64) -> CsrMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = nv * b;
        let idx = |v: usize, c: usize| if family == 1 { c * nv + v } else { v * b + c };
        let mut pos = Vec::new();
        let mut block = |v: usize, w: usize| {
            for c in 0..b {
                for d in 0..b {
                    pos.push((idx(v, c), idx(w, d)));
                }
            }
        };
        for v in 0..nv {
            block(v, v);
        }
        for _ in 0..rng.gen_range(0..2 * nv + 1) {
            let (v, w) = (rng.gen_range(0..nv), rng.gen_range(0..nv));
            block(v, w);
            block(w, v);
        }
        if family == 2 {
            for _ in 0..rng.gen_range(1..nv + 2) {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if j / b > i / b {
                    pos.push((i, j));
                }
            }
        }
        let empty = (rng.gen_range(0..8) == 0).then(|| rng.gen_range(0..n));
        let mut t = TripletMatrix::new(n, n);
        let mut rowsum = vec![0.0f64; n];
        for (i, j) in pos {
            if i != j && Some(i) != empty {
                let v: f64 = rng.gen_range(-1.0..1.0);
                t.push(i, j, v);
                rowsum[i] += v.abs();
            }
        }
        for (i, s) in rowsum.iter().enumerate() {
            if Some(i) != empty {
                t.push(i, i, s + 1.0);
            }
        }
        t.to_csr()
    }

    fn inode_sizes(f: &IluFactors) -> Vec<usize> {
        f.inodes().map(|r| r.len()).collect()
    }

    #[test]
    fn inodes_split_vertex_blocks_at_five_rows() {
        // A chain of vertices: neighbouring vertices never share their
        // column set, so each node lies inside one vertex block.
        let nv = 4;
        for b in 1..=7 {
            let mut t = TripletMatrix::new(nv * b, nv * b);
            for v in 0..nv {
                for w in v.saturating_sub(1)..(v + 2).min(nv) {
                    for c in 0..b {
                        for d in 0..b {
                            let diag = if (v, c) == (w, d) {
                                4.0 * b as f64
                            } else {
                                0.0
                            };
                            t.push(v * b + c, w * b + d, diag - 1.0 / (1 + c + d) as f64);
                        }
                    }
                }
            }
            let a = t.to_csr();
            let want: Vec<usize> = match b {
                6 => [5, 1].repeat(nv),
                7 => [5, 2].repeat(nv),
                _ => vec![b; nv],
            };
            for fill in [0, 1] {
                let opts = IluOptions::with_fill(fill);
                let mut f = check_against_reference(&a, &opts, &format!("b={b}")).unwrap();
                assert_eq!(inode_sizes(&f), want, "b={b} fill={fill}");
                f.refactor(&a).unwrap();
                assert_eq!(inode_sizes(&f), want, "refactor keeps the partition");
                assert_eq!(inode_sizes(&f.clone()), want, "clones keep the partition");
            }
        }
        assert_eq!(
            inode_sizes(&IluFactors::factor(&tridiag(7), &IluOptions::default()).unwrap()),
            vec![1; 7]
        );
        let empty = CsrMatrix::from_raw(0, 0, vec![0], Vec::new(), Vec::new());
        assert_eq!(
            IluFactors::factor(&empty, &IluOptions::default())
                .unwrap()
                .inodes()
                .count(),
            0
        );
    }

    #[test]
    fn zero_and_nan_pivots_in_a_node_report_the_reference_row() {
        // Three vertices of five unknowns in a chain; row 8 is row 3 of the
        // second node.  With its L entries and its diagonal zero, or its
        // diagonal NaN, its pivot fails after rows 5 to 7 have finished.
        let (nv, b) = (3, 5);
        let matrix = |diag8: f64| {
            let mut t = TripletMatrix::new(nv * b, nv * b);
            for v in 0..nv {
                for w in v.saturating_sub(1)..(v + 2).min(nv) {
                    for c in 0..b {
                        for d in 0..b {
                            let (i, j) = (v * b + c, w * b + d);
                            let val = match (i, j) {
                                (8, 8) => diag8,
                                (8, j) if j < 8 => 0.0,
                                _ if i == j => 10.0,
                                _ => 0.5 / (1 + c + 2 * d) as f64,
                            };
                            t.push(i, j, val);
                        }
                    }
                }
            }
            t.to_csr()
        };
        let good = matrix(10.0);
        let f = check_against_reference(&good, &IluOptions::default(), "good").unwrap();
        assert_eq!(inode_sizes(&f), vec![5; 3]);
        for bad in [0.0, f64::NAN] {
            let a = matrix(bad);
            let what = format!("diagonal {bad}");
            assert!(check_against_reference(&a, &IluOptions::default(), &what).is_none());
            assert_eq!(
                IluFactors::factor(&a, &IluOptions::default()).err(),
                Some(IluError::ZeroPivot(8)),
                "{what}"
            );
            // A failed refactor leaves the previous factors in place.
            let mut g = f.clone();
            assert_eq!(g.refactor(&a), Err(IluError::ZeroPivot(8)), "{what}");
            assert!(value_bits(&g) == value_bits(&f), "{what}");
        }
    }

    #[test]
    fn matches_pattern_checks_the_source_pattern() {
        let a = dd_matrix(40, 7);
        for fill in [0, 1, 2] {
            let opts = IluOptions::with_fill(fill);
            let f = IluFactors::factor(&a, &opts).unwrap();
            let mut scaled = a.clone();
            scaled.scale(3.0);
            assert!(f.matches_pattern(&a) && f.is_template_for(&scaled, &opts));
            // Foreign patterns: a subset (the diagonal), other random
            // couplings, another dimension.
            assert!(!f.is_template_for(&CsrMatrix::identity(40), &opts));
            assert!(!f.is_template_for(&dd_matrix(40, 8), &opts));
            assert!(!f.is_template_for(&dd_matrix(41, 7), &opts));
            assert!(!f.is_template_for(&a, &IluOptions::with_fill(fill + 1)));
            let single = IluOptions {
                fill_level: fill,
                storage: PrecStorage::Single,
            };
            assert!(!f.is_template_for(&a, &single));
        }
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
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The I-node elimination and sweeps equal the row-by-row reference
        /// bit for bit (factor values, zero-pivot rows, solves and level
        /// walks; see [`check_against_reference`]) on every family of
        /// [`block_matrix`]: interlaced vertex blocks of 1 to 7 rows (6 and
        /// 7 split into 5 + 1 and 5 + 2), segregated blocks (one-row
        /// nodes), rows that share their L columns but not their U columns,
        /// and empty rows; and on [`dd_matrix`]'s irregular rows; at fill 0
        /// and 1 in both storages.  Every node obeys the node rule and is
        /// maximal.
        #[test]
        fn inode_kernels_match_the_row_by_row_reference(
            nv in 1usize..16,
            b in 1usize..8,
            family in 0usize..4,
            fill in 0usize..2,
            storage in 0usize..2,
            seed in 0u64..1 << 40,
        ) {
            let a = match family {
                3 => dd_matrix(nv * b, seed),
                _ => block_matrix(nv, b, family, seed),
            };
            let storage = [PrecStorage::Double, PrecStorage::Single][storage];
            let opts = IluOptions { fill_level: fill, storage };
            let what = format!("nv={nv} b={b} family={family} fill={fill} {storage:?} seed={seed}");
            let f = IluFactors::analyze(&a, fill);
            let nodes: Vec<_> = f.inodes().collect();
            proptest::prop_assert_eq!(nodes.last().map_or(0, |r| r.end), a.nrows());
            for (k, node) in nodes.iter().enumerate() {
                proptest::prop_assert!((1..=INODE_MAX).contains(&node.len()), "{}", what);
                for i in node.clone() {
                    proptest::prop_assert!(f.row_set(i).eq(f.row_set(node.start)), "{}", what);
                }
                if let Some(next) = nodes.get(k + 1) {
                    let full = node.len() == INODE_MAX;
                    let differs = !f.row_set(next.start).eq(f.row_set(node.start));
                    proptest::prop_assert!(full || differs, "{} node {:?} is not maximal", what, node);
                }
            }
            check_against_reference(&a, &opts, &what);
        }

        /// ILU(0)'s split at the diagonal gives exactly what the
        /// level-of-fill analysis gives at fill 0 (pattern, source bits,
        /// level schedules, I-node partition and in-node counts) and the
        /// same factors or zero-pivot row, on every family of
        /// [`block_matrix`] (empty rows included), on [`dd_matrix`], and
        /// with one row's diagonal dropped from the matrix.
        #[test]
        fn ilu0_pattern_split_matches_the_level_of_fill_analysis(
            nv in 1usize..16,
            b in 1usize..8,
            family in 0usize..4,
            drop_diagonal in 0usize..2,
            row in 0usize..1000,
            seed in 0u64..1 << 40,
        ) {
            let mut a = match family {
                3 => dd_matrix(nv * b, seed),
                _ => block_matrix(nv, b, family, seed),
            };
            let row = row % a.nrows();
            if drop_diagonal == 1 {
                a = without_diagonal(&a, row);
            }
            let what = format!("nv={nv} b={b} family={family} drop={drop_diagonal} row={row} seed={seed}");
            let split = IluFactors::analyze(&a, 0);
            let iluk = IluFactors::analyze_iluk(&a, 0);
            proptest::prop_assert!(split.l_pattern() == iluk.l_pattern(), "{}", what);
            proptest::prop_assert!(split.u_pattern() == iluk.u_pattern(), "{}", what);
            proptest::prop_assert_eq!(&split.source, &iluk.source, "{}", what);
            proptest::prop_assert_eq!(&split.node_ptr, &iluk.node_ptr, "{}", what);
            proptest::prop_assert_eq!(&split.u_in_node, &iluk.u_in_node, "{}", what);
            for (s, k) in [(&split.l_levels, &iluk.l_levels), (&split.u_levels, &iluk.u_levels)] {
                proptest::prop_assert!(s.ptr == k.ptr && s.rows == k.rows, "{}", what);
            }
            proptest::prop_assert!(split.matches_pattern(&a), "{}", what);
            let [mut fs, mut fk] = [split, iluk];
            match (fs.refactor(&a), fk.refactor(&a)) {
                (Ok(()), Ok(())) => proptest::prop_assert!(value_bits(&fs) == value_bits(&fk), "{}", what),
                (s, k) => proptest::prop_assert_eq!(s, k, "{}", what),
            }
        }
    }

    /// `a` without its diagonal entry in row `i`.
    fn without_diagonal(a: &CsrMatrix, i: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(a.nrows(), a.ncols());
        for r in 0..a.nrows() {
            for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                if (r, c as usize) != (i, i) {
                    t.push(r, c as usize, v);
                }
            }
        }
        t.to_csr()
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
