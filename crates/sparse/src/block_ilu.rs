//! Point-block ILU(0) on BCSR storage — the PETSc `PCILU` on `BAIJ`
//! matrices that PETSc-FUN3D actually runs.
//!
//! Once the Jacobian is structurally blocked (Section 2.1.2), the natural
//! incomplete factorization treats each `b x b` block as a scalar: the
//! elimination works on the *block* sparsity pattern with dense block
//! arithmetic, and the diagonal blocks are inverted outright so the
//! triangular solves contain no division (and touch one `u32` index per
//! block instead of per entry — the integer-load reduction Table 1's
//! "Structural Blocking" column buys in the solve phase).
//!
//! As for [`BcsrMatrix`] SpMV, the block size alone picks the kernels:
//! const-`B` elimination for `b` = 2..=5 and const-`B` sweeps and level
//! walks for `b` = 1..=5, the runtime-`b` loops otherwise.  Both shapes
//! compute bitwise-identical factors and solutions, so the runtime-`b`
//! loops are also the reference the unit tests compare the others with.

use crate::bcsr::BcsrMatrix;
use crate::dense::{
    block_gemm, block_gemm_b, block_gemm_sub, block_gemm_sub_b, block_gemv_b, block_gemv_sub,
    block_gemv_sub_b, lu_factor, lu_invert, lu_invert_b,
};
use crate::ilu::{level_schedule, IluError, LevelSchedule};
use crate::par::{DisjointSliceMut, ParCtx};

/// A block ILU(0) factorization of a BCSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockIluFactors {
    /// Block size.
    b: usize,
    /// Number of block rows.
    nb: usize,
    /// Strictly-lower block pattern.
    l_ptr: Vec<usize>,
    l_idx: Vec<u32>,
    /// Strictly-upper block pattern.
    u_ptr: Vec<usize>,
    u_idx: Vec<u32>,
    /// L blocks (unit block-diagonal implicit), `b*b` each.
    l_vals: Vec<f64>,
    /// U strictly-upper blocks, `b*b` each.
    u_vals: Vec<f64>,
    /// Inverted diagonal blocks, `b*b` each.
    inv_diag: Vec<f64>,
    /// Level sets over block rows for the parallel sweeps (pattern-only,
    /// computed once at factor time, widest level included).
    l_levels: LevelSchedule,
    u_levels: LevelSchedule,
}

impl BlockIluFactors {
    /// Factor a square BCSR matrix with zero block fill (the pattern of `A`).
    ///
    /// Returns [`IluError::ZeroPivot`] (with the *block row* index) when a
    /// diagonal block is singular.
    pub fn factor(a: &BcsrMatrix) -> Result<Self, IluError> {
        let mut me = Self::symbolic(a)?;
        me.eliminate(a)?;
        Ok(me)
    }

    /// The split pattern and level schedules of `a`, with zero values.
    fn symbolic(a: &BcsrMatrix) -> Result<Self, IluError> {
        assert_eq!(a.nbrows(), a.nbcols(), "block ILU needs a square matrix");
        let b = a.block_size();
        let bb = b * b;
        let nb = a.nbrows();

        // Split the pattern into strictly-lower / diagonal / strictly-upper.
        let mut l_ptr = Vec::with_capacity(nb + 1);
        let mut u_ptr = Vec::with_capacity(nb + 1);
        let mut l_idx: Vec<u32> = Vec::new();
        let mut u_idx: Vec<u32> = Vec::new();
        l_ptr.push(0);
        u_ptr.push(0);
        for i in 0..nb {
            let cols = a.row_bcols(i);
            let nl = cols.partition_point(|&c| (c as usize) < i);
            if cols.get(nl) != Some(&(i as u32)) {
                return Err(IluError::ZeroPivot(i));
            }
            l_idx.extend_from_slice(&cols[..nl]);
            u_idx.extend_from_slice(&cols[nl + 1..]);
            l_ptr.push(l_idx.len());
            u_ptr.push(u_idx.len());
        }

        let l_levels = level_schedule(nb, &l_ptr, &l_idx, false);
        let u_levels = level_schedule(nb, &u_ptr, &u_idx, true);
        Ok(Self {
            b,
            nb,
            l_vals: vec![0.0; l_idx.len() * bb],
            u_vals: vec![0.0; u_idx.len() * bb],
            inv_diag: vec![0.0; nb * bb],
            l_ptr,
            l_idx,
            u_ptr,
            u_idx,
            l_levels,
            u_levels,
        })
    }

    /// Refactor from a new matrix with this factor's block pattern, keeping
    /// the split pattern and the level schedules: only the numeric block
    /// elimination reruns, so the result is bitwise identical to a fresh
    /// [`Self::factor`].  This is the per-step path of a blocked ΨNKS solve.
    ///
    /// Returns [`IluError::ZeroPivot`] (with the block row) when a diagonal
    /// block is singular; the factor values are then unspecified until the
    /// next successful refactor.
    ///
    /// # Panics
    /// Panics unless `a` has exactly this factor's block pattern
    /// ([`Self::matches_pattern`]).
    pub fn refactor(&mut self, a: &BcsrMatrix) -> Result<(), IluError> {
        assert!(
            self.matches_pattern(a),
            "block ILU refactor needs the block pattern it was factored from"
        );
        self.eliminate(a)
    }

    /// Whether `a` has this factor's block size and block pattern, so that
    /// [`Self::refactor`] accepts it (a clone then serves as a symbolic
    /// template for `a`).
    pub fn matches_pattern(&self, a: &BcsrMatrix) -> bool {
        a.block_size() == self.b
            && a.nbrows() == self.nb
            && a.nbcols() == self.nb
            && a.nnz_blocks() == self.nnz_blocks()
            && (0..self.nb).all(|i| {
                let cols = a.row_bcols(i);
                let (l, u) = (self.l_row(i), self.u_row(i));
                cols.len() == l.len() + 1 + u.len()
                    && cols[..l.len()] == *l
                    && cols[l.len()] == i as u32
                    && cols[l.len() + 1..] == *u
            })
    }

    fn l_row(&self, i: usize) -> &[u32] {
        &self.l_idx[self.l_ptr[i]..self.l_ptr[i + 1]]
    }

    fn u_row(&self, i: usize) -> &[u32] {
        &self.u_idx[self.u_ptr[i]..self.u_ptr[i + 1]]
    }

    /// Load `a`'s blocks and run the block IKJ elimination on the kernels
    /// for this block size.
    fn eliminate(&mut self, a: &BcsrMatrix) -> Result<(), IluError> {
        self.load(a);
        match self.b {
            4 => self.eliminate_b::<4>(),
            5 => self.eliminate_b::<5>(),
            3 => self.eliminate_b::<3>(),
            2 => self.eliminate_b::<2>(),
            _ => self.eliminate_generic(),
        }
    }

    /// Copy `a`'s blocks into the split storage, the diagonal into
    /// `inv_diag` (which the elimination inverts in place as each row
    /// finishes).
    fn load(&mut self, a: &BcsrMatrix) {
        let bb = self.b * self.b;
        for i in 0..self.nb {
            let src = &a.values()[a.row_ptr()[i] * bb..a.row_ptr()[i + 1] * bb];
            let (nl, nu) = (self.l_row(i).len() * bb, self.u_row(i).len() * bb);
            self.l_vals[self.l_ptr[i] * bb..self.l_ptr[i + 1] * bb].copy_from_slice(&src[..nl]);
            self.inv_diag[i * bb..(i + 1) * bb].copy_from_slice(&src[nl..nl + bb]);
            self.u_vals[self.u_ptr[i] * bb..self.u_ptr[i + 1] * bb]
                .copy_from_slice(&src[nl + bb..nl + bb + nu]);
        }
    }

    /// Runtime-`b` block IKJ elimination restricted to the existing pattern,
    /// which finds target blocks by binary search: the path for `b` = 1 and
    /// `b > 5`, and the tests' reference.
    fn eliminate_generic(&mut self) -> Result<(), IluError> {
        let b = self.b;
        let bb = b * b;
        let (l_ptr, l_idx, u_ptr, u_idx) = (&self.l_ptr, &self.l_idx, &self.u_ptr, &self.u_idx);
        let (l_vals, u_vals, diag) = (&mut self.l_vals, &mut self.u_vals, &mut self.inv_diag);
        let mut tmp = vec![0.0f64; bb];
        let mut lu = vec![0.0f64; bb];
        let mut piv = vec![0usize; b];
        for i in 0..self.nb {
            // For each L block (ascending k): L_ik <- A_ik * inv(U_kk), then
            // update the remaining blocks of row i against U row k.
            for li in l_ptr[i]..l_ptr[i + 1] {
                let k = l_idx[li] as usize;
                // tmp = L_ik * inv_diag[k]
                block_gemm(
                    &l_vals[li * bb..(li + 1) * bb],
                    &diag[k * bb..(k + 1) * bb],
                    &mut tmp,
                    b,
                );
                l_vals[li * bb..(li + 1) * bb].copy_from_slice(&tmp);
                // Row i's remaining pattern vs U row k: for j in U(k),
                // update L_ij (j < i), D_ii (j == i), or U_ij (j > i).
                // The source block U_kj is borrowed in place — the Less /
                // Equal arms write disjoint arrays, and the Greater arm
                // splits `u_vals` at row i's first block (U row k, with
                // k < i, lies strictly before it) — so the inner loop
                // allocates nothing.
                for uk in u_ptr[k]..u_ptr[k + 1] {
                    let j = u_idx[uk] as usize;
                    match j.cmp(&i) {
                        std::cmp::Ordering::Less => {
                            // Find L_ij among the remaining L blocks of row i.
                            if let Some(pos) = find_block(&l_idx[l_ptr[i]..l_ptr[i + 1]], j as u32)
                            {
                                let slot = l_ptr[i] + pos;
                                let ukj = &u_vals[uk * bb..(uk + 1) * bb];
                                block_gemm_sub(
                                    &tmp,
                                    ukj,
                                    &mut l_vals[slot * bb..(slot + 1) * bb],
                                    b,
                                );
                            }
                        }
                        std::cmp::Ordering::Equal => {
                            let ukj = &u_vals[uk * bb..(uk + 1) * bb];
                            block_gemm_sub(&tmp, ukj, &mut diag[i * bb..(i + 1) * bb], b);
                        }
                        std::cmp::Ordering::Greater => {
                            if let Some(pos) = find_block(&u_idx[u_ptr[i]..u_ptr[i + 1]], j as u32)
                            {
                                let (done, rest) = u_vals.split_at_mut(u_ptr[i] * bb);
                                let ukj = &done[uk * bb..(uk + 1) * bb];
                                block_gemm_sub(&tmp, ukj, &mut rest[pos * bb..(pos + 1) * bb], b);
                            }
                        }
                    }
                }
            }
            // Invert the (updated) diagonal block in place.
            lu.copy_from_slice(&diag[i * bb..(i + 1) * bb]);
            if lu_factor(&mut lu, &mut piv, b).is_err() {
                return Err(IluError::ZeroPivot(i));
            }
            lu_invert(&lu, &piv, &mut diag[i * bb..(i + 1) * bb], b);
        }
        Ok(())
    }

    /// Const-`B` twin of [`Self::eliminate_generic`]: the same updates in
    /// the same order on the const kernels (bitwise identical), with row
    /// i's target blocks found through a per-row position map instead of a
    /// binary search, and no allocation beyond the map.
    fn eliminate_b<const B: usize>(&mut self) -> Result<(), IluError> {
        const NONE: u32 = u32::MAX;
        let bb = B * B;
        let (l_ptr, l_idx, u_ptr, u_idx) = (&self.l_ptr, &self.l_idx, &self.u_ptr, &self.u_idx);
        let (l_vals, u_vals, diag) = (&mut self.l_vals, &mut self.u_vals, &mut self.inv_diag);
        // slot[j]: the L or U block of the current row i in block column j
        // (L when j < i, U when j > i), or NONE outside row i's pattern.
        let mut slot = vec![NONE; self.nb];
        let mut tmp = [0.0f64; 25];
        let mut lu = [0.0f64; 25];
        let mut piv = [0usize; 5];
        for i in 0..self.nb {
            let (lr, ur) = (l_ptr[i]..l_ptr[i + 1], u_ptr[i]..u_ptr[i + 1]);
            for li in lr.clone() {
                slot[l_idx[li] as usize] = li as u32;
            }
            for ui in ur.clone() {
                slot[u_idx[ui] as usize] = ui as u32;
            }
            // U rows k < i lie wholly before row i's first U block.
            let (u_done, u_row) = u_vals.split_at_mut(ur.start * bb);
            for li in lr.clone() {
                let k = l_idx[li] as usize;
                let tmp = &mut tmp[..bb];
                block_gemm_b::<B>(
                    &l_vals[li * bb..(li + 1) * bb],
                    &diag[k * bb..(k + 1) * bb],
                    tmp,
                );
                l_vals[li * bb..(li + 1) * bb].copy_from_slice(tmp);
                for uk in u_ptr[k]..u_ptr[k + 1] {
                    let j = u_idx[uk] as usize;
                    let ukj = &u_done[uk * bb..(uk + 1) * bb];
                    let target = match j.cmp(&i) {
                        std::cmp::Ordering::Equal => &mut diag[i * bb..(i + 1) * bb],
                        _ if slot[j] == NONE => continue,
                        std::cmp::Ordering::Less => {
                            let s = slot[j] as usize;
                            &mut l_vals[s * bb..(s + 1) * bb]
                        }
                        std::cmp::Ordering::Greater => {
                            let s = slot[j] as usize - ur.start;
                            &mut u_row[s * bb..(s + 1) * bb]
                        }
                    };
                    block_gemm_sub_b::<B>(tmp, ukj, target);
                }
            }
            for &c in l_idx[lr].iter().chain(&u_idx[ur]) {
                slot[c as usize] = NONE;
            }
            let lu = &mut lu[..bb];
            lu.copy_from_slice(&diag[i * bb..(i + 1) * bb]);
            if lu_factor(lu, &mut piv[..B], B).is_err() {
                return Err(IluError::ZeroPivot(i));
            }
            lu_invert_b::<B>(lu, &piv[..B], &mut diag[i * bb..(i + 1) * bb]);
        }
        Ok(())
    }

    /// Block size.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Matrix dimension in points.
    pub fn n(&self) -> usize {
        self.nb * self.b
    }

    /// Stored blocks (L + U + diagonal).
    pub fn nnz_blocks(&self) -> usize {
        self.l_idx.len() + self.u_idx.len() + self.nb
    }

    /// Analytic bytes moved by one block triangular solve: every stored
    /// block streams once (8 B per entry), one 4-byte block index per
    /// off-diagonal block, the two block-row pointers stream once, and `x`
    /// is read and written through both sweeps.
    pub fn solve_traffic_bytes(&self) -> f64 {
        let bb = (self.b * self.b) as f64;
        let nb = self.nb as f64;
        let n = self.n() as f64;
        let offdiag = (self.l_idx.len() + self.u_idx.len()) as f64;
        8.0 * self.nnz_blocks() as f64 * bb + 4.0 * offdiag + 2.0 * 8.0 * (nb + 1.0) + 4.0 * 8.0 * n
    }

    /// Apply the preconditioner: `x <- U^{-1} L^{-1} b` with block solves.
    pub fn solve(&self, rhs: &[f64], x: &mut [f64]) {
        assert_eq!(rhs.len(), self.n());
        assert_eq!(x.len(), self.n());
        x.copy_from_slice(rhs);
        self.solve_in_place(x);
    }

    /// In-place block triangular solves, dispatched once per call on the
    /// block size.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        match self.b {
            4 => self.solve_in_place_b::<4>(x),
            5 => self.solve_in_place_b::<5>(x),
            3 => self.solve_in_place_b::<3>(x),
            2 => self.solve_in_place_b::<2>(x),
            1 => self.solve_in_place_b::<1>(x),
            _ => self.solve_in_place_generic(x),
        }
    }

    /// Runtime-`b` sweeps: the path for `b > 5`, and the tests' reference.
    /// The per-call scratch vectors are allocated once; the loops
    /// themselves allocate nothing (`x` sub-blocks are borrowed in place,
    /// disjoint from the local accumulators).
    fn solve_in_place_generic(&self, x: &mut [f64]) {
        let b = self.b;
        let bb = b * b;
        let mut xi = vec![0.0f64; b];
        // Forward: (I + L) y = rhs.
        for i in 0..self.nb {
            xi.copy_from_slice(&x[i * b..(i + 1) * b]);
            for li in self.l_ptr[i]..self.l_ptr[i + 1] {
                let k = self.l_idx[li] as usize;
                let lik = &self.l_vals[li * bb..(li + 1) * bb];
                block_gemv_sub(lik, &x[k * b..(k + 1) * b], &mut xi, b);
            }
            x[i * b..(i + 1) * b].copy_from_slice(&xi);
        }
        // Backward: (D + U) x = y  =>  x_i = invD_i (y_i - sum U_ij x_j).
        let mut acc = vec![0.0f64; b];
        let mut out = vec![0.0f64; b];
        for i in (0..self.nb).rev() {
            acc.copy_from_slice(&x[i * b..(i + 1) * b]);
            for ui in self.u_ptr[i]..self.u_ptr[i + 1] {
                let j = self.u_idx[ui] as usize;
                let uij = &self.u_vals[ui * bb..(ui + 1) * bb];
                block_gemv_sub(uij, &x[j * b..(j + 1) * b], &mut acc, b);
            }
            let invd = &self.inv_diag[i * bb..(i + 1) * bb];
            crate::dense::block_gemv(invd, &acc, &mut out, b);
            x[i * b..(i + 1) * b].copy_from_slice(&out);
        }
    }

    /// Const-unrolled sweeps: stack-array accumulators and lane gemv
    /// kernels, bitwise identical to [`Self::solve_in_place_generic`].
    fn solve_in_place_b<const B: usize>(&self, x: &mut [f64]) {
        let bb = B * B;
        // Forward: (I + L) y = rhs.
        for i in 0..self.nb {
            let mut xi: [f64; B] = x[i * B..(i + 1) * B].try_into().unwrap();
            for li in self.l_ptr[i]..self.l_ptr[i + 1] {
                let k = self.l_idx[li] as usize;
                let lik = &self.l_vals[li * bb..(li + 1) * bb];
                block_gemv_sub_b::<B>(lik, &x[k * B..k * B + B], &mut xi);
            }
            x[i * B..(i + 1) * B].copy_from_slice(&xi);
        }
        // Backward: (D + U) x = y  =>  x_i = invD_i (y_i - sum U_ij x_j).
        for i in (0..self.nb).rev() {
            let mut acc: [f64; B] = x[i * B..(i + 1) * B].try_into().unwrap();
            for ui in self.u_ptr[i]..self.u_ptr[i + 1] {
                let j = self.u_idx[ui] as usize;
                let uij = &self.u_vals[ui * bb..(ui + 1) * bb];
                block_gemv_sub_b::<B>(uij, &x[j * B..j * B + B], &mut acc);
            }
            let invd = &self.inv_diag[i * bb..(i + 1) * bb];
            let out = block_gemv_b::<B>(invd, &acc);
            x[i * B..(i + 1) * B].copy_from_slice(&out);
        }
    }

    /// Number of dependency levels in the (forward, backward) block sweeps.
    pub fn level_counts(&self) -> (usize, usize) {
        (self.l_levels.nlevels(), self.u_levels.nlevels())
    }

    /// Parallel [`solve`](Self::solve) via level-scheduled block sweeps.
    pub fn solve_par(&self, rhs: &[f64], x: &mut [f64], ctx: &ParCtx) {
        assert_eq!(rhs.len(), self.n());
        assert_eq!(x.len(), self.n());
        x.copy_from_slice(rhs);
        self.solve_in_place_par(x, ctx);
    }

    /// Level-scheduled parallel [`solve_in_place`](Self::solve_in_place):
    /// block rows within a level have no mutual dependencies, each writes
    /// only its own `b`-entry slice of `x`, and the per-row arithmetic is
    /// the exact sequential sequence — bitwise identical for any thread
    /// count.  When no level has enough block rows for `ctx` to fork on,
    /// the natural-order sequential sweep runs instead.
    pub fn solve_in_place_par(&self, x: &mut [f64], ctx: &ParCtx) {
        if !(ctx.forks(self.l_levels.widest) || ctx.forks(self.u_levels.widest)) {
            return self.solve_in_place(x);
        }
        self.solve_in_place_levels(x, ctx);
    }

    /// The level walk of [`Self::solve_in_place_par`], whether or not any
    /// level forks.
    pub(crate) fn solve_in_place_levels(&self, x: &mut [f64], ctx: &ParCtx) {
        match self.b {
            4 => self.solve_in_place_par_b::<4>(x, ctx),
            5 => self.solve_in_place_par_b::<5>(x, ctx),
            3 => self.solve_in_place_par_b::<3>(x, ctx),
            2 => self.solve_in_place_par_b::<2>(x, ctx),
            1 => self.solve_in_place_par_b::<1>(x, ctx),
            _ => self.solve_in_place_par_generic(x, ctx),
        }
    }

    /// Runtime-`b` level sweeps: the path for `b > 5`, and the tests'
    /// reference.
    fn solve_in_place_par_generic(&self, x: &mut [f64], ctx: &ParCtx) {
        let b = self.b;
        let bb = b * b;
        let view = DisjointSliceMut::new(x);
        // Forward: (I + L) y = rhs.
        for lev in 0..self.l_levels.nlevels() {
            let rows = self.l_levels.level(lev);
            ctx.parallel_for("bilu_lower", rows.len(), |_, r| {
                let mut xi = vec![0.0f64; b];
                for &iu in &rows[r] {
                    let i = iu as usize;
                    // SAFETY: block row i is this level's only writer of
                    // x[i*b..(i+1)*b]; reads come from earlier levels.
                    unsafe {
                        xi.copy_from_slice(view.slice(i * b..(i + 1) * b));
                        for li in self.l_ptr[i]..self.l_ptr[i + 1] {
                            let k = self.l_idx[li] as usize;
                            let lik = &self.l_vals[li * bb..(li + 1) * bb];
                            block_gemv_sub(lik, view.slice(k * b..(k + 1) * b), &mut xi, b);
                        }
                        view.slice_mut(i * b..(i + 1) * b).copy_from_slice(&xi);
                    }
                }
            });
        }
        // Backward: (D + U) x = y.
        for lev in 0..self.u_levels.nlevels() {
            let rows = self.u_levels.level(lev);
            ctx.parallel_for("bilu_upper", rows.len(), |_, r| {
                let mut acc = vec![0.0f64; b];
                let mut out = vec![0.0f64; b];
                for &iu in &rows[r] {
                    let i = iu as usize;
                    // SAFETY: as above, with dependencies pointing upward.
                    unsafe {
                        acc.copy_from_slice(view.slice(i * b..(i + 1) * b));
                        for ui in self.u_ptr[i]..self.u_ptr[i + 1] {
                            let j = self.u_idx[ui] as usize;
                            let uij = &self.u_vals[ui * bb..(ui + 1) * bb];
                            block_gemv_sub(uij, view.slice(j * b..(j + 1) * b), &mut acc, b);
                        }
                        let invd = &self.inv_diag[i * bb..(i + 1) * bb];
                        crate::dense::block_gemv(invd, &acc, &mut out, b);
                        view.slice_mut(i * b..(i + 1) * b).copy_from_slice(&out);
                    }
                }
            });
        }
    }

    /// Const-unrolled level sweeps.  The level schedule fixes which rows
    /// run when, and the per-row arithmetic is the exact sequential
    /// sequence, so this stays bitwise identical to [`Self::solve_in_place`]
    /// for any thread count; the only changes are stack-array accumulators
    /// and the lane gemv kernels — the sweep closures allocate nothing.
    fn solve_in_place_par_b<const B: usize>(&self, x: &mut [f64], ctx: &ParCtx) {
        let bb = B * B;
        let view = DisjointSliceMut::new(x);
        // Forward: (I + L) y = rhs.
        for lev in 0..self.l_levels.nlevels() {
            let rows = self.l_levels.level(lev);
            ctx.parallel_for("bilu_lower", rows.len(), |_, r| {
                for &iu in &rows[r] {
                    let i = iu as usize;
                    // SAFETY: block row i is this level's only writer of
                    // x[i*B..(i+1)*B]; reads come from earlier levels.
                    unsafe {
                        let mut xi: [f64; B] = view.slice(i * B..(i + 1) * B).try_into().unwrap();
                        for li in self.l_ptr[i]..self.l_ptr[i + 1] {
                            let k = self.l_idx[li] as usize;
                            let lik = &self.l_vals[li * bb..(li + 1) * bb];
                            block_gemv_sub_b::<B>(lik, view.slice(k * B..(k + 1) * B), &mut xi);
                        }
                        view.slice_mut(i * B..(i + 1) * B).copy_from_slice(&xi);
                    }
                }
            });
        }
        // Backward: (D + U) x = y.
        for lev in 0..self.u_levels.nlevels() {
            let rows = self.u_levels.level(lev);
            ctx.parallel_for("bilu_upper", rows.len(), |_, r| {
                for &iu in &rows[r] {
                    let i = iu as usize;
                    // SAFETY: as above, with dependencies pointing upward.
                    unsafe {
                        let mut acc: [f64; B] = view.slice(i * B..(i + 1) * B).try_into().unwrap();
                        for ui in self.u_ptr[i]..self.u_ptr[i + 1] {
                            let j = self.u_idx[ui] as usize;
                            let uij = &self.u_vals[ui * bb..(ui + 1) * bb];
                            block_gemv_sub_b::<B>(uij, view.slice(j * B..(j + 1) * B), &mut acc);
                        }
                        let invd = &self.inv_diag[i * bb..(i + 1) * bb];
                        let out = block_gemv_b::<B>(invd, &acc);
                        view.slice_mut(i * B..(i + 1) * B).copy_from_slice(&out);
                    }
                }
            });
        }
    }
}

#[inline]
fn find_block(cols: &[u32], c: u32) -> Option<usize> {
    cols.binary_search(&c).ok()
}

impl std::fmt::Display for BlockIluFactors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BlockIlu(b={}, nb={}, blocks={})",
            self.b,
            self.nb,
            self.nnz_blocks()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::ilu::{IluFactors, IluOptions};
    use crate::triplet::TripletMatrix;
    use crate::vec_ops::norm2;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Block-tridiagonal, diagonally dominant system.
    fn block_tridiag(nb: usize, b: usize, seed: u64) -> CsrMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = TripletMatrix::new(nb * b, nb * b);
        for i in 0..nb {
            for j in [i.wrapping_sub(1), i, i + 1] {
                if j >= nb {
                    continue;
                }
                let mut blk: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-0.5..0.5)).collect();
                if i == j {
                    for d in 0..b {
                        blk[d * b + d] += 4.0;
                    }
                }
                t.push_block(i, j, b, &blk);
            }
        }
        t.to_csr()
    }

    fn residual(a: &CsrMatrix, x: &[f64], rhs: &[f64]) -> f64 {
        let mut r = vec![0.0; rhs.len()];
        a.spmv(x, &mut r);
        for (ri, bi) in r.iter_mut().zip(rhs) {
            *ri -= bi;
        }
        norm2(&r)
    }

    #[test]
    fn block_ilu0_on_block_tridiagonal_is_exact() {
        // No block fill exists outside the pattern, so BILU(0) == block LU.
        for b in [2usize, 4, 5] {
            let a = block_tridiag(20, b, 3);
            let ab = BcsrMatrix::from_csr(&a, b);
            let f = BlockIluFactors::factor(&ab).unwrap();
            let n = a.nrows();
            let rhs: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
            let mut x = vec![0.0; n];
            f.solve(&rhs, &mut x);
            assert!(
                residual(&a, &x, &rhs) < 1e-9 * norm2(&rhs),
                "b={b}: block-tridiagonal BILU(0) must solve exactly"
            );
        }
    }

    #[test]
    fn block_and_point_ilu_agree_on_block_diagonal_matrix() {
        // With only diagonal blocks, both factorizations invert exactly.
        let b = 3;
        let nb = 10;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut t = TripletMatrix::new(nb * b, nb * b);
        for i in 0..nb {
            let mut blk: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for d in 0..b {
                blk[d * b + d] += 3.0;
            }
            t.push_block(i, i, b, &blk);
        }
        let a = t.to_csr();
        let ab = BcsrMatrix::from_csr(&a, b);
        let fb = BlockIluFactors::factor(&ab).unwrap();
        let n = a.nrows();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut x1 = vec![0.0; n];
        fb.solve(&rhs, &mut x1);
        // Point ILU with full fill is exact LU here too.
        let fp = IluFactors::factor(&a, &IluOptions::with_fill(b)).unwrap();
        let mut x2 = vec![0.0; n];
        fp.solve(&rhs, &mut x2);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn block_ilu_is_a_usable_preconditioner_on_general_pattern() {
        // Random block pattern with fill dropped: approximate inverse, so
        // the preconditioned residual should shrink markedly in one pass.
        let b = 4;
        let nb = 40;
        let mut rng = SmallRng::seed_from_u64(17);
        let mut t = TripletMatrix::new(nb * b, nb * b);
        for i in 0..nb {
            let mut js = vec![i];
            for _ in 0..2 {
                js.push(rng.gen_range(0..nb));
            }
            js.sort_unstable();
            js.dedup();
            for j in js {
                let mut blk: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-0.3..0.3)).collect();
                if i == j {
                    for d in 0..b {
                        blk[d * b + d] += 5.0;
                    }
                }
                t.push_block(i, j, b, &blk);
            }
        }
        let a = t.to_csr();
        let ab = BcsrMatrix::from_csr(&a, b);
        let f = BlockIluFactors::factor(&ab).unwrap();
        let n = a.nrows();
        let rhs = vec![1.0; n];
        let mut x = vec![0.0; n];
        f.solve(&rhs, &mut x);
        let r = residual(&a, &x, &rhs);
        assert!(
            r < 0.3 * norm2(&rhs),
            "one application should reduce the residual a lot: {r}"
        );
    }

    #[test]
    fn singular_diagonal_block_reports_row() {
        let b = 2;
        let mut t = TripletMatrix::new(4, 4);
        t.push_block(0, 0, b, &[1.0, 0.0, 0.0, 1.0]);
        t.push_block(1, 1, b, &[1.0, 1.0, 1.0, 1.0]); // singular
        let ab = BcsrMatrix::from_csr(&t.to_csr(), b);
        match BlockIluFactors::factor(&ab) {
            Err(IluError::ZeroPivot(1)) => {}
            other => panic!("expected zero pivot at block row 1, got {other:?}"),
        }
    }

    #[test]
    fn missing_diagonal_block_is_rejected() {
        let b = 2;
        let mut t = TripletMatrix::new(4, 4);
        t.push_block(0, 0, b, &[1.0, 0.0, 0.0, 1.0]);
        t.push_block(1, 0, b, &[1.0, 0.0, 0.0, 1.0]);
        let ab = BcsrMatrix::from_csr(&t.to_csr(), b);
        assert_eq!(BlockIluFactors::factor(&ab), Err(IluError::ZeroPivot(1)));
    }

    /// The bits of every stored factor value (L, U, inverted diagonal).
    fn value_bits(f: &BlockIluFactors) -> Vec<u64> {
        f.l_vals
            .iter()
            .chain(&f.u_vals)
            .chain(&f.inv_diag)
            .map(|v| v.to_bits())
            .collect()
    }

    /// `a` with every stored value scaled by a factor in `[1, 1.06]` that
    /// varies by slot: same block pattern, other values.
    fn perturbed(a: &BcsrMatrix) -> BcsrMatrix {
        let mut a2 = a.clone();
        for (k, v) in a2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * (k % 7) as f64;
        }
        a2
    }

    /// The runtime-`b` reference factor of `a`, whatever the block size.
    fn factor_reference(a: &BcsrMatrix) -> Result<BlockIluFactors, IluError> {
        let mut f = BlockIluFactors::symbolic(a)?;
        f.load(a);
        f.eliminate_generic()?;
        Ok(f)
    }

    /// Factor `a` both ways and check the factors and every solve path —
    /// `solve`, `solve_par` and the level walk on both kernel shapes —
    /// against the runtime-`b` reference sweep, bit for bit.
    fn assert_block_ilu_is_the_reference(a: &BcsrMatrix, rhs: &[f64], threads: &[usize]) {
        let b = a.block_size();
        let g = factor_reference(a).unwrap();
        let f = BlockIluFactors::factor(a).unwrap();
        assert_eq!(value_bits(&g), value_bits(&f), "factor b={b}");
        let mut x0 = rhs.to_vec();
        g.solve_in_place_generic(&mut x0);
        let mut x = vec![0.0; rhs.len()];
        f.solve(rhs, &mut x);
        assert_eq!(x0, x, "b={b}");
        for &nthreads in threads {
            let ctx = ParCtx::new(nthreads);
            f.solve_par(rhs, &mut x, &ctx);
            assert_eq!(x0, x, "b={b} nthreads={nthreads}");
            x.copy_from_slice(rhs);
            f.solve_in_place_levels(&mut x, &ctx);
            assert_eq!(x0, x, "levels b={b} nthreads={nthreads}");
            x.copy_from_slice(rhs);
            g.solve_in_place_par_generic(&mut x, &ctx);
            assert_eq!(x0, x, "reference levels b={b} nthreads={nthreads}");
        }
    }

    /// A diagonally dominant block matrix: an off-diagonal block at each
    /// off-diagonal `(bi, bj)` of `entries`, and a diagonal block in every
    /// row.
    fn dd_block_matrix(
        nb: usize,
        b: usize,
        entries: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> BcsrMatrix {
        let mut t = TripletMatrix::new(nb * b, nb * b);
        let mut ndiag = vec![0usize; nb];
        for (bi, bj, v) in entries {
            if bi != bj {
                let blk: Vec<f64> = (0..b * b).map(|q| v * 0.1 + q as f64 * 0.001).collect();
                t.push_block(bi, bj, b, &blk);
                ndiag[bi] += 1;
            }
        }
        for (bi, &count) in ndiag.iter().enumerate() {
            let mut blk: Vec<f64> = (0..b * b).map(|q| (q as f64 * 0.013).sin() * 0.2).collect();
            for d in 0..b {
                blk[d * b + d] += 2.0 + count as f64;
            }
            t.push_block(bi, bi, b, &blk);
        }
        BcsrMatrix::from_csr(&t.to_csr(), b)
    }

    #[test]
    fn factors_compare_by_pattern_and_values() {
        let a = BcsrMatrix::from_csr(&block_tridiag(8, 4, 2), 4);
        let f = BlockIluFactors::factor(&a).unwrap();
        assert_eq!(f, f.clone());
        // One pattern, other values.
        let g = BlockIluFactors::factor(&perturbed(&a)).unwrap();
        assert!(g.matches_pattern(&a));
        assert_ne!(f, g);
        // The same (empty) L pattern, another U pattern.
        let upper = dd_block_matrix(8, 4, (0..7).map(|i| (i, i + 1, 0.5)));
        let diag = dd_block_matrix(8, 4, []);
        let (fu, fd) = (
            BlockIluFactors::factor(&upper).unwrap(),
            BlockIluFactors::factor(&diag).unwrap(),
        );
        assert_eq!(fu.l_idx, fd.l_idx);
        assert_ne!(fu, fd);
    }

    /// `bad` (the pattern of `a`, other values) gives a zero pivot at block
    /// row 3 on a fresh factor and on a refactor from `a`, on both kernel
    /// shapes, and a later good refactor recovers `a`'s fresh factor bit
    /// for bit.
    fn assert_zero_pivot_at_row_3(a: &BcsrMatrix, bad: &BcsrMatrix, what: &str) {
        let case = format!("{what} b={}", a.block_size());
        let zero_pivot = Some(IluError::ZeroPivot(3));
        assert_eq!(BlockIluFactors::factor(bad).err(), zero_pivot, "{case}");
        assert_eq!(factor_reference(bad).err(), zero_pivot, "{case} reference");
        let mut f = BlockIluFactors::factor(a).unwrap();
        assert_eq!(f.refactor(bad).err(), zero_pivot, "{case}");
        let mut g = factor_reference(a).unwrap();
        g.load(bad);
        assert_eq!(g.eliminate_generic().err(), zero_pivot, "{case} reference");
        // A later good refactor recovers the fresh factor exactly.
        f.refactor(a).unwrap();
        g.load(a);
        g.eliminate_generic().unwrap();
        let fresh = value_bits(&factor_reference(a).unwrap());
        assert_eq!(value_bits(&f), fresh, "{case}");
        assert_eq!(value_bits(&g), fresh, "{case} reference");
    }

    #[test]
    fn singular_diagonal_block_in_refactor_reports_row() {
        // b = 2 and 4 reach the const elimination; 6 runs the runtime-b
        // one, which is also the reference at every size.
        for b in [2usize, 4, 6] {
            let a = BcsrMatrix::from_csr(&block_tridiag(6, b, 41), b);
            let mut bad = a.clone();
            // Zero block row 3's lower and diagonal blocks (the pattern
            // stays): the zero L block adds only zero products, so the
            // diagonal block stays zero and singular.
            let bb = b * b;
            let rp = bad.row_ptr()[3];
            bad.values_mut()[rp * bb..(rp + 2) * bb].fill(0.0);
            assert_zero_pivot_at_row_3(&a, &bad, "zero");
        }
    }

    #[test]
    fn nan_block_reports_zero_pivot() {
        // A NaN reaching block row 3's diagonal block fails its pivot
        // check, whichever block it enters through.  b = 2 and 4 reach the
        // const elimination, 6 the runtime-b one.
        for b in [2usize, 4, 6] {
            let a = BcsrMatrix::from_csr(&block_tridiag(6, b, 43), b);
            let bb = b * b;
            // Block row 3 of the block-tridiagonal matrix stores (3, 2),
            // (3, 3) and (3, 4); block row 2 stores (2, 3) last.
            let (l32, d33, u23) = (a.row_ptr()[3], a.row_ptr()[3] + 1, a.row_ptr()[3] - 1);
            let mut bad = a.clone();
            bad.values_mut()[d33 * bb + bb - 1] = f64::NAN;
            assert_zero_pivot_at_row_3(&a, &bad, "NaN diagonal");
            let mut bad = a.clone();
            bad.values_mut()[l32 * bb + 1] = f64::NAN;
            assert_zero_pivot_at_row_3(&a, &bad, "NaN lower");
            // A zero multiplier is applied, not skipped: a zero lower block
            // times a NaN in the upper block it meets is NaN too.
            let mut bad = a.clone();
            bad.values_mut()[l32 * bb..(l32 + 1) * bb].fill(0.0);
            bad.values_mut()[u23 * bb + bb / 2] = f64::NAN;
            assert_zero_pivot_at_row_3(&a, &bad, "zero lower, NaN upper");
        }
    }

    #[test]
    fn foreign_patterns_do_not_match() {
        let a = BcsrMatrix::from_csr(&block_tridiag(8, 4, 2), 4);
        let f = BlockIluFactors::factor(&a).unwrap();
        assert!(f.matches_pattern(&a));
        assert!(f.matches_pattern(&perturbed(&a)));
        // Same size and block size, diagonal-only pattern.
        let eye = BcsrMatrix::from_csr(&CsrMatrix::identity(32), 4);
        assert!(!f.matches_pattern(&eye));
        // Same point matrix, other block size.
        let a2 = BcsrMatrix::from_csr(&block_tridiag(8, 4, 2), 2);
        assert!(!f.matches_pattern(&a2));
        // Other dimension.
        let small = BcsrMatrix::from_csr(&block_tridiag(7, 4, 2), 4);
        assert!(!f.matches_pattern(&small));
    }

    #[test]
    #[should_panic(expected = "block pattern")]
    fn refactor_rejects_a_foreign_pattern() {
        let a = BcsrMatrix::from_csr(&block_tridiag(8, 4, 2), 4);
        let mut f = BlockIluFactors::factor(&a).unwrap();
        let eye = BcsrMatrix::from_csr(&CsrMatrix::identity(32), 4);
        let _ = f.refactor(&eye);
    }

    #[test]
    fn point_and_block_ilu0_agree_on_dense_blocks() {
        // Every stored block is dense, so point ILU(0) keeps exactly the
        // fill block ILU(0) keeps: the same preconditioner up to rounding,
        // on a pattern whose dropped fill makes ILU(0) inexact.
        for (b, nb, seed) in [(4usize, 60usize, 17u64), (5, 40, 23), (2, 80, 5)] {
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
                    // Magnitudes in [0.05, 0.3]: no entry is dropped.
                    let mut blk: Vec<f64> = (0..b * b)
                        .map(|_| {
                            let m: f64 = rng.gen_range(0.05..0.3);
                            if rng.gen_bool(0.5) {
                                m
                            } else {
                                -m
                            }
                        })
                        .collect();
                    if i == j {
                        for d in 0..b {
                            blk[d * b + d] += 4.0;
                        }
                    }
                    t.push_block(i, j, b, &blk);
                }
            }
            let a = t.to_csr();
            let ab = BcsrMatrix::from_csr(&a, b);
            assert_eq!(ab.nnz_blocks() * b * b, a.nnz(), "dense blocks");
            let fb = BlockIluFactors::factor(&ab).unwrap();
            let fp = IluFactors::factor(&a, &IluOptions::with_fill(0)).unwrap();
            let n = a.nrows();
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
            let (mut xb, mut xp) = (vec![0.0; n], vec![0.0; n]);
            fb.solve(&rhs, &mut xb);
            fp.solve(&rhs, &mut xp);
            let diff: Vec<f64> = xb.iter().zip(&xp).map(|(u, v)| u - v).collect();
            let rel = norm2(&diff) / norm2(&xp);
            assert!(rel <= 1e-12, "b={b}: relative difference {rel:e}");
            // And ILU(0) really drops fill here.
            assert!(residual(&a, &xb, &rhs) > 1e-8 * norm2(&rhs), "b={b}");
        }
    }

    #[test]
    fn parallel_block_solve_is_bitwise_sequential() {
        use crate::par::ParCtx;
        for b in [2usize, 4, 5] {
            let a = block_tridiag(25, b, 13);
            let ab = BcsrMatrix::from_csr(&a, b);
            let f = BlockIluFactors::factor(&ab).unwrap();
            let n = a.nrows();
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).cos()).collect();
            let mut xs = vec![0.0; n];
            f.solve(&rhs, &mut xs);
            // Block-tridiagonal: the forward levels form a chain.
            assert_eq!(f.level_counts(), (25, 25));
            for nthreads in [1usize, 2, 4, 64] {
                let ctx = ParCtx::new(nthreads);
                let mut xp = vec![0.0; n];
                f.solve_par(&rhs, &mut xp, &ctx);
                assert_eq!(xs, xp, "b={b} nthreads={nthreads}");
                // The level walk itself, which `solve_par` skips on levels
                // this narrow.
                xp.copy_from_slice(&rhs);
                f.solve_in_place_levels(&mut xp, &ctx);
                assert_eq!(xs, xp, "levels b={b} nthreads={nthreads}");
            }
        }
    }

    #[test]
    fn sweep_kernel_tiers_are_bitwise_identical() {
        for b in [2usize, 4, 5] {
            let ab = BcsrMatrix::from_csr(&block_tridiag(22, b, 31), b);
            let rhs: Vec<f64> = (0..ab.nrows()).map(|i| (i as f64 * 0.73).sin()).collect();
            assert_block_ilu_is_the_reference(&ab, &rhs, &[2, 4]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// The size-dispatched factor, sweeps and level walk, and the
        /// runtime-`b` level walk, equal the runtime-`b` natural-order
        /// sweep bit for bit on random block patterns, for `b` = 1..=6
        /// (unrolled and runtime-`b` paths) at every team size.
        #[test]
        fn level_walk_tiers_are_bitwise_sequential(
            nb in 1usize..14,
            b in 1usize..7,
            entries in proptest::collection::vec((0usize..14, 0usize..14, -1.0f64..1.0), 0..50),
        ) {
            let inside = entries.into_iter().filter(|&(bi, bj, _)| bi < nb && bj < nb);
            let ab = dd_block_matrix(nb, b, inside);
            let rhs: Vec<f64> = (0..nb * b).map(|i| (i as f64 * 0.71).cos()).collect();
            assert_block_ilu_is_the_reference(&ab, &rhs, &[1, 2, 3, 7]);
        }

        /// `refactor` is a fresh `factor` bit for bit on random block
        /// patterns, for `b` = 1..=6, after first refactoring from other
        /// values; and both equal the runtime-`b` elimination, which
        /// refactors the same way.
        #[test]
        fn refactor_is_bitwise_a_fresh_factor(
            nb in 1usize..14,
            b in 1usize..7,
            entries in proptest::collection::vec((0usize..14, 0usize..14, -1.0f64..1.0), 0..50),
        ) {
            // Entries wrap onto the matrix, so small ones are dense and
            // most updates land on stored blocks.
            let wrapped = entries.into_iter().map(|(bi, bj, v)| (bi % nb, bj % nb, v));
            let a1 = dd_block_matrix(nb, b, wrapped);
            let a2 = perturbed(&a1);
            let reference = value_bits(&factor_reference(&a2).unwrap());
            let fresh = BlockIluFactors::factor(&a2).unwrap();
            proptest::prop_assert_eq!(&reference, &value_bits(&fresh), "fresh");
            let mut f = BlockIluFactors::factor(&a1).unwrap();
            f.refactor(&a2).unwrap();
            proptest::prop_assert_eq!(&reference, &value_bits(&f), "refactor");
            let mut g = factor_reference(&a1).unwrap();
            g.load(&a2);
            g.eliminate_generic().unwrap();
            proptest::prop_assert_eq!(&reference, &value_bits(&g), "reference refactor");
        }
    }

    #[test]
    fn index_footprint_is_one_per_block() {
        let b = 4;
        let a = block_tridiag(30, b, 5);
        let ab = BcsrMatrix::from_csr(&a, b);
        let fb = BlockIluFactors::factor(&ab).unwrap();
        let fp = IluFactors::factor(&a, &IluOptions::with_fill(0)).unwrap();
        // Point ILU stores one index per scalar entry; block ILU one per
        // block — a 16x index reduction at b = 4.
        assert!(fb.nnz_blocks() * b * b >= fp.nnz());
        assert!(fb.nnz_blocks() * 12 < fp.nnz());
    }
}
