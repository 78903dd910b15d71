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

use crate::bcsr::BcsrMatrix;
use crate::blockspec::{analyze, BlockKernel, BlockStructure, BlockStructureStats};
use crate::dense::{
    block_gemm, block_gemm_sub, block_gemv_b, block_gemv_sub, block_gemv_sub_b, lu_factor,
    lu_invert,
};
use crate::ilu::{level_schedule, IluError, LevelSchedule};
use crate::par::{DisjointSliceMut, ParCtx};

/// A block ILU(0) factorization of a BCSR matrix.
#[derive(Debug, Clone)]
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
    /// Micro-kernel tier the sweeps dispatch to (inherited from the matrix
    /// at factor time, i.e. ultimately from `FUN3D_BLOCK_KERNEL`).
    kernel: BlockKernel,
    /// Repeated-structure analysis of the L / U patterns, present iff
    /// `kernel` is `Batched`.  The sequential sweeps stream over the
    /// batches; the level-scheduled parallel sweeps use the fixed kernels
    /// (level order destroys row contiguity) but share the telemetry.
    l_structure: Option<BlockStructure>,
    u_structure: Option<BlockStructure>,
}

impl BlockIluFactors {
    /// Factor a square BCSR matrix with zero block fill (the pattern of `A`),
    /// inheriting the matrix's micro-kernel tier for the sweeps.
    ///
    /// Returns [`IluError::ZeroPivot`] (with the *block row* index) when a
    /// diagonal block is singular.
    pub fn factor(a: &BcsrMatrix) -> Result<Self, IluError> {
        Self::factor_with_kernel(a, a.kernel())
    }

    /// [`Self::factor`] with an explicit micro-kernel tier for the sweeps.
    pub fn factor_with_kernel(a: &BcsrMatrix, kernel: BlockKernel) -> Result<Self, IluError> {
        assert_eq!(a.nbrows(), a.nbcols(), "block ILU needs a square matrix");
        let b = a.block_size();
        let bb = b * b;
        let nb = a.nbrows();

        // Split the pattern into strictly-lower / diagonal / strictly-upper.
        let mut l_ptr = Vec::with_capacity(nb + 1);
        let mut u_ptr = Vec::with_capacity(nb + 1);
        let mut l_idx: Vec<u32> = Vec::new();
        let mut u_idx: Vec<u32> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        let mut diag: Vec<f64> = vec![0.0; nb * bb];
        let mut has_diag = vec![false; nb];
        l_ptr.push(0);
        u_ptr.push(0);
        for i in 0..nb {
            for (k, &c) in a.row_bcols(i).iter().enumerate() {
                let blk = a.block(a.row_ptr()[i] + k);
                match (c as usize).cmp(&i) {
                    std::cmp::Ordering::Less => {
                        l_idx.push(c);
                        l_vals.extend_from_slice(blk);
                    }
                    std::cmp::Ordering::Equal => {
                        diag[i * bb..(i + 1) * bb].copy_from_slice(blk);
                        has_diag[i] = true;
                    }
                    std::cmp::Ordering::Greater => {
                        u_idx.push(c);
                        u_vals.extend_from_slice(blk);
                    }
                }
            }
            if !has_diag[i] {
                return Err(IluError::ZeroPivot(i));
            }
            l_ptr.push(l_idx.len());
            u_ptr.push(u_idx.len());
        }

        // Block IKJ elimination restricted to the existing pattern.
        let mut inv_diag = vec![0.0f64; nb * bb];
        let mut tmp = vec![0.0f64; bb];
        let mut lu = vec![0.0f64; bb];
        let mut piv = vec![0usize; b];
        for i in 0..nb {
            // For each L block (ascending k): L_ik <- A_ik * inv(U_kk), then
            // update the remaining blocks of row i against U row k.
            for li in l_ptr[i]..l_ptr[i + 1] {
                let k = l_idx[li] as usize;
                // tmp = L_ik * inv_diag[k]
                {
                    let lik = &l_vals[li * bb..(li + 1) * bb];
                    let invk = &inv_diag[k * bb..(k + 1) * bb];
                    block_gemm(lik, invk, &mut tmp, b);
                }
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
                                let slot = u_ptr[i] + pos;
                                let (done, rest) = u_vals.split_at_mut(u_ptr[i] * bb);
                                let ukj = &done[uk * bb..(uk + 1) * bb];
                                let off = (slot - u_ptr[i]) * bb;
                                block_gemm_sub(&tmp, ukj, &mut rest[off..off + bb], b);
                            }
                        }
                    }
                }
            }
            // Invert the (updated) diagonal block.
            lu.copy_from_slice(&diag[i * bb..(i + 1) * bb]);
            if lu_factor(&mut lu, &mut piv, b).is_err() {
                return Err(IluError::ZeroPivot(i));
            }
            lu_invert(&lu, &piv, &mut inv_diag[i * bb..(i + 1) * bb], b);
        }

        let l_levels = level_schedule(nb, &l_ptr, &l_idx, false);
        let u_levels = level_schedule(nb, &u_ptr, &u_idx, true);
        let batched = kernel == BlockKernel::Batched;
        let l_structure = batched.then(|| analyze(&l_ptr, &l_idx));
        let u_structure = batched.then(|| analyze(&u_ptr, &u_idx));
        Ok(Self {
            b,
            nb,
            l_ptr,
            l_idx,
            u_ptr,
            u_idx,
            l_vals,
            u_vals,
            inv_diag,
            l_levels,
            u_levels,
            kernel,
            l_structure,
            u_structure,
        })
    }

    /// The micro-kernel tier the triangular sweeps dispatch to.
    pub fn kernel(&self) -> BlockKernel {
        self.kernel
    }

    /// Repeated-structure statistics of the (lower, upper) sweep patterns;
    /// `None` unless the `Batched` tier is selected.
    pub fn structure_stats(&self) -> Option<(BlockStructureStats, BlockStructureStats)> {
        match (&self.l_structure, &self.u_structure) {
            (Some(l), Some(u)) => Some((l.stats(), u.stats())),
            _ => None,
        }
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

    /// In-place block triangular solves, dispatched once per call to the
    /// micro-kernel tier fixed at factor time.  All tiers are bitwise
    /// identical (see `tests/kernel_equivalence.rs`).
    pub fn solve_in_place(&self, x: &mut [f64]) {
        if self.kernel == BlockKernel::Generic {
            return self.solve_in_place_generic(x);
        }
        match self.b {
            4 => self.solve_in_place_b::<4>(x),
            5 => self.solve_in_place_b::<5>(x),
            3 => self.solve_in_place_b::<3>(x),
            2 => self.solve_in_place_b::<2>(x),
            1 => self.solve_in_place_b::<1>(x),
            _ => self.solve_in_place_generic(x),
        }
    }

    /// Runtime-`b` sweeps — the scalar baseline tier.  The per-call scratch
    /// vectors are allocated once; the loops themselves allocate nothing
    /// (`x` sub-blocks are borrowed in place, disjoint from the local
    /// accumulators).
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

    /// Const-unrolled sweeps for the fixed and batched tiers: stack-array
    /// accumulators, lane gemv kernels, and — when the structure analysis
    /// is present — batch streaming with template column deltas and
    /// arithmetic block offsets in place of per-row `l_ptr`/`l_idx` loads.
    fn solve_in_place_b<const B: usize>(&self, x: &mut [f64]) {
        let bb = B * B;
        // Forward: (I + L) y = rhs.
        if let Some(st) = &self.l_structure {
            for bt in st.batches() {
                let deltas = st.template_deltas(bt.template);
                let len = deltas.len();
                let mut li = self.l_ptr[bt.start as usize];
                for i in bt.start as usize..bt.start as usize + bt.len as usize {
                    let mut xi: [f64; B] = x[i * B..(i + 1) * B].try_into().unwrap();
                    for (pos, &d) in deltas.iter().enumerate() {
                        let k = (i as i64 + d) as usize;
                        let lik = &self.l_vals[(li + pos) * bb..(li + pos + 1) * bb];
                        block_gemv_sub_b::<B>(lik, &x[k * B..k * B + B], &mut xi);
                    }
                    li += len;
                    x[i * B..(i + 1) * B].copy_from_slice(&xi);
                }
            }
        } else {
            for i in 0..self.nb {
                let mut xi: [f64; B] = x[i * B..(i + 1) * B].try_into().unwrap();
                for li in self.l_ptr[i]..self.l_ptr[i + 1] {
                    let k = self.l_idx[li] as usize;
                    let lik = &self.l_vals[li * bb..(li + 1) * bb];
                    block_gemv_sub_b::<B>(lik, &x[k * B..k * B + B], &mut xi);
                }
                x[i * B..(i + 1) * B].copy_from_slice(&xi);
            }
        }
        // Backward: (D + U) x = y  =>  x_i = invD_i (y_i - sum U_ij x_j).
        if let Some(st) = &self.u_structure {
            for bt in st.batches().iter().rev() {
                let deltas = st.template_deltas(bt.template);
                let start = bt.start as usize;
                let len = deltas.len();
                let ui0 = self.u_ptr[start];
                for i in (start..start + bt.len as usize).rev() {
                    let ui = ui0 + (i - start) * len;
                    let mut acc: [f64; B] = x[i * B..(i + 1) * B].try_into().unwrap();
                    for (pos, &d) in deltas.iter().enumerate() {
                        let j = (i as i64 + d) as usize;
                        let uij = &self.u_vals[(ui + pos) * bb..(ui + pos + 1) * bb];
                        block_gemv_sub_b::<B>(uij, &x[j * B..j * B + B], &mut acc);
                    }
                    let invd = &self.inv_diag[i * bb..(i + 1) * bb];
                    let out = block_gemv_b::<B>(invd, &acc);
                    x[i * B..(i + 1) * B].copy_from_slice(&out);
                }
            }
        } else {
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
        if self.kernel == BlockKernel::Generic {
            return self.solve_in_place_par_generic(x, ctx);
        }
        match self.b {
            4 => self.solve_in_place_par_b::<4>(x, ctx),
            5 => self.solve_in_place_par_b::<5>(x, ctx),
            3 => self.solve_in_place_par_b::<3>(x, ctx),
            2 => self.solve_in_place_par_b::<2>(x, ctx),
            1 => self.solve_in_place_par_b::<1>(x, ctx),
            _ => self.solve_in_place_par_generic(x, ctx),
        }
    }

    /// Runtime-`b` level sweeps — the scalar baseline tier.
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

    /// Const-unrolled level sweeps for the fixed and batched tiers.  The
    /// level schedule fixes which rows run when, and the per-row arithmetic
    /// is the exact sequential sequence, so this stays bitwise identical to
    /// [`Self::solve_in_place`] for any thread count; the only changes are
    /// stack-array accumulators and the lane gemv kernels — the sweep
    /// closures allocate nothing.
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

impl PartialEq for BlockIluFactors {
    fn eq(&self, other: &Self) -> bool {
        self.b == other.b && self.nb == other.nb && self.l_idx == other.l_idx
    }
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
        use crate::blockspec::BlockKernel;
        use crate::par::ParCtx;
        for b in [2usize, 4, 5] {
            let a = block_tridiag(22, b, 31);
            let ab = BcsrMatrix::from_csr(&a, b);
            let n = a.nrows();
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73).sin()).collect();
            let fg = BlockIluFactors::factor_with_kernel(&ab, BlockKernel::Generic).unwrap();
            let mut x0 = vec![0.0; n];
            fg.solve(&rhs, &mut x0);
            for kernel in [BlockKernel::Fixed, BlockKernel::Batched] {
                let f = BlockIluFactors::factor_with_kernel(&ab, kernel).unwrap();
                assert_eq!(f.kernel(), kernel);
                let mut x = vec![0.0; n];
                f.solve(&rhs, &mut x);
                assert_eq!(x0, x, "b={b} kernel={kernel}");
                for nthreads in [2usize, 4] {
                    let ctx = ParCtx::new(nthreads);
                    let mut xp = vec![0.0; n];
                    f.solve_par(&rhs, &mut xp, &ctx);
                    assert_eq!(x0, xp, "b={b} kernel={kernel} nthreads={nthreads}");
                    xp.copy_from_slice(&rhs);
                    f.solve_in_place_levels(&mut xp, &ctx);
                    assert_eq!(x0, xp, "levels b={b} kernel={kernel} nthreads={nthreads}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// Every kernel tier's level walk equals the generic natural-order
        /// sweep bit for bit on random block patterns, for `b` = 1..=6
        /// (unrolled and fallback paths) at every team size.
        #[test]
        fn level_walk_tiers_are_bitwise_sequential(
            nb in 1usize..14,
            b in 1usize..7,
            entries in proptest::collection::vec((0usize..14, 0usize..14, -1.0f64..1.0), 0..50),
        ) {
            use crate::blockspec::BlockKernel;
            use crate::par::ParCtx;
            let mut t = TripletMatrix::new(nb * b, nb * b);
            let mut ndiag = vec![0usize; nb];
            for &(bi, bj, v) in &entries {
                if bi < nb && bj < nb && bi != bj {
                    let blk: Vec<f64> = (0..b * b).map(|q| v * 0.1 + q as f64 * 0.001).collect();
                    t.push_block(bi, bj, b, &blk);
                    ndiag[bi] += 1;
                }
            }
            for (bi, &count) in ndiag.iter().enumerate() {
                let mut blk: Vec<f64> =
                    (0..b * b).map(|q| (q as f64 * 0.013).sin() * 0.2).collect();
                for d in 0..b {
                    blk[d * b + d] += 2.0 + count as f64;
                }
                t.push_block(bi, bi, b, &blk);
            }
            let ab = BcsrMatrix::from_csr(&t.to_csr(), b);
            let n = nb * b;
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).cos()).collect();
            let f0 = BlockIluFactors::factor_with_kernel(&ab, BlockKernel::Generic).unwrap();
            let mut x0 = vec![0.0; n];
            f0.solve(&rhs, &mut x0);
            for kernel in [BlockKernel::Generic, BlockKernel::Fixed, BlockKernel::Batched] {
                let f = BlockIluFactors::factor_with_kernel(&ab, kernel).unwrap();
                for nthreads in [1usize, 2, 3, 7] {
                    let mut xp = rhs.clone();
                    f.solve_in_place_levels(&mut xp, &ParCtx::new(nthreads));
                    let at = format!("kernel={kernel} b={b} nthreads={nthreads}");
                    proptest::prop_assert_eq!(&x0, &xp, "{}", at);
                }
            }
        }
    }

    #[test]
    fn batched_factor_reports_sweep_structure() {
        use crate::blockspec::BlockKernel;
        let a = block_tridiag(22, 4, 31);
        let ab = BcsrMatrix::from_csr(&a, 4);
        let fb = BlockIluFactors::factor_with_kernel(&ab, BlockKernel::Batched).unwrap();
        let (ls, us) = fb.structure_stats().expect("batched tier has structure");
        // Tridiagonal: L rows are (empty, then all "previous row"); high reuse.
        assert_eq!(ls.nrows, 22);
        assert_eq!(us.nrows, 22);
        assert!(ls.hit_rate > 0.9, "{ls:?}");
        assert!(us.hit_rate > 0.9, "{us:?}");
        let ff = BlockIluFactors::factor_with_kernel(&ab, BlockKernel::Fixed).unwrap();
        assert!(ff.structure_stats().is_none());
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
