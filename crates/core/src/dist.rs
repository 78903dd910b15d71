//! Distributed linear algebra over the `fun3d-comm` substrate — the PETSc
//! `MPIAIJ` + `KSP` analogue used by the parallel experiments.
//!
//! The global matrix rows are partitioned by ownership; each rank holds its
//! row block with columns renumbered into "owned + ghost" local space, a
//! [`ScatterPlan`] refreshing the ghosts, and an ILU factorization of its
//! diagonal block (block-Jacobi preconditioning, the paper's baseline).
//! The solver's one GMRES runs distributed on these: one ghost scatter per
//! matvec and one allreduce per inner product — exactly the communication
//! pattern whose scaling Table 3 dissects.  Every local operation also
//! advances the rank's simulated clock through the machine model, so the
//! same run yields both *real* results and *simulated* times at the
//! paper's scales.

use fun3d_comm::scatter::{build_scatter_plans, ScatterPlan};
use fun3d_comm::world::{run_world, Rank};
use fun3d_memmodel::machine::MachineSpec;
use fun3d_solver::gmres::{gmres_with_events, Comm, GmresOptions, GmresResult};
use fun3d_solver::op::LinearOperator;
use fun3d_solver::precond::Preconditioner;
use fun3d_sparse::csr::CsrMatrix;
use fun3d_sparse::ilu::{IluFactors, IluOptions};
use fun3d_sparse::par::ParCtx;
use fun3d_sparse::vec_ops::dot_par;
use fun3d_telemetry::events::EventSink;
use fun3d_telemetry::Registry;
use std::cell::{Cell, RefCell};

/// A rank's slice of a row-partitioned global matrix.
pub struct DistributedMatrix {
    /// Global indices of owned rows (ascending).
    pub owned_rows: Vec<usize>,
    /// Global indices of ghost columns (grouped by owner, matching `plan`).
    pub ghost_cols: Vec<usize>,
    /// Local matrix: `nowned x (nowned + nghosts)`, columns in local space.
    pub local: CsrMatrix,
    /// The ghost-refresh plan.
    pub plan: ScatterPlan,
}

impl DistributedMatrix {
    /// Build a rank's slice of `a` from its `(owned, ghosts, plan)` triple
    /// ([`build_plans_for_matrix`]).  The pattern of `a` must be
    /// structurally symmetric (true for the FE/FV Jacobians here) so the
    /// scatter plan derived from it is consistent on both sides.
    pub fn from_plan(a: &CsrMatrix, triple: &(Vec<usize>, Vec<usize>, ScatterPlan)) -> Self {
        let (owned_rows, ghost_cols, plan) = triple;
        let n = a.nrows();
        let mut col_map = vec![u32::MAX; n];
        for (l, &g) in owned_rows.iter().enumerate() {
            col_map[g] = l as u32;
        }
        for (l, &g) in ghost_cols.iter().enumerate() {
            col_map[g] = (owned_rows.len() + l) as u32;
        }
        let mut row_ptr = Vec::with_capacity(owned_rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0usize);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for &g in owned_rows {
            scratch.clear();
            for (k, &c) in a.row_cols(g).iter().enumerate() {
                let lc = col_map[c as usize];
                assert!(
                    lc != u32::MAX,
                    "column {c} of row {g} is neither owned nor ghosted — pattern not symmetric?"
                );
                scratch.push((lc, a.row_vals(g)[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let local = CsrMatrix::from_raw(
            owned_rows.len(),
            owned_rows.len() + ghost_cols.len(),
            row_ptr,
            col_idx,
            values,
        );
        Self {
            owned_rows: owned_rows.clone(),
            ghost_cols: ghost_cols.clone(),
            local,
            plan: plan.clone(),
        }
    }

    /// Owned row count.
    pub fn nowned(&self) -> usize {
        self.owned_rows.len()
    }

    /// Ghost column count.
    pub fn nghosts(&self) -> usize {
        self.ghost_cols.len()
    }

    /// The square diagonal block (owned columns only), for block-Jacobi ILU.
    pub fn diagonal_block(&self) -> CsrMatrix {
        let nowned = self.nowned();
        let mut row_ptr = Vec::with_capacity(nowned + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0usize);
        for i in 0..nowned {
            for (k, &c) in self.local.row_cols(i).iter().enumerate() {
                if (c as usize) < nowned {
                    col_idx.push(c);
                    values.push(self.local.row_vals(i)[k]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw(nowned, nowned, row_ptr, col_idx, values)
    }

    /// Distributed SpMV: refresh ghosts of `x`, multiply into `y` (owned
    /// rows only). `x` must be `nowned + nghosts` long; `tag` disambiguates
    /// concurrent exchanges. Charges the simulated clock.
    pub fn spmv(&self, rank: &mut Rank, x: &mut [f64], y: &mut [f64], tag: u32) {
        self.plan.execute(rank, x, self.nowned(), 1, tag);
        self.local.spmv(x, y);
        let nnz = self.local.nnz() as f64;
        rank.clock.compute(2.0 * nnz, 12.0 * nnz, 1.0);
    }
}

/// Build all per-rank `(owned, ghosts, plan)` triples from the matrix
/// pattern (structurally symmetric).
pub fn build_plans_for_matrix(
    a: &CsrMatrix,
    owner: &[u32],
    nranks: usize,
) -> Vec<(Vec<usize>, Vec<usize>, ScatterPlan)> {
    let mut edges: Vec<[u32; 2]> = Vec::new();
    for i in 0..a.nrows() {
        for &c in a.row_cols(i) {
            let j = c as usize;
            if j > i {
                edges.push([i as u32, c]);
            }
        }
    }
    build_scatter_plans(a.nrows(), owner, &edges, nranks)
}

/// One rank's side of a distributed GMRES solve: inner products add every
/// rank's partial sums by allreduce, and the [`GhostedOperator`] and
/// [`BlockJacobiIlu`] built on it charge the same rank's simulated clock.
pub(crate) struct RankComm<'r>(RefCell<&'r mut Rank>);

impl<'r> RankComm<'r> {
    /// Lend `rank` to one solve.
    pub fn new(rank: &'r mut Rank) -> Self {
        Self(RefCell::new(rank))
    }
}

impl Comm for RankComm<'_> {
    fn dot(&self, x: &[f64], y: &[f64], par: &ParCtx) -> f64 {
        let local = dot_par(x, y, par);
        let mut rank = self.0.borrow_mut();
        let n = x.len() as f64;
        rank.clock.compute(2.0 * n, 16.0 * n, 1.0);
        rank.allreduce_sum_scalar(local)
    }
}

/// `y = A x` on a rank's owned rows of a [`DistributedMatrix`]: the owned
/// entries of `x` are copied into an owned + ghost buffer whose ghosts the
/// matrix's plan refreshes before the local multiply.
pub(crate) struct GhostedOperator<'a, 'r> {
    mat: &'a DistributedMatrix,
    comm: &'a RankComm<'r>,
    full: RefCell<Vec<f64>>,
    tag: Cell<u32>,
}

impl<'a, 'r> GhostedOperator<'a, 'r> {
    /// Wrap `mat` for a solve on `comm`'s rank.
    pub fn new(mat: &'a DistributedMatrix, comm: &'a RankComm<'r>) -> Self {
        Self {
            mat,
            comm,
            full: RefCell::new(vec![0.0; mat.nowned() + mat.nghosts()]),
            tag: Cell::new(1000),
        }
    }
}

impl LinearOperator for GhostedOperator<'_, '_> {
    fn n(&self) -> usize {
        self.mat.nowned()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut full = self.full.borrow_mut();
        full[..x.len()].copy_from_slice(x);
        self.tag.set(self.tag.get() + 1);
        let mut rank = self.comm.0.borrow_mut();
        self.mat.spmv(&mut rank, &mut full, y, self.tag.get());
    }
}

/// Block Jacobi: each rank applies the ILU factors of its own diagonal
/// block ([`DistributedMatrix::diagonal_block`]), with no communication.
pub(crate) struct BlockJacobiIlu<'a, 'r> {
    factors: &'a IluFactors,
    comm: &'a RankComm<'r>,
}

impl<'a, 'r> BlockJacobiIlu<'a, 'r> {
    /// Apply `factors` on `comm`'s rank.
    pub fn new(factors: &'a IluFactors, comm: &'a RankComm<'r>) -> Self {
        Self { factors, comm }
    }
}

impl Preconditioner for BlockJacobiIlu<'_, '_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.factors.solve(r, z);
        let nnz = self.factors.nnz();
        let bytes = (self.factors.value_bytes() + nnz * 4) as f64;
        let mut rank = self.comm.0.borrow_mut();
        rank.clock.compute(2.0 * nnz as f64, bytes, 1.0);
    }
}

/// Report from a parallel block-Jacobi solve.
#[derive(Debug, Clone)]
pub struct DistSolveReport {
    /// GMRES outcome (identical on all ranks).
    pub result: GmresResult,
    /// Assembled global solution.
    pub x: Vec<f64>,
    /// Per-rank simulated phase breakdowns.
    pub breakdowns: Vec<fun3d_comm::clock::PhaseBreakdown>,
    /// Simulated parallel time (max over ranks).
    pub sim_time: f64,
    /// Total bytes sent across ranks (scatter volume).
    pub total_bytes_sent: f64,
}

/// Solve `A x = b` with `nranks` message-passing ranks, block-Jacobi ILU
/// preconditioning, and a simulated clock on `machine`.
pub fn parallel_block_jacobi_solve(
    a: &CsrMatrix,
    b: &[f64],
    owner: &[u32],
    nranks: usize,
    machine: &MachineSpec,
    ilu: &IluOptions,
    opts: &GmresOptions,
) -> DistSolveReport {
    assert_eq!(a.nrows(), b.len());
    assert_eq!(owner.len(), a.nrows());
    let plans = build_plans_for_matrix(a, owner, nranks);
    let outputs = run_world(nranks, machine, |rank| {
        let mat = DistributedMatrix::from_plan(a, &plans[rank.id()]);
        let diag = mat.diagonal_block();
        let prec = IluFactors::factor(&diag, ilu).expect("subdomain ILU failed");
        let bl: Vec<f64> = mat.owned_rows.iter().map(|&g| b[g]).collect();
        let mut xl = vec![0.0; mat.nowned()];
        let result = {
            let comm = RankComm::new(rank);
            let op = GhostedOperator::new(&mat, &comm);
            let pc = BlockJacobiIlu::new(&prec, &comm);
            let (tel, events) = (Registry::disabled(), EventSink::disabled());
            gmres_with_events(&op, &pc, &bl, &mut xl, opts, &comm, &tel, &events, 0)
        };
        (
            mat.owned_rows.clone(),
            xl,
            result,
            rank.clock.breakdown(),
            rank.clock.now(),
            rank.clock.bytes_sent,
        )
    });
    let mut x = vec![0.0; a.nrows()];
    let mut breakdowns = Vec::with_capacity(nranks);
    let mut sim_time: f64 = 0.0;
    let mut total_bytes = 0.0;
    let result = outputs[0].2;
    for (rows, xl, res, bd, t, bytes) in &outputs {
        for (l, &g) in rows.iter().enumerate() {
            x[g] = xl[l];
        }
        assert_eq!(res.iterations, result.iterations, "ranks must agree");
        breakdowns.push(*bd);
        sim_time = sim_time.max(*t);
        total_bytes += bytes;
    }
    DistSolveReport {
        result,
        x,
        breakdowns,
        sim_time,
        total_bytes_sent: total_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_solver::gmres::gmres;
    use fun3d_solver::op::CsrOperator;
    use fun3d_solver::precond::AdditiveSchwarz;
    use fun3d_sparse::triplet::TripletMatrix;

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

    fn strip_owner(n: usize, p: usize) -> Vec<u32> {
        (0..n).map(|i| ((i * p) / n) as u32).collect()
    }

    #[test]
    fn distributed_matrix_partitions_rows() {
        let a = laplacian_2d(6);
        let owner = strip_owner(36, 3);
        let plans = build_plans_for_matrix(&a, &owner, 3);
        let [m0, m1, m2] = [0, 1, 2].map(|r| DistributedMatrix::from_plan(&a, &plans[r]));
        assert_eq!(m0.nowned() + m1.nowned() + m2.nowned(), 36);
        // Interior ranks see ghosts on both sides.
        assert!(m1.nghosts() > 0);
        // Diagonal blocks are square and factorable.
        for m in [&m0, &m1, &m2] {
            let d = m.diagonal_block();
            assert_eq!(d.nrows(), m.nowned());
            IluFactors::factor(&d, &IluOptions::with_fill(0)).unwrap();
        }
    }

    #[test]
    fn distributed_spmv_matches_sequential() {
        let a = laplacian_2d(8);
        let n = a.nrows();
        let owner = strip_owner(n, 4);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut y_seq = vec![0.0; n];
        a.spmv(&x, &mut y_seq);
        let plans = build_plans_for_matrix(&a, &owner, 4);
        let outs = run_world(4, &MachineSpec::asci_red(), |rank| {
            let mat = DistributedMatrix::from_plan(&a, &plans[rank.id()]);
            let mut full = vec![0.0; mat.nowned() + mat.nghosts()];
            for (l, &g) in mat.owned_rows.iter().enumerate() {
                full[l] = x[g];
            }
            let mut y = vec![0.0; mat.nowned()];
            mat.spmv(rank, &mut full, &mut y, 5);
            (mat.owned_rows.clone(), y)
        });
        for (rows, y) in outs {
            for (l, &g) in rows.iter().enumerate() {
                assert!((y[l] - y_seq[g]).abs() < 1e-13, "row {g}");
            }
        }
    }

    #[test]
    fn parallel_solve_matches_sequential_block_jacobi() {
        let a = laplacian_2d(10);
        let n = a.nrows();
        let p = 4;
        let owner = strip_owner(n, p);
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let opts = GmresOptions {
            restart: 25,
            rtol: 1e-8,
            max_iters: 2000,
            ..Default::default()
        };
        let ilu = IluOptions::with_fill(0);
        // Sequential reference with the same block structure.
        let owned_sets: Vec<Vec<usize>> = (0..p)
            .map(|r| (0..n).filter(|&i| owner[i] as usize == r).collect())
            .collect();
        let pc = AdditiveSchwarz::block_jacobi(&a, &owned_sets, &ilu).unwrap();
        let mut x_seq = vec![0.0; n];
        let r_seq = gmres(&CsrOperator::new(&a), &pc, &b, &mut x_seq, &opts);
        // Parallel run.
        let report =
            parallel_block_jacobi_solve(&a, &b, &owner, p, &MachineSpec::asci_red(), &ilu, &opts);
        assert!(r_seq.converged && report.result.converged);
        assert_eq!(
            r_seq.iterations, report.result.iterations,
            "identical math must give identical iteration counts"
        );
        for (u, v) in x_seq.iter().zip(&report.x) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn simulated_time_reported() {
        let a = laplacian_2d(8);
        let n = a.nrows();
        let owner = strip_owner(n, 2);
        let b = vec![1.0; n];
        let report = parallel_block_jacobi_solve(
            &a,
            &b,
            &owner,
            2,
            &MachineSpec::cray_t3e(),
            &IluOptions::with_fill(0),
            &GmresOptions {
                rtol: 1e-6,
                max_iters: 500,
                ..Default::default()
            },
        );
        assert!(report.sim_time > 0.0);
        assert!(report.total_bytes_sent > 0.0);
        assert_eq!(report.breakdowns.len(), 2);
        for bd in &report.breakdowns {
            assert!(bd.compute > 0.0);
            assert!(bd.reduction > 0.0);
        }
    }

    #[test]
    fn more_ranks_increase_iterations() {
        // The algorithmic degradation the paper measures (eta_alg): more
        // Jacobi blocks, slower convergence.
        let a = laplacian_2d(14);
        let n = a.nrows();
        let b = vec![1.0; n];
        let opts = GmresOptions {
            restart: 30,
            rtol: 1e-8,
            max_iters: 3000,
            ..Default::default()
        };
        let mut iters = Vec::new();
        for p in [1usize, 2, 8] {
            let owner = strip_owner(n, p);
            let report = parallel_block_jacobi_solve(
                &a,
                &b,
                &owner,
                p,
                &MachineSpec::asci_red(),
                &IluOptions::with_fill(0),
                &opts,
            );
            assert!(report.result.converged);
            iters.push(report.result.iterations);
        }
        assert!(iters[0] <= iters[1] && iters[1] <= iters[2], "{iters:?}");
        assert!(iters[2] > iters[0], "{iters:?}");
    }
}
