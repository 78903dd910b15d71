//! Single-call replays: each layer's public entry point timed on one
//! workload's own data (its mesh, its final shifted Jacobian, its thread
//! team), reported as median seconds per call.

use crate::stats::{median, time_median};
use crate::timed::{TimedOp, TimedPrec};
use fun3d_comm::world::run_world;
use fun3d_core::config::{apply_orderings, LayoutConfig};
use fun3d_core::parallel_nks::LocalSubdomain;
use fun3d_core::EulerProblem;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_memmodel::machine::MachineSpec;
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_mesh::tet::TetMesh;
use fun3d_partition::partition_kway;
use fun3d_serve::{FamilyState, ScenarioClass};
use fun3d_solver::gmres::{gmres, GmresOptions};
use fun3d_solver::op::{CsrOperator, FdJacobianOperator, LinearOperator, PseudoTransientProblem};
use fun3d_solver::precond::IluPrecond;
use fun3d_solver::pseudo::PseudoTransientOptions;
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::block_ilu::BlockIluFactors;
use fun3d_sparse::ilu::{IluFactors, IluOptions};
use fun3d_sparse::par::ParCtx;
use std::hint::black_box;
use std::time::Instant;

/// Calls per communication replay (every rank makes the same calls).
const COMM_REPS: usize = 200;

/// The Krylov operator a workload applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Assembled Jacobian in block CSR with this block size.
    Bcsr(usize),
    /// Finite-difference Jacobian-vector products of the residual.
    MatrixFree,
    /// Assembled Jacobian in point CSR.
    Csr,
}

/// Per-call costs of the public setup entry points on one workload's mesh,
/// and of the two communication primitives over a two-way partition of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCalls {
    /// `BumpChannelSpec::build`.
    pub generate_s: f64,
    /// `apply_orderings` (vertex permutation and edge order).
    pub reorder_s: f64,
    /// `Discretization::new` plus the `EulerProblem` wrapper.
    pub discretize_s: f64,
    /// `partition_kway` into two parts.
    pub partition_kway_s: f64,
    /// `build_scatter_plans` for that partition.
    pub scatter_plan_s: f64,
    /// `FamilyState::build` (mesh, orderings, partition).
    pub family_build_s: f64,
    /// First `FamilyState::warm_start` (ILU symbolic and BCSR templates).
    pub warm_start_s: f64,
    /// One ghost scatter on two ranks, as rank 0 sees it.
    pub scatter_s: f64,
    /// One scalar allreduce on two ranks.
    pub allreduce_s: f64,
}

/// Time the setup calls a workload's path may or may not make itself, so
/// every workload reports each setup layer on its own mesh.
pub fn setup_calls(
    spec: &BumpChannelSpec,
    model: FlowModel,
    layout: LayoutConfig,
    nks: &PseudoTransientOptions,
    seed: u64,
) -> SetupCalls {
    let generate_s = time_median(3, 20, 0.05, || {
        black_box(spec.build());
    });
    let raw = spec.build();
    let reorder_s = time_median(3, 20, 0.05, || {
        black_box(apply_orderings(
            raw.clone(),
            layout.vertex_ordering,
            layout.edge_ordering,
        ));
    });
    let mesh = apply_orderings(raw, layout.vertex_ordering, layout.edge_ordering);
    let discretize_s = time_median(3, 50, 0.05, || {
        let disc = Discretization::new(&mesh, model, layout.field_layout(), SpatialOrder::First);
        black_box(EulerProblem::new(disc));
    });
    let g = mesh.vertex_graph();
    let partition_kway_s = time_median(3, 20, 0.05, || {
        black_box(partition_kway(&g, 2, seed));
    });
    let owner = partition_kway(&g, 2, seed).part;
    let scatter_plan_s = time_median(3, 50, 0.05, || {
        black_box(fun3d_comm::scatter::build_scatter_plans(
            mesh.nverts(),
            &owner,
            mesh.edges(),
            2,
        ));
    });
    let (family, _) = family_setup(spec, model, layout, nks, 3);
    let family_build_s = median(&family.iter().map(|s| s.0).collect::<Vec<_>>());
    let warm_start_s = median(&family.iter().map(|s| s.1).collect::<Vec<_>>());
    let (scatter_s, allreduce_s) = comm_calls(&mesh, &owner, model.ncomp());
    SetupCalls {
        generate_s,
        reorder_s,
        discretize_s,
        partition_kway_s,
        scatter_plan_s,
        family_build_s,
        warm_start_s,
        scatter_s,
        allreduce_s,
    }
}

/// The serving path's cold setup, `reps` times: seconds of
/// `FamilyState::build` and of the first `warm_start` on the fresh state,
/// per repetition, plus the last state built.
pub fn family_setup(
    spec: &BumpChannelSpec,
    model: FlowModel,
    layout: LayoutConfig,
    nks: &PseudoTransientOptions,
    reps: usize,
) -> (Vec<(f64, f64)>, FamilyState) {
    let scenario = ScenarioClass {
        mesh: *spec,
        model,
        layout,
        order: SpatialOrder::First,
    };
    let mut nks = nks.clone();
    nks.bcsr_block = scenario.bcsr_block();
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        let state = FamilyState::build(&scenario, 1);
        let t1 = Instant::now();
        black_box(state.warm_start(&nks));
        samples.push((
            t1.duration_since(t0).as_secs_f64(),
            t1.elapsed().as_secs_f64(),
        ));
        if samples.len() >= reps {
            return (samples, state);
        }
    }
}

/// Per-call seconds of one ghost scatter and one scalar allreduce on two
/// ranks over a two-way partition of `mesh`, as rank 0 sees them.
pub fn comm_calls(mesh: &TetMesh, owner: &[u32], ncomp: usize) -> (f64, f64) {
    let out = run_world(2, &MachineSpec::asci_red(), |rank| {
        let sub = LocalSubdomain::build(mesh, owner, 2, rank.id());
        let mut q = vec![1.0; sub.nlocal() * ncomp];
        let mut scatter = Vec::with_capacity(COMM_REPS);
        for tag in 0..COMM_REPS {
            let t0 = Instant::now();
            sub.plan
                .execute(rank, &mut q, sub.nowned, ncomp, tag as u32 + 1);
            scatter.push(t0.elapsed().as_secs_f64());
        }
        let mut reduce = Vec::with_capacity(COMM_REPS);
        for _ in 0..COMM_REPS {
            let t0 = Instant::now();
            black_box(rank.allreduce_sum_scalar(1.0));
            reduce.push(t0.elapsed().as_secs_f64());
        }
        (median(&scatter), median(&reduce))
    });
    out[0]
}

/// What a workload's solve is made of, for the kernel replays.
pub struct KernelInput<'a, P> {
    /// The (untimed) problem.
    pub problem: &'a P,
    /// Converged state.
    pub q: &'a [f64],
    /// CFL of the last pseudo-timestep (sets the diagonal shift).
    pub cfl: f64,
    /// Unknowns per vertex.
    pub block: usize,
    /// ILU options of the workload's preconditioner.
    pub ilu: IluOptions,
    /// The Krylov operator the workload applies.
    pub op: OpKind,
    /// Krylov options, carrying the workload's thread team.
    pub krylov: GmresOptions,
    /// Mesh edges and vertices (for the working-set estimate).
    pub nedges: usize,
    /// Mesh vertices.
    pub nverts: usize,
}

/// Median per-call seconds of each kernel on the final shifted Jacobian.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCalls {
    /// `IluFactors::factor`.
    pub ilu_factor_s: f64,
    /// `IluFactors::refactor` on the same pattern.
    pub ilu_refactor_s: f64,
    /// `BlockIluFactors::factor`.
    pub block_ilu_factor_s: f64,
    /// `BcsrMatrix::from_csr`.
    pub bcsr_from_csr_s: f64,
    /// `BcsrMatrix::refill_from_csr`.
    pub bcsr_refill_s: f64,
    /// `BcsrMatrix::spmv_par` on the workload's team.
    pub spmv_bcsr_s: f64,
    /// Analytic bytes of one BCSR SpMV.
    pub spmv_bcsr_bytes: f64,
    /// `IluFactors::solve_par` on the workload's team.
    pub ilu_solve_s: f64,
    /// Analytic bytes of one ILU solve.
    pub ilu_solve_bytes: f64,
    /// Operator applications inside one `gmres` call.
    pub gmres_apply_s: f64,
    /// Preconditioner applications inside it.
    pub gmres_precond_s: f64,
    /// The rest of it: orthogonalization, rotations and vector updates.
    pub gmres_orth_s: f64,
    /// Bytes the solve keeps live: matrix, factors, Krylov basis, mesh.
    pub working_set_bytes: f64,
}

/// Replay the sparse kernels and one GMRES solve on the workload's final
/// shifted Jacobian.
pub fn kernel_calls<P: PseudoTransientProblem>(inp: &KernelInput<'_, P>) -> KernelCalls {
    let par = inp.krylov.par;
    let mut jac = inp.problem.jacobian(inp.q);
    let d = inp.problem.inverse_timestep_scale(inp.q);
    jac.shift_diagonal_by(1.0 / inp.cfl, &d);
    let n = jac.nrows();

    let ilu_factor_s = time_median(3, 50, 0.1, || {
        black_box(IluFactors::factor(&jac, &inp.ilu).expect("ILU factor"));
    });
    let mut factors = IluFactors::factor(&jac, &inp.ilu).expect("ILU factor");
    let ilu_refactor_s = time_median(3, 50, 0.1, || {
        factors.refactor(&jac).expect("ILU refactor");
    });
    let bcsr_from_csr_s = time_median(3, 100, 0.05, || {
        black_box(BcsrMatrix::from_csr(&jac, inp.block));
    });
    let mut bcsr = BcsrMatrix::from_csr(&jac, inp.block);
    let bcsr_refill_s = time_median(3, 200, 0.05, || bcsr.refill_from_csr(&jac));
    let block_ilu_factor_s = time_median(3, 50, 0.1, || {
        black_box(BlockIluFactors::factor(&bcsr).expect("block ILU factor"));
    });
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    let spmv_bcsr_s = time_median(10, 5000, 0.1, || bcsr.spmv_par(&x, &mut y, &par));
    let ilu_solve_s = time_median(10, 5000, 0.1, || factors.solve_par(&x, &mut y, &par));

    let prec = IluPrecond::new(factors.clone()).with_par(par);
    let (gmres_apply_s, gmres_precond_s, gmres_orth_s) = match inp.op {
        OpKind::Bcsr(_) => gmres_split(&BcsrOp { a: &bcsr, par }, &prec, &inp.krylov),
        OpKind::Csr => gmres_split(&CsrOperator::with_par(&jac, par), &prec, &inp.krylov),
        OpKind::MatrixFree => {
            let mut r = vec![0.0; n];
            inp.problem.residual(inp.q, &mut r);
            let shift: Vec<f64> = d.iter().map(|v| v / inp.cfl).collect();
            let op = FdJacobianOperator::new(inp.problem, inp.q.to_vec(), r, shift);
            gmres_split(&op, &prec, &inp.krylov)
        }
    };

    let csr_bytes = 12.0 * jac.nnz() as f64 + 8.0 * (n + 1) as f64;
    let bcsr_bytes = 8.0 * bcsr.values().len() as f64
        + 4.0 * bcsr.nnz_blocks() as f64
        + 8.0 * (bcsr.nbrows() + 1) as f64;
    let ilu_bytes =
        factors.value_bytes() as f64 + 4.0 * (factors.nnz() - n) as f64 + 16.0 * (n + 1) as f64;
    let krylov_bytes = 8.0 * ((inp.krylov.restart + 5) * n) as f64;
    let mesh_bytes = 32.0 * (inp.nedges + inp.nverts) as f64;
    let operator_bytes = match inp.op {
        OpKind::Bcsr(_) => bcsr_bytes,
        OpKind::MatrixFree => 16.0 * n as f64,
        OpKind::Csr => 0.0,
    };
    KernelCalls {
        ilu_factor_s,
        ilu_refactor_s,
        block_ilu_factor_s,
        bcsr_from_csr_s,
        bcsr_refill_s,
        spmv_bcsr_s,
        spmv_bcsr_bytes: bcsr.spmv_traffic_bytes(),
        ilu_solve_s,
        ilu_solve_bytes: factors.solve_traffic_bytes(),
        gmres_apply_s,
        gmres_precond_s,
        gmres_orth_s,
        working_set_bytes: csr_bytes + operator_bytes + ilu_bytes + krylov_bytes + mesh_bytes,
    }
}

/// Block-CSR matvec on a thread team.
struct BcsrOp<'a> {
    a: &'a BcsrMatrix,
    par: ParCtx,
}

impl LinearOperator for BcsrOp<'_> {
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

/// Three timed `gmres` solves of `A x = A 1` from a zero guess; median
/// seconds spent in operator applications, in preconditioner applications
/// and in the remainder of the call.
fn gmres_split<A: LinearOperator>(a: &A, m: &IluPrecond, opts: &GmresOptions) -> (f64, f64, f64) {
    let n = a.n();
    let mut b = vec![0.0; n];
    a.apply(&vec![1.0; n], &mut b);
    let (mut apply, mut prec, mut rest) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let top = TimedOp::new(a);
        let tprec = TimedPrec::new(m);
        let mut x = vec![0.0; n];
        let t0 = Instant::now();
        black_box(gmres(&top, &tprec, &b, &mut x, opts));
        let total = t0.elapsed().as_secs_f64();
        let (ta, tp) = (top.tally().seconds, tprec.tally().seconds);
        apply.push(ta);
        prec.push(tp);
        rest.push(total - ta - tp);
    }
    (median(&apply), median(&prec), median(&rest))
}
