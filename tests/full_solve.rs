//! End-to-end integration: the full ΨNKS stack solves Euler flow over the
//! bump channel, for both flow models, with different preconditioners.

use petsc_fun3d_repro::core::config::{CaseConfig, LayoutConfig};
use petsc_fun3d_repro::core::driver::run_case;
use petsc_fun3d_repro::core::problem::EulerProblem;
use petsc_fun3d_repro::euler::model::FlowModel;
use petsc_fun3d_repro::euler::residual::{Discretization, SpatialOrder};
use petsc_fun3d_repro::mesh::generator::BumpChannelSpec;
use petsc_fun3d_repro::partition::partition_kway;
use petsc_fun3d_repro::solver::gmres::GmresOptions;
use petsc_fun3d_repro::solver::pseudo::{
    solve_pseudo_transient, Forcing, PrecondSpec, PseudoTransientOptions,
};
use petsc_fun3d_repro::sparse::ilu::IluOptions;

fn nks(max_steps: usize) -> PseudoTransientOptions {
    PseudoTransientOptions {
        cfl0: 5.0,
        cfl_exponent: 1.2,
        cfl_max: 1e6,
        max_steps,
        target_reduction: 1e-8,
        krylov: GmresOptions {
            restart: 20,
            rtol: 1e-2,
            max_iters: 120,
            ..Default::default()
        },
        precond: PrecondSpec::Ilu(IluOptions::with_fill(1)),
        second_order_switch: None,
        matrix_free: false,
        line_search: true,
        bcsr_block: None,
        forcing: Forcing::Constant,
        pc_refresh: 1,
    }
}

#[test]
fn incompressible_flow_converges_to_steady_state() {
    let mut cfg = CaseConfig::small();
    cfg.nks = nks(60);
    let report = run_case(&cfg);
    assert!(
        report.history.converged,
        "reduction {:.2e} after {} steps",
        report.history.reduction(),
        report.history.nsteps()
    );
}

#[test]
fn compressible_flow_converges_to_steady_state() {
    let mut cfg = CaseConfig::small();
    cfg.mesh = BumpChannelSpec::with_dims(9, 6, 6);
    cfg.model = FlowModel::compressible();
    cfg.nks = nks(70);
    cfg.nks.cfl0 = 2.0;
    let report = run_case(&cfg);
    assert!(
        report.history.converged,
        "reduction {:.2e}",
        report.history.reduction()
    );
}

#[test]
fn schwarz_preconditioned_solve_converges() {
    let spec = BumpChannelSpec::with_dims(10, 7, 7);
    let mesh = spec.build();
    let disc = Discretization::new(
        &mesh,
        FlowModel::incompressible(),
        fun3d_sparse::layout::FieldLayout::Interlaced,
        SpatialOrder::First,
    );
    let graph = mesh.vertex_graph();
    let part = partition_kway(&graph, 4, 1);
    let ncomp = 4usize;
    let mut owned_sets: Vec<Vec<usize>> = vec![Vec::new(); 4];
    for (v, &p) in part.part.iter().enumerate() {
        for c in 0..ncomp {
            owned_sets[p as usize].push(v * ncomp + c);
        }
    }
    let mut problem = EulerProblem::new(disc);
    let mut q = problem.initial_state();
    let mut opts = nks(60);
    opts.precond = PrecondSpec::Schwarz {
        owned_sets,
        overlap: 1,
        ilu: IluOptions::with_fill(0),
        restricted: true,
    };
    let h = solve_pseudo_transient(&mut problem, &mut q, &opts);
    assert!(h.converged, "reduction {:.2e}", h.reduction());
}

#[test]
fn blocked_and_unblocked_operators_agree() {
    // Structural blocking is a storage change only: iteration-for-iteration
    // the Krylov solve must produce the same numbers.
    let run = |blocked: bool| {
        let mut cfg = CaseConfig::small();
        cfg.mesh = BumpChannelSpec::with_dims(8, 6, 6);
        cfg.layout = if blocked {
            LayoutConfig::tuned()
        } else {
            LayoutConfig {
                blocked: false,
                ..LayoutConfig::tuned()
            }
        };
        cfg.nks = nks(40);
        run_case(&cfg)
    };
    let r1 = run(false);
    let r2 = run(true);
    assert!(r1.history.converged && r2.history.converged);
    // Identical math: same step count and same per-step linear iterations.
    assert_eq!(r1.history.nsteps(), r2.history.nsteps());
    for (a, b) in r1.history.steps.iter().zip(&r2.history.steps) {
        assert_eq!(a.linear_iters, b.linear_iters, "step {}", a.step);
        assert!(
            (a.residual_norm - b.residual_norm).abs() <= 1e-9 * a.residual_norm.abs().max(1e-30),
            "step {}: {} vs {}",
            a.step,
            a.residual_norm,
            b.residual_norm
        );
    }
}

#[test]
fn second_order_continuation_converges_matrix_free() {
    let mut cfg = CaseConfig::small();
    cfg.mesh = BumpChannelSpec::with_dims(8, 6, 6);
    cfg.nks = nks(70);
    cfg.nks.second_order_switch = Some(1e-2);
    cfg.nks.matrix_free = true;
    cfg.nks.target_reduction = 1e-6;
    let report = run_case(&cfg);
    assert!(
        report.history.converged,
        "reduction {:.2e}",
        report.history.reduction()
    );
}

#[test]
fn block_ilu_preconditioned_solve_converges() {
    // The PETSc-FUN3D configuration once blocking is on: BCSR operator +
    // point-block ILU(0) preconditioner, which a blocked ILU(0) run gets.
    let mut cfg = CaseConfig::small();
    cfg.mesh = BumpChannelSpec::with_dims(9, 6, 6);
    cfg.nks = nks(60);
    cfg.nks.precond = PrecondSpec::Ilu(IluOptions::with_fill(0));
    let report = run_case(&cfg);
    assert!(
        report.history.converged,
        "reduction {:.2e}",
        report.history.reduction()
    );
}
