//! Integration: the Table 1 layout enhancements are *performance* changes
//! only — every combination must compute the same flow.

use petsc_fun3d_repro::core::config::{apply_orderings, CaseConfig, LayoutConfig};
use petsc_fun3d_repro::core::driver::run_case;
use petsc_fun3d_repro::core::problem::EulerProblem;
use petsc_fun3d_repro::euler::field::FieldVec;
use petsc_fun3d_repro::euler::model::FlowModel;
use petsc_fun3d_repro::euler::residual::{Discretization, SpatialOrder};
use petsc_fun3d_repro::mesh::generator::BumpChannelSpec;
use petsc_fun3d_repro::mesh::reorder::{EdgeOrdering, VertexOrdering};
use petsc_fun3d_repro::solver::gmres::GmresOptions;
use petsc_fun3d_repro::solver::pseudo::{Forcing, PrecondSpec, PseudoTransientOptions};
use petsc_fun3d_repro::sparse::ilu::{IluFactors, IluOptions};
use petsc_fun3d_repro::sparse::layout::FieldLayout;

/// The residual norm of the initial state is a pure function of the mesh
/// geometry — not of the vertex numbering, edge ordering, or field layout.
#[test]
fn initial_residual_norm_is_ordering_invariant() {
    let base = BumpChannelSpec::with_dims(9, 6, 6).build();
    let mut norms = Vec::new();
    for (vord, eord) in [
        (VertexOrdering::Natural, EdgeOrdering::VertexSorted),
        (VertexOrdering::Random(3), EdgeOrdering::VectorColored),
        (VertexOrdering::ReverseCuthillMcKee, EdgeOrdering::Random(5)),
    ] {
        for layout in [FieldLayout::Interlaced, FieldLayout::Segregated] {
            let mesh = apply_orderings(base.clone(), vord, eord);
            let disc = Discretization::new(
                &mesh,
                FlowModel::compressible(),
                layout,
                SpatialOrder::First,
            );
            let q = disc.initial_state();
            let mut r = FieldVec::zeros(mesh.nverts(), disc.ncomp(), layout);
            let mut ws = disc.workspace();
            disc.residual(&q, &mut r, &mut ws);
            norms.push(disc.residual_norm(&r));
        }
    }
    let first = norms[0];
    for n in &norms {
        assert!(
            (n - first).abs() < 1e-9 * first.max(1.0),
            "norms differ: {norms:?}"
        );
    }
}

/// All six Table 1 rows converge to the same steady state (same final
/// reduction target), so the enhancements change cost, not answers.
#[test]
fn every_table1_layout_converges() {
    for (layout, flags) in LayoutConfig::table1_rows() {
        let cfg = CaseConfig {
            mesh: BumpChannelSpec::with_dims(8, 6, 6),
            model: FlowModel::incompressible(),
            layout,
            order: SpatialOrder::First,
            nks: PseudoTransientOptions {
                cfl0: 5.0,
                cfl_exponent: 1.2,
                cfl_max: 1e6,
                max_steps: 50,
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
            },
        };
        let report = run_case(&cfg);
        assert!(
            report.history.converged,
            "layout {flags:?}: reduction {:.2e}",
            report.history.reduction()
        );
    }
}

/// The Jacobian in segregated layout is the interlaced Jacobian under the
/// unknown permutation — same spectrum, same Frobenius norm.
#[test]
fn jacobian_is_layout_equivariant() {
    let mesh = BumpChannelSpec::with_dims(7, 5, 5).build();
    let ncomp = 4;
    let di = Discretization::new(
        &mesh,
        FlowModel::incompressible(),
        FieldLayout::Interlaced,
        SpatialOrder::First,
    );
    let ds = Discretization::new(
        &mesh,
        FlowModel::incompressible(),
        FieldLayout::Segregated,
        SpatialOrder::First,
    );
    let pi = EulerProblem::new(di);
    let ps = EulerProblem::new(ds);
    let qi = pi.initial_state();
    let qs = ps.initial_state();
    let ji = {
        use petsc_fun3d_repro::solver::op::PseudoTransientProblem;
        pi.jacobian(&qi)
    };
    let js = {
        use petsc_fun3d_repro::solver::op::PseudoTransientProblem;
        ps.jacobian(&qs)
    };
    // Permute the interlaced Jacobian into segregated ordering; entries must
    // match exactly.
    let perm = fun3d_sparse::layout::interlaced_to_segregated_perm(mesh.nverts(), ncomp);
    let ji_permuted = ji.permute_symmetric(&perm);
    assert_eq!(ji_permuted.nnz(), js.nnz());
    for i in 0..ji_permuted.nrows() {
        let ca = ji_permuted.row_cols(i);
        let cb = js.row_cols(i);
        assert_eq!(ca, cb, "row {i} pattern");
        for (va, vb) in ji_permuted.row_vals(i).iter().zip(js.row_vals(i)) {
            assert!((va - vb).abs() < 1e-12, "row {i}: {va} vs {vb}");
        }
    }
}

/// Point ILU groups the rows of each interlaced vertex into one I-node
/// (5 rows compressible, 4 incompressible, also at ILU(1)); segregated
/// rows, whose neighbours change from row to row, form one-row nodes.
#[test]
fn point_ilu_inodes_follow_the_field_layout() {
    let mesh = BumpChannelSpec::with_dims(6, 5, 4).build();
    for (model, layout, fill, size) in [
        (FlowModel::compressible(), FieldLayout::Interlaced, 0, 5),
        (FlowModel::incompressible(), FieldLayout::Interlaced, 0, 4),
        (FlowModel::incompressible(), FieldLayout::Interlaced, 1, 4),
        (FlowModel::compressible(), FieldLayout::Segregated, 0, 1),
        (FlowModel::incompressible(), FieldLayout::Segregated, 0, 1),
    ] {
        let disc = Discretization::new(&mesh, model, layout, SpatialOrder::First);
        let mut jac = disc.jacobian(&disc.initial_state());
        jac.shift_diagonal(1e3);
        let f = IluFactors::factor(&jac, &IluOptions::with_fill(fill)).expect("shifted Jacobian");
        let what = format!("{} unknowns, {layout:?}, fill {fill}", model.ncomp());
        assert!(f.inodes().all(|r| r.len() == size), "{what}");
        assert_eq!(f.inodes().count(), jac.nrows() / size, "{what}");
    }
}
