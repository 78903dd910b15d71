//! Golden ΨNKS histories, pinned bitwise across commits.
//!
//! The two benchmark configurations run on tiny meshes: the tuned
//! incompressible Table 1 row (interlaced, RCM + sorted edges, BCSR b = 4,
//! block ILU(0) on the same blocks, GMRES(20)) and the compressible
//! matrix-free solve with point ILU(0) refreshed every 4th step on a
//! 2-thread team.  The compressible
//! solve also runs on the benchmark's own 15×8×8 mesh.  Each test checks
//! the step count, every step's Krylov iterations and the bits of every
//! residual norm (the initial one first) against the values below.
//!
//! A change that reorders floating-point additions anywhere in the solve
//! fails here.  Re-record a history only in a change that is meant to move
//! the numerics, and say so: on a mismatch the test prints the new values
//! in the form this file uses.

use fun3d_core::config::{apply_orderings, LayoutConfig};
use fun3d_core::EulerProblem;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_solver::gmres::GmresOptions;
use fun3d_solver::pseudo::{
    solve_pseudo_transient, Forcing, PrecondSpec, PseudoTransientOptions, SolveHistory,
};
use fun3d_sparse::ilu::IluOptions;
use fun3d_sparse::par::ParCtx;

/// The options both configurations start from (the tuned incompressible
/// row).
fn tuned_options() -> PseudoTransientOptions {
    PseudoTransientOptions {
        cfl0: 5.0,
        cfl_exponent: 1.2,
        cfl_max: 1e6,
        max_steps: 100,
        target_reduction: 1e-8,
        krylov: GmresOptions {
            restart: 20,
            rtol: 1e-2,
            max_iters: 120,
            ..Default::default()
        },
        precond: PrecondSpec::Ilu(IluOptions::with_fill(0)),
        second_order_switch: None,
        matrix_free: false,
        line_search: true,
        bcsr_block: Some(4),
        forcing: Forcing::Constant,
        pc_refresh: 1,
    }
}

/// The compressible matrix-free options: ILU(0) refreshed every 4th step
/// on a 2-thread team.
fn compressible_options() -> PseudoTransientOptions {
    let mut opts = tuned_options();
    opts.cfl0 = 2.0;
    opts.krylov.rtol = 1e-3;
    opts.krylov.par = ParCtx::new(2);
    opts.pc_refresh = 4;
    opts.matrix_free = true;
    opts.bcsr_block = None;
    opts
}

/// Solve `model` on a `dims` bump channel (seed 1) in the tuned layout.
fn solve(
    dims: (usize, usize, usize),
    model: FlowModel,
    opts: &PseudoTransientOptions,
) -> SolveHistory {
    let layout = LayoutConfig::tuned();
    let mut spec = BumpChannelSpec::with_dims(dims.0, dims.1, dims.2);
    spec.seed = 1;
    let mesh = apply_orderings(spec.build(), layout.vertex_ordering, layout.edge_ordering);
    let disc = Discretization::new(&mesh, model, layout.field_layout(), SpatialOrder::First);
    let mut problem = EulerProblem::new(disc);
    let mut q = problem.initial_state();
    solve_pseudo_transient(&mut problem, &mut q, opts)
}

/// Compare `h` with the recorded history; on a mismatch, panic with the
/// new values in this file's form.
fn check(name: &str, h: &SolveHistory, iters: &[usize], residual_bits: &[u64]) {
    assert!(h.converged, "{name}: not converged ({:.2e})", h.reduction());
    assert!(h.anomaly.is_none(), "{name}: {:?}", h.anomaly);
    let got_iters: Vec<usize> = h.steps.iter().map(|s| s.linear_iters).collect();
    let got_bits: Vec<u64> = std::iter::once(h.initial_residual)
        .chain(h.steps.iter().map(|s| s.residual_norm))
        .map(f64::to_bits)
        .collect();
    if got_iters != iters || got_bits != residual_bits {
        let bits: Vec<String> = got_bits.iter().map(|b| format!("{b:#018x}")).collect();
        panic!(
            "{name}: history moved ({} steps recorded, {} now)\n\
             const ITERS: &[usize] = &{got_iters:?};\n\
             const RESIDUAL_BITS: &[u64] = &[{}];",
            iters.len(),
            h.nsteps(),
            bits.join(", ")
        );
    }
}

#[test]
fn tuned_incompressible_history_is_pinned() {
    const ITERS: &[usize] = &[
        2, 3, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 6, 7, 7, 7, 7, 7, 7, 7,
        7, 7,
    ];
    const RESIDUAL_BITS: &[u64] = &[
        0x3fefae20e480f3cb,
        0x3fdb886c9f87c0ed,
        0x3fbf9c6efe772c14,
        0x3fa5d746fab890c6,
        0x3fa6b7a78f2d9b2c,
        0x3fa6a9e22d8fd4da,
        0x3fa6402430379990,
        0x3fa5a68a25951c96,
        0x3fa4e18faf7f857d,
        0x3fa3f063d1299ae5,
        0x3fa2d208d54e27dc,
        0x3fa18652c89c447c,
        0x3fa00e6500d21e28,
        0x3f9cdb2c9914f383,
        0x3f9955cd3e0c3416,
        0x3f95a5ff2e18f960,
        0x3f91f385b994269c,
        0x3f8cdb362bc89acd,
        0x3f865e9c25790950,
        0x3f805abc4c7aed8c,
        0x3f75a1d09a318d24,
        0x3f669d99c13f4b04,
        0x3f4c929c47894fab,
        0x3f02e4e3d4d6ee2e,
        0x3f00aab1b6a440d7,
        0x3ee7eb0d67f0101a,
        0x3ed031614a4452e4,
        0x3eb5cc03407756eb,
        0x3e9d51981394e855,
        0x3e83b7575fc65399,
        0x3e6a8456970e65b2,
        0x3e51d4ebeb90b298,
        0x3e37fb7ea24f1642,
    ];
    let h = solve((6, 5, 4), FlowModel::incompressible(), &tuned_options());
    check("tuned incompressible 6x5x4", &h, ITERS, RESIDUAL_BITS);
}

#[test]
fn compressible_matrix_free_history_is_pinned() {
    const ITERS: &[usize] = &[
        2, 4, 6, 10, 7, 14, 16, 15, 13, 12, 11, 11, 11, 11, 11, 10, 11, 11, 11, 11, 11, 11, 11, 12,
        12, 13, 13, 13, 14, 14, 14,
    ];
    const RESIDUAL_BITS: &[u64] = &[
        0x3fb57018b0c55c94,
        0x3facd02c9a03ece8,
        0x3fa12e50a624a94c,
        0x3f926575e4d23666,
        0x3f80ca3ec3b44d5b,
        0x3f62202c0bc11a7a,
        0x3f4f5ca891c9e1e1,
        0x3f506d059ca2b3d9,
        0x3f51fa2c1e47c715,
        0x3f53724e53ae75ac,
        0x3f54c0d786d8e78b,
        0x3f55e396027a5c24,
        0x3f56d71e7e53df44,
        0x3f5797a4948991c7,
        0x3f5822dce81e4b0f,
        0x3f587465cfe2975e,
        0x3f588b6edb076bfe,
        0x3f58566eb746dd31,
        0x3f57dc3ccc6199ca,
        0x3f571389caa4c6aa,
        0x3f55f5bc2d1249e6,
        0x3f547bea6a4511a8,
        0x3f52a1591215eb68,
        0x3f50615313c2c6a4,
        0x3f4b77aad797b36f,
        0x3f457195365fe0a6,
        0x3f3dcb221a0e33c7,
        0x3f30c1bc6abba405,
        0x3f187641fd45a0b9,
        0x3eea80c1fb3cb570,
        0x3e864980b9fd69e9,
        0x3deba8a874d95bb9,
    ];
    let h = solve(
        (8, 6, 6),
        FlowModel::compressible(),
        &compressible_options(),
    );
    check("compressible matrix-free 8x6x6", &h, ITERS, RESIDUAL_BITS);
}

/// The compressible configuration on the benchmark's own 15×8×8 mesh.
/// Its 4,800 unknowns exceed the 4,096 work items from which the team's
/// helpers may fork (the 8×6×6 case has 1,440), so this pins that where
/// the chunks run never moves the numerics.
#[test]
fn compressible_matrix_free_benchmark_mesh_history_is_pinned() {
    const ITERS: &[usize] = &[
        2, 4, 6, 8, 5, 11, 20, 19, 13, 13, 13, 13, 12, 12, 13, 13, 12, 13, 13, 13, 13, 13, 14, 14,
        14, 14, 14, 14, 14, 14, 14, 14, 14, 15, 15, 15, 15, 16, 16, 17, 16, 17, 18, 20, 19, 20, 22,
        27, 22, 26, 27, 25, 31, 32, 30, 31, 31, 94,
    ];
    const RESIDUAL_BITS: &[u64] = &[
        0x3fb035d084793159,
        0x3fa6afc4df665ecb,
        0x3f9dce857bfab793,
        0x3f93025985f8fb45,
        0x3f8655424ae43961,
        0x3f756d03d9f56138,
        0x3f5c43ca29d1183e,
        0x3f54c4090e6b76e0,
        0x3f58278090a36d41,
        0x3f592aa2108aae45,
        0x3f594fb1d906cb1d,
        0x3f5933821d11b998,
        0x3f5900e4eae9a684,
        0x3f58c57943d2d212,
        0x3f587ffe8c524dd7,
        0x3f582b5b2b1cae15,
        0x3f57d1653aa884cf,
        0x3f5774de251796c6,
        0x3f570a4be07b6a1f,
        0x3f569b21d1895bb1,
        0x3f5625c01ca70f1b,
        0x3f55aa9434f8eb97,
        0x3f552a1a75d8167b,
        0x3f549d87b701708e,
        0x3f54105b8e407f4f,
        0x3f53808786cd4b99,
        0x3f52eb5d570c106e,
        0x3f5251c7c630483f,
        0x3f51b43c8b13c283,
        0x3f5114598848ac94,
        0x3f5070020646e910,
        0x3f4f90a3e32c15f6,
        0x3f4e3b7a2268dcec,
        0x3f4ce3e7a270bf2a,
        0x3f4b81918353ca8a,
        0x3f4a1e2fc3536a18,
        0x3f48b735cc919f1b,
        0x3f474dde5b9c4116,
        0x3f45de925f522742,
        0x3f446ea7ac6ddb61,
        0x3f42fd602f81faea,
        0x3f41893df0282d16,
        0x3f4014ea3cb943c9,
        0x3f3d415c1a0e6af5,
        0x3f3a58dc2194f428,
        0x3f376cbdde6a80e5,
        0x3f34851b3b7217bc,
        0x3f31a0dd2427fd11,
        0x3f2d86115423a2cf,
        0x3f27e6088b96af9e,
        0x3f2269f7b047a214,
        0x3f1a60056bae13d2,
        0x3f10c3a510691fcc,
        0x3f01fe29a0173273,
        0x3ef88469da3db109,
        0x3ed28da84a645e48,
        0x3e9ca042a806f8c5,
        0x3e09238cd8659393,
        0x3da110edbb95dcbd,
    ];
    let h = solve(
        (15, 8, 8),
        FlowModel::compressible(),
        &compressible_options(),
    );
    check("compressible matrix-free 15x8x8", &h, ITERS, RESIDUAL_BITS);
}
