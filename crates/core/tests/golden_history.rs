//! Golden ΨNKS histories, pinned bitwise across commits.
//!
//! The two benchmark configurations run on tiny meshes: the tuned
//! incompressible Table 1 row (interlaced, RCM + sorted edges, BCSR b = 4,
//! block ILU(0) on the same blocks, GMRES(20)) and the compressible
//! matrix-free solve with block ILU(0) on the Jacobian's 5×5 vertex blocks,
//! refreshed every 4th step on a 2-thread team.  The compressible
//! solve also runs on the benchmark's own 15×8×8 mesh, and assembled in
//! 5×5 blocks with block ILU(0) refactored every step.  The distributed
//! solve (`solve_parallel_nks`, point ILU(1) subdomain factors) runs on 4
//! ranks.  Each test checks the step count, every step's Krylov iterations
//! and the bits of every residual norm (the initial one first) against the
//! values below.
//!
//! A change that reorders floating-point additions anywhere in the solve
//! fails here.  Re-record a history only in a change that is meant to move
//! the numerics, and say so: on a mismatch the test prints the new values
//! in the form this file uses.

use fun3d_core::config::{apply_orderings, LayoutConfig};
use fun3d_core::parallel_nks::{solve_parallel_nks, ParallelNksOptions};
use fun3d_core::EulerProblem;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_memmodel::machine::MachineSpec;
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_partition::partition_kway;
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

/// The compressible matrix-free options: ILU(0), which the interlaced
/// Jacobian's vertex blocks make block ILU(0), refreshed every 4th step on
/// a 2-thread team.
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
    let norms: Vec<f64> = std::iter::once(h.initial_residual)
        .chain(h.steps.iter().map(|s| s.residual_norm))
        .collect();
    check_norms(name, &got_iters, &norms, iters, residual_bits);
}

/// Compare per-step Krylov iterations and residual norms (the initial one
/// first) with the recorded ones; on a mismatch, panic with the new values
/// in this file's form.
fn check_norms(
    name: &str,
    got_iters: &[usize],
    norms: &[f64],
    iters: &[usize],
    residual_bits: &[u64],
) {
    let got_bits: Vec<u64> = norms.iter().map(|v| v.to_bits()).collect();
    if got_iters != iters || got_bits != residual_bits {
        let bits: Vec<String> = got_bits.iter().map(|b| format!("{b:#018x}")).collect();
        panic!(
            "{name}: history moved ({} steps recorded, {} now)\n\
             const ITERS: &[usize] = &{got_iters:?};\n\
             const RESIDUAL_BITS: &[u64] = &[{}];",
            iters.len(),
            got_iters.len(),
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
        0x3facd02c9a03eccc,
        0x3fa12e50a624f743,
        0x3f926575e4cc9b07,
        0x3f80ca3ec3ac1e13,
        0x3f62202c0ba42544,
        0x3f4f5ca891c051bc,
        0x3f506d059db53a57,
        0x3f51fa2c1d53f3e5,
        0x3f53724e55d623dc,
        0x3f54c0d785c20a38,
        0x3f55e3960213e29a,
        0x3f56d71e7e14288f,
        0x3f5797a495d608bb,
        0x3f5822dce67ce1cd,
        0x3f587465d3dd4c54,
        0x3f588b6eda1cb876,
        0x3f58566eb9f630f6,
        0x3f57dc3ccac9f667,
        0x3f571389c9293345,
        0x3f55f5bc2c978ff5,
        0x3f547bea6acd2f91,
        0x3f52a1591223af2e,
        0x3f50615313519493,
        0x3f4b77aad25d88ec,
        0x3f4571953386e528,
        0x3f3dcb220f69f94f,
        0x3f30c1bc69dbad2e,
        0x3f187641ed8f431f,
        0x3eea80c1ecade92b,
        0x3e8649824bda4e63,
        0x3deba8822a7c7db1,
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
        0x3f9dce857bfb13fb,
        0x3f93025985fb195d,
        0x3f8655424aeb47d4,
        0x3f756d03da00654b,
        0x3f5c43ca29d0d511,
        0x3f54c4090e21f9a2,
        0x3f5827808eb029bf,
        0x3f592aa20f8df29f,
        0x3f594fb1d8d4dc08,
        0x3f5933821e2d7c7f,
        0x3f5900e4ebc1a0a1,
        0x3f58c579424280d6,
        0x3f587ffe8dc670cc,
        0x3f582b5b2a27f945,
        0x3f57d16539f3bc20,
        0x3f5774de2414d8fc,
        0x3f570a4be03997ef,
        0x3f569b21d00cf66f,
        0x3f5625c01b48df36,
        0x3f55aa943557947e,
        0x3f552a1a74cef7be,
        0x3f549d87b8991065,
        0x3f54105b8e2495e6,
        0x3f53808786dd099c,
        0x3f52eb5d58bc4525,
        0x3f5251c7c55d09b5,
        0x3f51b43c8ae01bee,
        0x3f51145988113455,
        0x3f507002087be054,
        0x3f4f90a3e3a514b8,
        0x3f4e3b7a22e2013a,
        0x3f4ce3e7a0473d5d,
        0x3f4b819183dfa927,
        0x3f4a1e2fc25a452c,
        0x3f48b735cb859155,
        0x3f474dde5c2d98c7,
        0x3f45de925825932d,
        0x3f446ea7b28eb580,
        0x3f42fd602fd5d318,
        0x3f41893df3adcf4d,
        0x3f4014ea3a6307cc,
        0x3f3d415c21903af5,
        0x3f3a58dc1857ab0e,
        0x3f376cbddbd7b00a,
        0x3f34851b41ec7552,
        0x3f31a0dd2a6d1ac5,
        0x3f2d86113ca62282,
        0x3f27e60888a34053,
        0x3f2269f7ac969756,
        0x3f1a600551071c7b,
        0x3f10c3a4e75038dc,
        0x3f01fe29d0aec55a,
        0x3ef8846997061ae6,
        0x3ed28da81eeafd7d,
        0x3e9ca04254e648a4,
        0x3e0923cb24fc999c,
        0x3da11075689df056,
    ];
    let h = solve(
        (15, 8, 8),
        FlowModel::compressible(),
        &compressible_options(),
    );
    check("compressible matrix-free 15x8x8", &h, ITERS, RESIDUAL_BITS);
}

/// The compressible solve on an assembled Jacobian in 5×5 blocks: block
/// ILU(0) refactored every step on a 2-thread team.  This pins the b = 5
/// block kernels (SpMV, elimination, sweeps) at solve level, as the tuned
/// incompressible history pins b = 4.
#[test]
fn compressible_blocked_history_is_pinned() {
    const ITERS: &[usize] = &[
        2, 2, 3, 4, 6, 7, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 9, 9, 9, 9,
        9, 9, 9, 9, 9,
    ];
    const RESIDUAL_BITS: &[u64] = &[
        0x3fb4cfb6b12974e4,
        0x3fab65a25268576a,
        0x3f9f29a4f0c2c539,
        0x3f8df857e666bc3c,
        0x3f77337fc191ed2a,
        0x3f688a9c56a1b0b7,
        0x3f6ab935901b302d,
        0x3f6b59fad6f8f1a8,
        0x3f6b52e3b5ff5ae0,
        0x3f6b175326c1f27e,
        0x3f6ac07618422f59,
        0x3f6a5196c12053d2,
        0x3f69c9c7885fb585,
        0x3f6927653bdf7828,
        0x3f686b3370739b5a,
        0x3f678e5a63394c0c,
        0x3f6690d549291b26,
        0x3f6570c272d53bc6,
        0x3f642be2a5ad6bbe,
        0x3f62bfe73170891c,
        0x3f612a895f3e8122,
        0x3f5ed3a3e250339d,
        0x3f5af90e08a92121,
        0x3f56c6bc0309206f,
        0x3f524699ab043e68,
        0x3f4b2ca425d68f47,
        0x3f42011bbbccbb60,
        0x3f3464dad9ed75d9,
        0x3f23b823f852694f,
        0x3f0957bf47eafe57,
        0x3ed23c3a126f43a2,
        0x3e99e1aa27823b26,
        0x3e6bf809792807f4,
        0x3e3f49fc54ffd000,
        0x3e118df5a3de51a6,
        0x3de3b4d5163adf68,
    ];
    let mut opts = compressible_options();
    opts.matrix_free = false;
    opts.bcsr_block = Some(5);
    opts.pc_refresh = 1;
    let h = solve((6, 5, 4), FlowModel::compressible(), &opts);
    check("compressible blocked b=5 6x5x4", &h, ITERS, RESIDUAL_BITS);
}

/// The distributed solve on 4 ranks: the 8×6×6 incompressible mesh (seed
/// 1), a k-way partition from seed 1 and default options, so each rank
/// factors point ILU(1) on its subdomain block.
#[test]
fn distributed_history_is_pinned() {
    const ITERS: &[usize] = &[
        4, 5, 10, 15, 16, 16, 15, 15, 15, 15, 15, 15, 14, 14, 14, 14, 14, 14, 14, 14, 15, 15, 15,
        15, 15, 16, 16, 16, 17, 17, 9, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18,
    ];
    const RESIDUAL_BITS: &[u64] = &[
        0x3ff05122c7501362,
        0x3fdd552090def137,
        0x3fc2ad0a3c447150,
        0x3f9b3f2719b4ad73,
        0x3f8938a0bf152460,
        0x3f8d500c5fd2f132,
        0x3f905a0c0e356df0,
        0x3f91e5da4abf0c84,
        0x3f9338b70fc1f5a7,
        0x3f9443eb6703a940,
        0x3f950d6d9032c932,
        0x3f959281973b0766,
        0x3f95d6fdffdd27fc,
        0x3f95d7df6d25530f,
        0x3f95a1b8bc8b39f7,
        0x3f9530ac2f7b3745,
        0x3f94890618679ada,
        0x3f93af2b2b2acd3f,
        0x3f92a7cd0a046a90,
        0x3f9178cb60e2376e,
        0x3f90275b9cbd31d2,
        0x3f8d7b99f36a505d,
        0x3f8a6c327ee0db96,
        0x3f8744c825118882,
        0x3f83f57f3e3337be,
        0x3f8099511690101e,
        0x3f7a59ca86087c1d,
        0x3f735a691f3bf24f,
        0x3f691881f83934be,
        0x3f5971b1d9365384,
        0x3f37bcaf55e835c3,
        0x3f00c5703a3634eb,
        0x3ef38a70c8c2a97f,
        0x3ee5489e4813f8cb,
        0x3ed80695ac024f6f,
        0x3ecb3332d3b35573,
        0x3ebecd08dda9ff2a,
        0x3eb1705f4129e916,
        0x3ea3bf3e64c51737,
        0x3e965c5516ad3c4c,
        0x3e8951f80063b8d7,
        0x3e7cabe360473719,
        0x3e703bad2db84781,
        0x3e6261b2c575d056,
        0x3e54d0849d56f95d,
        0x3e4791c5ee4e6e13,
        0x3e3ab05eac608122,
    ];
    let mut spec = BumpChannelSpec::with_dims(8, 6, 6);
    spec.seed = 1;
    let mesh = spec.build();
    let nranks = 4;
    let owner = partition_kway(&mesh.vertex_graph(), nranks, 1).part;
    let report = solve_parallel_nks(
        &mesh,
        FlowModel::incompressible(),
        &owner,
        nranks,
        &MachineSpec::asci_red(),
        &ParallelNksOptions::default(),
    );
    let name = "distributed 4 ranks 8x6x6";
    assert!(report.converged, "{name}: not converged");
    check_norms(
        name,
        &report.linear_iters,
        &report.residual_history,
        ITERS,
        RESIDUAL_BITS,
    );
}
