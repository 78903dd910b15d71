//! Golden ΨNKS history of one served scenario, pinned bitwise across
//! commits.
//!
//! `ScenarioClass::small()` (12×8×8 incompressible bump channel in the
//! tuned layout) solved through `FamilyState::solve` with the tuned blocked
//! options: BCSR b = 4 with block ILU(0) on the same blocks, GMRES(20).
//! The solve is warm-started from the family's BCSR and block ILU(0)
//! templates, which the family builds from its own discretization, so the
//! warm path checks the template's source pattern by content.  The test
//! checks the step count, every step's Krylov iterations and the bits of
//! every residual norm (the initial one first) against the values below,
//! and the served solution bitwise against `direct_solve`.
//!
//! Re-record the history only in a change that is meant to move the
//! numerics, and say so: on a mismatch the test prints the new values in
//! the form this file uses.

use fun3d_serve::{direct_solve, FamilyState, ScenarioClass};
use fun3d_solver::gmres::GmresOptions;
use fun3d_solver::pseudo::{Forcing, PrecondSpec, PseudoTransientOptions};
use fun3d_sparse::ilu::IluOptions;
use fun3d_telemetry::events::EventSink;
use fun3d_telemetry::Registry;

/// The tuned blocked options (the tuned Table 1 row of the core goldens).
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

#[test]
fn served_small_scenario_history_is_pinned() {
    const ITERS: &[usize] = &[
        2, 3, 5, 12, 12, 12, 11, 10, 10, 10, 11, 11, 11, 11, 11, 11, 11, 11, 11, 12, 12, 12, 12,
        12, 13, 13, 13, 13, 12, 12, 12, 12, 12, 13, 6, 16, 15, 15, 15, 14, 3,
    ];
    const RESIDUAL_BITS: &[u64] = &[
        0x3fea1ce2a1676e65,
        0x3fd8dd9dbe537554,
        0x3fc292838f3c44b8,
        0x3fa0706b9a286373,
        0x3f8d766736218fa8,
        0x3f90554c119886ef,
        0x3f92960ef1bb9b58,
        0x3f931a7c9fe73fed,
        0x3f931bfafa978ca0,
        0x3f9301bc2f5e3f36,
        0x3f92cf232dedd266,
        0x3f927855e029b146,
        0x3f920f987bc3411e,
        0x3f9188dfacd81ab4,
        0x3f90e80e13fca1f7,
        0x3f902f2d8d859506,
        0x3f8ec2089a131219,
        0x3f8d01e99dc165c5,
        0x3f8b25e1ec48999d,
        0x3f893625feecbf94,
        0x3f8720022cf2d29f,
        0x3f8529cf4d21e8eb,
        0x3f8321a04ba2a13a,
        0x3f8122f06d0f94e3,
        0x3f7e44e0c83ff556,
        0x3f79f64f23f5075e,
        0x3f7631b917afcfe8,
        0x3f724d244728d034,
        0x3f6e09bfd9589a01,
        0x3f67d0bf10af66ef,
        0x3f5fa7f0aa727a6d,
        0x3f53193a673891c5,
        0x3f3d0fc2c8b8f27b,
        0x3f1bf447c380954d,
        0x3ef15ca2349b9dd0,
        0x3e84aedcc63ee845,
        0x3e87a1cc9def749d,
        0x3e8b598fe857cf19,
        0x3e8e8b7ef60a137e,
        0x3e91b2e55504c68e,
        0x3e946ecd2927bad1,
        0x3e26c56d8fc2a2e6,
    ];
    let sc = ScenarioClass::small();
    assert_eq!(sc.bcsr_block(), Some(4));
    let nks = tuned_options();
    let state = FamilyState::build(&sc, 2);
    assert_eq!(nks.block_ilu(state.jacobian_block_size()), Some(4));
    let warm = state.warm_start(&nks);
    assert!(
        warm.bcsr.is_some() && warm.block_ilu.is_some(),
        "the served solve must start from the family templates"
    );
    let (h, q) = state.solve(&nks, &Registry::disabled(), &EventSink::disabled());
    assert!(h.converged, "not converged ({:.2e})", h.reduction());
    assert!(h.anomaly.is_none(), "{:?}", h.anomaly);

    let got_iters: Vec<usize> = h.steps.iter().map(|s| s.linear_iters).collect();
    let got_bits: Vec<u64> = std::iter::once(h.initial_residual)
        .chain(h.steps.iter().map(|s| s.residual_norm))
        .map(f64::to_bits)
        .collect();
    if got_iters != ITERS || got_bits != RESIDUAL_BITS {
        let bits: Vec<String> = got_bits.iter().map(|b| format!("{b:#018x}")).collect();
        panic!(
            "served small scenario: history moved ({} steps recorded, {} now)\n\
             const ITERS: &[usize] = &{got_iters:?};\n\
             const RESIDUAL_BITS: &[u64] = &[{}];",
            ITERS.len(),
            got_iters.len(),
            bits.join(", ")
        );
    }

    let (hd, qd) = direct_solve(&sc, &nks);
    assert_eq!(q, qd, "served solution must match the direct path bitwise");
    assert_eq!(h.nsteps(), hd.nsteps());
    assert_eq!(h.final_residual.to_bits(), hd.final_residual.to_bits());
    for (a, b) in h.steps.iter().zip(&hd.steps) {
        assert_eq!(a.residual_norm.to_bits(), b.residual_norm.to_bits());
        assert_eq!(a.linear_iters, b.linear_iters);
    }
}
