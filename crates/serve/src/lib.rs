//! `fun3d-serve`: a batched multi-scenario solve engine.
//!
//! The paper solves one case at a time; the production target is a
//! long-running engine serving many concurrent solve requests.  This crate
//! supplies the serving layer over the existing stack:
//!
//! * [`scenario`] — [`ScenarioClass`] (mesh family + physics + layout), its
//!   bit-exact [`FamilyKey`], and the request/response types.
//! * [`state`] — [`FamilyState`]: the immutable per-family state (ordered
//!   mesh, vertex-graph partition, symbolic ILU(k), block ILU(0) and BCSR
//!   structure templates) split out of the solve path and shared behind
//!   an `Arc`.
//!   [`state::direct_solve`] is the uncached reference path; cached solves
//!   are **bitwise identical** to it (the templates only skip symbolic
//!   setup — numerics rerun in full, pinned by tests).
//! * [`cache`] — [`StateCache`]: bounded LRU over family states with
//!   build-once semantics under concurrency (per-entry `OnceLock`).
//! * [`queue`] — `JobQueue` *(crate-internal)* plus the public
//!   [`AdmissionPolicy`] / [`QueueStats`]: a bounded queue whose admission
//!   controller rejects or sheds load past the depth bound, and whose
//!   dequeue groups same-family jobs into batches.
//! * [`engine`] — [`Engine`]: the worker pool.  Workers pull family
//!   batches, acquire shared state through the cache, and run each solve
//!   warm on a pinned [`fun3d_sparse::par::ParCtx`] thread team.  With
//!   [`EngineConfig::live`] set ([`SloConfig`]), the engine additionally
//!   keeps a live latency histogram, emits one request trace per solve
//!   (queue → batch → solve → respond segments that partition the
//!   end-to-end latency), fills one chrome-trace lane per worker, and
//!   derives windowed SLO health ([`HealthSnapshot`]).
//!
//! The serving path is off by default everywhere: nothing in the solver or
//! driver changes behavior unless an [`Engine`] is constructed, and live
//! telemetry is itself off by default — solutions are bitwise identical
//! with it on or off.

pub mod cache;
pub mod engine;
pub mod queue;
pub mod scenario;
pub mod state;

pub use cache::{CacheStats, StateCache};
pub use engine::{
    Engine, EngineConfig, EngineStats, HealthSnapshot, HealthState, JobHandle, SloConfig,
    SubmitError,
};
pub use queue::{AdmissionPolicy, QueueStats};
pub use scenario::{
    solution_fingerprint, FamilyKey, ScenarioClass, SolveOutcome, SolveRequest, SolveResponse,
};
pub use state::{direct_solve, FamilyState};

/// Small, fast presets for tests and smoke experiments.
pub mod presets {
    use crate::scenario::ScenarioClass;
    use fun3d_mesh::generator::BumpChannelSpec;
    use fun3d_solver::gmres::GmresOptions;
    use fun3d_solver::pseudo::{Forcing, PrecondSpec, PseudoTransientOptions};
    use fun3d_sparse::ilu::IluOptions;

    /// A tiny tuned-layout incompressible scenario (6×5×4 vertices) that
    /// solves in milliseconds.
    pub fn tiny_scenario() -> ScenarioClass {
        let mut sc = ScenarioClass::small();
        sc.mesh = BumpChannelSpec::with_dims(6, 5, 4);
        sc
    }

    /// Quick ΨNKS options for smoke-scale serving: few steps, loose
    /// tolerances, ILU(1).
    pub fn tiny_nks() -> PseudoTransientOptions {
        PseudoTransientOptions {
            cfl0: 5.0,
            cfl_exponent: 1.2,
            cfl_max: 1e6,
            max_steps: 40,
            target_reduction: 1e-6,
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
}

#[cfg(test)]
pub(crate) mod test_support {
    pub use crate::presets::{tiny_nks, tiny_scenario};
}
