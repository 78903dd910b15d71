//! The Newton–Krylov–Schwarz solver stack (Section 2.4 of the paper).
//!
//! A pseudo-transient Newton–Krylov–Schwarz (ΨNKS) method has four nested
//! levels, each with its own tunables:
//!
//! * **Pseudo-transient continuation** ([`pseudo`]) — advances the CFL number
//!   by the power-law SER heuristic
//!   `CFL_l = CFL_0 (||f(u_0)|| / ||f(u_{l-1})||)^p` (Figure 5's knobs:
//!   initial CFL and exponent `p`).
//! * **Inexact Newton** — each timestep solves the linear correction only to
//!   a loose tolerance (Section 2.4.2).
//! * **Krylov** ([`gmres`](mod@gmres)) — restarted GMRES with modified
//!   Gram–Schmidt, right-preconditioned so true residual norms are
//!   available.
//! * **Schwarz** ([`precond`]) — block Jacobi / additive Schwarz / restricted
//!   additive Schwarz with ILU(k) subdomain solves; overlap and fill are the
//!   axes of Table 4.
//!
//! The stack is generic over a [`op::PseudoTransientProblem`] so it serves
//! both the real Euler discretization (via `fun3d-core`) and the small model
//! problems in the tests.

pub mod gmres;
pub mod health;
pub mod op;
pub mod precond;
pub mod pseudo;

pub use gmres::{gmres, GmresOptions, GmresResult};
pub use health::{Anomaly, AnomalyKind, HealthConfig, HealthMonitor};
pub use op::{CsrOperator, LinearOperator, PseudoTransientProblem};
pub use precond::{AdditiveSchwarz, BlockIluPrecond, IdentityPrecond, IluPrecond, Preconditioner};
pub use pseudo::{
    solve_pseudo_transient, solve_pseudo_transient_instrumented, solve_pseudo_transient_warm,
    PhaseTimes, PrecondSpec, PseudoTransientOptions, SolveHistory, StepRecord, WarmStart,
};
