//! Edge-based finite-volume Euler discretization — the FUN3D analogue.
//!
//! FUN3D solves the Euler / Navier–Stokes equations vertex-centered on
//! unstructured tetrahedral meshes; the paper's experiments use its
//! incompressible and compressible Euler paths (4 and 5 unknowns per vertex).
//! This crate reimplements that discretization:
//!
//! * [`model`] — the two flow models: incompressible Euler in Chorin
//!   artificial-compressibility form and compressible Euler with an ideal
//!   gas, each with analytic flux Jacobians (verified against finite
//!   differences in the tests).
//! * [`field`] — layout-aware state storage: the *interlaced* vs.
//!   *noninterlaced* orderings of Section 2.1.1.
//! * [`gradient`] — Green–Gauss nodal gradients for second-order MUSCL
//!   reconstruction (the "discretization order" robustness parameter of
//!   Section 2.4.1).
//! * [`residual`] — the edge-loop flux kernel (first or second order,
//!   Rusanov dissipation), boundary conditions (inflow / outflow / slip
//!   wall), and the first-order analytic Jacobian used to build the
//!   preconditioner — "the preconditioner matrix is always built out of a
//!   first-order analytical Jacobian matrix".
//!
//! The flux kernel is the instruction-scheduling-bound phase of the paper
//! (over 60% of execution time); its memory reference pattern under the
//! different edge/vertex orderings is what Table 1 and Figure 3 measure.
//!
//! # The vertex/face split
//!
//! Each model's Rusanov flux is split into a per-vertex part and a
//! per-face part.  A vertex pass computes one record per vertex, once per
//! evaluation; the face part combines two records with a face normal.  The
//! first-order edge loop, the boundary-face loop, the wave-speed sums and
//! the Jacobian's edge and boundary loops are then one kernel,
//! monomorphized over (model, layout) and dispatched once per call, not
//! once per edge.  [`FlowModel`]'s `flux`, `max_wavespeed`,
//! `flux_jacobian` and `pressure` build a record and call the same face
//! part, so each formula is written once; the second-order path turns its
//! reconstructed states into records the same way.
//!
//! * *Records.* A compressible record holds 12 values: the state, `1/rho`,
//!   the velocities `m * (1/rho)`, two pressures and the sound speed.  The
//!   incompressible model has nothing worth storing: its kernels read the
//!   state directly, and its flux and wave speed share `theta = u . n`.
//! * *Layout.* The record buffer, owned by [`residual::Workspace`], follows
//!   the discretization's layout: one record per vertex when interlaced,
//!   one plane per quantity when segregated.  Table 1's layout column thus
//!   still measures gathers in the layout it names.
//! * *Bitwise.* Results are bitwise those of the per-edge formulas.  Three
//!   formulas round differently and each stays where it was used: the flux
//!   (and its Jacobian) takes `p = (gamma-1)(E - rho |u|^2 / 2)` with
//!   `u = m * (1/rho)`; `pressure()`, the wall flux and the wave speed take
//!   `(gamma-1)(E - |m|^2 / (2 rho))`, the wave speed with the normal
//!   velocity `(m . n) * (1/rho)`; the wall Jacobian's `dp/dq` takes
//!   `u = m / rho`.  Every loop keeps the order of its additions into the
//!   residual and into the Jacobian's value slots.

pub mod field;
pub mod gradient;
pub mod model;
pub mod residual;

pub use field::FieldVec;
pub use model::FlowModel;
pub use residual::{Discretization, SpatialOrder};
