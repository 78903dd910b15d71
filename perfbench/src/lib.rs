//! Time-to-solution benchmark of the PETSc-FUN3D reproduction.
//!
//! Four ΨNKS workloads ([`workloads::Workload`]) each run whole operations
//! (a solve, or a served request) until a deadline and report end-to-end
//! metrics; a traced run reports a per-layer ledger instead, timed from
//! outside through the layers' public entry points.  See `README.md`.

pub mod host;
pub mod ledger;
pub mod reference;
pub mod replay;
pub mod report;
pub mod stats;
pub mod timed;
pub mod workloads;
