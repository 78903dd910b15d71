//! Pseudo-transient Newton–Krylov–Schwarz continuation (ΨNKS).
//!
//! Newton's method on a stiff steady-state residual needs globalization; the
//! paper uses pseudo-timestepping with the switched evolution/relaxation
//! (SER) power law of Van Leer & Mulder:
//!
//! `CFL_l = CFL_0 * (||f(u_0)|| / ||f(u_{l-1})||)^p`
//!
//! Each pseudo-timestep solves one inexact-Newton correction
//! `(V/dtau + dR/dq) delta = -R(q)` with preconditioned GMRES, where the
//! matrix is the *first-order analytic* Jacobian plus the timestep diagonal,
//! and (optionally, Section 2.4.1) the residual switches from first- to
//! second-order discretization after a prescribed residual reduction.
//! Figure 5 sweeps `CFL_0`; Section 2.4.1 discusses `p` (0.75 with shocks,
//! up to 1.5 for first-order phases).

use crate::gmres::{gmres_with_events, CommSelf, GmresOptions};
use crate::health::{Anomaly, AnomalyKind, HealthConfig, HealthMonitor};
use crate::op::{CsrOperator, FdJacobianOperator, PseudoTransientProblem};
use crate::precond::{AdditiveSchwarz, BlockIluPrecond, IluPrecond, Preconditioner};
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::block_ilu::BlockIluFactors;
use fun3d_sparse::csr::CsrMatrix;
use fun3d_sparse::ilu::{IluError, IluFactors, IluOptions, PrecStorage};
use fun3d_sparse::vec_ops::norm2;
use fun3d_telemetry::events::{EventRecord, EventSink};
use fun3d_telemetry::Registry;
use std::sync::Arc;

/// Which preconditioner the Krylov solver uses.
#[derive(Debug, Clone)]
pub enum PrecondSpec {
    /// Global ILU(k) (the single-subdomain limit; Table 1's solve phase).
    /// ILU(0) in double precision is factored on the blocks of a BCSR
    /// matrix instead when the run is blocked, or matrix-free on a
    /// Jacobian made of dense blocks
    /// ([`PseudoTransientOptions::block_ilu`]).
    Ilu(IluOptions),
    /// Additive Schwarz over the given disjoint owned-row sets.
    Schwarz {
        /// Disjoint row sets covering all unknowns.
        owned_sets: Vec<Vec<usize>>,
        /// Overlap layers (0 = block Jacobi).
        overlap: usize,
        /// Subdomain ILU options.
        ilu: IluOptions,
        /// Restricted ASM (Cai–Sarkis) vs classic ASM.
        restricted: bool,
    },
}

/// How the inner (Krylov) tolerance is chosen each Newton step.
///
/// Section 2.4.2: "We have experimented with progressively tighter
/// tolerances near convergence, and saved Newton iterations thereby, but did
/// not save time relative to cases with loose and constant tolerance."
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Forcing {
    /// Fixed relative tolerance (the paper's production choice, 0.001-0.01).
    #[default]
    Constant,
    /// Eisenstat-Walker choice 2: `eta_l = gamma * (||R_l|| / ||R_{l-1}||)^2`,
    /// clamped to `[eta_min, eta_max]` — tightens as the residual falls.
    EisenstatWalker {
        /// Scale factor (typically 0.9).
        gamma: f64,
        /// Tolerance floor.
        eta_min: f64,
        /// Tolerance ceiling.
        eta_max: f64,
    },
}

/// Options for the ΨNKS solve.
#[derive(Debug, Clone)]
pub struct PseudoTransientOptions {
    /// Initial CFL number (Figure 5's swept parameter).
    pub cfl0: f64,
    /// SER exponent `p` (close to unity; 0.75–1.5 per Section 2.4.1).
    pub cfl_exponent: f64,
    /// CFL ceiling (the paper lets it reach 1e5).
    pub cfl_max: f64,
    /// Pseudo-timestep limit.
    pub max_steps: usize,
    /// Stop when `||R|| / ||R_0||` drops below this.
    pub target_reduction: f64,
    /// Krylov solve options (inexact-Newton inner tolerance lives in
    /// `krylov.rtol`, typically 0.001–0.01).
    pub krylov: GmresOptions,
    /// Preconditioner specification.
    pub precond: PrecondSpec,
    /// Switch the residual to second order once `||R||/||R_0||` falls below
    /// this (None = keep the initial order throughout).
    pub second_order_switch: Option<f64>,
    /// Use matrix-free FD Jacobian-vector products for the Krylov operator
    /// (the assembled first-order matrix still builds the preconditioner).
    pub matrix_free: bool,
    /// Enable a backtracking line search on the Newton update.
    pub line_search: bool,
    /// Run the Krylov matvec through block-CSR storage with this block size
    /// (the "structural blocking" of Table 1), and precondition ILU(0) on
    /// the same blocks ([`PseudoTransientOptions::block_ilu`]). Ignored
    /// under `matrix_free`, whose ILU(0) blocks follow the Jacobian's own
    /// pattern instead.
    pub bcsr_block: Option<usize>,
    /// Inner-tolerance strategy (constant vs Eisenstat-Walker).
    pub forcing: Forcing,
    /// Rebuild the preconditioner every `pc_refresh` steps, reusing the old
    /// factors in between (the paper's "refresh frequency for Jacobian
    /// preconditioner" Newton parameter; the Krylov *operator* is always
    /// current). 1 = rebuild every step.
    pub pc_refresh: usize,
}

impl Default for PseudoTransientOptions {
    fn default() -> Self {
        Self {
            cfl0: 10.0,
            cfl_exponent: 1.0,
            cfl_max: 1e5,
            max_steps: 200,
            target_reduction: 1e-10,
            krylov: GmresOptions::default(),
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

impl PseudoTransientOptions {
    /// The block size `b` when this run preconditions with block ILU(0) on
    /// a BCSR copy of its shifted Jacobian, PETSc's ILU on BAIJ, given the
    /// block size of that Jacobian's pattern, `jacobian_block`
    /// ([`fun3d_sparse::csr::CsrPattern::block_size`]; only a matrix-free
    /// run reads it).  The run must ask for ILU(0) in double precision,
    /// and then:
    ///
    /// * an assembled run takes it when it is blocked (`bcsr_block =
    ///   Some(b)`), and factors the BCSR matrix its operator runs on;
    /// * a matrix-free run takes it when the Jacobian is made of dense,
    ///   aligned `b x b` blocks, `b = jacobian_block` > 1, as an interlaced
    ///   Jacobian is, like PETSc-FUN3D's matrix-free runs with a BAIJ
    ///   preconditioner matrix.  Its Krylov operator stays
    ///   finite-difference; the BCSR copy only feeds the factor.
    ///
    /// The factor is built from the step's BCSR matrix and refactored in
    /// place on later rebuilds.  On dense `b x b` blocks this is point
    /// ILU(0) in exact arithmetic, so only rounding differs.  `None` for
    /// every other configuration, which keeps point ILU(k) (fill > 0, f32
    /// storage, assembled unblocked runs such as Table 1's unblocked rows,
    /// and matrix-free runs on point-wise patterns) or Schwarz.
    pub fn block_ilu(&self, jacobian_block: usize) -> Option<usize> {
        match &self.precond {
            PrecondSpec::Ilu(ilu) if ilu.fill_level == 0 && ilu.storage == PrecStorage::Double => {
                if self.matrix_free {
                    Some(jacobian_block).filter(|&b| b > 1)
                } else {
                    self.bcsr_block
                }
            }
            _ => None,
        }
    }

    /// The block size of the BCSR matrix a solve refills, if any, given
    /// the block size of its Jacobian's pattern as for [`Self::block_ilu`]:
    /// the operator of a blocked assembled run (`bcsr_block`), or the block
    /// ILU(0) input of a matrix-free run.
    pub fn bcsr_refill_block(&self, jacobian_block: usize) -> Option<usize> {
        if self.matrix_free {
            self.block_ilu(jacobian_block)
        } else {
            self.bcsr_block
        }
    }
}

/// Wall time per solver phase, summed over all pseudo-timesteps (seconds).
/// Named replacement for the old bare `(f64, f64, f64, f64)` tuple.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimes {
    /// Residual (flux) evaluations, including line-search trials.
    pub residual: f64,
    /// Jacobian assembly and diagonal shifting.
    pub jacobian: f64,
    /// Preconditioner construction (ILU factorization / Schwarz setup,
    /// and the BCSR refill of a blocked operator).
    pub precond: f64,
    /// Krylov (GMRES) solve time.
    pub krylov: f64,
}

impl PhaseTimes {
    /// Total accounted wall time.
    pub fn total(&self) -> f64 {
        self.residual + self.jacobian + self.precond + self.krylov
    }
}

/// One pseudo-timestep's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Step index (0-based).
    pub step: usize,
    /// CFL number used.
    pub cfl: f64,
    /// Residual norm *before* the step.
    pub residual_norm: f64,
    /// Krylov iterations spent.
    pub linear_iters: usize,
    /// Whether the linear solve met its tolerance.
    pub linear_converged: bool,
    /// Line-search step length actually taken.
    pub step_length: f64,
    /// Wall time in residual evaluations this step (seconds).
    pub t_residual: f64,
    /// Wall time assembling the Jacobian (seconds).
    pub t_jacobian: f64,
    /// Wall time building the preconditioner (seconds).
    pub t_precond: f64,
    /// Wall time in the Krylov solve (seconds).
    pub t_krylov: f64,
}

/// The convergence history of a ΨNKS solve.
#[derive(Debug, Clone)]
pub struct SolveHistory {
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Whether the target reduction was reached.
    pub converged: bool,
    /// Final residual norm.
    pub final_residual: f64,
    /// Initial residual norm.
    pub initial_residual: f64,
    /// The anomaly that aborted the solve, if the health monitor tripped
    /// (NaN/Inf residual, divergence, stagnation, or CFL breakdown) or a
    /// preconditioner factorization met a zero pivot.  A healthy solve —
    /// converged or simply out of steps — leaves this `None`.
    pub anomaly: Option<Anomaly>,
}

impl SolveHistory {
    /// Total Krylov iterations across all steps (Table 4's "Linear Its").
    pub fn total_linear_iters(&self) -> usize {
        self.steps.iter().map(|s| s.linear_iters).sum()
    }

    /// Number of pseudo-timesteps taken.
    pub fn nsteps(&self) -> usize {
        self.steps.len()
    }

    /// Total wall time per phase across all steps, with names attached.
    pub fn phases(&self) -> PhaseTimes {
        self.steps
            .iter()
            .fold(PhaseTimes::default(), |acc, s| PhaseTimes {
                residual: acc.residual + s.t_residual,
                jacobian: acc.jacobian + s.t_jacobian,
                precond: acc.precond + s.t_precond,
                krylov: acc.krylov + s.t_krylov,
            })
    }

    /// Total wall time accounted across phases (seconds).
    pub fn total_time(&self) -> f64 {
        self.phases().total()
    }

    /// Mean wall time per pseudo-timestep (Table 1's "Time/Step").
    pub fn time_per_step(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.total_time() / self.steps.len() as f64
        }
    }

    /// Residual reduction achieved.
    pub fn reduction(&self) -> f64 {
        if self.initial_residual == 0.0 {
            1.0
        } else {
            self.final_residual / self.initial_residual
        }
    }
}

/// BCSR matvec operator for the structural-blocking variant.
struct BcsrOperator<'a> {
    a: &'a BcsrMatrix,
    par: fun3d_sparse::par::ParCtx,
}

impl crate::op::LinearOperator for BcsrOperator<'_> {
    fn n(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.spmv_par(x, y, &self.par);
    }
}

enum BuiltPrecond {
    Ilu(Box<IluPrecond>),
    BlockIlu(Box<BlockIluPrecond>),
    Schwarz(AdditiveSchwarz),
}

impl Preconditioner for BuiltPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            BuiltPrecond::Ilu(p) => p.apply(r, z),
            BuiltPrecond::BlockIlu(p) => p.apply(r, z),
            BuiltPrecond::Schwarz(p) => p.apply(r, z),
        }
    }

    fn traffic_bytes(&self) -> Option<f64> {
        match self {
            BuiltPrecond::Ilu(p) => p.traffic_bytes(),
            BuiltPrecond::BlockIlu(p) => p.traffic_bytes(),
            BuiltPrecond::Schwarz(p) => p.traffic_bytes(),
        }
    }
}

/// Immutable warm-start templates shared across solves of the same scenario
/// family (same mesh adjacency, ordering, physics, and layout — i.e. the same
/// Jacobian *pattern*).
///
/// All templates are pattern-only accelerators.  The ILU templates skip the
/// symbolic analysis (the `ILU(k)` pattern and I-node partition, or the
/// block split) and level scheduling of a solve's *first* factorization
/// only: every later rebuild, warm or cold, refactors the solve's own
/// cached factors in place.
/// Numerics are redone with [`IluFactors::refactor`] or
/// [`BlockIluFactors::refactor`], which run the identical elimination as a
/// fresh factorization.  The BCSR template skips the block-structure
/// conversion (values are rewritten in full by `refill_from_csr`).  A warm
/// solve is therefore **bitwise identical** to a cold one; templates that do
/// not match the problem (dimension, fill level, storage, block size, or
/// point or block pattern; the BCSR template's source point pattern is
/// compared with the step Jacobian's by content) are ignored rather than
/// trusted.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Symbolic `ILU(k)` template for [`PrecondSpec::Ilu`] runs that keep
    /// point ILU; cloned once and numerically refactored against the first
    /// step's shifted Jacobian.
    pub ilu: Option<Arc<IluFactors>>,
    /// Block ILU(0) template for runs that take
    /// [`PseudoTransientOptions::block_ilu`], assembled or matrix-free;
    /// cloned once and numerically refactored against the first step's
    /// BCSR matrix.
    pub block_ilu: Option<Arc<BlockIluFactors>>,
    /// Block-structure template for the run's BCSR matrix: the operator of
    /// a blocked assembled run ([`PseudoTransientOptions::bcsr_block`]),
    /// or the block ILU(0) input of a matrix-free run; cloned once and
    /// refilled from the point CSR on each step that reads it.  Used only
    /// if it has the run's block size and was built
    /// ([`BcsrMatrix::from_csr`]) from a matrix with the step Jacobian's
    /// point pattern.
    pub bcsr: Option<Arc<BcsrMatrix>>,
}

impl WarmStart {
    /// No templates: every solve pays full symbolic setup (the cold path).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any template is present.
    pub fn is_empty(&self) -> bool {
        self.ilu.is_none() && self.block_ilu.is_none() && self.bcsr.is_none()
    }
}

/// Run ΨNKS continuation on `problem` starting from `q` (updated in place).
pub fn solve_pseudo_transient<P: PseudoTransientProblem>(
    problem: &mut P,
    q: &mut [f64],
    opts: &PseudoTransientOptions,
) -> SolveHistory {
    solve_pseudo_transient_instrumented(problem, q, opts, &Registry::disabled())
}

/// [`solve_pseudo_transient`] with profiling: records an `nks` span tree
/// (`nks/residual`, `nks/jacobian`, `nks/precond`, `nks/krylov/gmres/...`)
/// plus `steps` / `linear_iters` counters in `tel`.  Instrumentation only
/// observes the clock, so the residual history is bitwise identical to the
/// uninstrumented solve.
pub fn solve_pseudo_transient_instrumented<P: PseudoTransientProblem>(
    problem: &mut P,
    q: &mut [f64],
    opts: &PseudoTransientOptions,
    tel: &Registry,
) -> SolveHistory {
    solve_pseudo_transient_with_events(problem, q, opts, tel, &EventSink::disabled())
}

/// [`solve_pseudo_transient_instrumented`] that additionally emits one
/// [`EventRecord::NewtonStep`] per pseudo-timestep (mirroring the
/// [`StepRecord`] pushed into the history, plus the step's linear forcing
/// tolerance η) and per-iteration [`EventRecord::KrylovIter`] records from
/// the inner GMRES solves into `events`.
pub fn solve_pseudo_transient_with_events<P: PseudoTransientProblem>(
    problem: &mut P,
    q: &mut [f64],
    opts: &PseudoTransientOptions,
    tel: &Registry,
    events: &EventSink,
) -> SolveHistory {
    solve_pseudo_transient_warm(problem, q, opts, tel, events, &WarmStart::none())
}

/// [`solve_pseudo_transient_with_events`] seeded with [`WarmStart`] templates
/// from a previous solve on the same scenario family.  With matching
/// templates the per-solve symbolic setup (ILU(k) analysis, level schedules,
/// BCSR block-structure merge) is skipped; the numeric results are bitwise
/// identical to the cold path either way.
pub fn solve_pseudo_transient_warm<P: PseudoTransientProblem>(
    problem: &mut P,
    q: &mut [f64],
    opts: &PseudoTransientOptions,
    tel: &Registry,
    events: &EventSink,
    warm: &WarmStart,
) -> SolveHistory {
    let _solve_span = tel.span("nks");
    let n = problem.n();
    assert_eq!(q.len(), n);
    let mut r = vec![0.0; n];
    let t0 = std::time::Instant::now();
    {
        let _g = tel.span("residual");
        problem.residual(q, &mut r);
    }
    let mut t_residual_carry = t0.elapsed().as_secs_f64();
    let r0_norm = norm2(&r);
    let mut history = SolveHistory {
        steps: Vec::new(),
        converged: false,
        final_residual: r0_norm,
        initial_residual: r0_norm,
        anomaly: None,
    };
    if r0_norm == 0.0 {
        history.converged = true;
        return history;
    }
    // Health monitoring is always on: it reads only per-step scalars the
    // solve already computes, so a healthy run is bitwise unaffected.
    let mut monitor = HealthMonitor::new(HealthConfig::default(), r0_norm, opts.target_reduction);
    // CI fault-injection hooks, read once per solve.  PANIC unwinds mid-step
    // (exercising the flight recorder's panic dump); NAN poisons the residual
    // norm (exercising anomaly detection and graceful abort).
    let panic_at = fault_step("FUN3D_PANIC_AT_STEP");
    let nan_at = fault_step("FUN3D_NAN_AT_STEP");
    if !r0_norm.is_finite() {
        let anomaly = monitor
            .observe(0, r0_norm, 0.0)
            .expect("non-finite initial residual must trip the monitor");
        abort_with_anomaly(&mut history, anomaly, tel, events);
        return history;
    }
    let mut switched = opts.second_order_switch.is_none();
    // SER reference norm; reset when the discretization order switches
    // ("within each residual reduction phase" per Section 2.4.1).
    let mut ser_ref = r0_norm;
    let mut rnorm = r0_norm;
    let mut rhs = vec![0.0; n];
    let mut delta = vec![0.0; n];
    let mut q_trial = vec![0.0; n];
    let mut r_trial = vec![0.0; n];
    // BCSR cache (the blocked operator, or the block ILU(0) input): the
    // block structure is converted once and only values are refilled on
    // later steps.  A matching warm template provides the structure on the
    // first step instead (refill overwrites every value, so the seeded
    // matrix is indistinguishable from a freshly converted one).
    let mut bcsr_cache: Option<BcsrMatrix> = None;
    // Lagged preconditioner (kept across steps when pc_refresh > 1).
    let mut pc_cache: Option<BuiltPrecond> = None;
    let mut pc_age = usize::MAX; // force a build on the first step

    for step in 0..opts.max_steps {
        if rnorm / r0_norm <= opts.target_reduction {
            history.converged = true;
            break;
        }
        if panic_at == Some(step) {
            // Record elapsed time of the open span stack first so a report
            // snapshotted by an outer panic handler still parses, then unwind
            // (the flight recorder's panic hook dumps the rings).
            tel.flush_open();
            panic!("injected panic at pseudo-step {step} (FUN3D_PANIC_AT_STEP)");
        }
        // Order continuation: switch to second order once the residual has
        // dropped far enough (and recompute the residual with the new
        // stencil; the norm typically jumps).
        if !switched {
            if let Some(thresh) = opts.second_order_switch {
                if rnorm / r0_norm < thresh {
                    problem.set_second_order(true);
                    switched = true;
                    let _g = tel.span("residual");
                    problem.residual(q, &mut r);
                    rnorm = norm2(&r);
                    ser_ref = rnorm;
                }
            }
        }
        // SER CFL law (relative to the current residual-reduction phase).
        let cfl = (opts.cfl0 * (ser_ref / rnorm).powf(opts.cfl_exponent)).min(opts.cfl_max);

        // The preconditioner is rebuilt only every `pc_refresh` steps
        // (lagged preconditioning — the paper's "refresh frequency for
        // Jacobian preconditioner" knob).
        let rebuild_pc = pc_age >= opts.pc_refresh.max(1);

        // Shifted first-order Jacobian.  A matrix-free step that keeps the
        // lagged preconditioner reads no matrix, so it assembles none.
        let t0 = std::time::Instant::now();
        let jac_span = tel.span("jacobian");
        let d = problem.inverse_timestep_scale(q);
        let jac = (rebuild_pc || !opts.matrix_free).then(|| {
            let mut jac = problem.jacobian(q);
            jac.shift_diagonal_by(1.0 / cfl, &d);
            jac
        });
        drop(jac_span);
        let t_jacobian = t0.elapsed().as_secs_f64();

        // Preconditioner from the shifted matrix.  The BCSR values are
        // refilled first: a blocked operator's on every step, a matrix-free
        // block ILU(0) input's on the steps that rebuild.  The Jacobian
        // pattern is fixed for the whole solve, so after the first build
        // every rebuild refactors the cached factors on their symbolic
        // pattern: the same numeric elimination as a fresh factorization,
        // hence bitwise identical factors.
        let t0 = std::time::Instant::now();
        let pc_span = tel.span("precond");
        let jac_block = jac.as_ref().map(|jac| jac.pattern().block_size());
        let block_ilu = jac_block.and_then(|b| opts.block_ilu(b));
        let bcsr = jac.as_ref().zip(jac_block).and_then(|(jac, jac_block)| {
            let b = opts.bcsr_refill_block(jac_block)?;
            Some(refill_bcsr(&mut bcsr_cache, jac, b, warm))
        });
        if let Some(jac) = jac.as_ref().filter(|_| rebuild_pc) {
            let built = match pc_cache.as_mut() {
                Some(BuiltPrecond::Ilu(p)) => p
                    .refactor(jac)
                    .map_err(|e| zero_pivot_detail("point ILU refactorization", "row", e)),
                Some(BuiltPrecond::BlockIlu(p)) => p
                    .refactor(bcsr.expect("block ILU runs refill a BCSR matrix"))
                    .map_err(|e| zero_pivot_detail("block ILU(0) refactorization", "block row", e)),
                Some(BuiltPrecond::Schwarz(p)) => p.refactor(jac).map_err(|e| {
                    zero_pivot_detail("Schwarz subdomain ILU refactorization", "row", e)
                }),
                None => build_precond(jac, bcsr.filter(|_| block_ilu.is_some()), opts, warm)
                    .map(|p| pc_cache = Some(p)),
            };
            if let Err(detail) = built {
                // The step cannot precondition: stop with a typed verdict.
                let anomaly = Anomaly {
                    kind: AnomalyKind::ZeroPivot,
                    step: step as u64,
                    residual_norm: rnorm,
                    detail,
                };
                abort_with_anomaly(&mut history, anomaly, tel, events);
                break;
            }
            pc_age = 0;
        }
        pc_age += 1;
        let pc = pc_cache.as_ref().unwrap();
        drop(pc_span);
        let t_precond = t0.elapsed().as_secs_f64();

        // Inexact Newton: J delta = -R, with the step's forcing term.
        let mut krylov = opts.krylov;
        if let Forcing::EisenstatWalker {
            gamma,
            eta_min,
            eta_max,
        } = opts.forcing
        {
            if let Some(prev) = history.steps.last() {
                let ratio = rnorm / prev.residual_norm.max(1e-300);
                krylov.rtol = (gamma * ratio * ratio).clamp(eta_min, eta_max);
            } else {
                krylov.rtol = eta_max;
            }
        }
        for (o, ri) in rhs.iter_mut().zip(&r) {
            *o = -ri;
        }
        delta.iter_mut().for_each(|v| *v = 0.0);
        let t0 = std::time::Instant::now();
        let krylov_span = tel.span("krylov");
        let nstep = step as u64;
        let lin = match (jac.as_ref().filter(|_| !opts.matrix_free), bcsr) {
            (None, _) => {
                let shift: Vec<f64> = d.iter().map(|&v| v / cfl).collect();
                let op = FdJacobianOperator::new(&*problem, q.to_vec(), r.clone(), shift);
                gmres_with_events(
                    &op, pc, &rhs, &mut delta, &krylov, &CommSelf, tel, events, nstep,
                )
            }
            (Some(_), Some(a)) => {
                let op = BcsrOperator { a, par: krylov.par };
                gmres_with_events(
                    &op, pc, &rhs, &mut delta, &krylov, &CommSelf, tel, events, nstep,
                )
            }
            (Some(jac), None) => {
                let op = CsrOperator::with_par(jac, krylov.par);
                gmres_with_events(
                    &op, pc, &rhs, &mut delta, &krylov, &CommSelf, tel, events, nstep,
                )
            }
        };
        drop(krylov_span);
        tel.counter("linear_iters", lin.iterations as f64);
        let t_krylov = t0.elapsed().as_secs_f64();

        // Line search. Pseudo-transient continuation is globalized by the
        // timestep, not the search, so backtracking only guards against
        // outright blow-ups: try shrinking steps while the residual grows by
        // more than 20%, but if nothing small helps, take the *full* step
        // anyway (a mild transient hump is normal and creeping with tiny
        // steps stalls the continuation).
        let t0 = std::time::Instant::now();
        let res_span = tel.span("residual");
        let mut alpha = 1.0f64;
        let mut accepted = false;
        let mut full: Option<(f64, Vec<f64>, Vec<f64>)> = None;
        for k in 0..4 {
            for i in 0..n {
                q_trial[i] = q[i] + alpha * delta[i];
            }
            problem.residual(&q_trial, &mut r_trial);
            let tnorm = norm2(&r_trial);
            if k == 0 && tnorm.is_finite() {
                full = Some((tnorm, q_trial.clone(), r_trial.clone()));
            }
            if tnorm.is_finite() && (!opts.line_search || tnorm <= 1.2 * rnorm) {
                q.copy_from_slice(&q_trial);
                r.copy_from_slice(&r_trial);
                rnorm = tnorm;
                accepted = true;
                break;
            }
            alpha *= 0.5;
        }
        if !accepted {
            if let Some((tnorm, qf, rf)) = full {
                // Fall back to the full step rather than creep.
                alpha = 1.0;
                q.copy_from_slice(&qf);
                r.copy_from_slice(&rf);
                rnorm = tnorm;
            } else {
                // Not even finite: reject; CFL stays low since the residual
                // did not drop.
                alpha = 0.0;
            }
        }
        drop(res_span);
        if nan_at == Some(step) {
            // Injected fault: poison the residual norm the way a NaN leaking
            // out of a flux evaluation would.
            rnorm = f64::NAN;
        }
        let t_residual = t_residual_carry + t0.elapsed().as_secs_f64();
        t_residual_carry = 0.0;
        history.steps.push(StepRecord {
            step,
            cfl,
            residual_norm: rnorm,
            linear_iters: lin.iterations,
            linear_converged: lin.converged,
            step_length: alpha,
            t_residual,
            t_jacobian,
            t_precond,
            t_krylov,
        });
        events.emit(EventRecord::NewtonStep {
            step: nstep,
            residual_norm: rnorm,
            cfl,
            gmres_iters: lin.iterations as u64,
            eta: krylov.rtol,
            t_residual,
            t_jacobian,
            t_precond,
            t_krylov,
        });
        history.final_residual = rnorm;
        if let Some(anomaly) = monitor.observe(nstep, rnorm, alpha) {
            abort_with_anomaly(&mut history, anomaly, tel, events);
            break;
        }
    }
    if rnorm / r0_norm <= opts.target_reduction {
        history.converged = true;
    }
    tel.counter("steps", history.steps.len() as f64);
    history
}

/// The step's BCSR matrix with block size `b`, refilled from `jac` into
/// `cache`.  The cached structure serves when it was converted from
/// `jac`'s point pattern; an empty cache is first seeded with a warm
/// template of block size `b`.  A cached or seeded structure built from
/// another point pattern is discarded, not trusted, and `jac` is converted
/// afresh.  A structure whose pattern only equals `jac`'s adopts `jac`'s,
/// so the content comparison runs once per solve.
fn refill_bcsr<'c>(
    cache: &'c mut Option<BcsrMatrix>,
    jac: &CsrMatrix,
    b: usize,
    warm: &WarmStart,
) -> &'c BcsrMatrix {
    if cache.is_none() {
        *cache = warm
            .bcsr
            .as_deref()
            .filter(|t| t.block_size() == b)
            .cloned();
    }
    let reusable = cache
        .as_mut()
        .is_some_and(|cached| cached.adopt_source_pattern(jac));
    match cache {
        Some(cached) if reusable => cached.refill_from_csr(jac),
        _ => *cache = Some(BcsrMatrix::from_csr(jac, b)),
    }
    cache.as_ref().expect("refilled or converted above")
}

/// Build the preconditioner `opts.precond` from the shifted Jacobian, or
/// block ILU(0) from its BCSR form `block` when the run takes it
/// ([`PseudoTransientOptions::block_ilu`]).  On a zero pivot, returns the
/// anomaly detail naming the factorization and the row.
fn build_precond(
    jac: &CsrMatrix,
    block: Option<&BcsrMatrix>,
    opts: &PseudoTransientOptions,
    warm: &WarmStart,
) -> Result<BuiltPrecond, String> {
    if let Some(a) = block {
        // As below: a template with this block pattern skips the split and
        // the level schedules, and clone + refactor is bitwise a fresh
        // factorization.
        let template = warm.block_ilu.as_deref().filter(|t| t.matches_pattern(a));
        let factors = match template {
            Some(t) => {
                let mut f = t.clone();
                f.refactor(a).map(|()| f)
            }
            None => BlockIluFactors::factor(a),
        }
        .map_err(|e| zero_pivot_detail("block ILU(0) factorization", "block row", e))?;
        return Ok(BuiltPrecond::BlockIlu(Box::new(
            BlockIluPrecond::new(factors).with_par(opts.krylov.par),
        )));
    }
    match &opts.precond {
        PrecondSpec::Ilu(ilu) => {
            // A warm template factored from this pattern skips the symbolic
            // ILU(k) analysis and the I-node partition: clone + refactor runs
            // the same numeric elimination as a fresh factorization, so the
            // factors are bitwise identical.
            let template = warm.ilu.as_deref().filter(|t| t.is_template_for(jac, ilu));
            let factors = match template {
                Some(t) => {
                    let mut f = t.clone();
                    f.refactor(jac).map(|()| f)
                }
                None => IluFactors::factor(jac, ilu),
            }
            .map_err(|e| zero_pivot_detail("point ILU factorization", "row", e))?;
            Ok(BuiltPrecond::Ilu(Box::new(
                IluPrecond::new(factors).with_par(opts.krylov.par),
            )))
        }
        PrecondSpec::Schwarz {
            owned_sets,
            overlap,
            ilu,
            restricted,
        } => AdditiveSchwarz::new(jac, owned_sets, *overlap, ilu, *restricted)
            .map(BuiltPrecond::Schwarz)
            .map_err(|e| zero_pivot_detail("Schwarz subdomain ILU factorization", "row", e)),
    }
}

/// The [`AnomalyKind::ZeroPivot`] detail for `factorization`, whose error
/// counts rows in `unit`s.
fn zero_pivot_detail(factorization: &str, unit: &str, e: IluError) -> String {
    let IluError::ZeroPivot(row) = e;
    format!("{factorization}: zero pivot at {unit} {row}")
}

/// Parse a fault-injection step index from the environment (CI hooks).
fn fault_step(var: &str) -> Option<usize> {
    std::env::var(var).ok().and_then(|v| v.parse().ok())
}

/// Graceful structured abort: emit the typed anomaly event, count it, dump
/// the flight recorder (if armed), and record the verdict in the history.
/// The solve returns normally — callers decide the process exit.
fn abort_with_anomaly(
    history: &mut SolveHistory,
    anomaly: Anomaly,
    tel: &Registry,
    events: &EventSink,
) {
    events.emit(EventRecord::Anomaly {
        kind: anomaly.kind.tag().to_string(),
        step: anomaly.step,
        residual_norm: anomaly.residual_norm,
        detail: anomaly.detail.clone(),
    });
    tel.counter("anomalies", 1.0);
    fun3d_telemetry::blackbox::dump_now(anomaly.kind.tag());
    history.anomaly = Some(anomaly);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::test_problems::{BlockGrid2d, Bratu1d};

    fn default_opts() -> PseudoTransientOptions {
        PseudoTransientOptions {
            cfl0: 1.0,
            cfl_exponent: 1.0,
            cfl_max: 1e8,
            max_steps: 60,
            target_reduction: 1e-10,
            krylov: GmresOptions {
                restart: 30,
                rtol: 1e-3,
                max_iters: 300,
                ..Default::default()
            },
            precond: PrecondSpec::Ilu(IluOptions::with_fill(0)),
            second_order_switch: None,
            matrix_free: false,
            line_search: true,
            bcsr_block: None,
            forcing: Forcing::Constant,
            pc_refresh: 1,
        }
    }

    #[test]
    fn converges_to_manufactured_solution() {
        let mut p = Bratu1d::new(40, 1.0);
        let mut q = vec![0.0; 40];
        let h = solve_pseudo_transient(&mut p, &mut q, &default_opts());
        assert!(h.converged, "reduction {}", h.reduction());
        let sol = p.solution();
        for (a, b) in q.iter().zip(&sol) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn cfl_grows_as_residual_falls() {
        let mut p = Bratu1d::new(30, 1.0);
        let mut q = vec![0.0; 30];
        let h = solve_pseudo_transient(&mut p, &mut q, &default_opts());
        assert!(h.converged);
        // SER: CFL is nondecreasing whenever the residual decreases.
        let cfls: Vec<f64> = h.steps.iter().map(|s| s.cfl).collect();
        assert!(cfls.last().unwrap() > cfls.first().unwrap());
        // Residual history is (eventually) decreasing.
        let first = h.steps.first().unwrap().residual_norm;
        assert!(h.final_residual < 1e-8 * first.max(1.0));
    }

    #[test]
    fn larger_initial_cfl_converges_in_fewer_steps() {
        // Figure 5's message, on the smooth model problem.
        let mut steps = Vec::new();
        for cfl0 in [0.1, 1.0, 10.0] {
            let mut p = Bratu1d::new(30, 0.5);
            let mut q = vec![0.0; 30];
            let mut opts = default_opts();
            opts.cfl0 = cfl0;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged, "cfl0={cfl0}");
            steps.push(h.nsteps());
        }
        assert!(
            steps[0] > steps[1] && steps[1] >= steps[2],
            "small CFL means long induction: {steps:?}"
        );
    }

    #[test]
    fn matrix_free_matches_assembled() {
        let run = |mf: bool| {
            let mut p = Bratu1d::new(25, 1.0);
            let mut q = vec![0.0; 25];
            let mut opts = default_opts();
            opts.matrix_free = mf;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            (h, q)
        };
        let (h1, q1) = run(false);
        let (h2, q2) = run(true);
        assert!(h1.converged && h2.converged);
        for (a, b) in q1.iter().zip(&q2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn schwarz_preconditioned_nks_converges() {
        let n = 40;
        let mut p = Bratu1d::new(n, 0.8);
        let mut q = vec![0.0; n];
        let mut opts = default_opts();
        opts.precond = PrecondSpec::Schwarz {
            owned_sets: (0..4)
                .map(|k| (k * n / 4..(k + 1) * n / 4).collect())
                .collect(),
            overlap: 1,
            ilu: IluOptions::with_fill(0),
            restricted: true,
        };
        let h = solve_pseudo_transient(&mut p, &mut q, &opts);
        assert!(h.converged, "reduction {}", h.reduction());
        assert!(h.total_linear_iters() > 0);
    }

    #[test]
    fn higher_exponent_accelerates_cfl_growth() {
        let run = |pexp: f64| {
            let mut p = Bratu1d::new(30, 0.5);
            let mut q = vec![0.0; 30];
            let mut opts = default_opts();
            opts.cfl0 = 0.5;
            opts.cfl_exponent = pexp;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged);
            h.nsteps()
        };
        let slow = run(0.75);
        let fast = run(1.5);
        assert!(fast <= slow, "p=1.5 ({fast}) should beat p=0.75 ({slow})");
    }

    #[test]
    fn eisenstat_walker_saves_newton_steps() {
        let run = |forcing: Forcing| {
            let mut p = Bratu1d::new(30, 1.0);
            let mut q = vec![0.0; 30];
            let mut opts = default_opts();
            opts.krylov.rtol = 1e-1; // loose constant baseline
            opts.forcing = forcing;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged, "{forcing:?}");
            (h.nsteps(), h.total_linear_iters())
        };
        let (steps_c, _) = run(Forcing::Constant);
        let (steps_ew, _) = run(Forcing::EisenstatWalker {
            gamma: 0.9,
            eta_min: 1e-6,
            eta_max: 0.5,
        });
        // The paper's observation: tighter tolerances near convergence save
        // Newton iterations (time is a separate question).
        assert!(steps_ew <= steps_c, "EW {steps_ew} vs constant {steps_c}");
    }

    #[test]
    fn exact_initial_guess_returns_immediately() {
        let mut p = Bratu1d::new(20, 1.0);
        let mut q = p.solution();
        let h = solve_pseudo_transient(&mut p, &mut q, &default_opts());
        assert!(h.converged);
        assert!(h.nsteps() <= 1);
    }

    #[test]
    fn lagged_preconditioner_still_converges() {
        let run = |refresh: usize| {
            let mut p = Bratu1d::new(30, 1.0);
            let mut q = vec![0.0; 30];
            let mut opts = default_opts();
            opts.pc_refresh = refresh;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged, "refresh={refresh}: {:.2e}", h.reduction());
            (h.nsteps(), h.total_linear_iters(), q)
        };
        let (s1, l1, q1) = run(1);
        let (s4, l4, q4) = run(4);
        // A stale preconditioner costs at most extra Krylov/Newton work, not
        // correctness: same solution, possibly more iterations.
        for (a, b) in q1.iter().zip(&q4) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(s4 <= 3 * s1.max(1));
        assert!(
            l4 + 1 >= l1,
            "lagging shouldn't reduce linear work: {l4} vs {l1}"
        );
    }

    /// Counts `jacobian` calls of the wrapped problem.
    struct CountingJacobians<P> {
        inner: P,
        calls: std::cell::Cell<usize>,
    }

    impl<P: PseudoTransientProblem> PseudoTransientProblem for CountingJacobians<P> {
        fn n(&self) -> usize {
            self.inner.n()
        }

        fn residual(&self, q: &[f64], out: &mut [f64]) {
            self.inner.residual(q, out);
        }

        fn jacobian(&self, q: &[f64]) -> CsrMatrix {
            self.calls.set(self.calls.get() + 1);
            self.inner.jacobian(q)
        }

        fn inverse_timestep_scale(&self, q: &[f64]) -> Vec<f64> {
            self.inner.inverse_timestep_scale(q)
        }
    }

    #[test]
    fn matrix_free_steps_assemble_only_for_preconditioner_rebuilds() {
        // A point-wise problem (point ILU(0)), and a grid of 3x3 blocks,
        // whose matrix-free runs take block ILU(0).
        check_assemblies(|| Bratu1d::new(30, 1.0), default_opts(), 5);
        let mut opts = default_opts();
        opts.cfl0 = 0.3;
        check_assemblies(|| BlockGrid2d::new(6, 5, 3, 0.5), opts, 3);
    }

    /// With the preconditioner refreshed every 4th step, a matrix-free run
    /// of `problem` assembles a Jacobian only on refresh steps, while an
    /// assembled operator, unblocked or with block size `b`, reads the
    /// matrix every step.
    fn check_assemblies<P: PseudoTransientProblem>(
        problem: impl Fn() -> P,
        base: PseudoTransientOptions,
        b: usize,
    ) {
        let run = |matrix_free: bool, bcsr_block: Option<usize>| {
            let mut p = CountingJacobians {
                inner: problem(),
                calls: std::cell::Cell::new(0),
            };
            let mut q = vec![0.0; p.n()];
            let mut opts = base.clone();
            opts.matrix_free = matrix_free;
            opts.bcsr_block = bcsr_block;
            opts.pc_refresh = 4;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged, "reduction {}", h.reduction());
            assert!(h.nsteps() > 4, "too few steps to lag: {}", h.nsteps());
            (h.nsteps(), p.calls.get())
        };
        let (steps, calls) = run(true, None);
        assert_eq!(calls, steps.div_ceil(4), "matrix-free, {steps} steps");
        for bcsr_block in [None, Some(b)] {
            let (steps, calls) = run(false, bcsr_block);
            assert_eq!(calls, steps, "assembled, bcsr_block {bcsr_block:?}");
        }
    }

    #[test]
    fn newton_step_events_mirror_history() {
        let mut p = Bratu1d::new(25, 1.0);
        let mut q = vec![0.0; 25];
        let sink = EventSink::enabled();
        let h = solve_pseudo_transient_with_events(
            &mut p,
            &mut q,
            &default_opts(),
            &Registry::disabled(),
            &sink,
        );
        assert!(h.converged);
        let evs = sink.drain();
        let steps: Vec<&EventRecord> = evs
            .iter()
            .filter(|e| matches!(e, EventRecord::NewtonStep { .. }))
            .collect();
        assert_eq!(steps.len(), h.nsteps());
        for (rec, ev) in h.steps.iter().zip(&steps) {
            let EventRecord::NewtonStep {
                step,
                residual_norm,
                cfl,
                gmres_iters,
                eta,
                ..
            } = ev
            else {
                unreachable!()
            };
            assert_eq!(*step, rec.step as u64);
            assert_eq!(*residual_norm, rec.residual_norm);
            assert_eq!(*cfl, rec.cfl);
            assert_eq!(*gmres_iters, rec.linear_iters as u64);
            // Constant forcing: η is the configured Krylov tolerance.
            assert_eq!(*eta, default_opts().krylov.rtol);
        }
        // Krylov iterations ride along, totalling the history's count.
        let kry = evs
            .iter()
            .filter(|e| matches!(e, EventRecord::KrylovIter { .. }))
            .count();
        assert_eq!(kry, h.total_linear_iters());
        // Event emission must not perturb the solve itself.
        let mut p2 = Bratu1d::new(25, 1.0);
        let mut q2 = vec![0.0; 25];
        let h2 = solve_pseudo_transient(&mut p2, &mut q2, &default_opts());
        assert_eq!(q, q2);
        assert_eq!(h.final_residual, h2.final_residual);
    }

    #[test]
    fn warm_ilu_template_is_bitwise_identical_to_cold() {
        let run = |warm: &WarmStart| {
            let mut p = Bratu1d::new(30, 1.0);
            let mut q = vec![0.0; 30];
            let h = solve_pseudo_transient_warm(
                &mut p,
                &mut q,
                &default_opts(),
                &Registry::disabled(),
                &EventSink::disabled(),
                warm,
            );
            (h, q)
        };
        let (hc, qc) = run(&WarmStart::none());
        // The template comes from the *unshifted* initial Jacobian: the
        // pseudo-timestep shift only changes diagonal values, never the
        // pattern, so the symbolic structure matches every step matrix.
        let p = Bratu1d::new(30, 1.0);
        let jac = p.jacobian(&vec![0.0; 30]);
        let template = IluFactors::factor(&jac, &IluOptions::with_fill(0)).unwrap();
        let warm = WarmStart {
            ilu: Some(Arc::new(template)),
            ..WarmStart::none()
        };
        assert!(!warm.is_empty());
        let (hw, qw) = run(&warm);
        assert!(hc.converged && hw.converged);
        assert_eq!(qc, qw, "warm solution must be bitwise identical");
        assert_eq!(hc.nsteps(), hw.nsteps());
        assert_eq!(hc.final_residual, hw.final_residual);
        for (a, b) in hc.steps.iter().zip(&hw.steps) {
            assert_eq!(a.residual_norm, b.residual_norm);
            assert_eq!(a.linear_iters, b.linear_iters);
            assert_eq!(a.cfl, b.cfl);
        }
    }

    #[test]
    fn warm_bcsr_template_is_bitwise_identical_to_cold() {
        let mut opts = default_opts();
        opts.bcsr_block = Some(5);
        let run = |warm: &WarmStart, opts: &PseudoTransientOptions| {
            let mut p = Bratu1d::new(30, 1.0);
            let mut q = vec![0.0; 30];
            let h = solve_pseudo_transient_warm(
                &mut p,
                &mut q,
                opts,
                &Registry::disabled(),
                &EventSink::disabled(),
                warm,
            );
            (h, q)
        };
        let (hc, qc) = run(&WarmStart::none(), &opts);
        let p = Bratu1d::new(30, 1.0);
        let jac = p.jacobian(&vec![0.0; 30]);
        let warm = WarmStart {
            bcsr: Some(Arc::new(BcsrMatrix::from_csr(&jac, 5))),
            ..WarmStart::none()
        };
        let (hw, qw) = run(&warm, &opts);
        assert!(hc.converged && hw.converged);
        assert_eq!(qc, qw);
        assert_eq!(hc.final_residual, hw.final_residual);
    }

    #[test]
    fn warm_block_ilu_template_is_bitwise_identical_to_cold() {
        // Blocked assembled runs, and matrix-free runs on the grid's dense
        // 3x3 blocks, both take block ILU(0) and the BCSR template.
        let mut blocked = default_opts();
        blocked.bcsr_block = Some(3);
        let mut matrix_free = default_opts();
        matrix_free.matrix_free = true;
        matrix_free.pc_refresh = 3;
        for opts in [blocked, matrix_free] {
            let run = |warm: &WarmStart| {
                let mut p = BlockGrid2d::new(6, 5, 3, 0.5);
                let mut q = vec![0.0; p.n()];
                let h = solve_pseudo_transient_warm(
                    &mut p,
                    &mut q,
                    &opts,
                    &Registry::disabled(),
                    &EventSink::disabled(),
                    warm,
                );
                (h, q)
            };
            let (hc, qc) = run(&WarmStart::none());
            // Templates from the unshifted initial Jacobian: the shift
            // changes values only, never the block pattern.
            let p = BlockGrid2d::new(6, 5, 3, 0.5);
            let jac = p.jacobian(&vec![0.0; p.n()]);
            assert_eq!(opts.block_ilu(jac.pattern().block_size()), Some(3));
            let bcsr = BcsrMatrix::from_csr(&jac, 3);
            let template = BlockIluFactors::factor(&bcsr).unwrap();
            let warm = WarmStart {
                block_ilu: Some(Arc::new(template)),
                bcsr: Some(Arc::new(bcsr)),
                ..WarmStart::none()
            };
            assert!(!warm.is_empty());
            let (hw, qw) = run(&warm);
            let what = format!("matrix_free {}", opts.matrix_free);
            assert!(hc.converged && hw.converged, "{what}");
            assert_eq!(qc, qw, "{what}: warm solution must be bitwise identical");
            assert_eq!(hc.nsteps(), hw.nsteps(), "{what}");
            for (a, b) in hc.steps.iter().zip(&hw.steps) {
                assert_eq!(a.residual_norm.to_bits(), b.residual_norm.to_bits());
                assert_eq!(a.linear_iters, b.linear_iters);
            }
        }
    }

    #[test]
    fn block_ilu_rule_covers_double_ilu0_on_blocks_only() {
        let p = BlockGrid2d::new(4, 3, 3, 0.5);
        let jac = p.jacobian(&p.solution());
        // The block sizes of the grid's Jacobian and of a point-wise one.
        let blocks = jac.pattern().block_size();
        let points = Bratu1d::new(30, 1.0)
            .jacobian(&[0.0; 30])
            .pattern()
            .block_size();
        assert_eq!((blocks, points), (3, 1));
        let bcsr = BcsrMatrix::from_csr(&jac, 3);
        // The preconditioner the solve builds for `opts` on the grid.
        let built = |opts: &PseudoTransientOptions| {
            let block = opts.block_ilu(blocks).map(|_| &bcsr);
            match build_precond(&jac, block, opts, &WarmStart::none()).unwrap() {
                BuiltPrecond::Ilu(_) => "ilu",
                BuiltPrecond::BlockIlu(_) => "block",
                BuiltPrecond::Schwarz(_) => "schwarz",
            }
        };
        // Assembled: blocked runs only, whatever the pattern.
        let mut opts = default_opts();
        assert_eq!(
            (opts.block_ilu(blocks), built(&opts)),
            (None, "ilu"),
            "unblocked"
        );
        assert_eq!(opts.bcsr_refill_block(blocks), None, "unblocked");
        opts.bcsr_block = Some(3);
        assert_eq!((opts.block_ilu(blocks), built(&opts)), (Some(3), "block"));
        assert_eq!(opts.block_ilu(points), Some(3));
        assert_eq!(opts.bcsr_refill_block(blocks), Some(3));
        // Matrix-free: the Jacobian's own blocks; `bcsr_block` is ignored.
        let mut mf = default_opts();
        mf.matrix_free = true;
        for bcsr_block in [None, Some(3), Some(5)] {
            mf.bcsr_block = bcsr_block;
            let what = format!("matrix-free, bcsr_block {bcsr_block:?}");
            assert_eq!(
                (mf.block_ilu(blocks), built(&mf)),
                (Some(3), "block"),
                "{what}"
            );
            assert_eq!(mf.block_ilu(points), None, "{what}, point pattern");
            // The BCSR copy exists only to feed the block factor.
            assert_eq!(mf.bcsr_refill_block(blocks), Some(3), "{what}");
            assert_eq!(mf.bcsr_refill_block(points), None, "{what}");
        }
        // Fill 1, f32 storage and Schwarz keep their preconditioners, on
        // blocked runs and on blocked patterns.
        for base in [opts, mf] {
            let what = format!("matrix_free {}", base.matrix_free);
            let mut other = base.clone();
            other.precond = PrecondSpec::Ilu(IluOptions::with_fill(1));
            assert_eq!(
                (other.block_ilu(blocks), built(&other)),
                (None, "ilu"),
                "{what}: fill 1"
            );
            other.precond = PrecondSpec::Ilu(IluOptions {
                fill_level: 0,
                storage: PrecStorage::Single,
            });
            assert_eq!(
                (other.block_ilu(blocks), built(&other)),
                (None, "ilu"),
                "{what}: f32"
            );
            other.precond = PrecondSpec::Schwarz {
                owned_sets: vec![(0..p.n()).collect()],
                overlap: 0,
                ilu: IluOptions::with_fill(0),
                restricted: true,
            };
            assert_eq!(
                (other.block_ilu(blocks), built(&other)),
                (None, "schwarz"),
                "{what}"
            );
            // An assembled blocked operator is refilled whatever the
            // preconditioner; a matrix-free run without block ILU(0)
            // keeps no BCSR copy.
            let refilled = (!base.matrix_free).then_some(3);
            assert_eq!(other.bcsr_refill_block(blocks), refilled, "{what}");
        }
    }

    #[test]
    fn matrix_free_block_ilu_factors_once_and_refactors_on_refresh_steps() {
        // A matrix-free ILU(0) run on the grid's 3x3 blocks, preconditioner
        // refreshed every 4th step.  Zeroing a Jacobian row at step `s`
        // makes the block ILU(0) build of that step, if there is one, meet
        // a zero pivot, and the anomaly names the build: the factorization
        // at step 0, a refactorization at every later refresh step, and no
        // build at all on lagged steps, which assemble no Jacobian.
        let mut opts = default_opts();
        opts.cfl0 = 0.3;
        opts.matrix_free = true;
        opts.pc_refresh = 4;
        for step in 0..8 {
            let mut p = ZeroRowAt {
                inner: BlockGrid2d::new(6, 5, 3, 0.5),
                row: 10,
                step,
                calls: std::cell::Cell::new(0),
            };
            let mut q = vec![0.0; p.n()];
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            let want = match step {
                0 => Some("block ILU(0) factorization: zero pivot at block row 3"),
                4 => Some("block ILU(0) refactorization: zero pivot at block row 3"),
                _ => None,
            };
            assert!(
                want.is_some() || (h.converged && h.nsteps() > step),
                "zero row at step {step}: the solve must run past it"
            );
            assert_eq!(
                h.anomaly.map(|a| (a.step, a.detail)),
                want.map(|d| (step as u64, d.to_string())),
                "zero row at step {step}"
            );
        }
    }

    #[test]
    fn blocked_ilu0_takes_the_point_ilu0_steps_and_krylov_counts() {
        // Dense blocks: block ILU(0) is point ILU(0) up to rounding, so the
        // blocked solve (BCSR operator, block ILU(0)) must take the same
        // Newton steps and Krylov iterations as the unblocked one.
        let run = |bcsr_block: Option<usize>| {
            let mut p = BlockGrid2d::new(12, 10, 3, 0.5);
            let mut q = vec![0.0; p.n()];
            let mut opts = default_opts();
            opts.bcsr_block = bcsr_block;
            assert_eq!(opts.block_ilu(3), bcsr_block);
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged, "{bcsr_block:?}: {:.2e}", h.reduction());
            let iters: Vec<usize> = h.steps.iter().map(|s| s.linear_iters).collect();
            (iters, q, p.solution())
        };
        let (point, qp, sol) = run(None);
        let (block, qb, _) = run(Some(3));
        assert_eq!(point, block);
        assert!(
            point.iter().any(|&k| k > 2),
            "ILU(0) should be inexact here: {point:?}"
        );
        for ((u, v), s) in qp.iter().zip(&qb).zip(&sol) {
            assert!((u - v).abs() < 1e-8 && (u - s).abs() < 1e-6, "{u} {v} {s}");
        }
    }

    /// Solve `make()`'s problem warm from `warm` and cold, and require
    /// bitwise-identical results: the templates must have been ignored.
    fn assert_ignored<P: PseudoTransientProblem>(
        make: impl Fn() -> P,
        opts: &PseudoTransientOptions,
        warm: &WarmStart,
    ) {
        let mut p = make();
        let mut q = vec![0.0; p.n()];
        let h = solve_pseudo_transient_warm(
            &mut p,
            &mut q,
            opts,
            &Registry::disabled(),
            &EventSink::disabled(),
            warm,
        );
        assert!(h.converged, "reduction {}", h.reduction());
        let mut p2 = make();
        let mut q2 = vec![0.0; p2.n()];
        let h2 = solve_pseudo_transient(&mut p2, &mut q2, opts);
        assert_eq!(q, q2, "ignored template must leave results untouched");
        assert_eq!(h.final_residual.to_bits(), h2.final_residual.to_bits());
        assert_eq!(h.nsteps(), h2.nsteps());
        for (a, b) in h.steps.iter().zip(&h2.steps) {
            assert_eq!(a.residual_norm.to_bits(), b.residual_norm.to_bits());
            assert_eq!(a.linear_iters, b.linear_iters);
        }
    }

    #[test]
    fn mismatched_warm_templates_are_ignored() {
        // Wrong fill level, wrong dimension, a point template with the same
        // n, fill level and storage but a foreign pattern, BCSR and block
        // ILU templates with a foreign pattern, and a BCSR template whose
        // source pattern has the step Jacobian's dimensions, block size and
        // nnz but other columns: all must fall back to the cold path, not
        // corrupt or panic.
        let p = Bratu1d::new(30, 1.0);
        let jac = p.jacobian(&vec![0.0; 30]);
        let wrong_fill = IluFactors::factor(&jac, &IluOptions::with_fill(2)).unwrap();
        let small = Bratu1d::new(20, 1.0);
        let wrong_dim = Arc::new(
            IluFactors::factor(&small.jacobian(&[0.0; 20]), &IluOptions::with_fill(0)).unwrap(),
        );
        // Diagonal-only pattern: same n and block size, different nnz.
        let eye = fun3d_sparse::csr::CsrMatrix::identity(30);
        let foreign = |fill| {
            Some(Arc::new(
                IluFactors::factor(&eye, &IluOptions::with_fill(fill)).unwrap(),
            ))
        };
        let foreign_bcsr = BcsrMatrix::from_csr(&eye, 5);
        let foreign_block_ilu = BlockIluFactors::factor(&foreign_bcsr).unwrap();
        let point = |fill| PseudoTransientOptions {
            precond: PrecondSpec::Ilu(IluOptions::with_fill(fill)),
            ..default_opts()
        };
        let mut blocked = default_opts();
        blocked.bcsr_block = Some(5);
        for (opts, warm) in [
            (
                point(0),
                WarmStart {
                    ilu: Some(Arc::new(wrong_fill)),
                    ..WarmStart::none()
                },
            ),
            (
                point(0),
                WarmStart {
                    ilu: Some(wrong_dim.clone()),
                    ..WarmStart::none()
                },
            ),
            (
                point(0),
                WarmStart {
                    ilu: foreign(0),
                    ..WarmStart::none()
                },
            ),
            (
                point(1),
                WarmStart {
                    ilu: foreign(1),
                    ..WarmStart::none()
                },
            ),
            (
                blocked,
                WarmStart {
                    ilu: Some(wrong_dim),
                    block_ilu: Some(Arc::new(foreign_block_ilu)),
                    bcsr: Some(Arc::new(foreign_bcsr)),
                },
            ),
        ] {
            assert_ignored(|| Bratu1d::new(30, 1.0), &opts, &warm);
        }
        // The grid's Jacobian with its 30 vertices renumbered v -> 7v mod 30:
        // same nnz, different pattern.
        let grid = || BlockGrid2d::new(6, 5, 3, 0.5);
        let jac = grid().jacobian(&vec![0.0; grid().n()]);
        let perm: Vec<usize> = (0..jac.nrows())
            .map(|u| (7 * (u / 3)) % 30 * 3 + u % 3)
            .collect();
        let permuted = jac.permute_symmetric(&perm);
        assert_eq!(permuted.nnz(), jac.nnz());
        assert_ne!(permuted.col_idx(), jac.col_idx());
        let mut blocked = default_opts();
        blocked.bcsr_block = Some(3);
        let warm = WarmStart {
            bcsr: Some(Arc::new(BcsrMatrix::from_csr(&permuted, 3))),
            ..WarmStart::none()
        };
        assert_ignored(grid, &blocked, &warm);
    }

    #[test]
    fn history_records_are_complete() {
        let mut p = Bratu1d::new(20, 1.0);
        let mut q = vec![0.0; 20];
        let h = solve_pseudo_transient(&mut p, &mut q, &default_opts());
        for (i, s) in h.steps.iter().enumerate() {
            assert_eq!(s.step, i);
            assert!(s.cfl > 0.0);
            assert!(s.residual_norm.is_finite());
            assert!(s.step_length > 0.0);
        }
    }

    #[test]
    fn healthy_solves_report_no_anomaly() {
        // The monitor is always on; none of the standard solves — including
        // the slow small-CFL induction case — may trip it.
        for cfl0 in [0.1, 1.0, 10.0] {
            let mut p = Bratu1d::new(30, 0.5);
            let mut q = vec![0.0; 30];
            let mut opts = default_opts();
            opts.cfl0 = cfl0;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged, "cfl0={cfl0}");
            assert!(h.anomaly.is_none(), "cfl0={cfl0}: {:?}", h.anomaly);
        }
    }

    #[test]
    fn non_finite_initial_residual_aborts_with_anomaly() {
        // A NaN already in the initial state must produce a structured
        // verdict, not max_steps of NaN algebra.
        let mut p = Bratu1d::new(20, 1.0);
        let mut q = vec![0.0; 20];
        q[7] = f64::NAN;
        let sink = EventSink::enabled();
        let h = solve_pseudo_transient_with_events(
            &mut p,
            &mut q,
            &default_opts(),
            &Registry::disabled(),
            &sink,
        );
        assert!(!h.converged);
        assert_eq!(h.nsteps(), 0, "must abort before stepping");
        let anomaly = h.anomaly.expect("NaN initial residual must be flagged");
        assert_eq!(anomaly.kind, crate::health::AnomalyKind::NonFiniteResidual);
        // The typed anomaly event rides the stream for post-mortem tools.
        let evs = sink.drain();
        assert!(
            evs.iter().any(
                |e| matches!(e, EventRecord::Anomaly { kind, .. } if kind == "non_finite_residual")
            ),
            "anomaly event missing: {evs:?}"
        );
    }

    /// Zeroes Jacobian row `row` and its timestep diagonal at pseudo-step
    /// `step`, so that step's preconditioner build meets a zero pivot.
    /// Steps are counted by `inverse_timestep_scale` calls, one per step.
    struct ZeroRowAt<P> {
        inner: P,
        row: usize,
        step: usize,
        calls: std::cell::Cell<usize>,
    }

    impl<P: PseudoTransientProblem> PseudoTransientProblem for ZeroRowAt<P> {
        fn n(&self) -> usize {
            self.inner.n()
        }

        fn residual(&self, q: &[f64], out: &mut [f64]) {
            self.inner.residual(q, out);
        }

        fn jacobian(&self, q: &[f64]) -> CsrMatrix {
            let mut jac = self.inner.jacobian(q);
            if self.calls.get() == self.step + 1 {
                let row = jac.row_ptr()[self.row]..jac.row_ptr()[self.row + 1];
                jac.values_mut()[row].fill(0.0);
            }
            jac
        }

        fn inverse_timestep_scale(&self, q: &[f64]) -> Vec<f64> {
            let step = self.calls.replace(self.calls.get() + 1);
            let mut d = self.inner.inverse_timestep_scale(q);
            if step == self.step {
                d[self.row] = 0.0;
            }
            d
        }
    }

    #[test]
    fn zero_pivot_stops_the_solve_with_a_typed_anomaly() {
        let schwarz = PrecondSpec::Schwarz {
            owned_sets: (0..4)
                .map(|k| (k * 30 / 4..(k + 1) * 30 / 4).collect())
                .collect(),
            overlap: 1,
            ilu: IluOptions::with_fill(0),
            restricted: true,
        };
        let mut block = default_opts();
        block.bcsr_block = Some(3);
        let point = default_opts();
        let schwarz = PseudoTransientOptions {
            precond: schwarz,
            ..default_opts()
        };
        // (options, Bratu1d or BlockGrid2d, zeroed row, detail prefix and
        // the row the detail names)
        let cases = [
            (&point, false, 17, "point ILU", "row 17"),
            (&schwarz, false, 17, "Schwarz subdomain ILU", "row 17"),
            (&block, true, 10, "block ILU(0)", "block row 3"),
        ];
        fn run<P: PseudoTransientProblem>(
            inner: P,
            row: usize,
            step: usize,
            opts: &PseudoTransientOptions,
        ) -> (SolveHistory, EventSink) {
            let mut p = ZeroRowAt {
                inner,
                row,
                step,
                calls: std::cell::Cell::new(0),
            };
            let mut q = vec![0.0; p.n()];
            let sink = EventSink::enabled();
            let h = solve_pseudo_transient_with_events(
                &mut p,
                &mut q,
                opts,
                &Registry::disabled(),
                &sink,
            );
            (h, sink)
        }
        for (opts, blocked, row, factorization, at) in cases {
            for step in [0, 2] {
                let what = format!("{factorization} at step {step}");
                let (h, sink) = if blocked {
                    run(BlockGrid2d::new(6, 5, 3, 0.5), row, step, opts)
                } else {
                    run(Bratu1d::new(30, 1.0), row, step, opts)
                };
                assert!(!h.converged, "{what}");
                assert_eq!(
                    h.nsteps(),
                    step,
                    "{what}: the steps end at the failing step"
                );
                let anomaly = h.anomaly.unwrap_or_else(|| panic!("{what}: no anomaly"));
                assert_eq!(anomaly.kind, AnomalyKind::ZeroPivot, "{what}");
                assert_eq!(anomaly.step, step as u64, "{what}");
                let build = if step == 0 {
                    "factorization"
                } else {
                    "refactorization"
                };
                let detail = format!("{factorization} {build}: zero pivot at {at}");
                assert_eq!(anomaly.detail, detail, "{what}");
                assert!(
                    sink.drain().iter().any(
                        |e| matches!(e, EventRecord::Anomaly { kind, .. } if kind == "zero_pivot")
                    ),
                    "{what}: anomaly event missing"
                );
            }
        }
    }

    #[test]
    fn armed_flight_recorder_is_bitwise_inert() {
        // The ISSUE's pin: recorder + monitor on changes no numerical result.
        let run = || {
            let mut p = Bratu1d::new(25, 1.0);
            let mut q = vec![0.0; 25];
            let tel = Registry::enabled(0);
            let sink = EventSink::enabled();
            let h =
                solve_pseudo_transient_with_events(&mut p, &mut q, &default_opts(), &tel, &sink);
            (h, q)
        };
        let (h_off, q_off) = run();
        fun3d_telemetry::blackbox::arm(512, None);
        let (h_on, q_on) = run();
        fun3d_telemetry::blackbox::disarm();
        assert!(h_off.converged && h_on.converged);
        assert_eq!(q_off, q_on, "recorder must not perturb the solution");
        assert_eq!(h_off.final_residual, h_on.final_residual);
        assert_eq!(h_off.nsteps(), h_on.nsteps());
        for (a, b) in h_off.steps.iter().zip(&h_on.steps) {
            assert_eq!(a.residual_norm, b.residual_norm);
            assert_eq!(a.linear_iters, b.linear_iters);
            assert_eq!(a.cfl, b.cfl);
        }
        // And the armed run actually captured the final spans.
        let dump = fun3d_telemetry::blackbox::dump_string("test")
            .expect("armed run must leave ring contents");
        assert!(dump.contains("fun3d-blackbox/1"));
        assert!(dump.contains("krylov"), "rings should hold solver spans");
    }
}
