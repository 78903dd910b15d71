//! Instrumented sequential runs — the harness behind Table 1 and Figure 5.

use crate::config::CaseConfig;
use crate::problem::EulerProblem;
use fun3d_euler::residual::Discretization;
use fun3d_solver::pseudo::{solve_pseudo_transient_warm, SolveHistory, WarmStart};
use fun3d_telemetry::events::{EventRecord, EventSink};
use fun3d_telemetry::Registry;

/// Results of one sequential case run.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Mesh vertices.
    pub nverts: usize,
    /// Unknowns.
    pub nunknowns: usize,
    /// The ΨNKS history (per-step residuals, CFL, timers).
    pub history: SolveHistory,
}

impl CaseReport {
    /// Wall time per pseudo-timestep (the Table 1 metric).
    pub fn time_per_step(&self) -> f64 {
        self.history.time_per_step()
    }
}

/// Run a case sequentially: build the mesh with its orderings, assemble the
/// discretization and solve with ΨNKS, returning the instrumented history.
pub fn run_case(cfg: &CaseConfig) -> CaseReport {
    run_case_instrumented(cfg, "case", &Registry::disabled(), &EventSink::disabled())
}

/// [`run_case`] with observability: profiling spans land in `tel` and a
/// `RunMeta`-prefixed event stream (one `NewtonStep` per pseudo-timestep,
/// `KrylovIter`s from the inner solves) lands in `events`.  `label` names
/// the run in its `RunMeta` record, so several sub-cases written into one
/// sink render as separate convergence-table series.
pub fn run_case_instrumented(
    cfg: &CaseConfig,
    label: &str,
    tel: &Registry,
    events: &EventSink,
) -> CaseReport {
    let mesh = cfg.build_mesh();
    events.emit(EventRecord::RunMeta {
        name: label.to_string(),
        meta: vec![
            ("nverts".into(), mesh.nverts().to_string()),
            ("ncomp".into(), cfg.model.ncomp().to_string()),
            ("nthreads".into(), cfg.nks.krylov.par.nthreads().to_string()),
        ],
    });
    let disc = Discretization::new(&mesh, cfg.model, cfg.layout.field_layout(), cfg.order);
    let mut problem = EulerProblem::new(disc);
    let mut q = problem.initial_state();
    let mut nks = cfg.nks.clone();
    // Structural blocking applies only in the interlaced layout.
    if cfg.layout.blocked && cfg.layout.interlaced {
        nks.bcsr_block = Some(cfg.block_size());
    } else {
        nks.bcsr_block = None;
    }
    let cold = WarmStart::none();
    let history = solve_pseudo_transient_warm(&mut problem, &mut q, &nks, tel, events, &cold);
    CaseReport {
        nverts: mesh.nverts(),
        nunknowns: mesh.nverts() * cfg.model.ncomp(),
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LayoutConfig;
    use fun3d_euler::model::FlowModel;
    use fun3d_solver::gmres::GmresOptions;
    use fun3d_solver::pseudo::{Forcing, PrecondSpec, PseudoTransientOptions};
    use fun3d_sparse::ilu::IluOptions;

    fn quick_nks(steps: usize) -> PseudoTransientOptions {
        PseudoTransientOptions {
            cfl0: 5.0,
            cfl_exponent: 1.2,
            cfl_max: 1e6,
            max_steps: steps,
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
    fn euler_flow_over_bump_converges() {
        let mut cfg = CaseConfig::small();
        cfg.nks = quick_nks(60);
        let report = run_case(&cfg);
        assert!(
            report.history.converged,
            "residual reduction only {:.2e} after {} steps",
            report.history.reduction(),
            report.history.nsteps()
        );
        assert!(report.time_per_step() > 0.0);
    }

    #[test]
    fn all_table1_layouts_give_the_same_physics() {
        // The layout enhancements must not change the computed flow: same
        // iteration counts (matrix is permuted, ILU in permuted order is a
        // different preconditioner, so allow small drift) and the same
        // converged residual reduction.
        let mut reductions = Vec::new();
        for (layout, flags) in LayoutConfig::table1_rows() {
            let mut cfg = CaseConfig::small();
            cfg.mesh = fun3d_mesh::generator::BumpChannelSpec::with_dims(8, 6, 6);
            cfg.layout = layout;
            cfg.nks = quick_nks(45);
            let report = run_case(&cfg);
            assert!(
                report.history.converged,
                "layout {flags:?} failed to converge: {:.2e}",
                report.history.reduction()
            );
            reductions.push(report.history.reduction());
        }
        for r in &reductions {
            assert!(*r <= 1e-8);
        }
    }

    #[test]
    fn compressible_case_converges() {
        let mut cfg = CaseConfig::small();
        cfg.mesh = fun3d_mesh::generator::BumpChannelSpec::with_dims(8, 6, 6);
        cfg.model = FlowModel::compressible();
        cfg.nks = quick_nks(60);
        cfg.nks.cfl0 = 2.0;
        let report = run_case(&cfg);
        assert!(
            report.history.converged,
            "compressible reduction {:.2e}",
            report.history.reduction()
        );
    }

    #[test]
    fn second_order_continuation_runs() {
        let mut cfg = CaseConfig::small();
        cfg.mesh = fun3d_mesh::generator::BumpChannelSpec::with_dims(8, 6, 6);
        cfg.nks = quick_nks(60);
        cfg.nks.second_order_switch = Some(1e-2);
        // Defect correction (1st-order matrix on a 2nd-order residual)
        // stalls; the paper's code is matrix-free, and so is this test.
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
    fn instrumented_case_emits_run_meta_and_steps() {
        let mut cfg = CaseConfig::small();
        cfg.nks = quick_nks(4);
        cfg.nks.target_reduction = 1e-30; // force all 4 steps
        let tel = Registry::enabled(0);
        let sink = EventSink::enabled();
        let report = run_case_instrumented(&cfg, "bump-small", &tel, &sink);
        let evs = sink.drain();
        assert!(matches!(
            &evs[0],
            EventRecord::RunMeta { name, .. } if name == "bump-small"
        ));
        let steps = evs
            .iter()
            .filter(|e| matches!(e, EventRecord::NewtonStep { .. }))
            .count();
        assert_eq!(steps, report.history.nsteps());
        // Spans landed under the nks tree.
        let snap = tel.snapshot();
        assert!(snap.span("nks").is_some());
        assert!(snap.span("nks/krylov/gmres").is_some());
    }

    #[test]
    fn phase_timers_account_for_time() {
        let mut cfg = CaseConfig::small();
        cfg.nks = quick_nks(5);
        cfg.nks.target_reduction = 1e-30; // force all 5 steps
        let report = run_case(&cfg);
        let t = report.history.phases();
        assert!(t.residual > 0.0 && t.jacobian > 0.0 && t.precond > 0.0 && t.krylov > 0.0);
        assert_eq!(report.history.nsteps(), 5);
    }
}
