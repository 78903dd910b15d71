//! Regenerates **Figure 5**: residual norm versus pseudo-timestep for a
//! range of initial CFL numbers, showing the effect of the SER continuation
//! parameter on convergence.
//!
//! Paper baseline: the 2.8M-vertex case; small initial CFL adds nonlinear
//! stability far from the solution but drags out the "induction" period;
//! aggressive CFL converges fastest on smooth flows.

use crate::{say, BenchArgs, Experiment, RunOutcome};
use fun3d_core::config::{CaseConfig, LayoutConfig};
use fun3d_core::problem::EulerProblem;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_mesh::generator::MeshFamily;
use fun3d_solver::gmres::GmresOptions;
use fun3d_solver::pseudo::{
    solve_pseudo_transient_warm, Forcing, PrecondSpec, PseudoTransientOptions, WarmStart,
};
use fun3d_sparse::ilu::IluOptions;
use fun3d_telemetry::events::{EventRecord, EventSink, EventStream};
use fun3d_telemetry::Registry;

/// `figure5` as a harness experiment.
pub struct Figure5;

impl Experiment for Figure5 {
    fn name(&self) -> &'static str {
        "figure5"
    }
    fn description(&self) -> &'static str {
        "residual vs pseudo-timestep across initial CFL choices (SER)"
    }
    fn default_scale(&self) -> f64 {
        0.005
    }
    fn run(&self, args: &BenchArgs) -> RunOutcome {
        run(args)
    }
    fn supports_blackbox(&self) -> bool {
        true
    }
}

/// Regenerate Figure 5 once.
pub fn run(args: &BenchArgs) -> RunOutcome {
    // Figure 5 uses the 2.8M mesh; the convergence *behaviour* is visible at
    // a small fraction of that.
    let spec = args.family_spec(MeshFamily::Large);
    let mesh_spec = spec;
    say!(
        args,
        "Figure 5 regenerator: {} vertices (paper: 2.8M; scale {:.3})",
        mesh_spec.nverts(),
        args.scale
    );

    let cfl0s = [0.5f64, 1.0, 5.0, 10.0, 50.0];
    let max_steps = 60usize;
    // One sink for all five curves: each gets its own RunMeta, so the stream
    // renders as five convergence-table series (the literal Figure 5).
    let sink = EventSink::enabled();
    let mut histories = Vec::new();
    for &cfl0 in &cfl0s {
        let cfg = CaseConfig {
            mesh: mesh_spec,
            model: FlowModel::incompressible(),
            layout: LayoutConfig::tuned(),
            order: SpatialOrder::First,
            nks: PseudoTransientOptions::default(),
        };
        let mesh = cfg.build_mesh();
        let disc = Discretization::new(&mesh, cfg.model, cfg.layout.field_layout(), cfg.order);
        let mut problem = EulerProblem::new(disc);
        let mut q = problem.initial_state();
        let opts = PseudoTransientOptions {
            cfl0,
            cfl_exponent: 1.0,
            cfl_max: 1e6,
            max_steps,
            target_reduction: 1e-10,
            krylov: GmresOptions {
                restart: 20,
                rtol: 1e-2,
                max_iters: 120,
                par: args.par(),
                ..Default::default()
            },
            precond: PrecondSpec::Ilu(IluOptions::with_fill(1)),
            second_order_switch: None,
            // Matrix-free J-v products: the exact first-order Newton operator
            // (the assembled matrix freezes the Rusanov dissipation
            // coefficient, which stalls mid-continuation on some meshes).
            matrix_free: true,
            line_search: true,
            bcsr_block: None,
            forcing: Forcing::Constant,
            pc_refresh: 1,
        };
        sink.emit(EventRecord::RunMeta {
            name: format!("CFL0={cfl0}"),
            meta: vec![
                ("nverts".into(), mesh.nverts().to_string()),
                ("nthreads".into(), args.par().nthreads().to_string()),
            ],
        });
        let h = solve_pseudo_transient_warm(
            &mut problem,
            &mut q,
            &opts,
            &Registry::disabled(),
            &sink,
            &WarmStart::none(),
        );
        say!(
            args,
            "  CFL0 = {cfl0:6.1}: {} steps to reduction {:.1e} (converged: {})",
            h.nsteps(),
            h.reduction(),
            h.converged
        );
        histories.push(h);
    }

    // Residual-vs-iteration series, sampled every few steps.
    let mut rows = Vec::new();
    let max_len = histories.iter().map(|h| h.nsteps()).max().unwrap_or(0);
    for step in (0..max_len).step_by(4) {
        let mut row = vec![step.to_string()];
        for h in &histories {
            row.push(match h.steps.get(step) {
                Some(s) => format!("{:.2e}", s.residual_norm / h.initial_residual),
                None => "-".to_string(),
            });
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("step".to_string())
        .chain(cfl0s.iter().map(|c| format!("CFL0={c}")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    args.table(
        "Figure 5: relative residual norm vs pseudo-timestep",
        &headers_ref,
        &rows,
    );
    say!(
        args,
        "\nPaper shape to check: every curve eventually turns superlinear; small initial"
    );
    say!(
        args,
        "CFL suffers a long induction phase; the most aggressive CFL converges first."
    );

    let mut perf = fun3d_telemetry::report::PerfReport::new("figure5")
        .with_meta("nverts", mesh_spec.nverts().to_string());
    args.annotate(&mut perf);
    for (cfl0, h) in cfl0s.iter().zip(&histories) {
        perf.push_metric(format!("steps_cfl{cfl0}"), h.nsteps() as f64);
        perf.push_metric(format!("reduction_cfl{cfl0}"), h.reduction());
    }
    RunOutcome {
        report: perf,
        telemetry: Vec::new(),
        events: EventStream::new(sink.drain()),
        metrics: Default::default(),
    }
}
