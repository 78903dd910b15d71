//! Quickstart: solve steady incompressible Euler flow over a wing-like bump
//! with the pseudo-transient Newton-Krylov-Schwarz solver.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use petsc_fun3d_repro::core::config::{CaseConfig, LayoutConfig};
use petsc_fun3d_repro::core::problem::EulerProblem;
use petsc_fun3d_repro::euler::model::FlowModel;
use petsc_fun3d_repro::euler::residual::{Discretization, SpatialOrder};
use petsc_fun3d_repro::mesh::generator::BumpChannelSpec;
use petsc_fun3d_repro::solver::gmres::GmresOptions;
use petsc_fun3d_repro::solver::pseudo::{
    solve_pseudo_transient_warm, Forcing, PrecondSpec, PseudoTransientOptions, WarmStart,
};
use petsc_fun3d_repro::sparse::ilu::IluOptions;
use petsc_fun3d_repro::telemetry::events::{convergence_table, EventSink, EventStream};
use petsc_fun3d_repro::telemetry::Registry;

fn main() {
    // 1. A mesh: a graded, jittered tetrahedral channel with a wing-like
    //    bump (~5k vertices; crank this up for a real run).
    let cfg = CaseConfig {
        mesh: BumpChannelSpec::with_target_vertices(5_000),
        model: FlowModel::incompressible(),
        layout: LayoutConfig::tuned(), // interlaced + blocked + RCM + sorted edges
        order: SpatialOrder::First,
        nks: PseudoTransientOptions::default(),
    };
    let mesh = cfg.build_mesh();
    println!(
        "mesh: {} vertices, {} tets, {} edges (geometry closure residual {:.1e})",
        mesh.nverts(),
        mesh.ntets(),
        mesh.nedges(),
        mesh.closure_residual()
    );

    // 2. The discretization and the nonlinear problem.
    let disc = Discretization::new(&mesh, cfg.model, cfg.layout.field_layout(), cfg.order);
    let mut problem = EulerProblem::new(disc);
    let mut q = problem.initial_state();

    // 3. Solve with SER pseudo-transient continuation; the linear systems
    //    use GMRES(20) with an ILU(1) preconditioner built from the
    //    first-order analytic Jacobian.
    let opts = PseudoTransientOptions {
        cfl0: 5.0,
        cfl_exponent: 1.2,
        cfl_max: 1e6,
        max_steps: 60,
        target_reduction: 1e-10,
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
        bcsr_block: Some(4),
        forcing: Forcing::Constant,
        pc_refresh: 1,
    };
    // Telemetry on: spans (with latency histograms) land in `tel`, the
    // per-iteration event stream (`fun3d-events/1`) lands in `sink`.
    let tel = Registry::enabled(0);
    let sink = EventSink::enabled();
    let cold = WarmStart::none();
    let history = solve_pseudo_transient_warm(&mut problem, &mut q, &opts, &tel, &sink, &cold);

    // 4. Report: the Figure 5-style convergence table straight from the
    //    event stream, then the run summary.
    let events = EventStream::new(sink.drain());
    println!("\n{}", convergence_table(&events));
    println!(
        "converged: {} — residual reduced {:.1e}x in {} steps ({} total linear its, {:.2}s)",
        history.converged,
        1.0 / history.reduction(),
        history.nsteps(),
        history.total_linear_iters(),
        history.total_time()
    );

    // Phase breakdown with tail latencies from the span histograms.
    println!("\nphase breakdown (p95 per call from log-bucket histograms):");
    for row in &tel.snapshot().spans {
        println!(
            "  {:<24} {:4} calls  {:8.3}s total  p95 {}",
            row.path,
            row.calls,
            row.total_s,
            row.p95().map_or("    -".into(), |p| format!("{p:.2e}s")),
        );
    }

    // 5. Optionally dump the converged field for ParaView:
    //    `cargo run --release --example quickstart -- flow.vtk`
    if let Some(path) = std::env::args().nth(1) {
        use petsc_fun3d_repro::core::output::write_vtk_file;
        use petsc_fun3d_repro::euler::field::FieldVec;
        let field = FieldVec::from_vec(q, mesh.nverts(), 4, cfg.layout.field_layout());
        write_vtk_file(
            std::path::Path::new(&path),
            &mesh,
            Some((&field, &cfg.model)),
        )
        .expect("VTK write failed");
        println!("wrote {path}");
    }
}
