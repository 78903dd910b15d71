//! Cross-crate telemetry integration: instrumentation must not perturb the
//! numerics, the span tree must be internally consistent, and the paper's
//! efficiency identity must be derivable from registry numbers alone.

use petsc_fun3d_repro::core::efficiency::{efficiency_from_reports, scaling_point_from_report};
use petsc_fun3d_repro::core::parallel_nks::{solve_parallel_nks, ParallelNksOptions};
use petsc_fun3d_repro::core::problem::EulerProblem;
use petsc_fun3d_repro::euler::model::FlowModel;
use petsc_fun3d_repro::euler::residual::{Discretization, SpatialOrder};
use petsc_fun3d_repro::memmodel::machine::MachineSpec;
use petsc_fun3d_repro::mesh::generator::BumpChannelSpec;
use petsc_fun3d_repro::partition::partition_kway;
use petsc_fun3d_repro::solver::gmres::GmresOptions;
use petsc_fun3d_repro::solver::pseudo::{
    solve_pseudo_transient, solve_pseudo_transient_warm, Forcing, PrecondSpec,
    PseudoTransientOptions, WarmStart,
};
use petsc_fun3d_repro::sparse::ilu::IluOptions;
use petsc_fun3d_repro::sparse::layout::FieldLayout;
use petsc_fun3d_repro::telemetry::events::EventSink;
use petsc_fun3d_repro::telemetry::report::PerfReport;
use petsc_fun3d_repro::telemetry::{merge, Registry};

fn nks(max_steps: usize) -> PseudoTransientOptions {
    PseudoTransientOptions {
        cfl0: 5.0,
        cfl_exponent: 1.2,
        cfl_max: 1e6,
        max_steps,
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

fn small_problem(mesh: &petsc_fun3d_repro::mesh::tet::TetMesh) -> (EulerProblem<'_>, Vec<f64>) {
    let disc = Discretization::new(
        mesh,
        FlowModel::incompressible(),
        FieldLayout::Interlaced,
        SpatialOrder::First,
    );
    let problem = EulerProblem::new(disc);
    let q = problem.initial_state();
    (problem, q)
}

#[test]
fn instrumentation_does_not_perturb_the_solve() {
    let opts = nks(12);
    let mesh = BumpChannelSpec::with_dims(8, 6, 6).build();
    let (mut p1, mut q1) = small_problem(&mesh);
    let plain = solve_pseudo_transient(&mut p1, &mut q1, &opts);
    let (mut p2, mut q2) = small_problem(&mesh);
    let (reg, events) = (Registry::enabled(0), EventSink::disabled());
    let instrumented =
        solve_pseudo_transient_warm(&mut p2, &mut q2, &opts, &reg, &events, &WarmStart::none());
    assert_eq!(plain.steps.len(), instrumented.steps.len());
    for (a, b) in plain.steps.iter().zip(&instrumented.steps) {
        // Bitwise identical: spans only read the clock, never the state.
        assert_eq!(
            a.residual_norm.to_bits(),
            b.residual_norm.to_bits(),
            "step {}",
            a.step
        );
        assert_eq!(a.linear_iters, b.linear_iters, "step {}", a.step);
    }
    assert_eq!(q1, q2);
}

#[test]
fn child_span_times_sum_to_at_most_the_parent() {
    let opts = nks(6);
    let mesh = BumpChannelSpec::with_dims(8, 6, 6).build();
    let (mut problem, mut q) = small_problem(&mesh);
    let (reg, events) = (Registry::enabled(0), EventSink::disabled());
    solve_pseudo_transient_warm(
        &mut problem,
        &mut q,
        &opts,
        &reg,
        &events,
        &WarmStart::none(),
    );
    let snap = reg.snapshot();
    let parent = snap.span("nks").expect("nks span recorded").total_s;
    let children: f64 = snap
        .spans
        .iter()
        .filter(|s| s.path.starts_with("nks/") && s.path.matches('/').count() == 1)
        .map(|s| s.total_s)
        .sum();
    assert!(children > 0.0, "no child spans under nks: {:?}", snap.spans);
    assert!(
        children <= parent * (1.0 + 1e-9),
        "children {children} > parent {parent}"
    );
    // The deep gmres spans nest under the krylov phase.
    assert!(snap.span("nks/krylov/gmres").is_some(), "{:?}", snap.spans);
}

#[test]
fn efficiency_identity_holds_from_registry_numbers() {
    // Run the real distributed solver at 1 and 2 ranks and derive the
    // Table-3 columns purely from the per-rank registries.
    let mesh = BumpChannelSpec::with_dims(7, 5, 5).build();
    let graph = mesh.vertex_graph();
    let machine = MachineSpec::asci_red();
    let opts = ParallelNksOptions {
        max_steps: 4,
        target_reduction: 0.0,
        ..Default::default()
    };
    let mut reports = Vec::new();
    for p in [1usize, 2] {
        let part = partition_kway(&graph, p, 3);
        let r = solve_parallel_nks(
            &mesh,
            FlowModel::incompressible(),
            &part.part,
            p,
            &machine,
            &opts,
        );
        let merged = merge(&r.telemetry);
        let mut perf = PerfReport::new("itest")
            .with_meta("nranks", p.to_string())
            .with_snapshot(&merged);
        perf.push_metric("nprocs", p as f64);
        // Iterations are global: the merged counter sums identical per-rank
        // counts, so normalize by the rank count.
        let its = merged.counter_total("linear_iters") / p as f64;
        perf.push_metric("linear_its", its.max(1.0));
        perf.push_metric("time_s", r.sim_time);
        reports.push(perf);
    }
    for perf in &reports {
        let pt = scaling_point_from_report(perf).expect("derivable scaling point");
        assert!(pt.time > 0.0 && pt.its > 0);
    }
    let rows = efficiency_from_reports(&reports);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].eta_overall, 1.0);
    for row in &rows {
        assert!(
            (row.eta_overall - row.eta_alg * row.eta_impl).abs() < 1e-12,
            "{row:?}"
        );
    }
}
