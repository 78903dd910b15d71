//! Criterion micro-bench: the edge-based flux kernel under the orderings of
//! Table 1 / Figure 3 — sorted vs vector-colored edges, first vs second
//! order, interlaced vs segregated fields — for the incompressible model,
//! plus the compressible first-order residual on the tuned ordering, the
//! per-vertex wave-speed sums of both models, Jacobian assembly, and one
//! ΨNKS step's assembly plus pseudo-timestep shift on the benchmark mesh.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fun3d_bench::perturbed_state;
use fun3d_core::config::{apply_orderings, LayoutConfig};
use fun3d_core::EulerProblem;
use fun3d_euler::field::FieldVec;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_mesh::reorder::{EdgeOrdering, VertexOrdering};
use fun3d_mesh::tet::TetMesh;
use fun3d_solver::op::PseudoTransientProblem;
use fun3d_sparse::layout::FieldLayout;

fn bench_flux(c: &mut Criterion) {
    let base = BumpChannelSpec::with_target_vertices(15_000).build();
    let mut group = c.benchmark_group("flux");
    let configs = [
        (
            "tuned",
            VertexOrdering::ReverseCuthillMcKee,
            EdgeOrdering::VertexSorted,
        ),
        (
            "colored",
            VertexOrdering::Random(7),
            EdgeOrdering::VectorColored,
        ),
    ];
    for (name, vord, eord) in configs {
        let mesh = apply_orderings(base.clone(), vord, eord);
        group.throughput(Throughput::Elements(mesh.nedges() as u64));
        for layout in [FieldLayout::Interlaced, FieldLayout::Segregated] {
            let lname = layout_name(layout);
            let disc = Discretization::new(
                &mesh,
                FlowModel::incompressible(),
                layout,
                SpatialOrder::First,
            );
            let q = perturbed_state(&disc, 0.01);
            let mut res = FieldVec::zeros(mesh.nverts(), 4, layout);
            let mut ws = disc.workspace();
            group.bench_function(format!("first-{name}-{lname}"), |b| {
                b.iter(|| disc.residual(&q, &mut res, &mut ws))
            });
        }
        // Second order on the tuned interlaced configuration only.
        let disc = Discretization::new(
            &mesh,
            FlowModel::incompressible(),
            FieldLayout::Interlaced,
            SpatialOrder::Second,
        );
        let q = perturbed_state(&disc, 0.01);
        let mut res = FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced);
        let mut ws = disc.workspace();
        group.bench_function(format!("second-{name}-interlaced"), |b| {
            b.iter(|| disc.residual(&q, &mut res, &mut ws))
        });
    }
    // The compressible first-order residual (the matrix-free operator of
    // the compressible runs) on the tuned ordering, in both layouts.
    let mesh = tuned(&base);
    group.throughput(Throughput::Elements(mesh.nedges() as u64));
    for layout in [FieldLayout::Interlaced, FieldLayout::Segregated] {
        let disc = Discretization::new(
            &mesh,
            FlowModel::compressible(),
            layout,
            SpatialOrder::First,
        );
        let q = perturbed_state(&disc, 0.01);
        let mut res = FieldVec::zeros(mesh.nverts(), 5, layout);
        let mut ws = disc.workspace();
        group.bench_function(format!("comp-first-tuned-{}", layout_name(layout)), |b| {
            b.iter(|| disc.residual(&q, &mut res, &mut ws))
        });
    }
    group.finish();
}

/// The per-vertex wave-speed sums behind the pseudo-timestep scale, on the
/// tuned ordering.
fn bench_wavespeed(c: &mut Criterion) {
    let mesh = tuned(&BumpChannelSpec::with_target_vertices(15_000).build());
    let mut group = c.benchmark_group("wavespeed");
    group.throughput(Throughput::Elements(mesh.nedges() as u64));
    for model in [FlowModel::incompressible(), FlowModel::compressible()] {
        let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let q = perturbed_state(&disc, 0.01);
        group.bench_function(model_name(model), |b| b.iter(|| disc.wavespeed_sums(&q)));
    }
    group.finish();
}

/// The tuned ordering of Table 1: RCM vertices, vertex-sorted edges.
fn tuned(base: &TetMesh) -> TetMesh {
    apply_orderings(
        base.clone(),
        VertexOrdering::ReverseCuthillMcKee,
        EdgeOrdering::VertexSorted,
    )
}

fn layout_name(layout: FieldLayout) -> &'static str {
    match layout {
        FieldLayout::Interlaced => "interlaced",
        FieldLayout::Segregated => "segregated",
    }
}

fn model_name(model: FlowModel) -> &'static str {
    if model.ncomp() == 4 {
        "incomp"
    } else {
        "comp"
    }
}

fn bench_jacobian(c: &mut Criterion) {
    let mesh = BumpChannelSpec::with_target_vertices(8_000).build();
    let mut group = c.benchmark_group("jacobian-assembly");
    group.sample_size(10);
    for model in [FlowModel::incompressible(), FlowModel::compressible()] {
        let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let q = perturbed_state(&disc, 0.01);
        group.bench_function(model_name(model), |b| b.iter(|| disc.jacobian(&q)));
    }
    group.finish();
}

/// One ΨNKS step's Jacobian work on the time-to-solution benchmark's mesh
/// (15×8×8, seed 1, tuned orderings): assemble, then add the
/// pseudo-timestep diagonal with `shift_diagonal_by`.
fn bench_jacobian_shift(c: &mut Criterion) {
    let layout = LayoutConfig::tuned();
    let mut spec = BumpChannelSpec::with_dims(15, 8, 8);
    spec.seed = 1;
    let mesh = apply_orderings(spec.build(), layout.vertex_ordering, layout.edge_ordering);
    let mut group = c.benchmark_group("jacobian-shift");
    for model in [FlowModel::incompressible(), FlowModel::compressible()] {
        let disc = Discretization::new(&mesh, model, layout.field_layout(), SpatialOrder::First);
        let problem = EulerProblem::new(disc);
        let q = perturbed_state(problem.discretization(), 0.01)
            .as_slice()
            .to_vec();
        let d = problem.inverse_timestep_scale(&q);
        group.bench_function(model_name(model), |b| {
            b.iter(|| {
                let mut jac = problem.jacobian(&q);
                jac.shift_diagonal_by(0.2, &d);
                jac
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_flux, bench_wavespeed, bench_jacobian, bench_jacobian_shift
}
criterion_main!(benches);
