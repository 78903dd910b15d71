//! Criterion micro-bench: sparse matrix-vector product under the storage
//! choices of Table 1 — point CSR vs block CSR (structural blocking), and
//! the interlaced vs segregated unknown orderings — plus the per-step BCSR
//! refill from the point Jacobian.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fun3d_bench::representative_jacobian;
use fun3d_euler::model::FlowModel;
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::layout::FieldLayout;

fn bench_spmv(c: &mut Criterion) {
    let mesh = BumpChannelSpec::with_target_vertices(12_000).build();
    let mut group = c.benchmark_group("spmv");
    for model in [FlowModel::incompressible(), FlowModel::compressible()] {
        let b = model.ncomp();
        let tag = if b == 4 { "incomp" } else { "comp" };
        let csr_i = representative_jacobian(&mesh, model, FieldLayout::Interlaced, 10.0);
        let csr_s = representative_jacobian(&mesh, model, FieldLayout::Segregated, 10.0);
        let bcsr = BcsrMatrix::from_csr(&csr_i, b);
        let n = csr_i.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.001).sin()).collect();
        let mut y = vec![0.0; n];
        group.throughput(Throughput::Elements(csr_i.nnz() as u64));
        group.bench_function(format!("csr-interlaced-{tag}"), |bch| {
            bch.iter(|| csr_i.spmv(&x, &mut y))
        });
        group.bench_function(format!("csr-segregated-{tag}"), |bch| {
            bch.iter(|| csr_s.spmv(&x, &mut y))
        });
        group.bench_function(format!("bcsr-b{b}-{tag}"), |bch| {
            bch.iter(|| bcsr.spmv(&x, &mut y))
        });
        let mut refilled = bcsr.clone();
        group.bench_function(format!("bcsr-refill-b{b}-{tag}"), |bch| {
            bch.iter(|| refilled.refill_from_csr(&csr_i))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_spmv
}
criterion_main!(benches);
