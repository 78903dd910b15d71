//! Criterion micro-bench: ILU(k) triangular solves with double vs single
//! precision factor storage — the Table 2 effect on the host — and, on the
//! same matrices, block ILU(0) on the b = 4 BCSR form (`bilu0`), the
//! preconditioner a blocked ILU(0) solve factors, refactors and applies.
//!
//! The point ILU entries cover each I-node shape: interlaced incompressible
//! rows (nodes of 4), interlaced compressible rows (`-comp`, nodes of 5) and
//! segregated rows (`-seg`, one-row nodes).  The refactors run on both
//! interlaced Jacobians: `bilu0-refactor` at b = 4 next to `ilu0-refactor`,
//! and `bilu0-refactor-comp` at b = 5 next to `ilu0-refactor-comp`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fun3d_bench::representative_jacobian;
use fun3d_euler::model::FlowModel;
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::block_ilu::BlockIluFactors;
use fun3d_sparse::ilu::{IluFactors, IluOptions, PrecStorage};
use fun3d_sparse::layout::FieldLayout;

fn bench_trisolve(c: &mut Criterion) {
    let mesh = BumpChannelSpec::with_target_vertices(12_000).build();
    let jac = representative_jacobian(
        &mesh,
        FlowModel::incompressible(),
        FieldLayout::Interlaced,
        10.0,
    );
    let n = jac.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 19) as f64 - 9.0) / 9.0).collect();
    let mut x = vec![0.0; n];
    let mut group = c.benchmark_group("trisolve");
    for fill in [0usize, 1] {
        for (name, storage) in [("f64", PrecStorage::Double), ("f32", PrecStorage::Single)] {
            let f = IluFactors::factor(
                &jac,
                &IluOptions {
                    fill_level: fill,
                    storage,
                },
            )
            .expect("factorable");
            group.throughput(Throughput::Elements(f.nnz() as u64));
            group.bench_function(format!("ilu{fill}-{name}"), |bch| {
                bch.iter(|| f.solve(&b, &mut x))
            });
        }
    }
    let fb = BlockIluFactors::factor(&BcsrMatrix::from_csr(&jac, 4)).expect("factorable");
    group.throughput(Throughput::Elements((fb.nnz_blocks() * 16) as u64));
    group.bench_function("bilu0-f64", |bch| bch.iter(|| fb.solve(&b, &mut x)));
    for (name, model, layout) in [
        ("comp", FlowModel::compressible(), FieldLayout::Interlaced),
        ("seg", FlowModel::incompressible(), FieldLayout::Segregated),
    ] {
        let jac = representative_jacobian(&mesh, model, layout, 10.0);
        let n = jac.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 19) as f64 - 9.0) / 9.0).collect();
        let mut x = vec![0.0; n];
        let f = IluFactors::factor(&jac, &IluOptions::with_fill(0)).expect("factorable");
        group.throughput(Throughput::Elements(f.nnz() as u64));
        group.bench_function(format!("ilu0-f64-{name}"), |bch| {
            bch.iter(|| f.solve(&b, &mut x))
        });
    }
    group.finish();
}

fn bench_factor(c: &mut Criterion) {
    let mesh = BumpChannelSpec::with_target_vertices(8_000).build();
    let jac = representative_jacobian(
        &mesh,
        FlowModel::incompressible(),
        FieldLayout::Interlaced,
        10.0,
    );
    let mut group = c.benchmark_group("ilu-factor");
    group.sample_size(10);
    for fill in [0usize, 1, 2] {
        group.bench_function(format!("ilu{fill}"), |bch| {
            bch.iter(|| IluFactors::factor(&jac, &IluOptions::with_fill(fill)).unwrap())
        });
    }
    // The per-step numeric refactors a solve runs after its first factor.
    let mut f = IluFactors::factor(&jac, &IluOptions::with_fill(0)).unwrap();
    group.bench_function("ilu0-refactor", |bch| {
        bch.iter(|| f.refactor(&jac).unwrap())
    });
    let blocked = BcsrMatrix::from_csr(&jac, 4);
    group.bench_function("bilu0", |bch| {
        bch.iter(|| BlockIluFactors::factor(&blocked).unwrap())
    });
    let mut fb = BlockIluFactors::factor(&blocked).unwrap();
    group.bench_function("bilu0-refactor", |bch| {
        bch.iter(|| fb.refactor(&blocked).unwrap())
    });
    let comp = representative_jacobian(
        &mesh,
        FlowModel::compressible(),
        FieldLayout::Interlaced,
        10.0,
    );
    let mut fc = IluFactors::factor(&comp, &IluOptions::with_fill(0)).unwrap();
    group.bench_function("ilu0-refactor-comp", |bch| {
        bch.iter(|| fc.refactor(&comp).unwrap())
    });
    let comp_blocked = BcsrMatrix::from_csr(&comp, 5);
    let mut fbc = BlockIluFactors::factor(&comp_blocked).unwrap();
    group.bench_function("bilu0-refactor-comp", |bch| {
        bch.iter(|| fbc.refactor(&comp_blocked).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_trisolve, bench_factor
}
criterion_main!(benches);
