//! Criterion micro-bench: the BLAS-1 kernels of the Krylov iteration (the
//! bandwidth-bound floor of the solve phase), plus a mini-STREAM reference.
//!
//! The `vecops-par` group sweeps `dot_par` and `axpy_par` from 4,800 to
//! 4 Mi elements on a 1-thread and a 2-thread team, plus a `t2-fork` column
//! that runs the same per-chunk kernels through the public `ParCtx`
//! helpers, which fork from 4,096 items.  The size where `t2-fork` beats
//! `t1` is the break-even below which the `_par` helpers keep their chunks
//! inline; `t2` shows where they actually fork.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fun3d_sparse::par::ParCtx;
use fun3d_sparse::vec_ops;

fn bench_vecops(c: &mut Criterion) {
    let n = 1_000_000usize;
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 1e-4).sin()).collect();
    let mut y: Vec<f64> = (0..n).map(|i| (i as f64 * 1e-4).cos()).collect();
    let mut group = c.benchmark_group("vecops");
    group.throughput(Throughput::Bytes((16 * n) as u64));
    group.bench_function("dot", |b| {
        b.iter(|| std::hint::black_box(vec_ops::dot(&x, &y)))
    });
    group.bench_function("axpy", |b| b.iter(|| vec_ops::axpy(1.0001, &x, &mut y)));
    group.throughput(Throughput::Bytes((8 * n) as u64));
    group.bench_function("norm2", |b| {
        b.iter(|| std::hint::black_box(vec_ops::norm2(&x)))
    });
    group.finish();
}

fn bench_par_sweep(c: &mut Criterion) {
    let (t1, t2) = (ParCtx::new(1), ParCtx::new(2));
    let mut group = c.benchmark_group("vecops-par");
    for n in [
        4_800usize,
        65_536,
        262_144,
        524_288,
        1 << 20,
        2 << 20,
        4 << 20,
    ] {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 1e-4).sin()).collect();
        let mut y: Vec<f64> = (0..n).map(|i| (i as f64 * 1e-4).cos()).collect();
        group.throughput(Throughput::Bytes((16 * n) as u64));
        for (team, ctx) in [("t1", &t1), ("t2", &t2)] {
            group.bench_function(format!("dot/{n}/{team}"), |b| {
                b.iter(|| vec_ops::dot_par(&x, &y, ctx))
            });
        }
        group.bench_function(format!("dot/{n}/t2-fork"), |b| {
            b.iter(|| {
                t2.map_chunks("dot", n, |_, r| vec_ops::dot(&x[r.clone()], &y[r]))
                    .iter()
                    .sum::<f64>()
            })
        });
        group.throughput(Throughput::Bytes((24 * n) as u64));
        for (team, ctx) in [("t1", &t1), ("t2", &t2)] {
            group.bench_function(format!("axpy/{n}/{team}"), |b| {
                b.iter(|| vec_ops::axpy_par(1e-9, &x, &mut y, ctx))
            });
        }
        group.bench_function(format!("axpy/{n}/t2-fork"), |b| {
            b.iter(|| {
                t2.parallel_for_slices("axpy", &mut y, 1, |_, r, sub| {
                    vec_ops::axpy(1e-9, &x[r], sub)
                })
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_vecops, bench_par_sweep
}
criterion_main!(benches);
