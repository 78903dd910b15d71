//! Criterion micro-bench: the BLAS-1 kernels of the Krylov iteration (the
//! bandwidth-bound floor of the solve phase), plus a mini-STREAM reference.
//!
//! The `vecops-par` group sweeps `dot_par` and `axpy_par` from 4,800 to
//! 4 Mi elements on a 1-thread and a 2-thread team, plus a `t2-fork` column
//! that runs the same per-chunk kernels through the public `ParCtx`
//! helpers, which fork from 4,096 items.  The size where `t2-fork` beats
//! `t1` is the break-even below which the `_par` helpers keep their chunks
//! inline; `t2` shows where they actually fork.  `mgs-cycle/4800` times
//! one GMRES(20) cycle of modified Gram–Schmidt at 4,800 entries (the
//! compressible benchmark mesh's unknowns): 20 steps of `dot_par`,
//! `axpy_par` and `norm2_par` against a growing orthonormal basis.

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
    bench_mgs_cycle(&mut group, 4_800, [("t1", &t1), ("t2", &t2)]);
    group.finish();
}

/// One GMRES(`RESTART`) cycle of modified Gram–Schmidt on length-`n`
/// vectors: step `j` orthogonalizes a fixed vector against the first
/// `j + 1` basis vectors, then takes its norm.
fn bench_mgs_cycle(
    group: &mut criterion::BenchmarkGroup<'_>,
    n: usize,
    teams: [(&str, &ParCtx); 2],
) {
    const RESTART: usize = 20;
    let vector = |k: usize| -> Vec<f64> {
        (0..n)
            .map(|i| ((i * (k + 1)) as f64 * 1e-3).sin() + 0.1 * k as f64)
            .collect()
    };
    let fresh: Vec<Vec<f64>> = (0..RESTART).map(|j| vector(j + 1)).collect();
    // An orthonormal basis, so every step works on well-scaled vectors.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(RESTART);
    for k in 0..RESTART {
        let mut v = vector(k + RESTART + 1);
        for b in &basis {
            vec_ops::axpy(-vec_ops::dot(&v, b), b, &mut v);
        }
        vec_ops::scale(1.0 / vec_ops::norm2(&v), &mut v);
        basis.push(v);
    }
    let mut w = vec![0.0; n];
    // Per cycle: 210 dots (16 B an entry) and axpys (24 B), 20 norms (8 B).
    let steps = RESTART * (RESTART + 1) / 2;
    group.throughput(Throughput::Bytes(((steps * 40 + RESTART * 8) * n) as u64));
    for (team, ctx) in teams {
        group.bench_function(format!("mgs-cycle/{n}/{team}"), |b| {
            b.iter(|| {
                for (j, f) in fresh.iter().enumerate() {
                    w.copy_from_slice(f);
                    for v in &basis[..=j] {
                        let h = vec_ops::dot_par(&w, v, ctx);
                        vec_ops::axpy_par(-h, v, &mut w, ctx);
                    }
                    std::hint::black_box(vec_ops::norm2_par(&w, ctx));
                }
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_vecops, bench_par_sweep
}
criterion_main!(benches);
