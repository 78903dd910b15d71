//! Host SpMV timing for the representative Euler Jacobian in point CSR and
//! 4x4-block BCSR, against the bandwidth model of
//! [`fun3d_memmodel::spmv_model`] — the companion-paper bound the whole
//! tuning story rests on.  The block ILU(0) triangular solve on the same
//! blocks (a blocked run's preconditioner apply) is timed alongside, with
//! its achieved bandwidth.
//!
//! With a calibrated machine model (STREAM measured on this host), the
//! predicted times should land within a few tens of percent of the measured
//! ones; the harness reports the delta per metric.

use crate::{
    representative_jacobian, say, time_median, BenchArgs, Experiment, ModelEstimate, RunOutcome,
};
use fun3d_euler::model::FlowModel;
use fun3d_memmodel::hierarchy::MemoryHierarchy;
use fun3d_memmodel::machine::MachineSpec;
use fun3d_memmodel::spmv_model::{bcsr_traffic, csr_traffic, predicted_time, spmv_flops};
use fun3d_memmodel::trace::{bcsr_spmv_trace, csr_spmv_trace};
use fun3d_mesh::generator::MeshFamily;
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::block_ilu::BlockIluFactors;
use fun3d_sparse::layout::FieldLayout;
use fun3d_telemetry::report::PerfReport;
use fun3d_telemetry::Registry;

/// `spmv` as a harness experiment.
pub struct Spmv;

impl Experiment for Spmv {
    fn name(&self) -> &'static str {
        "spmv"
    }
    fn description(&self) -> &'static str {
        "measured CSR/BCSR SpMV and block ILU(0) solve vs the bandwidth model's predicted times"
    }
    fn default_scale(&self) -> f64 {
        0.5
    }
    fn run(&self, args: &BenchArgs) -> RunOutcome {
        run(args)
    }
    fn model(&self, report: &PerfReport, machine: &MachineSpec) -> Vec<ModelEstimate> {
        // Re-derive the traffic from the matrix shape recorded in the
        // report, then price it at the machine's sustained bandwidth.
        let (Some(nrows), Some(nnz)) = (report.metric("nrows"), report.metric("nnz")) else {
            return Vec::new();
        };
        let (nrows, nnz) = (nrows as usize, nnz as usize);
        let mut out = vec![ModelEstimate {
            metric: "time_csr_s".to_string(),
            predicted: predicted_time(&csr_traffic(nrows, nnz, 1.0), machine.stream_bytes_per_s),
        }];
        if let (Some(nbrows), Some(nblocks)) =
            (report.metric("nbrows"), report.metric("nnz_blocks"))
        {
            out.push(ModelEstimate {
                metric: "time_bcsr_s".to_string(),
                predicted: predicted_time(
                    &bcsr_traffic(nbrows as usize, nblocks as usize, 4, 1.0),
                    machine.stream_bytes_per_s,
                ),
            });
        }
        out
    }
}

/// Time CSR and BCSR SpMV and the block ILU(0) solve on the
/// representative Jacobian once.
pub fn run(args: &BenchArgs) -> RunOutcome {
    let ncomp = 4usize;
    let spec = args.family_spec(MeshFamily::Small);
    let mesh = spec.build();
    say!(
        args,
        "SpMV benchmark: {} vertices (scale {:.2}), 4x4 blocks",
        mesh.nverts(),
        args.scale
    );
    let jac = representative_jacobian(
        &mesh,
        FlowModel::incompressible(),
        FieldLayout::Interlaced,
        50.0,
    );
    let n = jac.nrows();
    let x: Vec<f64> = (0..n).map(|i| ((i % 23) as f64 - 11.0) / 11.0).collect();
    let mut y = vec![0.0; n];
    // Spans around every timed call give the report per-call latency
    // histograms (p50/p95/p99) on top of the median the table prints; the
    // analytic `bytes` counter per call turns each span into an achieved-
    // bandwidth row (PerfReport::bandwidth_metrics).  The kernels run via
    // `spmv_par` with the `--threads` context, so with `--profile` on every
    // fork/join records per-thread busy time under its region label.
    let ctx = args.par();
    let tel = Registry::enabled(0);
    let mut events = fun3d_telemetry::events::EventStream::default();
    args.profile_begin();
    let t_csr = time_median(7, || {
        let _g = tel.span("spmv/csr");
        tel.counter("bytes", jac.spmv_traffic_bytes());
        jac.spmv_par(&x, &mut y, &ctx)
    });
    let jb = BcsrMatrix::from_csr(&jac, ncomp);
    let t_bcsr = time_median(7, || {
        let _g = tel.span("spmv/bcsr");
        tel.counter("bytes", jb.spmv_traffic_bytes());
        jb.spmv_par(&x, &mut y, &ctx)
    });
    let fb = BlockIluFactors::factor(&jb).expect("representative Jacobian must factor");
    let t_bilu = time_median(7, || {
        let _g = tel.span("spmv/bilu");
        tel.counter("bytes", fb.solve_traffic_bytes());
        fb.solve_par(&x, &mut y, &ctx)
    });
    let regions = args.profile_finish(&tel, &mut events);
    // Modeled R10000 cache/TLB misses for the same kernels, recorded under
    // the same span paths so measured time and modeled misses share a row.
    let mut mem = MemoryHierarchy::origin2000();
    csr_spmv_trace(&jac, &mut mem).ingest_into(&tel, "spmv/csr");
    mem.flush();
    bcsr_spmv_trace(&jb, &mut mem).ingest_into(&tel, "spmv/bcsr");

    let flops = spmv_flops(jac.nnz());
    // Every stored factor block (L, U, inverted diagonal) is applied once.
    let bilu_flops = spmv_flops(fb.nnz_blocks() * ncomp * ncomp);
    let rows = vec![
        vec![
            "CSR".to_string(),
            format!("{:.3} ms", t_csr * 1e3),
            format!("{:.0}", flops / t_csr / 1e6),
        ],
        vec![
            "BCSR 4x4".to_string(),
            format!("{:.3} ms", t_bcsr * 1e3),
            format!("{:.0}", flops / t_bcsr / 1e6),
        ],
        vec![
            "BILU(0) 4x4 solve".to_string(),
            format!("{:.3} ms", t_bilu * 1e3),
            format!("{:.0}", bilu_flops / t_bilu / 1e6),
        ],
    ];
    args.table(
        "Measured SpMV on the Euler Jacobian (median of 7)",
        &["format", "time", "Mflop/s"],
        &rows,
    );
    say!(
        args,
        "\nBlocking speedup: {:.2}x measured (bandwidth model predicts ~1.2-1.4x from",
        t_csr / t_bcsr
    );
    say!(
        args,
        "index-traffic savings alone; more when the block structure helps the prefetcher)."
    );

    let mut perf = PerfReport::new("spmv").with_meta("nverts", mesh.nverts().to_string());
    args.annotate(&mut perf);
    perf.push_metric("nrows", n as f64);
    perf.push_metric("nnz", jac.nnz() as f64);
    perf.push_metric("nbrows", jb.nbrows() as f64);
    perf.push_metric("nnz_blocks", jb.nnz_blocks() as f64);
    perf.push_metric("time_csr_s", t_csr);
    perf.push_metric("time_bcsr_s", t_bcsr);
    perf.push_metric("blocking_speedup", t_csr / t_bcsr);
    if args.profile {
        // A STREAM triad on this host anchors the %-of-STREAM column of
        // `fun3d-report profile` (the paper's Table 2 denominator).  The
        // arrays must bust the cache or the roofline reads far too high.
        let triad = fun3d_memmodel::stream::run_stream(2 * 1024 * 1024, 2).triad;
        perf.push_metric("stream_triad_bytes_per_s", triad);
        if !regions.is_empty() {
            let rows: Vec<Vec<String>> = regions
                .iter()
                .map(|s| {
                    vec![
                        s.label.to_string(),
                        s.nthreads.to_string(),
                        format!("{:.3} ms", s.busy_max_s() * 1e3),
                        format!("{:.3} ms", s.busy_mean_s() * 1e3),
                        format!("{:.2}", s.imbalance()),
                        format!("{:.3} ms", s.join_wait_s() * 1e3),
                    ]
                })
                .collect();
            args.table(
                "Parallel regions (per-thread busy time)",
                &[
                    "region",
                    "nthr",
                    "busy max",
                    "busy mean",
                    "imbal",
                    "join wait",
                ],
                &rows,
            );
        }
    }
    let snapshot = tel.snapshot();
    let perf = perf.with_snapshot(&snapshot);
    RunOutcome {
        report: perf,
        telemetry: vec![snapshot],
        events,
        metrics: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_telemetry::events::EventRecord;

    /// End-to-end profiling: `--profile --threads 2` must produce
    /// `par/{label}` spans with imbalance counters, achieved-bandwidth
    /// metrics on the timed spans, `ParRegion` events, and the STREAM
    /// anchor metric — while a profiling-off run produces none of them.
    /// (Kept as the single profiler test in this binary: the profiler is
    /// process-global.)
    #[test]
    fn profiled_run_reports_regions_and_bandwidth() {
        let _g = crate::PROFILER_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut args = BenchArgs {
            scale: 0.02,
            quiet: true,
            threads: 2,
            ..BenchArgs::defaults(0.02)
        };
        args.profile = true;
        let out = run(&args);
        let r = &out.report;
        let csr = r.span("par/spmv_csr").expect("CSR region span");
        assert_eq!(csr.counter("nthreads"), Some(2.0));
        assert!(csr.counter("imbalance").unwrap() >= 1.0);
        assert!(csr.counter("busy_t0_s").is_some());
        assert!(csr.counter("busy_t1_s").is_some());
        assert!(r.span("par/spmv_bcsr").is_some());
        assert!(r
            .region_metrics()
            .iter()
            .any(|(k, v)| k == "spmv_csr:imbalance" && *v >= 1.0));
        let bw = r.bandwidth_metrics();
        for key in ["spmv/csr:gbps", "spmv/bcsr:gbps", "spmv/bilu:gbps"] {
            let (_, v) = bw.iter().find(|(k, _)| k == key).expect(key);
            assert!(*v > 0.0 && v.is_finite());
        }
        assert!(r.metric("stream_triad_bytes_per_s").unwrap() > 0.0);
        let regions: Vec<_> = out
            .events
            .records
            .iter()
            .filter(|e| matches!(e, EventRecord::ParRegion { .. }))
            .collect();
        assert!(!regions.is_empty(), "ParRegion events expected");

        // Profiling off: no region spans, no events, no STREAM metric.
        args.profile = false;
        let out = run(&args);
        assert!(out.report.spans.iter().all(|s| !s.path.starts_with("par/")));
        assert!(out.report.region_metrics().is_empty());
        assert!(out.events.is_empty());
        assert!(out.report.metric("stream_triad_bytes_per_s").is_none());
    }
}
