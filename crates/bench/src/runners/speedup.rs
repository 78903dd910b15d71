//! Thread-scaling sweep over the hot kernels — the shared-memory half of
//! the paper's Section 2.5 story.
//!
//! Times CSR/BCSR SpMV and the flux residual sequentially and under the
//! thread team at increasing team sizes, reporting speedup and parallel
//! efficiency per kernel.  The verdict line compares the observed scaling
//! against the STREAM-calibrated bandwidth bound from `fun3d-memmodel`:
//! these kernels move more bytes than they compute flops, so once one
//! thread saturates the memory system the roofline — not the core count —
//! caps the speedup, exactly the effect Table 5 documents for the
//! Origin 2000's second processor.

use crate::{
    representative_jacobian, say, time_median, BenchArgs, Experiment, ModelEstimate, RunOutcome,
};
use fun3d_euler::field::FieldVec;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_memmodel::machine::MachineSpec;
use fun3d_memmodel::spmv_model::{csr_traffic, predicted_time};
use fun3d_memmodel::stream::run_stream;
use fun3d_mesh::generator::MeshFamily;
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::layout::FieldLayout;
use fun3d_sparse::par::ParCtx;
use fun3d_telemetry::report::PerfReport;

/// `speedup` as a harness experiment.
pub struct Speedup;

impl Experiment for Speedup {
    fn name(&self) -> &'static str {
        "speedup"
    }
    fn description(&self) -> &'static str {
        "thread-scaling of SpMV + flux residual vs the STREAM bandwidth bound"
    }
    fn default_scale(&self) -> f64 {
        0.5
    }
    fn run(&self, args: &BenchArgs) -> RunOutcome {
        run(args)
    }
    fn model(&self, report: &PerfReport, machine: &MachineSpec) -> Vec<ModelEstimate> {
        let (Some(nrows), Some(nnz)) = (report.metric("nrows"), report.metric("nnz")) else {
            return Vec::new();
        };
        vec![ModelEstimate {
            metric: "time_csr_t1_s".to_string(),
            predicted: predicted_time(
                &csr_traffic(nrows as usize, nnz as usize, 1.0),
                machine.stream_bytes_per_s,
            ),
        }]
    }
}

/// The team sizes the sweep visits: 1, 2, 4, plus `--threads` when it names
/// something else.
fn sweep_sizes(requested: usize) -> Vec<usize> {
    let mut sizes = vec![1usize, 2, 4];
    if !sizes.contains(&requested) {
        sizes.push(requested);
        sizes.sort_unstable();
    }
    sizes
}

/// Run the thread-scaling sweep once.
pub fn run(args: &BenchArgs) -> RunOutcome {
    let spec = args.family_spec(MeshFamily::Small);
    let mesh = spec.build();
    let model = FlowModel::incompressible();
    let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
    let q = crate::perturbed_state(&disc, 0.01);
    let jac = representative_jacobian(&mesh, model, FieldLayout::Interlaced, 50.0);
    let jb = BcsrMatrix::from_csr(&jac, disc.ncomp());
    let n = jac.nrows();
    let x: Vec<f64> = (0..n).map(|i| ((i % 23) as f64 - 11.0) / 11.0).collect();
    let mut y = vec![0.0; n];
    let mut res = FieldVec::zeros(mesh.nverts(), disc.ncomp(), FieldLayout::Interlaced);
    let mut ws = disc.workspace();
    say!(
        args,
        "Thread-scaling sweep: {} vertices, {} unknowns, {} edges (scale {:.2})",
        mesh.nverts(),
        n,
        mesh.nedges(),
        args.scale
    );

    // Host STREAM, measured fresh so the roofline prices this machine as it
    // behaves right now, not as a calibration file remembers it.
    let stream = run_stream(2 * 1024 * 1024, 3);
    let bw = stream.triad;
    let roofline_csr = predicted_time(&csr_traffic(n, jac.nnz(), 1.0), bw);

    let sizes = sweep_sizes(args.threads.max(1));
    let reps = args.reps.max(3);
    // Per-size times, in sweep order: (nthreads, t_csr, t_bcsr, t_residual).
    let mut times = Vec::new();
    for &nthreads in &sizes {
        let ctx = ParCtx::new(nthreads);
        let t_csr = time_median(reps, || jac.spmv_par(&x, &mut y, &ctx));
        let t_bcsr = time_median(reps, || jb.spmv_par(&x, &mut y, &ctx));
        let t_res = time_median(reps, || disc.residual_par(&q, &mut res, &mut ws, &ctx));
        times.push((nthreads, t_csr, t_bcsr, t_res));
    }

    let (_, t1_csr, t1_bcsr, t1_res) = times[0];
    let rows: Vec<Vec<String>> = times
        .iter()
        .map(|&(nt, tc, tb, tr)| {
            let combined = (t1_csr + t1_res) / (tc + tr);
            vec![
                nt.to_string(),
                format!("{:.3} ms", tc * 1e3),
                format!("{:.2}x", t1_csr / tc),
                format!("{:.3} ms", tb * 1e3),
                format!("{:.2}x", t1_bcsr / tb),
                format!("{:.3} ms", tr * 1e3),
                format!("{:.2}x", t1_res / tr),
                format!("{:.0}%", 100.0 * combined / nt as f64),
            ]
        })
        .collect();
    args.table(
        "Thread scaling (median times; efficiency = combined speedup / threads)",
        &[
            "threads",
            "csr",
            "speedup",
            "bcsr",
            "speedup",
            "residual",
            "speedup",
            "efficiency",
        ],
        &rows,
    );

    // The acceptance verdict: either the combined SpMV+residual speedup at 4
    // threads clears 1.5x, or the sequential kernel already sits on the
    // STREAM roofline and extra threads have no bandwidth left to use.
    let at4 = times
        .iter()
        .find(|&&(nt, ..)| nt == 4)
        .copied()
        .unwrap_or(*times.last().unwrap());
    let combined_speedup = (t1_csr + t1_res) / (at4.1 + at4.3);
    let bandwidth_bound = t1_csr <= 1.3 * roofline_csr;
    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    say!(
        args,
        "\nSTREAM triad: {:.0} MB/s; roofline CSR SpMV time: {:.3} ms (measured 1-thread: {:.3} ms)",
        bw / 1e6,
        roofline_csr * 1e3,
        t1_csr * 1e3
    );
    say!(
        args,
        "Combined SpMV+residual speedup at {} threads: {:.2}x -> {}",
        at4.0,
        combined_speedup,
        verdict(combined_speedup, t1_csr, roofline_csr, hw_threads, at4.0)
    );

    let mut perf = PerfReport::new("speedup").with_meta("nverts", mesh.nverts().to_string());
    args.annotate(&mut perf);
    perf.push_metric("nrows", n as f64);
    perf.push_metric("nnz", jac.nnz() as f64);
    perf.push_metric("stream_triad_bytes_per_s", bw);
    perf.push_metric("roofline_csr_s", roofline_csr);
    for &(nt, tc, tb, tr) in &times {
        perf.push_metric(format!("time_csr_t{nt}_s"), tc);
        perf.push_metric(format!("time_bcsr_t{nt}_s"), tb);
        perf.push_metric(format!("time_residual_t{nt}_s"), tr);
    }
    perf.push_metric("combined_speedup", combined_speedup);
    perf.push_metric("parallel_efficiency", combined_speedup / at4.0 as f64);
    perf.push_metric("bandwidth_bound", if bandwidth_bound { 1.0 } else { 0.0 });
    perf.push_metric("hw_threads", hw_threads as f64);
    RunOutcome::from(perf)
}

/// The acceptance verdict as a pure function of the measured facts, so the
/// three-way logic is unit-testable without timing anything: threading
/// either pays off (combined speedup clears 1.5x), or the sequential kernel
/// already sits on the STREAM roofline (threads share one memory system),
/// or the host simply lacks the cores — in that priority order.
pub fn verdict(
    combined_speedup: f64,
    t1_csr_s: f64,
    roofline_csr_s: f64,
    hw_threads: usize,
    team: usize,
) -> String {
    let bandwidth_bound = t1_csr_s <= 1.3 * roofline_csr_s;
    if combined_speedup >= 1.5 {
        "threading pays off".to_string()
    } else if bandwidth_bound {
        "bandwidth-bound per the memmodel roofline (threads share one memory system)".to_string()
    } else if hw_threads < team {
        format!(
            "core-limited: only {hw_threads} hardware thread(s) available, \
             so teams larger than that just timeslice one core"
        )
    } else {
        "below target and not bandwidth-bound; check thread spawn overhead vs problem size"
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_includes_requested_size_once() {
        assert_eq!(sweep_sizes(1), vec![1, 2, 4]);
        assert_eq!(sweep_sizes(4), vec![1, 2, 4]);
        assert_eq!(sweep_sizes(3), vec![1, 2, 3, 4]);
        assert_eq!(sweep_sizes(8), vec![1, 2, 4, 8]);
    }

    // Synthetic-timing checks pinning the three-way acceptance verdict and
    // its thresholds (1.5x combined speedup; 1.3x of the roofline time).

    #[test]
    fn verdict_pays_off_when_speedup_clears_target() {
        // Even a bandwidth-bound, core-limited host reports success first.
        assert_eq!(verdict(1.5, 1.0e-3, 1.0e-3, 1, 4), "threading pays off");
        assert_eq!(verdict(2.1, 5.0e-3, 1.0e-3, 8, 4), "threading pays off");
    }

    #[test]
    fn verdict_blames_bandwidth_when_on_the_roofline() {
        // t1 within 1.3x of the roofline time: threads share one memory
        // system, so a 1.0x speedup is expected, not a failure.
        let v = verdict(1.0, 1.25e-3, 1.0e-3, 8, 4);
        assert!(v.contains("bandwidth-bound"), "{v}");
        // Just past the threshold the explanation must change.
        let v = verdict(1.0, 1.31e-3, 1.0e-3, 8, 4);
        assert!(!v.starts_with("bandwidth-bound"), "{v}");
        assert!(v.contains("not bandwidth-bound"), "{v}");
    }

    #[test]
    fn verdict_blames_cores_when_host_is_small() {
        // Far off the roofline, below target, fewer cores than the team.
        let v = verdict(1.1, 5.0e-3, 1.0e-3, 2, 4);
        assert!(v.contains("core-limited"), "{v}");
        assert!(v.contains("only 2 hardware thread"), "{v}");
    }

    #[test]
    fn verdict_flags_overhead_otherwise() {
        // Enough cores, not bandwidth-bound, still slow: spawn overhead.
        let v = verdict(1.1, 5.0e-3, 1.0e-3, 8, 4);
        assert!(v.contains("spawn overhead"), "{v}");
    }

    #[test]
    fn speedup_reports_scaling_metrics() {
        let _g = crate::PROFILER_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let args = BenchArgs {
            scale: 0.02,
            reps: 1,
            quiet: true,
            threads: 2,
            ..BenchArgs::defaults(0.02)
        };
        let out = run(&args);
        let r = &out.report;
        assert!(r.metric("time_csr_t1_s").unwrap() > 0.0);
        assert!(r.metric("time_residual_t2_s").unwrap() > 0.0);
        assert!(r.metric("combined_speedup").unwrap() > 0.0);
        assert!(r.metric("stream_triad_bytes_per_s").unwrap() > 0.0);
        let bb = r.metric("bandwidth_bound").unwrap();
        assert!(bb == 0.0 || bb == 1.0);
        assert!(r.meta.iter().any(|(k, v)| k == "nthreads" && v == "2"));
    }
}
