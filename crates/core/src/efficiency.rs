//! Parallel efficiency decomposition (Table 3, Figures 1–2).
//!
//! The paper splits overall parallel efficiency into an *algorithmic*
//! component (iteration growth of non-coarse-grid NKS with subdomain count)
//! and an *implementation* component (everything else: reductions, load
//! imbalance, scatters, hardware):
//!
//! `eta_overall(p) = eta_alg(p) * eta_impl(p)` with
//! `eta_alg(p) = its(p0) / its(p)` and
//! `eta_overall(p) = T(p0) * p0 / (T(p) * p)`.

use fun3d_telemetry::report::PerfReport;

/// One measured (or simulated) scaling point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Processor (node) count.
    pub nprocs: usize,
    /// Linear iterations to convergence (or per unit of work).
    pub its: usize,
    /// Execution time, seconds.
    pub time: f64,
}

/// One row of the Table 3 efficiency block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyRow {
    /// Processor count.
    pub nprocs: usize,
    /// Iterations.
    pub its: usize,
    /// Time (seconds).
    pub time: f64,
    /// Speedup relative to the base point.
    pub speedup: f64,
    /// Overall parallel efficiency.
    pub eta_overall: f64,
    /// Algorithmic efficiency (iteration growth).
    pub eta_alg: f64,
    /// Implementation efficiency (the remainder).
    pub eta_impl: f64,
}

/// Decompose a fixed-size scaling series into the paper's efficiency
/// columns. The first point is the base (speedup 1.0, efficiencies 1.0).
///
/// # Panics
/// Panics on an empty series or non-increasing processor counts.
pub fn efficiency_table(points: &[ScalingPoint]) -> Vec<EfficiencyRow> {
    assert!(!points.is_empty(), "need at least one scaling point");
    assert!(
        points.windows(2).all(|w| w[0].nprocs < w[1].nprocs),
        "points must be sorted by processor count"
    );
    let base = points[0];
    points
        .iter()
        .map(|p| {
            let speedup = base.time / p.time;
            let eta_overall = speedup * base.nprocs as f64 / p.nprocs as f64;
            let eta_alg = base.its as f64 / p.its as f64;
            let eta_impl = eta_overall / eta_alg;
            EfficiencyRow {
                nprocs: p.nprocs,
                its: p.its,
                time: p.time,
                speedup,
                eta_overall,
                eta_alg,
                eta_impl,
            }
        })
        .collect()
}

/// Aggregate Gflop/s from a total flop count and execution time.
pub fn gflops(total_flops: f64, time_s: f64) -> f64 {
    assert!(time_s > 0.0);
    total_flops / time_s / 1e9
}

/// Implementation efficiency between two points "per time step" (the 91%
/// figure of Section 1.2 between 256 and 2048 nodes): ratio of per-step
/// work rates, discounting iteration growth.
pub fn implementation_efficiency(base: &ScalingPoint, at: &ScalingPoint) -> f64 {
    let eta_overall = (base.time / at.time) * base.nprocs as f64 / at.nprocs as f64;
    let eta_alg = base.its as f64 / at.its as f64;
    eta_overall / eta_alg
}

/// Extract a scaling point from a telemetry [`PerfReport`].
///
/// Looks for the metrics `nprocs`, `linear_its`, and `time_s`; when absent,
/// falls back to the instrumented span tree: the `nks` span's `linear_iters`
/// counter and wall time, and the report's rank count. Returns `None` when
/// neither form carries enough information.
///
/// The span fallback treats the span tree as a *single timeline*. Merged
/// multi-rank snapshots sum times and counters over ranks, and GMRES
/// iterations are global (every rank counts the same ones) — so producers
/// of merged reports must push explicit per-run `linear_its`/`time_s`
/// metrics rather than rely on the fallback (as the `ranks` runner does).
pub fn scaling_point_from_report(report: &PerfReport) -> Option<ScalingPoint> {
    let nks = report.span("nks");
    let nprocs = report
        .metric("nprocs")
        .or_else(|| report.meta("nranks").and_then(|s| s.parse().ok()))? as usize;
    let its = report
        .metric("linear_its")
        .or_else(|| nks.and_then(|s| s.counter("linear_iters")))?
        .round() as usize;
    let time = report.metric("time_s").or_else(|| nks.map(|s| s.total_s))?;
    Some(ScalingPoint { nprocs, its, time })
}

/// Build the Table-3 efficiency decomposition directly from a series of
/// telemetry reports (one per processor count, sorted ascending).
///
/// Reports that lack the required metrics/spans are skipped.
pub fn efficiency_from_reports(reports: &[PerfReport]) -> Vec<EfficiencyRow> {
    let points: Vec<ScalingPoint> = reports
        .iter()
        .filter_map(scaling_point_from_report)
        .collect();
    if points.is_empty() {
        return Vec::new();
    }
    efficiency_table(&points)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 3 numbers, verbatim.
    fn table3_points() -> Vec<ScalingPoint> {
        vec![
            ScalingPoint {
                nprocs: 128,
                its: 22,
                time: 2039.0,
            },
            ScalingPoint {
                nprocs: 256,
                its: 24,
                time: 1144.0,
            },
            ScalingPoint {
                nprocs: 512,
                its: 26,
                time: 638.0,
            },
            ScalingPoint {
                nprocs: 768,
                its: 27,
                time: 441.0,
            },
            ScalingPoint {
                nprocs: 1024,
                its: 29,
                time: 362.0,
            },
        ]
    }

    #[test]
    fn reproduces_paper_table3_efficiencies() {
        let rows = efficiency_table(&table3_points());
        // Paper: speedups 1.00, 1.78, 3.20, 4.62, 5.63.
        let expect_speedup = [1.00, 1.78, 3.20, 4.62, 5.63];
        let expect_overall = [1.00, 0.89, 0.80, 0.77, 0.70];
        let expect_alg = [1.00, 0.92, 0.85, 0.81, 0.76];
        let expect_impl = [1.00, 0.97, 0.94, 0.95, 0.93];
        for (i, row) in rows.iter().enumerate() {
            assert!((row.speedup - expect_speedup[i]).abs() < 0.01, "{row:?}");
            assert!(
                (row.eta_overall - expect_overall[i]).abs() < 0.01,
                "{row:?}"
            );
            assert!((row.eta_alg - expect_alg[i]).abs() < 0.01, "{row:?}");
            assert!((row.eta_impl - expect_impl[i]).abs() < 0.015, "{row:?}");
        }
    }

    #[test]
    fn decomposition_identity_holds() {
        for row in efficiency_table(&table3_points()) {
            assert!((row.eta_overall - row.eta_alg * row.eta_impl).abs() < 1e-12);
        }
    }

    #[test]
    fn base_row_is_unity() {
        let rows = efficiency_table(&table3_points());
        assert_eq!(rows[0].speedup, 1.0);
        assert_eq!(rows[0].eta_overall, 1.0);
        assert_eq!(rows[0].eta_alg, 1.0);
        assert_eq!(rows[0].eta_impl, 1.0);
    }

    #[test]
    fn gflops_conversion() {
        assert_eq!(gflops(2e12, 10.0), 200.0);
    }

    #[test]
    fn implementation_efficiency_between_points() {
        let pts = table3_points();
        let eff = implementation_efficiency(&pts[0], &pts[4]);
        assert!((eff - 0.93).abs() < 0.015, "{eff}");
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_points_panic() {
        let mut pts = table3_points();
        pts.swap(0, 1);
        efficiency_table(&pts);
    }

    fn report_for(p: &ScalingPoint) -> PerfReport {
        let mut r = PerfReport::new("table3");
        r.push_metric("nprocs", p.nprocs as f64);
        r.push_metric("linear_its", p.its as f64);
        r.push_metric("time_s", p.time);
        r
    }

    #[test]
    fn efficiency_from_reports_matches_direct_table() {
        let pts = table3_points();
        let reports: Vec<PerfReport> = pts.iter().map(report_for).collect();
        assert_eq!(efficiency_from_reports(&reports), efficiency_table(&pts));
    }

    #[test]
    fn scaling_point_falls_back_to_span_tree() {
        use fun3d_telemetry::{Registry, SpanRow, TimeDomain};
        let reg = Registry::enabled(0);
        reg.record_span("nks", TimeDomain::Measured, 362.0, 1);
        reg.counter_at("nks", TimeDomain::Measured, "linear_iters", 29.0);
        let mut r = PerfReport::new("run")
            .with_meta("nranks", "1024")
            .with_snapshot(&reg.snapshot());
        // Drop the synthetic root row so only real spans remain.
        r.spans.retain(|s: &SpanRow| !s.path.is_empty());
        let p = scaling_point_from_report(&r).unwrap();
        assert_eq!(p.nprocs, 1024);
        assert_eq!(p.its, 29);
        assert!((p.time - 362.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_metrics_win_over_span_fallback() {
        use fun3d_telemetry::{Registry, TimeDomain};
        // A merged multi-rank snapshot whose span tree would give the wrong
        // answer (summed-over-ranks time); the explicit metrics must win.
        let reg = Registry::enabled(0);
        reg.record_span("nks", TimeDomain::Measured, 9999.0, 1);
        reg.counter_at("nks", TimeDomain::Measured, "linear_iters", 777.0);
        let mut r = PerfReport::new("merged")
            .with_meta("nranks", "4")
            .with_snapshot(&reg.snapshot());
        r.push_metric("nprocs", 1024.0);
        r.push_metric("linear_its", 29.0);
        r.push_metric("time_s", 362.0);
        let p = scaling_point_from_report(&r).unwrap();
        assert_eq!(p.nprocs, 1024);
        assert_eq!(p.its, 29);
        assert!((p.time - 362.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_report_series_skips_only_the_incomplete_ones() {
        let pts = table3_points();
        let mut reports: Vec<PerfReport> = pts.iter().map(report_for).collect();
        reports.insert(2, PerfReport::new("broken"));
        let rows = efficiency_from_reports(&reports);
        assert_eq!(rows, efficiency_table(&pts));
    }

    #[test]
    fn incomplete_reports_are_skipped() {
        assert!(scaling_point_from_report(&PerfReport::new("empty")).is_none());
        assert!(efficiency_from_reports(&[PerfReport::new("empty")]).is_empty());
    }
}
