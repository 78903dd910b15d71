//! Repetition scheduling: run a registered experiment with warmup and N
//! repetitions, collect the per-rep `fun3d-perf/1` reports, and reduce each
//! metric to a robust summary.

use crate::stats::{summarize, Summary};
use fun3d_bench::{BenchArgs, Experiment, RunOutcome};
use fun3d_telemetry::report::PerfReport;

/// Environment variable holding a synthetic slowdown factor (test hook).
pub const SLOWDOWN_ENV: &str = "FUN3D_BENCH_SLOWDOWN";

/// Degrade every metric of `report` by `factor` (> 1 = worse): lower-is-
/// better metrics are multiplied, higher-is-better ones divided.  This is
/// the regression-injection hook behind [`SLOWDOWN_ENV`]; it exists so the
/// gate's failure path can be exercised deterministically in tests and CI
/// without depending on actual machine noise.
pub fn apply_slowdown(report: &mut PerfReport, factor: f64) {
    assert!(factor > 0.0, "slowdown factor must be positive");
    for (key, value) in &mut report.metrics {
        if crate::compare::higher_is_better(key) {
            *value /= factor;
        } else {
            *value *= factor;
        }
    }
}

/// All repetitions of one experiment plus the per-metric summaries.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Experiment name.
    pub name: String,
    /// One outcome (report, events, telemetry, metrics) per repetition, in
    /// order.
    pub runs: Vec<RunOutcome>,
    /// Robust summary per metric key, in first-report order.
    pub summaries: Vec<(String, Summary)>,
}

impl ExperimentRun {
    /// The middle repetition — the representative one for model comparison
    /// and the `--record` directory.
    pub fn representative(&self) -> &RunOutcome {
        &self.runs[self.runs.len() / 2]
    }
}

/// Run `exp` `warmup + args.reps` times, discard the warmup runs, and
/// summarize each metric across the kept repetitions.
///
/// If [`SLOWDOWN_ENV`] is set to a number, every kept report is degraded by
/// that factor before summarizing (see [`apply_slowdown`]).
pub fn run_experiment(exp: &dyn Experiment, args: &BenchArgs, warmup: usize) -> ExperimentRun {
    let slowdown: Option<f64> = std::env::var(SLOWDOWN_ENV)
        .ok()
        .map(|s| s.parse().expect("FUN3D_BENCH_SLOWDOWN must be a number"));
    for _ in 0..warmup {
        exp.run(args);
    }
    let mut runs = Vec::with_capacity(args.reps);
    for _ in 0..args.reps {
        let mut out = exp.run(args);
        // Tail-latency metrics from the span histograms join the scalar
        // metrics *before* any injected slowdown, so the gate's p95 columns
        // degrade (and regress) exactly like the primary timings.
        for (key, v) in out.report.tail_metrics() {
            out.report.push_metric(key, v);
        }
        // Likewise the profile-derived metrics: load imbalance per parallel
        // region and achieved GB/s per byte-counted span become gateable
        // columns (`<region>:imbalance`, `<span>:gbps`).
        for (key, v) in out.report.region_metrics() {
            out.report.push_metric(key, v);
        }
        for (key, v) in out.report.bandwidth_metrics() {
            out.report.push_metric(key, v);
        }
        if let Some(f) = slowdown {
            apply_slowdown(&mut out.report, f);
        }
        runs.push(out);
    }
    let summaries = summarize_reports(&runs);
    ExperimentRun {
        name: exp.name().to_string(),
        runs,
        summaries,
    }
}

/// Reduce per-rep reports to per-metric robust summaries.  Metric keys are
/// taken from the first report; keys missing from some repetition are
/// summarized over the reps that have them.
pub fn summarize_reports(runs: &[RunOutcome]) -> Vec<(String, Summary)> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .report
        .metrics
        .iter()
        .filter_map(|(key, _)| {
            let xs: Vec<f64> = runs.iter().filter_map(|r| r.report.metric(key)).collect();
            summarize(&xs).map(|s| (key.clone(), s))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_bench::ModelEstimate;
    use fun3d_memmodel::machine::MachineSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A deterministic fake experiment counting its invocations.
    struct Fake {
        calls: AtomicUsize,
    }

    impl Experiment for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn description(&self) -> &'static str {
            "test double"
        }
        fn default_scale(&self) -> f64 {
            1.0
        }
        fn run(&self, _args: &BenchArgs) -> RunOutcome {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            let mut r = PerfReport::new("fake");
            // Odd spread so the median is easy to predict: 10, 11, 12, ...
            r.push_metric("time_s", 10.0 + call as f64);
            r.push_metric("speedup", 2.0);
            r.into()
        }
        fn model(&self, _r: &PerfReport, m: &MachineSpec) -> Vec<ModelEstimate> {
            vec![ModelEstimate {
                metric: "time_s".into(),
                predicted: 1e9 / m.stream_bytes_per_s,
            }]
        }
    }

    #[test]
    fn warmup_runs_are_discarded() {
        let exp = Fake {
            calls: AtomicUsize::new(0),
        };
        let args = BenchArgs {
            reps: 3,
            ..BenchArgs::defaults(1.0)
        };
        let run = run_experiment(&exp, &args, 2);
        assert_eq!(exp.calls.load(Ordering::SeqCst), 5);
        assert_eq!(run.runs.len(), 3);
        // Kept reps are calls 2, 3, 4 -> times 12, 13, 14 -> median 13.
        let (key, s) = &run.summaries[0];
        assert_eq!(key, "time_s");
        assert_eq!(s.median, 13.0);
        assert_eq!(s.n, 3);
        assert_eq!(run.representative().report.name, "fake");
    }

    #[test]
    fn tail_metrics_join_the_scalar_metrics() {
        struct WithSpans;
        impl Experiment for WithSpans {
            fn name(&self) -> &'static str {
                "with_spans"
            }
            fn description(&self) -> &'static str {
                "test double with a span tree"
            }
            fn default_scale(&self) -> f64 {
                1.0
            }
            fn run(&self, _args: &BenchArgs) -> RunOutcome {
                let tel = fun3d_telemetry::Registry::enabled(0);
                for _ in 0..8 {
                    let _g = tel.span("kernel");
                }
                let mut r = PerfReport::new("with_spans").with_snapshot(&tel.snapshot());
                r.push_metric("time_s", 1.0);
                r.into()
            }
        }
        let run = run_experiment(&WithSpans, &BenchArgs::defaults(1.0), 0);
        assert!(
            run.summaries.iter().any(|(k, _)| k == "kernel:p95_s"),
            "p95 summary missing: {:?}",
            run.summaries.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
        assert!(run.representative().events.is_empty());
    }

    #[test]
    fn apply_slowdown_respects_polarity() {
        let mut r = PerfReport::new("x");
        r.push_metric("time_s", 2.0);
        r.push_metric("triad_bytes_per_s", 100.0);
        apply_slowdown(&mut r, 4.0);
        assert_eq!(r.metric("time_s"), Some(8.0));
        assert_eq!(r.metric("triad_bytes_per_s"), Some(25.0));
    }

    #[test]
    fn summarize_reports_handles_missing_keys() {
        let mut a = PerfReport::new("x");
        a.push_metric("t", 1.0);
        a.push_metric("only_first", 5.0);
        let mut b = PerfReport::new("x");
        b.push_metric("t", 3.0);
        let s = summarize_reports(&[a.into(), b.into()]);
        let t = s.iter().find(|(k, _)| k == "t").unwrap();
        assert_eq!(t.1.median, 2.0);
        let of = s.iter().find(|(k, _)| k == "only_first").unwrap();
        assert_eq!(of.1.n, 1);
        assert!(summarize_reports(&[]).is_empty());
    }
}
