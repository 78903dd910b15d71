//! Suite orchestration: registry -> calibrated machine -> runs -> robust
//! stats -> baseline comparison -> verdicts.  The `fun3d-bench` driver is a
//! thin CLI over this module.

use crate::baseline::{Baseline, ExperimentBaseline};
use crate::calibrate::{calibrate_host, Calibration};
use crate::compare::{compare_experiment, overall, MetricComparison, Tolerance, Verdict};
use crate::run::{run_experiment, ExperimentRun};
use crate::suite::{suite, SuiteEntry};
use fun3d_bench::{runners, BenchArgs};
use fun3d_telemetry::json::Value;

/// What to run and how to judge it.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Suite name (or single experiment name).
    pub suite: String,
    /// Override every entry's repetition count.
    pub reps: Option<usize>,
    /// Override every entry's mesh scale.
    pub scale: Option<f64>,
    /// Override every entry's measured-step count (`--steps`); the `serve`
    /// experiment reads it as the number of swept arrival rates.
    pub steps: Option<usize>,
    /// Override the thread-team size for every entry (`--threads`); `None`
    /// keeps each run's `BenchArgs` default (`FUN3D_THREADS` or 1).
    pub threads: Option<usize>,
    /// Force per-thread region profiling on or off for every entry
    /// (`--profile`); `None` keeps each run's `BenchArgs` default (off).
    pub profile: Option<bool>,
    /// Override the simulated rank-count cap for every entry (`--ranks`);
    /// `None` keeps each runner's default sweep.
    pub ranks: Option<usize>,
    /// Force per-rank tracing on or off for every entry (`--trace-ranks`);
    /// `None` keeps each run's `BenchArgs` default (off).
    pub trace_ranks: Option<bool>,
    /// Force live serving telemetry on or off for every entry
    /// (`--metrics`); `None` keeps each run's `BenchArgs` default (off).
    /// Only runners that serve requests react.
    pub metrics: Option<bool>,
    /// Comparison tolerances.
    pub tol: Tolerance,
    /// Show per-experiment tables and commentary while running.
    pub verbose: bool,
    /// STREAM array length for calibration (doubles per array).
    pub calibrate_n: usize,
    /// When set, write each experiment's representative report to
    /// `<dir>/<name>.json` and its event stream to
    /// `<dir>/<name>.events.jsonl` (the inputs `fun3d-report` inspects).
    pub events_dir: Option<String>,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            suite: "quick".into(),
            reps: None,
            scale: None,
            steps: None,
            threads: None,
            profile: None,
            ranks: None,
            trace_ranks: None,
            metrics: None,
            tol: Tolerance::default(),
            verbose: false,
            calibrate_n: 2 * 1024 * 1024,
            events_dir: None,
        }
    }
}

/// A model-vs-measured line: the machine model's prediction for one metric
/// alongside the measured median.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelLine {
    /// Metric key.
    pub metric: String,
    /// Model prediction (calibrated host machine).
    pub predicted: f64,
    /// Measured median, when the metric exists in the run.
    pub measured: Option<f64>,
}

impl ModelLine {
    /// measured / predicted, when both sides exist and predicted != 0.
    pub fn ratio(&self) -> Option<f64> {
        self.measured
            .filter(|_| self.predicted != 0.0)
            .map(|m| m / self.predicted)
    }
}

/// One experiment's full outcome.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The schedule entry that produced it.
    pub entry: SuiteEntry,
    /// Reports and per-metric summaries.
    pub run: ExperimentRun,
    /// Per-metric baseline comparisons (empty baseline -> all unknown).
    pub comparisons: Vec<MetricComparison>,
    /// Experiment-level verdict.
    pub verdict: Verdict,
    /// Model-vs-measured lines from [`fun3d_bench::Experiment::model`].
    pub models: Vec<ModelLine>,
}

/// A whole gated suite run.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// Suite name.
    pub suite: String,
    /// The host calibration used for model columns.
    pub calibration: Calibration,
    /// Per-experiment outcomes, in schedule order.
    pub outcomes: Vec<ExperimentOutcome>,
}

impl SuiteOutcome {
    /// The run-level verdict: any regression dominates.
    pub fn verdict(&self) -> Verdict {
        if self
            .outcomes
            .iter()
            .any(|o| o.verdict == Verdict::Regressed)
        {
            Verdict::Regressed
        } else if self.outcomes.iter().any(|o| o.verdict == Verdict::Improved) {
            Verdict::Improved
        } else if self
            .outcomes
            .iter()
            .all(|o| o.verdict == Verdict::UnknownMetric)
        {
            Verdict::UnknownMetric
        } else {
            Verdict::Pass
        }
    }

    /// Convert this run's summaries into a saveable baseline.
    pub fn to_baseline(&self) -> Baseline {
        Baseline {
            meta: vec![
                ("suite".into(), self.suite.clone()),
                (
                    "stream_triad_bytes_per_s".into(),
                    format!("{:.0}", self.calibration.stream.triad),
                ),
            ],
            experiments: self
                .outcomes
                .iter()
                .map(|o| ExperimentBaseline {
                    name: o.run.name.clone(),
                    metrics: o
                        .run
                        .summaries
                        .iter()
                        .map(|(k, s)| (k.clone(), (*s).into()))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Machine-readable summary of the gated run.
    pub fn to_json(&self) -> Value {
        let outcomes = self
            .outcomes
            .iter()
            .map(|o| {
                let metrics = o
                    .comparisons
                    .iter()
                    .map(|c| {
                        let mut fields = vec![
                            ("median".into(), Value::Num(c.current.median)),
                            ("mad".into(), Value::Num(c.current.mad)),
                            ("n".into(), Value::Num(c.current.n as f64)),
                            ("verdict".into(), Value::Str(c.verdict.label().into())),
                        ];
                        if let Some(b) = c.baseline {
                            fields.push(("baseline_median".into(), Value::Num(b.median)));
                            fields.push(("delta".into(), Value::Num(c.delta)));
                            fields.push(("threshold".into(), Value::Num(c.threshold)));
                        }
                        (c.key.clone(), Value::Obj(fields))
                    })
                    .collect();
                let models = o
                    .models
                    .iter()
                    .map(|m| {
                        Value::Obj(vec![
                            ("metric".into(), Value::Str(m.metric.clone())),
                            ("predicted".into(), Value::Num(m.predicted)),
                            (
                                "measured".into(),
                                m.measured.map_or(Value::Null, Value::Num),
                            ),
                        ])
                    })
                    .collect();
                Value::Obj(vec![
                    ("name".into(), Value::Str(o.run.name.clone())),
                    ("verdict".into(), Value::Str(o.verdict.label().into())),
                    ("metrics".into(), Value::Obj(metrics)),
                    ("model_vs_measured".into(), Value::Arr(models)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str("fun3d-gate/1".into())),
            ("suite".into(), Value::Str(self.suite.clone())),
            (
                "stream_triad_bytes_per_s".into(),
                Value::Num(self.calibration.stream.triad),
            ),
            ("verdict".into(), Value::Str(self.verdict().label().into())),
            ("experiments".into(), Value::Arr(outcomes)),
        ])
    }

    /// Markdown report: verdict table plus model-vs-measured sections.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# fun3d-bench: suite `{}` — {}\n\n",
            self.suite,
            self.verdict().label()
        ));
        out.push_str(&format!(
            "Calibrated host STREAM triad: {:.0} MB/s\n\n",
            self.calibration.stream.triad / 1e6
        ));
        out.push_str("| experiment | verdict | regressed | improved | unknown | metrics |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for o in &self.outcomes {
            let count = |v: Verdict| o.comparisons.iter().filter(|c| c.verdict == v).count();
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                o.run.name,
                o.verdict.label(),
                count(Verdict::Regressed),
                count(Verdict::Improved),
                count(Verdict::UnknownMetric),
                o.comparisons.len()
            ));
        }
        for o in &self.outcomes {
            let flagged: Vec<&MetricComparison> = o
                .comparisons
                .iter()
                .filter(|c| matches!(c.verdict, Verdict::Regressed | Verdict::Improved))
                .collect();
            if !flagged.is_empty() {
                out.push_str(&format!("\n## {}: flagged metrics\n\n", o.run.name));
                out.push_str("| metric | baseline | current | delta | threshold | verdict |\n");
                out.push_str("|---|---|---|---|---|---|\n");
                for c in flagged {
                    out.push_str(&format!(
                        "| {} | {:.4e} | {:.4e} | {:+.4e} | {:.4e} | {} |\n",
                        c.key,
                        c.baseline.map(|b| b.median).unwrap_or(f64::NAN),
                        c.current.median,
                        c.delta,
                        c.threshold,
                        c.verdict.label()
                    ));
                }
            }
            if !o.models.is_empty() {
                out.push_str(&format!("\n## {}: model vs measured\n\n", o.run.name));
                out.push_str("| metric | model | measured | measured/model |\n");
                out.push_str("|---|---|---|---|\n");
                for m in &o.models {
                    out.push_str(&format!(
                        "| {} | {:.4e} | {} | {} |\n",
                        m.metric,
                        m.predicted,
                        m.measured.map_or("-".to_string(), |x| format!("{x:.4e}")),
                        m.ratio().map_or("-".to_string(), |r| format!("{r:.2}")),
                    ));
                }
            }
        }
        out
    }
}

/// Run a suite against an optional baseline.
///
/// Returns `Err` only for unknown suite/experiment names; individual
/// experiment panics are not caught.
pub fn run_suite(cfg: &GateConfig, baseline: Option<&Baseline>) -> Result<SuiteOutcome, String> {
    let entries = suite(&cfg.suite).ok_or_else(|| {
        format!(
            "unknown suite or experiment {:?} (named suites: smoke, quick, full; see `fun3d-bench list`)",
            cfg.suite
        )
    })?;
    let calibration = calibrate_host(cfg.calibrate_n, 2);
    let mut outcomes = Vec::new();
    for entry in entries {
        let exp = runners::find(entry.name).expect("suites only reference registered names");
        let defaults = BenchArgs::defaults(entry.scale);
        let args = BenchArgs {
            scale: cfg.scale.unwrap_or(entry.scale),
            steps: cfg.steps.unwrap_or(entry.steps),
            reps: cfg.reps.unwrap_or(entry.reps),
            quiet: !cfg.verbose,
            threads: cfg.threads.unwrap_or(defaults.threads),
            profile: cfg.profile.unwrap_or(defaults.profile),
            ranks: cfg.ranks.unwrap_or(defaults.ranks),
            trace_ranks: cfg.trace_ranks.unwrap_or(defaults.trace_ranks),
            metrics: cfg.metrics.unwrap_or(defaults.metrics),
            ..defaults
        };
        let run = run_experiment(exp.as_ref(), &args, entry.warmup);
        if let Some(dir) = &cfg.events_dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating events dir {dir} failed: {e}"));
            let json_path = format!("{dir}/{}.json", entry.name);
            run.representative()
                .write_json(&json_path)
                .unwrap_or_else(|e| panic!("writing {json_path} failed: {e}"));
            let ev_path = format!("{dir}/{}.events.jsonl", entry.name);
            run.representative_events()
                .write_jsonl(&ev_path)
                .unwrap_or_else(|e| panic!("writing {ev_path} failed: {e}"));
            let metrics = run.representative_metrics();
            if !metrics.is_empty() {
                let m_path = format!("{dir}/{}.metrics.jsonl", entry.name);
                metrics
                    .write_jsonl(&m_path)
                    .unwrap_or_else(|e| panic!("writing {m_path} failed: {e}"));
            }
        }
        let comparisons = compare_experiment(
            &run.summaries,
            baseline.and_then(|b| b.experiment(entry.name)),
            &cfg.tol,
        );
        let verdict = if baseline.is_some() {
            overall(&comparisons)
        } else {
            // No baseline: nothing to gate against.
            Verdict::UnknownMetric
        };
        let models = exp
            .model(run.representative(), &calibration.machine)
            .into_iter()
            .map(|e| ModelLine {
                measured: run
                    .summaries
                    .iter()
                    .find(|(k, _)| *k == e.metric)
                    .map(|(_, s)| s.median),
                metric: e.metric,
                predicted: e.predicted,
            })
            .collect();
        outcomes.push(ExperimentOutcome {
            entry,
            run,
            comparisons,
            verdict,
            models,
        });
    }
    Ok(SuiteOutcome {
        suite: cfg.suite.clone(),
        calibration,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_suite_is_an_error() {
        let cfg = GateConfig {
            suite: "nonesuch".into(),
            ..Default::default()
        };
        assert!(run_suite(&cfg, None).is_err());
    }
}
