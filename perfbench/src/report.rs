//! The benchmark's result line: correctness counts plus named metrics.

use crate::ledger::Ledger;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What one benchmark run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations (solves, or requests for `serve-2w`) attempted.
    pub attempted: usize,
    /// Operations that failed a correctness check.
    pub failed: usize,
    /// Checks on the run as a whole that failed (e.g. a ledger that does
    /// not add up), with a reason each.
    pub defects: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// (mesh seed, pseudo-timesteps, Krylov iterations) of each operation,
    /// in order.
    pub iterations: Vec<(u64, usize, usize)>,
    /// The ledger behind a traced run's per-layer metrics.
    pub ledger: Option<Ledger>,
}

impl Report {
    /// Append a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Look up a metric value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every operation and whole-run check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.defects.is_empty() && self.attempted > 0
    }

    /// Share of attempted operations that failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The one-line JSON result.  Non-finite values (which JSON cannot
    /// carry) are written as `null` and make the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push("setup_s", 0.25, "s");
        r.push("peak_rss_mib", 12.0, "MiB");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mib\": {\"value\": 12.0, \"unit\": \"MiB\"}}}"
        );
    }

    #[test]
    fn failures_and_non_finite_values_are_incorrect() {
        let mut r = Report {
            attempted: 2,
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
        assert_eq!(r.failed_frac(), 0.5);
        r.failed = 0;
        r.push("x", f64::NAN, "s");
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
