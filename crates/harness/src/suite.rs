//! Experiment suites: named sets of registered experiments with per-entry
//! scale/steps/repetition overrides.
//!
//! * `smoke` — tiny sizes, 1 rep, the cheap experiments only; exercises the
//!   registry -> stats -> baseline pipeline in seconds (CI).
//! * `quick` — the experiments that finish in seconds at reduced scale,
//!   with enough reps for meaningful MADs; the developer default.
//! * `full` — every registered experiment at its own default scale.
//! * any registered experiment name — that one experiment alone.

use fun3d_bench::runners;

/// One scheduled experiment inside a suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteEntry {
    /// Registry name.
    pub name: &'static str,
    /// Mesh scale (fraction of the paper's vertex count).
    pub scale: f64,
    /// Measured pseudo-timesteps where applicable.
    pub steps: usize,
    /// Timed repetitions.
    pub reps: usize,
    /// Discarded warmup runs before the timed ones.
    pub warmup: usize,
}

impl SuiteEntry {
    fn new(name: &'static str, scale: f64, steps: usize, reps: usize, warmup: usize) -> Self {
        Self {
            name,
            scale,
            steps,
            reps,
            warmup,
        }
    }
}

/// The names every `suite()` caller can rely on existing.
pub const NAMED_SUITES: [&str; 3] = ["smoke", "quick", "full"];

/// Resolve a suite name (or single experiment name) to its schedule.
/// Returns `None` for unknown names.
pub fn suite(name: &str) -> Option<Vec<SuiteEntry>> {
    match name {
        "smoke" => Some(vec![
            SuiteEntry::new("stream", 0.05, 1, 1, 0),
            SuiteEntry::new("spmv", 0.1, 1, 1, 0),
            SuiteEntry::new("table1", 0.05, 2, 1, 0),
            SuiteEntry::new("figure1", 1.0, 1, 1, 0),
            SuiteEntry::new("miss_bounds", 0.1, 1, 1, 0),
        ]),
        "quick" => Some(vec![
            SuiteEntry::new("stream", 0.5, 1, 3, 1),
            SuiteEntry::new("spmv", 0.25, 1, 3, 1),
            SuiteEntry::new("table1", 0.1, 3, 3, 0),
            SuiteEntry::new("figure1", 1.0, 1, 3, 0),
            SuiteEntry::new("figure2", 1.0, 1, 3, 0),
            SuiteEntry::new("figure3", 0.5, 1, 1, 0),
            SuiteEntry::new("miss_bounds", 0.5, 1, 1, 0),
        ]),
        "full" => Some(
            runners::all()
                .iter()
                .map(|e| SuiteEntry {
                    name: e.name(),
                    scale: e.default_scale(),
                    steps: 3,
                    reps: 3,
                    warmup: 0,
                })
                .collect(),
        ),
        single => runners::find(single).map(|e| {
            vec![SuiteEntry {
                name: e.name(),
                scale: e.default_scale(),
                steps: 3,
                reps: 3,
                warmup: 1,
            }]
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_suites_resolve_to_registered_experiments() {
        for name in NAMED_SUITES {
            let entries = suite(name).unwrap();
            assert!(!entries.is_empty());
            for e in &entries {
                assert!(
                    runners::find(e.name).is_some(),
                    "suite {name}: unknown experiment {}",
                    e.name
                );
                assert!(e.reps >= 1);
                assert!(e.scale > 0.0 && e.scale <= 4.0);
            }
        }
    }

    #[test]
    fn full_covers_the_whole_registry() {
        assert_eq!(suite("full").unwrap().len(), runners::all().len());
    }

    #[test]
    fn single_experiment_names_form_singleton_suites() {
        let s = suite("spmv").unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "spmv");
        assert!(suite("nonesuch").is_none());
    }

    #[test]
    fn smoke_stays_cheap() {
        for e in suite("smoke").unwrap() {
            assert_eq!(e.reps, 1, "{}: smoke must be single-rep", e.name);
            assert!(e.scale <= 1.0);
        }
    }
}
