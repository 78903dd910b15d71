//! A run's record: one directory whose file names are fixed here and
//! shared by the writers (every regenerator binary through
//! [`crate::run_bin`], and `fun3d-bench run --record`) and the reader
//! (`fun3d-report`).
//!
//! | file | schema | written when |
//! |---|---|---|
//! | [`REPORT`] | `fun3d-perf/1` | always |
//! | [`EVENTS`] | `fun3d-events/1` | always; header only when the run emitted no events |
//! | [`TRACE`] | chrome trace | the run kept telemetry snapshots |
//! | [`METRICS`], [`PROMETHEUS`] | `fun3d-metrics/1`, Prometheus text | the run collected series |
//! | [`BLACKBOX`] | `fun3d-blackbox/1` | the armed flight recorder dumped |
//!
//! There is no manifest: each file carries its own schema, and the
//! report's `meta` holds the run's configuration (scale, steps, nthreads).

use crate::RunOutcome;
use std::io;

/// The run's `fun3d-perf/1` report.
pub const REPORT: &str = "report.json";
/// The run's `fun3d-events/1` stream.  Written even when empty, so a
/// reader can tell "no events" from "no file".
pub const EVENTS: &str = "events.jsonl";
/// Chrome trace of the run's telemetry snapshots.
pub const TRACE: &str = "trace.json";
/// The run's `fun3d-metrics/1` time series.
pub const METRICS: &str = "metrics.jsonl";
/// Prometheus text exposition of the same series.
pub const PROMETHEUS: &str = "metrics.prom";
/// The flight recorder's `fun3d-blackbox/1` dump (panic or anomaly).
pub const BLACKBOX: &str = "blackbox.jsonl";

/// The path of the record file `name` inside the record directory `dir`.
pub fn path(dir: &str, name: &str) -> String {
    std::path::Path::new(dir).join(name).display().to_string()
}

/// Begin a record in `dir`: create the directory and remove every record
/// file from it.  Called before the run starts (and before the flight
/// recorder is armed), so a file left by an earlier run can never be
/// loaded with the new report.
pub fn start(dir: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for name in [REPORT, EVENTS, TRACE, METRICS, PROMETHEUS, BLACKBOX] {
        match std::fs::remove_file(path(dir, name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    Ok(())
}

/// Write `outcome` into the record directory `dir`, begun with [`start`].
pub fn write(dir: &str, outcome: &RunOutcome) -> io::Result<()> {
    outcome.report.write_json(&path(dir, REPORT))?;
    outcome.events.write_jsonl(&path(dir, EVENTS))?;
    if !outcome.telemetry.is_empty() {
        let trace = fun3d_telemetry::chrome_trace(&outcome.telemetry);
        std::fs::write(path(dir, TRACE), trace)?;
    }
    if !outcome.metrics.is_empty() {
        outcome.metrics.write_jsonl(&path(dir, METRICS))?;
        std::fs::write(path(dir, PROMETHEUS), outcome.metrics.prometheus("fun3d"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_telemetry::report::PerfReport;

    /// A traced run, then an untraced one into the same directory: the
    /// second record keeps no trace or dump from the first, and still
    /// holds a (header-only) event stream.
    #[test]
    fn a_rerun_leaves_only_its_own_files() {
        let dir = std::env::temp_dir().join(format!("fun3d_record_{}", std::process::id()));
        let dir = dir.display().to_string();
        let exists = |name| std::path::Path::new(&path(&dir, name)).exists();
        let tel = fun3d_telemetry::Registry::enabled(0);
        drop(tel.span("nks"));
        let traced = RunOutcome {
            telemetry: vec![tel.snapshot()],
            ..RunOutcome::from(PerfReport::new("unit"))
        };
        start(&dir).unwrap();
        write(&dir, &traced).unwrap();
        std::fs::write(path(&dir, BLACKBOX), "stale").unwrap();
        assert!(exists(TRACE));
        start(&dir).unwrap();
        write(&dir, &PerfReport::new("unit").into()).unwrap();
        assert!(exists(REPORT));
        assert!(!exists(TRACE) && !exists(BLACKBOX));
        assert!(!exists(METRICS) && !exists(PROMETHEUS));
        let events = std::fs::read_to_string(path(&dir, EVENTS)).unwrap();
        assert_eq!(events.trim(), r#"{"schema":"fun3d-events/1"}"#);
        std::fs::remove_dir_all(&dir).ok();
    }
}
