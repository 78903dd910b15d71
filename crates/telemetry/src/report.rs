//! The stable `fun3d-perf/1` JSON report schema.
//!
//! Every bench regenerator can write one via `--record <dir>`; the
//! efficiency tooling reads them back to derive η_alg / η_impl columns.
//! The schema is versioned (`"schema": "fun3d-perf/1"`) and round-trips
//! exactly: floats are written in shortest round-trip form, and
//! [`PerfReport::from_json_str`] of [`PerfReport::to_json_string`] is
//! identity (checked by tests).

use crate::hist::LogHistogram;
use crate::json::Value;
use crate::{Snapshot, SpanRow, TimeDomain};

/// Schema identifier written into every report.
pub const SCHEMA: &str = "fun3d-perf/1";

/// A machine-readable performance report for one run of a regenerator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Report name, usually the regenerator binary (`table3`, `spmv`, ...).
    pub name: String,
    /// Free-form string metadata (machine, scale, git describe, ...).
    pub meta: Vec<(String, String)>,
    /// Named scalar results (times, rates, iteration counts, η values).
    pub metrics: Vec<(String, f64)>,
    /// Merged span profile for the run (may be empty).
    pub spans: Vec<SpanRow>,
}

impl PerfReport {
    /// An empty report with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Attach the merged span profile of `snap`.
    pub fn with_snapshot(mut self, snap: &Snapshot) -> Self {
        self.spans = snap.spans.clone();
        self
    }

    /// Append a string metadata entry (builder style).
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.push((key.into(), value.into()));
        self
    }

    /// Append a scalar metric.
    pub fn push_metric(&mut self, key: impl Into<String>, value: f64) {
        self.metrics.push((key.into(), value));
    }

    /// Look up a metric by name (first match).
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Look up a string metadata entry by key (first match).
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Look up a span row by full path.
    pub fn span(&self, path: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Derived tail-latency metrics: one `"{path}:p95_s"` entry per span
    /// with a non-empty latency histogram.  The harness appends these to
    /// each rep's metric list so baselines gate on p95, not just medians.
    pub fn tail_metrics(&self) -> Vec<(String, f64)> {
        self.spans
            .iter()
            .filter_map(|s| s.p95().map(|p| (format!("{}:p95_s", s.path), p)))
            .collect()
    }

    /// Derived load-imbalance metrics: one `"{label}:imbalance"` entry per
    /// parallel-region span (ingested under `par/{label}` with an
    /// `imbalance` counter).  Lower is better; 1.0 is a perfectly balanced
    /// team, matching the imbalance factor of the paper's Table 3.
    pub fn region_metrics(&self) -> Vec<(String, f64)> {
        self.spans
            .iter()
            .filter_map(|s| {
                let label = s.path.strip_prefix("par/")?;
                let imb = s.counter("imbalance")?;
                Some((format!("{label}:imbalance"), imb))
            })
            .collect()
    }

    /// Derived achieved-bandwidth metrics: one `"{path}:gbps"` entry per
    /// span carrying a `bytes` traffic counter and nonzero time — the
    /// analytic Eq. 1-style byte count divided by the measured span time,
    /// i.e. a live version of the paper's Table 2 columns.
    pub fn bandwidth_metrics(&self) -> Vec<(String, f64)> {
        self.spans
            .iter()
            .filter_map(|s| {
                let bytes = s.counter("bytes")?;
                if s.total_s <= 0.0 {
                    return None;
                }
                Some((format!("{}:gbps", s.path), bytes / s.total_s / 1e9))
            })
            .collect()
    }

    /// Build the JSON tree for this report.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("name".into(), Value::Str(self.name.clone())),
            (
                "meta".into(),
                Value::Obj(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "spans".into(),
                Value::Arr(self.spans.iter().map(span_to_json).collect()),
            ),
        ])
    }

    /// Serialize to a JSON string (compact, single line).
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse a report back from JSON text.
    pub fn from_json_str(s: &str) -> Result<Self, String> {
        let v = Value::parse(s).map_err(|e| e.to_string())?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema field")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?}, expected {SCHEMA:?}"
            ));
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing name field")?
            .to_string();
        let meta = v
            .get("meta")
            .and_then(Value::as_obj)
            .unwrap_or(&[])
            .iter()
            .map(|(k, val)| {
                val.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("meta entry {k:?} is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap_or(&[])
            .iter()
            .map(|(k, val)| {
                val.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("metric {k:?} is not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let spans = v
            .get("spans")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(span_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            name,
            meta,
            metrics,
            spans,
        })
    }

    /// Write the report to `path` as JSON.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string() + "\n")
    }

    /// Read a report from a JSON file.
    pub fn read_json(path: &str) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

fn span_to_json(row: &SpanRow) -> Value {
    let mut fields = vec![
        ("path".into(), Value::Str(row.path.clone())),
        ("domain".into(), Value::Str(row.domain.tag().into())),
        ("calls".into(), Value::Num(row.calls as f64)),
        ("total_s".into(), Value::Num(row.total_s)),
        (
            "counters".into(),
            Value::Obj(
                row.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            ),
        ),
    ];
    // Omitted when empty so pre-histogram reports stay parseable and the
    // JSON fixed-point property holds for spans without samples.
    if !row.hist.is_empty() {
        fields.push((
            "hist".into(),
            Value::Arr(
                row.hist
                    .buckets()
                    .iter()
                    .map(|&(b, c)| Value::Arr(vec![Value::Num(b as f64), Value::Num(c as f64)]))
                    .collect(),
            ),
        ));
    }
    Value::Obj(fields)
}

fn span_from_json(v: &Value) -> Result<SpanRow, String> {
    let path = v
        .get("path")
        .and_then(Value::as_str)
        .ok_or("span missing path")?
        .to_string();
    let domain = v
        .get("domain")
        .and_then(Value::as_str)
        .and_then(TimeDomain::from_tag)
        .ok_or("span missing/invalid domain")?;
    let calls = v
        .get("calls")
        .and_then(Value::as_f64)
        .ok_or("span missing calls")? as u64;
    let total_s = v
        .get("total_s")
        .and_then(Value::as_f64)
        .ok_or("span missing total_s")?;
    let counters = v
        .get("counters")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(k, val)| {
            val.as_f64()
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("counter {k:?} is not a number"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let hist = match v.get("hist").and_then(Value::as_arr) {
        // Absent (or empty) means no samples were recorded.
        None => LogHistogram::new(),
        Some(pairs) => {
            let pairs = pairs
                .iter()
                .map(|p| {
                    let p = p.as_arr().filter(|p| p.len() == 2).ok_or("bad hist pair")?;
                    let b = p[0].as_f64().ok_or("bad hist bucket")? as u32;
                    let c = p[1].as_f64().ok_or("bad hist count")? as u64;
                    Ok::<(u32, u64), String>((b, c))
                })
                .collect::<Result<Vec<_>, _>>()?;
            LogHistogram::from_buckets(&pairs)?
        }
    };
    Ok(SpanRow {
        path,
        domain,
        calls,
        total_s,
        counters,
        hist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_report() -> PerfReport {
        let reg = Registry::enabled(0);
        {
            let _s = reg.span("nks");
            let _k = reg.span("krylov");
            reg.counter("its", 17.0);
        }
        reg.record_span("sim/scatter", TimeDomain::Simulated, 0.125, 4);
        let mut r = PerfReport::new("unit-test")
            .with_meta("machine", "asci_red")
            .with_meta("scale", "0.1")
            .with_snapshot(&reg.snapshot());
        r.push_metric("time_s", 1.0 / 3.0);
        r.push_metric("eta_overall", 0.8125);
        r
    }

    #[test]
    fn round_trips_exactly() {
        let r = sample_report();
        let text = r.to_json_string();
        let back = PerfReport::from_json_str(&text).unwrap();
        assert_eq!(r, back);
        // And the JSON text itself is a fixed point.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn accessors_find_entries() {
        let r = sample_report();
        assert_eq!(r.metric("eta_overall"), Some(0.8125));
        assert!(r.metric("absent").is_none());
        assert_eq!(r.span("nks/krylov").unwrap().counter("its"), Some(17.0));
        assert_eq!(r.span("sim/scatter").unwrap().domain, TimeDomain::Simulated);
    }

    #[test]
    fn schema_is_enforced() {
        let bad = r#"{"schema":"fun3d-perf/999","name":"x","meta":{},"metrics":{},"spans":[]}"#;
        assert!(PerfReport::from_json_str(bad).is_err());
        assert!(PerfReport::from_json_str("{}").is_err());
        assert!(PerfReport::from_json_str("not json").is_err());
    }

    #[test]
    fn hist_survives_round_trip_and_feeds_tail_metrics() {
        let r = sample_report();
        // Live spans recorded real durations, so their histograms are
        // non-empty and p95 tail metrics exist for them.
        let nks = r.span("nks").unwrap();
        assert!(!nks.hist.is_empty());
        let tails = r.tail_metrics();
        assert!(tails.iter().any(|(k, _)| k == "nks:p95_s"));
        assert!(tails.iter().any(|(k, _)| k == "sim/scatter:p95_s"));
        assert!(tails.iter().all(|(_, v)| *v > 0.0));
        let back = PerfReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back.span("nks").unwrap().hist, nks.hist);
        assert_eq!(back.tail_metrics(), tails);
        // Pre-histogram reports (no "hist" key) still parse, with empty hists.
        let legacy = r#"{"schema":"fun3d-perf/1","name":"x","meta":{},"metrics":{},"spans":[{"path":"a","domain":"measured","calls":1,"total_s":0.5,"counters":{}}]}"#;
        let old = PerfReport::from_json_str(legacy).unwrap();
        assert!(old.span("a").unwrap().hist.is_empty());
        assert!(old.tail_metrics().is_empty());
    }

    #[test]
    fn region_and_bandwidth_metrics_derive_from_spans() {
        let reg = Registry::enabled(0);
        // A parallel region ingested the way the bench drains the profiler:
        // wall time on the span, derived stats as counters.
        reg.record_span("par/spmv_csr", TimeDomain::Measured, 0.5, 7);
        reg.counter_at("par/spmv_csr", TimeDomain::Measured, "imbalance", 1.25);
        reg.counter_at("par/spmv_csr", TimeDomain::Measured, "busy_max_s", 0.45);
        // A timed kernel span with an analytic byte-traffic counter.
        reg.record_span("spmv", TimeDomain::Measured, 2.0, 10);
        reg.counter_at("spmv", TimeDomain::Measured, "bytes", 30e9);
        // A span with bytes but zero time must not divide by zero.
        reg.counter_at("empty", TimeDomain::Measured, "bytes", 1e9);
        let r = PerfReport::new("t").with_snapshot(&reg.snapshot());

        let regions = r.region_metrics();
        assert_eq!(regions, vec![("spmv_csr:imbalance".to_string(), 1.25)]);

        let bw = r.bandwidth_metrics();
        assert_eq!(bw.len(), 1, "zero-time span must be skipped: {bw:?}");
        assert_eq!(bw[0].0, "spmv:gbps");
        assert!((bw[0].1 - 15.0).abs() < 1e-12);

        // Both survive a JSON round trip (they are pure span derivations).
        let back = PerfReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back.region_metrics(), regions);
        assert_eq!(back.bandwidth_metrics(), bw);

        // Reports without profile spans (pre-profile fixtures) yield none.
        let plain = sample_report();
        assert!(plain.region_metrics().is_empty());
        assert!(plain.bandwidth_metrics().is_empty());
    }

    #[test]
    fn file_round_trip() {
        let r = sample_report();
        let dir = std::env::temp_dir();
        let path = dir.join("fun3d_perf_report_test.json");
        let path = path.to_str().unwrap();
        r.write_json(path).unwrap();
        let back = PerfReport::read_json(path).unwrap();
        std::fs::remove_file(path).ok();
        assert_eq!(r, back);
    }
}
