//! `fun3d-events/1`: a structured, append-only event stream.
//!
//! Span aggregates (the `fun3d-perf/1` report) answer "how much time went
//! where"; this module answers "what happened, step by step".  The paper's
//! central artifacts are per-iteration series — Figure 5 plots residual norm
//! and CFL against pseudo-timestep, Table 3 needs per-phase times — so the
//! solver, the Krylov loop, the scatter layer, and the driver each emit
//! typed records into an [`EventSink`], and the resulting [`EventStream`]
//! serializes to a stable JSONL schema (`fun3d-events/1`) that
//! `fun3d-report` renders back into convergence tables.
//!
//! The sink mirrors [`crate::Registry`]'s shape: a `const`-constructible
//! disabled form whose `emit` is one branch, so hot loops keep their
//! callsites at near-zero cost when event capture is off.

use crate::json::Value;
use std::sync::{Arc, Mutex};

/// Schema identifier written as the JSONL header line.
pub const SCHEMA: &str = "fun3d-events/1";

/// One typed event in a run's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum EventRecord {
    /// Identifies the run (or sub-run) the following events belong to.
    RunMeta {
        /// Run label, e.g. the experiment or case name.
        name: String,
        /// Free-form string metadata (mesh size, rank count, ...).
        meta: Vec<(String, String)>,
    },
    /// One pseudo-timestep of the ΨNKS outer loop (one Figure 5 row).
    NewtonStep {
        /// Pseudo-timestep index, starting at 0.
        step: u64,
        /// Nonlinear residual norm after the step.
        residual_norm: f64,
        /// CFL number used for the step (SER continuation).
        cfl: f64,
        /// Linear iterations the step's GMRES solve used.
        gmres_iters: u64,
        /// Linear forcing tolerance (Eisenstat–Walker η) for the step.
        eta: f64,
        /// Seconds in residual/function evaluation.
        t_residual: f64,
        /// Seconds in Jacobian formation.
        t_jacobian: f64,
        /// Seconds in preconditioner factorization.
        t_precond: f64,
        /// Seconds in the Krylov solve.
        t_krylov: f64,
    },
    /// One inner Krylov iteration (GMRES residual-estimate trajectory).
    KrylovIter {
        /// Enclosing pseudo-timestep index.
        step: u64,
        /// Cumulative Krylov iteration within the solve (restarts included).
        iter: u64,
        /// Preconditioned residual-norm estimate after the iteration.
        residual_norm: f64,
    },
    /// One ghost-exchange scatter on a rank.
    Scatter {
        /// Bytes moved (sends plus received ghosts).
        bytes: u64,
        /// Neighbor ranks exchanged with.
        neighbors: u64,
        /// Measured seconds for the exchange.
        t: f64,
    },
    /// A solver state checkpoint written to disk.
    Checkpoint {
        /// Pseudo-timestep the checkpoint captures.
        step: u64,
        /// File path it was written to.
        path: String,
    },
    /// One served request's end-to-end trace: where its latency went, from
    /// admission to response.  The segments partition the latency exactly:
    /// `t_queue_s + t_batch_s + t_solve_s + t_respond_s = latency_s` (up to
    /// float rounding), so a stream of these reconstructs the live serving
    /// timeline request by request.
    RequestTrace {
        /// Request id — the trace id propagated queue → batch → worker.
        id: u64,
        /// Worker index that served the request (its trace lane).
        worker: u64,
        /// Size of the same-family batch the request rode in.
        batch_size: u64,
        /// Whether the family state came from the cache.
        cache_hit: bool,
        /// Seconds from admission to batch pickup (queue wait).
        t_queue_s: f64,
        /// Seconds from batch pickup to this solve's start: shared state
        /// acquisition plus earlier same-batch solves (batch assembly).
        t_batch_s: f64,
        /// Seconds acquiring the family state, attributed to the batch's
        /// first request (0 for the rest).
        t_setup_s: f64,
        /// Seconds in the ΨNKS solve.
        t_solve_s: f64,
        /// Seconds fingerprinting and delivering the response.
        t_respond_s: f64,
        /// End-to-end seconds from admission to response.
        latency_s: f64,
    },
    /// A solver health anomaly detected in-process by the health monitor:
    /// the step where the solve went wrong and why it was aborted.
    Anomaly {
        /// Stable anomaly class tag (`non_finite_residual`, `divergence`,
        /// `stagnation`, `cfl_breakdown`, `zero_pivot`).
        kind: String,
        /// Pseudo-timestep the anomaly was detected at.
        step: u64,
        /// Residual norm at detection.  May be NaN (serialized as JSON
        /// `null` and parsed back to NaN).
        residual_norm: f64,
        /// Human-readable evidence (window sizes, thresholds crossed).
        detail: String,
    },
    /// Aggregated fun3d-profile timings for one parallel region at one team
    /// size — the shared-memory imbalance accounting of Table 3.
    ParRegion {
        /// Stable region label (e.g. `spmv_csr`, `residual_flux`).
        label: String,
        /// Thread-team size the region ran with.
        nthreads: u64,
        /// Fork/join invocations aggregated into this record.
        invocations: u64,
        /// Total fork-to-join wall seconds.
        wall_s: f64,
        /// Busiest thread's total seconds.
        busy_max_s: f64,
        /// Mean busy seconds over all team slots.
        busy_mean_s: f64,
        /// Idle team-seconds: `nthreads * wall - sum(busy)`.
        join_wait_s: f64,
        /// Load imbalance factor `busy_max / busy_mean` (1.0 = balanced).
        imbalance: f64,
    },
}

/// A cheaply-cloneable handle events are emitted into.
///
/// Mirrors [`crate::Registry`]: [`EventSink::disabled`] is `const` and makes
/// [`EventSink::emit`] a single `Option` check, so instrumented hot paths
/// cost nothing when capture is off.
#[derive(Debug, Clone, Default)]
pub struct EventSink {
    inner: Option<Arc<Mutex<Vec<EventRecord>>>>,
}

impl EventSink {
    /// An enabled sink that records every emitted event.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// A no-op sink: `emit` costs one branch.
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Append one event (no-op on a disabled sink).  An armed flight
    /// recorder captures the event even through a disabled sink, so a
    /// production run with event capture off still leaves its last
    /// iterations in the black box.
    pub fn emit(&self, ev: EventRecord) {
        if crate::blackbox::is_armed() {
            let v = record_to_json(&ev);
            let tag = v.get("ev").and_then(Value::as_str).unwrap_or("?");
            crate::blackbox::event(tag, v.render());
        }
        if let Some(arc) = &self.inner {
            arc.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
        }
    }

    /// Take every recorded event out of the sink, leaving it empty (and
    /// still enabled).  A disabled sink drains to nothing.
    pub fn drain(&self) -> Vec<EventRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(arc) => std::mem::take(&mut *arc.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }
}

/// An ordered sequence of events, the unit of serialization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventStream {
    /// Events in emission order.
    pub records: Vec<EventRecord>,
}

impl EventStream {
    /// A stream over the given records.
    pub fn new(records: Vec<EventRecord>) -> Self {
        Self { records }
    }

    /// Whether the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `NewtonStep` records, in order.
    pub fn newton_steps(&self) -> Vec<&EventRecord> {
        self.records
            .iter()
            .filter(|r| matches!(r, EventRecord::NewtonStep { .. }))
            .collect()
    }

    /// Serialize as `fun3d-events/1` JSONL: a schema header line followed by
    /// one compact JSON object per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&Value::Obj(vec![("schema".into(), Value::Str(SCHEMA.into()))]).render());
        out.push('\n');
        for r in &self.records {
            out.push_str(&record_to_json(r).render());
            out.push('\n');
        }
        out
    }

    /// Parse `fun3d-events/1` JSONL text (inverse of [`EventStream::to_jsonl`]).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty event stream")?;
        let hv = Value::parse(header).map_err(|e| format!("bad header: {e}"))?;
        let schema = hv
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("header missing schema field")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?}, expected {SCHEMA:?}"
            ));
        }
        let mut records = Vec::new();
        for (i, line) in lines.enumerate() {
            let v = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
            records.push(record_from_json(&v).map_err(|e| format!("line {}: {e}", i + 2))?);
        }
        Ok(Self { records })
    }

    /// Write the stream to `path` as JSONL.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Read a stream from a JSONL file.
    pub fn read_jsonl(path: &str) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Integer fields ride in JSON numbers; everything emitted here is far
/// below 2^53, so the f64 round trip is exact.
fn num_u64(x: u64) -> Value {
    Value::Num(x as f64)
}

fn record_to_json(r: &EventRecord) -> Value {
    match r {
        EventRecord::RunMeta { name, meta } => Value::Obj(vec![
            ("ev".into(), Value::Str("run_meta".into())),
            ("name".into(), Value::Str(name.clone())),
            (
                "meta".into(),
                Value::Obj(
                    meta.iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
        ]),
        EventRecord::NewtonStep {
            step,
            residual_norm,
            cfl,
            gmres_iters,
            eta,
            t_residual,
            t_jacobian,
            t_precond,
            t_krylov,
        } => Value::Obj(vec![
            ("ev".into(), Value::Str("newton_step".into())),
            ("step".into(), num_u64(*step)),
            ("residual_norm".into(), Value::Num(*residual_norm)),
            ("cfl".into(), Value::Num(*cfl)),
            ("gmres_iters".into(), num_u64(*gmres_iters)),
            ("eta".into(), Value::Num(*eta)),
            ("t_residual".into(), Value::Num(*t_residual)),
            ("t_jacobian".into(), Value::Num(*t_jacobian)),
            ("t_precond".into(), Value::Num(*t_precond)),
            ("t_krylov".into(), Value::Num(*t_krylov)),
        ]),
        EventRecord::KrylovIter {
            step,
            iter,
            residual_norm,
        } => Value::Obj(vec![
            ("ev".into(), Value::Str("krylov_iter".into())),
            ("step".into(), num_u64(*step)),
            ("iter".into(), num_u64(*iter)),
            ("residual_norm".into(), Value::Num(*residual_norm)),
        ]),
        EventRecord::Scatter {
            bytes,
            neighbors,
            t,
        } => Value::Obj(vec![
            ("ev".into(), Value::Str("scatter".into())),
            ("bytes".into(), num_u64(*bytes)),
            ("neighbors".into(), num_u64(*neighbors)),
            ("t".into(), Value::Num(*t)),
        ]),
        EventRecord::Checkpoint { step, path } => Value::Obj(vec![
            ("ev".into(), Value::Str("checkpoint".into())),
            ("step".into(), num_u64(*step)),
            ("path".into(), Value::Str(path.clone())),
        ]),
        EventRecord::RequestTrace {
            id,
            worker,
            batch_size,
            cache_hit,
            t_queue_s,
            t_batch_s,
            t_setup_s,
            t_solve_s,
            t_respond_s,
            latency_s,
        } => Value::Obj(vec![
            ("ev".into(), Value::Str("request_trace".into())),
            ("id".into(), num_u64(*id)),
            ("worker".into(), num_u64(*worker)),
            ("batch_size".into(), num_u64(*batch_size)),
            ("cache_hit".into(), Value::Bool(*cache_hit)),
            ("t_queue_s".into(), Value::Num(*t_queue_s)),
            ("t_batch_s".into(), Value::Num(*t_batch_s)),
            ("t_setup_s".into(), Value::Num(*t_setup_s)),
            ("t_solve_s".into(), Value::Num(*t_solve_s)),
            ("t_respond_s".into(), Value::Num(*t_respond_s)),
            ("latency_s".into(), Value::Num(*latency_s)),
        ]),
        EventRecord::Anomaly {
            kind,
            step,
            residual_norm,
            detail,
        } => Value::Obj(vec![
            ("ev".into(), Value::Str("anomaly".into())),
            ("kind".into(), Value::Str(kind.clone())),
            ("step".into(), num_u64(*step)),
            ("residual_norm".into(), Value::Num(*residual_norm)),
            ("detail".into(), Value::Str(detail.clone())),
        ]),
        EventRecord::ParRegion {
            label,
            nthreads,
            invocations,
            wall_s,
            busy_max_s,
            busy_mean_s,
            join_wait_s,
            imbalance,
        } => Value::Obj(vec![
            ("ev".into(), Value::Str("par_region".into())),
            ("label".into(), Value::Str(label.clone())),
            ("nthreads".into(), num_u64(*nthreads)),
            ("invocations".into(), num_u64(*invocations)),
            ("wall_s".into(), Value::Num(*wall_s)),
            ("busy_max_s".into(), Value::Num(*busy_max_s)),
            ("busy_mean_s".into(), Value::Num(*busy_mean_s)),
            ("join_wait_s".into(), Value::Num(*join_wait_s)),
            ("imbalance".into(), Value::Num(*imbalance)),
        ]),
    }
}

fn field(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        None => Err(format!("missing/invalid field {key:?}")),
        // `null` is how the writer serializes non-finite floats, so the
        // faithful inverse is NaN (an anomaly's residual can be NaN).
        Some(Value::Null) => Ok(f64::NAN),
        Some(x) => x
            .as_f64()
            .ok_or_else(|| format!("missing/invalid field {key:?}")),
    }
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    Ok(field(v, key)? as u64)
}

fn record_from_json(v: &Value) -> Result<EventRecord, String> {
    let tag = v
        .get("ev")
        .and_then(Value::as_str)
        .ok_or("event missing ev tag")?;
    match tag {
        "run_meta" => Ok(EventRecord::RunMeta {
            name: v
                .get("name")
                .and_then(Value::as_str)
                .ok_or("run_meta missing name")?
                .to_string(),
            meta: v
                .get("meta")
                .and_then(Value::as_obj)
                .unwrap_or(&[])
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("meta entry {k:?} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        }),
        "newton_step" => Ok(EventRecord::NewtonStep {
            step: field_u64(v, "step")?,
            residual_norm: field(v, "residual_norm")?,
            cfl: field(v, "cfl")?,
            gmres_iters: field_u64(v, "gmres_iters")?,
            eta: field(v, "eta")?,
            t_residual: field(v, "t_residual")?,
            t_jacobian: field(v, "t_jacobian")?,
            t_precond: field(v, "t_precond")?,
            t_krylov: field(v, "t_krylov")?,
        }),
        "krylov_iter" => Ok(EventRecord::KrylovIter {
            step: field_u64(v, "step")?,
            iter: field_u64(v, "iter")?,
            residual_norm: field(v, "residual_norm")?,
        }),
        "scatter" => Ok(EventRecord::Scatter {
            bytes: field_u64(v, "bytes")?,
            neighbors: field_u64(v, "neighbors")?,
            t: field(v, "t")?,
        }),
        "checkpoint" => Ok(EventRecord::Checkpoint {
            step: field_u64(v, "step")?,
            path: v
                .get("path")
                .and_then(Value::as_str)
                .ok_or("checkpoint missing path")?
                .to_string(),
        }),
        "request_trace" => Ok(EventRecord::RequestTrace {
            id: field_u64(v, "id")?,
            worker: field_u64(v, "worker")?,
            batch_size: field_u64(v, "batch_size")?,
            cache_hit: match v.get("cache_hit") {
                Some(Value::Bool(b)) => *b,
                _ => return Err("request_trace missing/invalid cache_hit".into()),
            },
            t_queue_s: field(v, "t_queue_s")?,
            t_batch_s: field(v, "t_batch_s")?,
            t_setup_s: field(v, "t_setup_s")?,
            t_solve_s: field(v, "t_solve_s")?,
            t_respond_s: field(v, "t_respond_s")?,
            latency_s: field(v, "latency_s")?,
        }),
        "anomaly" => Ok(EventRecord::Anomaly {
            kind: v
                .get("kind")
                .and_then(Value::as_str)
                .ok_or("anomaly missing kind")?
                .to_string(),
            step: field_u64(v, "step")?,
            residual_norm: field(v, "residual_norm")?,
            detail: v
                .get("detail")
                .and_then(Value::as_str)
                .ok_or("anomaly missing detail")?
                .to_string(),
        }),
        "par_region" => Ok(EventRecord::ParRegion {
            label: v
                .get("label")
                .and_then(Value::as_str)
                .ok_or("par_region missing label")?
                .to_string(),
            nthreads: field_u64(v, "nthreads")?,
            invocations: field_u64(v, "invocations")?,
            wall_s: field(v, "wall_s")?,
            busy_max_s: field(v, "busy_max_s")?,
            busy_mean_s: field(v, "busy_mean_s")?,
            join_wait_s: field(v, "join_wait_s")?,
            imbalance: field(v, "imbalance")?,
        }),
        other => Err(format!("unknown event tag {other:?}")),
    }
}

/// Render a Figure 5-style convergence table from a stream's `NewtonStep`
/// records.  A stream may hold several series (sub-runs separated by
/// `RunMeta` records, or a step index that resets); each series gets its
/// own block.  Long series are strided down to ~24 rows, keeping first and
/// last.
pub fn convergence_table(stream: &EventStream) -> String {
    use std::fmt::Write as _;

    struct Series<'a> {
        label: String,
        steps: Vec<&'a EventRecord>,
    }
    let mut series: Vec<Series> = Vec::new();
    let mut pending_label: Option<String> = None;
    for r in &stream.records {
        match r {
            EventRecord::RunMeta { name, .. } => pending_label = Some(name.clone()),
            EventRecord::NewtonStep { step, .. } => {
                let new_series = pending_label.is_some()
                    || series.is_empty()
                    || series.last().is_some_and(|s| {
                        s.steps.last().is_some_and(|last| {
                            matches!(last, EventRecord::NewtonStep { step: prev, .. } if step < prev)
                        })
                    });
                if new_series {
                    series.push(Series {
                        label: pending_label.take().unwrap_or_default(),
                        steps: Vec::new(),
                    });
                }
                series.last_mut().expect("just pushed").steps.push(r);
            }
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Convergence (Figure 5): residual norm and CFL vs pseudo-timestep"
    );
    if series.is_empty() {
        let _ = writeln!(out, "  (no newton_step events in stream)");
        return out;
    }
    for s in &series {
        if !s.label.is_empty() {
            let _ = writeln!(out, "\n  series: {}", s.label);
        }
        let _ = writeln!(
            out,
            "  {:>5} {:>12} {:>10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "step", "|R|", "CFL", "lin its", "eta", "t_res", "t_jac", "t_pc", "t_kry"
        );
        let n = s.steps.len();
        let stride = n.div_ceil(24).max(1);
        for (i, r) in s.steps.iter().enumerate() {
            if i % stride != 0 && i != n - 1 {
                continue;
            }
            if let EventRecord::NewtonStep {
                step,
                residual_norm,
                cfl,
                gmres_iters,
                eta,
                t_residual,
                t_jacobian,
                t_precond,
                t_krylov,
            } = r
            {
                let _ = writeln!(
                    out,
                    "  {step:>5} {residual_norm:>12.4e} {cfl:>10.2} {gmres_iters:>8} \
                     {eta:>9.2e} {t_residual:>9.2e} {t_jacobian:>9.2e} {t_precond:>9.2e} \
                     {t_krylov:>9.2e}"
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> EventStream {
        EventStream::new(vec![
            EventRecord::RunMeta {
                name: "unit".into(),
                meta: vec![("nverts".into(), "100".into())],
            },
            EventRecord::NewtonStep {
                step: 0,
                residual_norm: 1.0,
                cfl: 10.0,
                gmres_iters: 8,
                eta: 0.01,
                t_residual: 0.125,
                t_jacobian: 0.25,
                t_precond: 0.0625,
                t_krylov: 0.5,
            },
            EventRecord::KrylovIter {
                step: 0,
                iter: 1,
                residual_norm: 0.5,
            },
            EventRecord::Scatter {
                bytes: 4096,
                neighbors: 3,
                t: 1e-5,
            },
            EventRecord::NewtonStep {
                step: 1,
                residual_norm: 1.0 / 3.0,
                cfl: 30.0,
                gmres_iters: 6,
                eta: 0.01,
                t_residual: 0.125,
                t_jacobian: 0.25,
                t_precond: 0.0625,
                t_krylov: 0.375,
            },
            EventRecord::Checkpoint {
                step: 1,
                path: "/tmp/ck.bin".into(),
            },
            EventRecord::ParRegion {
                label: "spmv_csr".into(),
                nthreads: 2,
                invocations: 7,
                wall_s: 0.5,
                busy_max_s: 0.45,
                busy_mean_s: 0.4,
                join_wait_s: 0.2,
                imbalance: 1.125,
            },
            EventRecord::RequestTrace {
                id: 42,
                worker: 1,
                batch_size: 3,
                cache_hit: true,
                t_queue_s: 0.5,
                t_batch_s: 0.125,
                t_setup_s: 0.0625,
                t_solve_s: 0.25,
                t_respond_s: 0.125,
                latency_s: 1.0,
            },
            EventRecord::Anomaly {
                kind: "stagnation".into(),
                step: 7,
                residual_norm: 0.25,
                detail: "plateau over 10 steps".into(),
            },
        ])
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let s = sample_stream();
        let text = s.to_jsonl();
        let back = EventStream::parse(&text).unwrap();
        assert_eq!(s, back);
        // The JSONL text itself is a fixed point.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn schema_is_enforced() {
        assert!(EventStream::parse("").is_err());
        assert!(EventStream::parse("{\"schema\":\"fun3d-events/999\"}\n").is_err());
        assert!(
            EventStream::parse("{\"schema\":\"fun3d-events/1\"}\n{\"ev\":\"bogus\"}\n").is_err()
        );
        // Header alone is a valid empty stream.
        let empty = EventStream::parse("{\"schema\":\"fun3d-events/1\"}\n").unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn sink_enabled_and_disabled() {
        let off = EventSink::disabled();
        off.emit(EventRecord::KrylovIter {
            step: 0,
            iter: 1,
            residual_norm: 0.5,
        });
        assert!(!off.is_enabled());
        assert!(off.drain().is_empty());

        let on = EventSink::enabled();
        on.emit(EventRecord::KrylovIter {
            step: 0,
            iter: 1,
            residual_norm: 0.5,
        });
        let drained = on.drain();
        assert_eq!(drained.len(), 1);
        // Drain empties but keeps recording.
        assert!(on.drain().is_empty());
        on.emit(EventRecord::KrylovIter {
            step: 1,
            iter: 2,
            residual_norm: 0.25,
        });
        assert_eq!(on.drain().len(), 1);
    }

    #[test]
    fn file_round_trip() {
        let s = sample_stream();
        let path = std::env::temp_dir().join("fun3d_events_test.jsonl");
        let path = path.to_str().unwrap();
        s.write_jsonl(path).unwrap();
        let back = EventStream::read_jsonl(path).unwrap();
        std::fs::remove_file(path).ok();
        assert_eq!(s, back);
    }

    #[test]
    fn convergence_table_renders_steps() {
        let s = sample_stream();
        let txt = convergence_table(&s);
        assert!(txt.starts_with("Convergence (Figure 5)"));
        assert!(txt.contains("series: unit"));
        assert!(txt.contains("lin its"));
        // Both steps appear.
        assert!(txt.contains("1.0000e0") || txt.contains("1.0000e+0") || txt.contains("1e0"));
        assert_eq!(s.newton_steps().len(), 2);
    }

    #[test]
    fn convergence_table_splits_series_on_step_reset() {
        let mk = |step: u64, r: f64| EventRecord::NewtonStep {
            step,
            residual_norm: r,
            cfl: 1.0,
            gmres_iters: 1,
            eta: 0.1,
            t_residual: 0.0,
            t_jacobian: 0.0,
            t_precond: 0.0,
            t_krylov: 0.0,
        };
        let s = EventStream::new(vec![mk(0, 1.0), mk(1, 0.5), mk(0, 2.0), mk(1, 1.0)]);
        let txt = convergence_table(&s);
        // Two header rows: one per series.
        assert_eq!(txt.matches("lin its").count(), 2);
    }

    #[test]
    fn request_trace_round_trips_and_legacy_streams_still_parse() {
        // The serving trace record must survive the JSONL round trip with
        // its boolean and every segment intact...
        let s = EventStream::new(vec![EventRecord::RequestTrace {
            id: 7,
            worker: 0,
            batch_size: 1,
            cache_hit: false,
            t_queue_s: 1e-4,
            t_batch_s: 2e-4,
            t_setup_s: 2e-4,
            t_solve_s: 3e-3,
            t_respond_s: 1e-5,
            latency_s: 3.31e-3,
        }]);
        let back = EventStream::parse(&s.to_jsonl()).unwrap();
        assert_eq!(back, s);
        // ...a malformed cache_hit must be named, not coerced...
        let bad = format!(
            "{}\n{}\n",
            r#"{"schema":"fun3d-events/1"}"#,
            r#"{"ev":"request_trace","id":1,"worker":0,"batch_size":1,"cache_hit":"yes","t_queue_s":0,"t_batch_s":0,"t_setup_s":0,"t_solve_s":0,"t_respond_s":0,"latency_s":0}"#,
        );
        assert!(EventStream::parse(&bad).is_err());
        // ...and streams written before serving tracing existed (no
        // request_trace lines at all) keep parsing unchanged.
        let legacy = format!(
            "{}\n{}\n",
            r#"{"schema":"fun3d-events/1"}"#,
            r#"{"ev":"scatter","bytes":64,"neighbors":1,"t":1e-6}"#,
        );
        assert!(EventStream::parse(&legacy).is_ok());
    }

    #[test]
    fn anomaly_with_nan_residual_round_trips_via_null() {
        // A NaN residual is exactly what a non_finite_residual anomaly
        // carries; it serializes as JSON null and must parse back to NaN
        // instead of failing the whole stream.
        let s = EventStream::new(vec![EventRecord::Anomaly {
            kind: "non_finite_residual".into(),
            step: 3,
            residual_norm: f64::NAN,
            detail: "residual became NaN".into(),
        }]);
        let text = s.to_jsonl();
        assert!(text.contains("\"residual_norm\":null"), "{text}");
        let back = EventStream::parse(&text).unwrap();
        let EventRecord::Anomaly {
            kind,
            step,
            residual_norm,
            ..
        } = &back.records[0]
        else {
            panic!("expected anomaly");
        };
        assert_eq!(kind, "non_finite_residual");
        assert_eq!(*step, 3);
        assert!(residual_norm.is_nan());
        // A NaN newton_step (the record that triggered the anomaly) must
        // also survive parsing rather than poisoning the file.
        let ns = format!(
            "{}\n{}\n",
            r#"{"schema":"fun3d-events/1"}"#,
            r#"{"ev":"newton_step","step":1,"residual_norm":null,"cfl":10,"gmres_iters":2,"eta":0.1,"t_residual":0,"t_jacobian":0,"t_precond":0,"t_krylov":0}"#,
        );
        let parsed = EventStream::parse(&ns).unwrap();
        let EventRecord::NewtonStep { residual_norm, .. } = &parsed.records[0] else {
            panic!("expected newton_step");
        };
        assert!(residual_norm.is_nan());
        // Streams written before anomalies existed keep parsing unchanged.
        let legacy = format!(
            "{}\n{}\n",
            r#"{"schema":"fun3d-events/1"}"#,
            r#"{"ev":"krylov_iter","step":0,"iter":1,"residual_norm":0.5}"#,
        );
        assert!(EventStream::parse(&legacy).is_ok());
    }

    #[test]
    fn run_meta_without_rank_keys_still_parses() {
        // Streams written before rank tracing existed carry run_meta lines
        // whose meta object has no `nranks`/`partition` keys.  The meta map
        // is free-form, so such files must keep parsing unchanged — and new
        // files with the rank keys must round-trip losslessly.
        let legacy = format!(
            "{}\n{}\n",
            r#"{"schema":"fun3d-events/1"}"#,
            r#"{"ev":"run_meta","name":"table3","meta":{"nverts":"9000","scale":"0.1"}}"#,
        );
        let s = EventStream::parse(&legacy).expect("pre-rank-trace stream parses");
        let EventRecord::RunMeta { name, meta } = &s.records[0] else {
            panic!("expected run_meta");
        };
        assert_eq!(name, "table3");
        assert!(meta.iter().all(|(k, _)| k != "nranks"));

        let modern = EventStream::new(vec![EventRecord::RunMeta {
            name: "ranks".into(),
            meta: vec![
                ("nranks".into(), "16".into()),
                ("partition".into(), "kway".into()),
            ],
        }]);
        let round = EventStream::parse(&modern.to_jsonl()).unwrap();
        assert_eq!(round, modern);
    }
}
