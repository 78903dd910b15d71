//! Run inspection behind the `fun3d-report` binary: render one
//! `fun3d-perf/1` report (plus its `fun3d-events/1` stream) as human-readable
//! tables, or diff two reports with the same noise-aware verdicts the gate
//! uses.
//!
//! `show` answers "what did this run do": a Figure 5-style convergence table
//! from the event stream, a Table 3-style phase breakdown from the span
//! tree (with p50/p95/p99 tail latencies and modeled cache/TLB counters),
//! scatter traffic, and checkpoints.  `diff` answers "what changed": every
//! metric of run B judged against run A as a single-sample baseline.
//! `live` answers "how did it behave over time": the `fun3d-metrics/1`
//! sidecar rendered as terminal sparkline tables with SLO burn and health
//! transitions, and a noise-aware per-series A/B diff.

use crate::baseline::{ExperimentBaseline, MetricBaseline};
use crate::compare::{compare_experiment, higher_is_better, Tolerance, Verdict};
use crate::stats::{summarize, Summary};
use fun3d_telemetry::blackbox::{BlackboxDump, FlightRecord};
use fun3d_telemetry::events::{convergence_table, EventRecord, EventStream};
use fun3d_telemetry::metrics::SeriesSet;
use fun3d_telemetry::report::PerfReport;

/// A report plus the event stream and live-metrics time series that rode
/// along with it.
#[derive(Debug, Clone)]
pub struct LoadedRun {
    /// Path the report was loaded from (for headings).
    pub path: String,
    /// The parsed report.
    pub report: PerfReport,
    /// The run's event stream; empty when none was found.
    pub events: EventStream,
    /// The run's `fun3d-metrics/1` time series; empty when none was found.
    pub metrics: SeriesSet,
}

/// The sibling event-stream path the gate writes next to a report:
/// `runs/table1.json` -> `runs/table1.events.jsonl`.
pub fn sibling_events_path(report_path: &str) -> String {
    let stem = report_path.strip_suffix(".json").unwrap_or(report_path);
    format!("{stem}.events.jsonl")
}

/// The sibling metrics path the serve bin and the gate write next to a
/// report: `runs/serve.json` -> `runs/serve.metrics.jsonl`.
pub fn sibling_metrics_path(report_path: &str) -> String {
    let stem = report_path.strip_suffix(".json").unwrap_or(report_path);
    format!("{stem}.metrics.jsonl")
}

impl LoadedRun {
    /// Load a report plus its event stream and metrics sidecar.
    /// `events_path = None` autodiscovers the sibling `<stem>.events.jsonl`;
    /// a missing sibling is fine (empty stream), but an explicitly named
    /// file must parse.  The metrics sidecar `<stem>.metrics.jsonl` is
    /// always autodiscovered the same way.
    pub fn load(report_path: &str, events_path: Option<&str>) -> std::io::Result<Self> {
        let report = PerfReport::read_json(report_path)?;
        let events = match events_path {
            Some(p) => EventStream::read_jsonl(p)?,
            None => {
                let sibling = sibling_events_path(report_path);
                if std::path::Path::new(&sibling).exists() {
                    EventStream::read_jsonl(&sibling)?
                } else {
                    EventStream::default()
                }
            }
        };
        let metrics_sibling = sibling_metrics_path(report_path);
        let metrics = if std::path::Path::new(&metrics_sibling).exists() {
            SeriesSet::read_jsonl(&metrics_sibling)?
        } else {
            SeriesSet::default()
        };
        Ok(Self {
            path: report_path.to_string(),
            report,
            events,
            metrics,
        })
    }
}

/// Scalar metrics plus the derived span tail metrics, deduplicated — the
/// metric set `diff` judges.  Raw `--json` reports from the bench bins have
/// not been through the harness, so their `{path}:p95_s` entries exist only
/// in span histograms; fold them in here so both flavors diff identically.
pub fn effective_metrics(report: &PerfReport) -> Vec<(String, f64)> {
    let mut out = report.metrics.clone();
    let derived = report
        .tail_metrics()
        .into_iter()
        .chain(report.region_metrics())
        .chain(report.bandwidth_metrics());
    for (key, v) in derived {
        if !out.iter().any(|(k, _)| *k == key) {
            out.push((key, v));
        }
    }
    out
}

fn fmt_sig(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn fmt_opt_s(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |x| format!("{x:.2e}"))
}

fn render_table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |out: &mut String, cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        out.push_str(&format!("| {} |\n", padded.join(" | ")));
    };
    line(
        out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    out.push_str(&format!(
        "|{}|\n",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    ));
    for row in rows {
        line(out, row);
    }
}

/// Render one run as the full inspection view.
pub fn render_show(run: &LoadedRun) -> String {
    let r = &run.report;
    let mut out = String::new();
    out.push_str(&format!("# fun3d-report: {} ({})\n", r.name, run.path));
    if !r.meta.is_empty() {
        let pairs: Vec<String> = r.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!("meta: {}\n", pairs.join(", ")));
    }
    // Label multi-rank runs the way threaded runs are labelled (nranks and
    // partition family arrived with the rank-trace schema; older reports
    // simply lack the keys).
    if let Some(n) = r.meta("nranks") {
        out.push_str(&format!(
            "ranks: {n} (partition: {})\n",
            r.meta("partition").unwrap_or("unknown")
        ));
    }

    if !r.metrics.is_empty() {
        out.push_str("\n## Metrics\n\n");
        let rows: Vec<Vec<String>> = r
            .metrics
            .iter()
            .map(|(k, v)| vec![k.clone(), fmt_sig(*v)])
            .collect();
        render_table(&mut out, &["metric", "value"], &rows);
    }

    if !r.spans.is_empty() {
        // The paper's Table 3 reports per-phase percentages of execution
        // time; the denominator here is the top-level spans (children nest
        // inside them, so summing every row would double-count).
        let total: f64 = r
            .spans
            .iter()
            .filter(|s| !s.path.contains('/'))
            .map(|s| s.total_s)
            .sum();
        out.push_str("\n## Phase breakdown (Table 3)\n\n");
        let rows: Vec<Vec<String>> = r
            .spans
            .iter()
            .map(|s| {
                let counters: Vec<String> = s
                    .counters
                    .iter()
                    .map(|(k, v)| format!("{k}={}", fmt_sig(*v)))
                    .collect();
                vec![
                    s.path.clone(),
                    s.domain.tag().to_string(),
                    s.calls.to_string(),
                    format!("{:.4e}", s.total_s),
                    if total > 0.0 && !s.path.contains('/') {
                        format!("{:.1}", 100.0 * s.total_s / total)
                    } else {
                        "-".to_string()
                    },
                    fmt_opt_s(s.p50()),
                    fmt_opt_s(s.p95()),
                    fmt_opt_s(s.p99()),
                    counters.join(" "),
                ]
            })
            .collect();
        render_table(
            &mut out,
            &[
                "span", "domain", "calls", "total_s", "%", "p50_s", "p95_s", "p99_s", "counters",
            ],
            &rows,
        );
    }

    // Thread-profile summary: one line per parallel region when the run
    // recorded them (`--profile`).  Pre-profile reports simply have no
    // `par/` spans, so this section is a graceful no-op for them.
    let regions = region_spans(r);
    if !regions.is_empty() {
        let nthr = r.meta("nthreads").unwrap_or("?");
        out.push_str(&format!("\n## Parallel regions ({nthr} threads)\n\n"));
        for s in &regions {
            let label = s.path.strip_prefix("par/").unwrap_or(&s.path);
            out.push_str(&format!(
                "{label}: {} thread(s) x {} calls, imbalance {:.2}, busy max/mean {:.3e}/{:.3e} s, join wait {:.3e} s\n",
                s.counter("nthreads").map_or(0, |v| v as u64),
                s.calls,
                s.counter("imbalance").unwrap_or(1.0),
                s.counter("busy_max_s").unwrap_or(0.0),
                s.counter("busy_mean_s").unwrap_or(0.0),
                s.counter("join_wait_s").unwrap_or(0.0),
            ));
        }
    }

    if !run.events.newton_steps().is_empty() {
        out.push('\n');
        out.push_str(&convergence_table(&run.events));
    }

    let (mut n_scatter, mut bytes, mut t_scatter) = (0u64, 0u64, 0.0f64);
    let mut checkpoints = Vec::new();
    for ev in &run.events.records {
        match ev {
            EventRecord::Scatter { bytes: b, t, .. } => {
                n_scatter += 1;
                bytes += b;
                t_scatter += t;
            }
            EventRecord::Checkpoint { step, path } => {
                checkpoints.push(format!("  step {step}: {path}"));
            }
            _ => {}
        }
    }
    if n_scatter > 0 {
        out.push_str(&format!(
            "\n## Ghost scatters\n\n{n_scatter} scatters, {bytes} bytes total, {:.3e} s total\n",
            t_scatter
        ));
    }
    if !checkpoints.is_empty() {
        out.push_str("\n## Checkpoints\n\n");
        out.push_str(&checkpoints.join("\n"));
        out.push('\n');
    }
    out
}

/// The parallel-region spans of a report (`par/{label}` paths carrying an
/// `imbalance` counter), in span order.
fn region_spans(r: &PerfReport) -> Vec<&fun3d_telemetry::SpanRow> {
    r.spans
        .iter()
        .filter(|s| s.path.starts_with("par/") && s.counter("imbalance").is_some())
        .collect()
}

/// Spans carrying an analytic `bytes` traffic counter and nonzero time —
/// the rows of the achieved-bandwidth (roofline) table.
fn bandwidth_spans(r: &PerfReport) -> Vec<&fun3d_telemetry::SpanRow> {
    r.spans
        .iter()
        .filter(|s| s.counter("bytes").is_some() && s.total_s > 0.0)
        .collect()
}

/// Region label for A/B matching: the `par/` prefix and the `@n{k}`
/// team-size disambiguator both stripped.
fn region_label(path: &str) -> &str {
    let stem = path.strip_prefix("par/").unwrap_or(path);
    stem.split("@n").next().unwrap_or(stem)
}

/// Render the profiling view of one run: a Table 3-style load-imbalance
/// breakdown per parallel region (max/mean per-thread busy time, imbalance
/// factor, join-wait) and a Table 2-style roofline table per byte-counted
/// span (achieved GB/s, % of the run's measured STREAM triad).  With a
/// second run, appends an A/B comparison per region — the intended use is
/// diffing two `--threads` settings of the same experiment.
pub fn render_profile(run: &LoadedRun, other: Option<&LoadedRun>) -> String {
    let r = &run.report;
    let mut out = String::new();
    out.push_str(&format!(
        "# fun3d-report profile: {} ({})\n",
        r.name, run.path
    ));

    let regions = region_spans(r);
    let bw = bandwidth_spans(r);
    if regions.is_empty() && bw.is_empty() {
        out.push_str(
            "\nno profile data in this report: rerun with --profile to record\n\
             per-thread region timings and byte-traffic counters.\n",
        );
        return out;
    }

    if !regions.is_empty() {
        out.push_str("\n## Parallel regions: load imbalance (Table 3)\n\n");
        let rows: Vec<Vec<String>> = regions
            .iter()
            .map(|s| {
                let busy: Vec<String> = s
                    .counters
                    .iter()
                    .filter(|(k, _)| k.starts_with("busy_t"))
                    .map(|(k, v)| format!("{}={:.2e}", k.trim_end_matches("_s"), v))
                    .collect();
                vec![
                    region_label(&s.path).to_string(),
                    s.counter("nthreads").map_or(0, |v| v as u64).to_string(),
                    s.calls.to_string(),
                    format!("{:.3e}", s.total_s),
                    format!("{:.3e}", s.counter("busy_max_s").unwrap_or(0.0)),
                    format!("{:.3e}", s.counter("busy_mean_s").unwrap_or(0.0)),
                    format!("{:.2}", s.counter("imbalance").unwrap_or(1.0)),
                    format!("{:.3e}", s.counter("join_wait_s").unwrap_or(0.0)),
                    busy.join(" "),
                ]
            })
            .collect();
        render_table(
            &mut out,
            &[
                "region",
                "nthr",
                "calls",
                "wall_s",
                "busy max_s",
                "busy mean_s",
                "imbal",
                "join wait_s",
                "per-thread busy",
            ],
            &rows,
        );
    }

    if !bw.is_empty() {
        out.push_str("\n## Achieved bandwidth (Table 2)\n\n");
        let stream = r.metric("stream_triad_bytes_per_s");
        let rows: Vec<Vec<String>> = bw
            .iter()
            .map(|s| {
                let gbps = s.counter("bytes").unwrap_or(0.0) / s.total_s / 1e9;
                vec![
                    s.path.clone(),
                    s.calls.to_string(),
                    format!("{:.3e}", s.total_s),
                    format!("{:.3e}", s.counter("bytes").unwrap_or(0.0)),
                    format!("{gbps:.2}"),
                    stream.map_or("-".to_string(), |t| {
                        format!("{:.0}%", 100.0 * gbps * 1e9 / t)
                    }),
                ]
            })
            .collect();
        render_table(
            &mut out,
            &["span", "calls", "total_s", "bytes", "GB/s", "% of STREAM"],
            &rows,
        );
        match stream {
            Some(t) => out.push_str(&format!(
                "\nSTREAM triad measured alongside this run: {:.2} GB/s (the roofline).\n",
                t / 1e9
            )),
            None => out.push_str(
                "\nno stream_triad_bytes_per_s metric in this report; % of STREAM omitted.\n",
            ),
        }
    }

    if let Some(o) = other {
        let ro = &o.report;
        out.push_str(&format!("\n## Region A/B: {} vs {}\n\n", run.path, o.path));
        let others = region_spans(ro);
        let rows: Vec<Vec<String>> = regions
            .iter()
            .filter_map(|sa| {
                let sb = others
                    .iter()
                    .find(|s| region_label(&s.path) == region_label(&sa.path))?;
                let (ca, cb) = (sa.calls.max(1) as f64, sb.calls.max(1) as f64);
                let (wa, wb) = (sa.total_s / ca, sb.total_s / cb);
                Some(vec![
                    region_label(&sa.path).to_string(),
                    sa.counter("nthreads").map_or(0, |v| v as u64).to_string(),
                    sb.counter("nthreads").map_or(0, |v| v as u64).to_string(),
                    format!("{wa:.3e}"),
                    format!("{wb:.3e}"),
                    if wb > 0.0 {
                        format!("{:.2}x", wa / wb)
                    } else {
                        "-".to_string()
                    },
                    format!("{:.2}", sa.counter("imbalance").unwrap_or(1.0)),
                    format!("{:.2}", sb.counter("imbalance").unwrap_or(1.0)),
                ])
            })
            .collect();
        if rows.is_empty() {
            out.push_str("no region labels in common between the two runs.\n");
        } else {
            render_table(
                &mut out,
                &[
                    "region",
                    "A nthr",
                    "B nthr",
                    "A wall/call_s",
                    "B wall/call_s",
                    "A/B speedup",
                    "A imbal",
                    "B imbal",
                ],
                &rows,
            );
        }
    }
    out
}

/// One rank's aggregated phase times, parsed from the `rank{N}/{phase}`
/// simulated-time spans the rank tracer records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct RankPhases {
    compute: f64,
    scatter: f64,
    reduction: f64,
    wait: f64,
    bytes_sent: f64,
    msgs_sent: f64,
}

impl RankPhases {
    fn exchange(&self) -> f64 {
        self.scatter + self.reduction
    }
    fn total(&self) -> f64 {
        self.compute + self.scatter + self.reduction + self.wait
    }
    fn wait_frac(&self) -> f64 {
        self.wait / self.total().max(f64::MIN_POSITIVE)
    }
}

/// Per-rank phase rows of a report, indexed by rank id (empty when the run
/// was not traced with `--trace-ranks`).
fn rank_phase_rows(r: &PerfReport) -> Vec<RankPhases> {
    let mut rows: Vec<RankPhases> = Vec::new();
    for s in &r.spans {
        let Some(rest) = s.path.strip_prefix("rank") else {
            continue;
        };
        let Some((num, phase)) = rest.split_once('/') else {
            continue;
        };
        let Ok(rank) = num.parse::<usize>() else {
            continue;
        };
        if rank >= rows.len() {
            rows.resize(rank + 1, RankPhases::default());
        }
        let row = &mut rows[rank];
        match phase {
            "compute" => row.compute += s.total_s,
            "scatter" => {
                row.scatter += s.total_s;
                row.bytes_sent += s.counter("bytes_sent").unwrap_or(0.0);
                row.msgs_sent += s.counter("msgs_sent").unwrap_or(0.0);
            }
            "reduction" => row.reduction += s.total_s,
            "wait" => row.wait += s.total_s,
            _ => {}
        }
    }
    rows
}

/// Point-to-point byte volume matrix `m[src][dst]` from the per-neighbor
/// `to{peer}_bytes` counters on each rank's scatter span.
fn neighbor_bytes(r: &PerfReport, nranks: usize) -> Vec<Vec<f64>> {
    let mut m = vec![vec![0.0; nranks]; nranks];
    for s in &r.spans {
        let Some(rest) = s.path.strip_prefix("rank") else {
            continue;
        };
        let Some((num, "scatter")) = rest.split_once('/') else {
            continue;
        };
        let Ok(rank) = num.parse::<usize>() else {
            continue;
        };
        if rank >= nranks {
            continue;
        }
        for (k, v) in &s.counters {
            let peer = k
                .strip_prefix("to")
                .and_then(|k| k.strip_suffix("_bytes"))
                .and_then(|p| p.parse::<usize>().ok());
            if let Some(peer) = peer {
                if peer < nranks {
                    m[rank][peer] += *v;
                }
            }
        }
    }
    m
}

/// Render the communication view of one run: per-rank compute / exchange /
/// wait table with the laggard rank flagged, the neighbor byte-volume
/// matrix, the critical-path breakdown, and the η decomposition — the
/// paper's Table 3 story told from a single traced run.  With a second run,
/// appends a per-rank wait-fraction A/B comparison.
pub fn render_comm(run: &LoadedRun, other: Option<&LoadedRun>) -> String {
    let r = &run.report;
    let mut out = String::new();
    out.push_str(&format!("# fun3d-report comm: {} ({})\n", r.name, run.path));
    if let Some(n) = r.meta("nranks") {
        out.push_str(&format!(
            "ranks: {n} (partition: {})\n",
            r.meta("partition").unwrap_or("unknown")
        ));
    }

    let rows = rank_phase_rows(r);
    if rows.is_empty() {
        out.push_str(
            "\nno per-rank trace in this report: rerun with --trace-ranks to\n\
             record rank timelines and message ledgers.\n",
        );
        return out;
    }
    let nranks = rows.len();

    // The laggard is the rank with the most compute time: everyone else
    // waits for it at the next synchronization point.
    let laggard = rows
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.compute.partial_cmp(&b.1.compute).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);
    out.push_str("\n## Per-rank phases (simulated time)\n\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, p)| {
            vec![
                i.to_string(),
                format!("{:.4e}", p.compute),
                format!("{:.4e}", p.exchange()),
                format!("{:.4e}", p.wait),
                format!("{:.4e}", p.total()),
                format!("{:.1}", 100.0 * p.wait_frac()),
                format!("{:.3e}", p.bytes_sent),
                if i == laggard { "<- laggard" } else { "" }.to_string(),
            ]
        })
        .collect();
    render_table(
        &mut out,
        &[
            "rank",
            "compute_s",
            "exchange_s",
            "wait_s",
            "total_s",
            "wait %",
            "bytes sent",
            "",
        ],
        &table,
    );
    if let Some(wall) = r.metric("time_s") {
        let busiest = rows.iter().map(RankPhases::total).fold(0.0f64, f64::max);
        out.push_str(&format!(
            "\nwall (sim): {wall:.4e} s; busiest rank accounts for {busiest:.4e} s ({:.1}%)\n",
            100.0 * busiest / wall.max(f64::MIN_POSITIVE)
        ));
    }

    let m = neighbor_bytes(r, nranks);
    if m.iter().flatten().any(|&v| v > 0.0) {
        out.push_str("\n## Neighbor volume (bytes, src rank -> dst rank)\n\n");
        let mut headers: Vec<String> = vec!["src\\dst".into()];
        headers.extend((0..nranks).map(|i| i.to_string()));
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        let table: Vec<Vec<String>> = m
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut cells = vec![i.to_string()];
                cells.extend(row.iter().map(|&v| {
                    if v > 0.0 {
                        format!("{v:.2e}")
                    } else {
                        "-".to_string()
                    }
                }));
                cells
            })
            .collect();
        render_table(&mut out, &headers, &table);
    }

    if let (Some(total), Some(compute), Some(exchange), Some(wait)) = (
        r.metric("cp:total_s"),
        r.metric("cp:compute_s"),
        r.metric("cp:exchange_s"),
        r.metric("cp:wait_s"),
    ) {
        out.push_str("\n## Critical path\n\n");
        let pct = |v: f64| 100.0 * v / total.max(f64::MIN_POSITIVE);
        let table = vec![
            vec![
                "compute".to_string(),
                format!("{compute:.4e}"),
                format!("{:.1}", pct(compute)),
            ],
            vec![
                "exchange".to_string(),
                format!("{exchange:.4e}"),
                format!("{:.1}", pct(exchange)),
            ],
            vec![
                "wait".to_string(),
                format!("{wait:.4e}"),
                format!("{:.1}", pct(wait)),
            ],
            vec![
                "total".to_string(),
                format!("{total:.4e}"),
                "100.0".to_string(),
            ],
        ];
        render_table(&mut out, &["phase", "time_s", "%"], &table);
        if let Some(hops) = r.metric("cp:hops") {
            out.push_str(&format!("{hops:.0} hops along the path\n"));
        }
    }

    let etas: Vec<(&str, Option<f64>)> = vec![
        ("eta_overall", r.metric("eta_overall")),
        ("eta_alg", r.metric("eta_alg")),
        ("eta_impl", r.metric("eta_impl")),
        ("comm:bytes_per_iter", r.metric("comm:bytes_per_iter")),
        ("rank:scatter:wait_frac", r.metric("rank:scatter:wait_frac")),
        (
            "rank:reduction:wait_frac",
            r.metric("rank:reduction:wait_frac"),
        ),
    ];
    if etas.iter().any(|(_, v)| v.is_some()) {
        out.push_str("\n## Efficiency and gate metrics\n\n");
        let table: Vec<Vec<String>> = etas
            .iter()
            .filter_map(|(k, v)| v.map(|v| vec![k.to_string(), fmt_sig(v)]))
            .collect();
        render_table(&mut out, &["metric", "value"], &table);
    }

    if let Some(o) = other {
        let rows_b = rank_phase_rows(&o.report);
        out.push_str(&format!(
            "\n## Per-rank wait A/B: {} vs {}\n\n",
            run.path, o.path
        ));
        if rows_b.is_empty() {
            out.push_str("run B carries no per-rank trace.\n");
        } else {
            let table: Vec<Vec<String>> = rows
                .iter()
                .enumerate()
                .filter_map(|(i, pa)| {
                    let pb = rows_b.get(i)?;
                    Some(vec![
                        i.to_string(),
                        format!("{:.1}", 100.0 * pa.wait_frac()),
                        format!("{:.1}", 100.0 * pb.wait_frac()),
                        format!("{:+.1}", 100.0 * (pb.wait_frac() - pa.wait_frac())),
                    ])
                })
                .collect();
            render_table(&mut out, &["rank", "A wait %", "B wait %", "delta"], &table);
        }
    }
    out
}

/// One metric's row in a diff plus the count of regressions.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// Rendered text.
    pub text: String,
    /// Metrics judged `Regressed` (run B worse than run A).
    pub regressions: usize,
}

/// Diff run `b` against run `a` (`a` is the baseline side).  Single runs
/// have no spread, so the verdicts come entirely from the tolerance's
/// relative band and absolute floor.
pub fn render_diff(a: &LoadedRun, b: &LoadedRun, tol: &Tolerance) -> DiffOutcome {
    let base = ExperimentBaseline {
        name: a.report.name.clone(),
        metrics: effective_metrics(&a.report)
            .into_iter()
            .map(|(k, v)| {
                (
                    k,
                    MetricBaseline {
                        median: v,
                        mad: 0.0,
                        n: 1,
                    },
                )
            })
            .collect(),
    };
    let current: Vec<(String, Summary)> = effective_metrics(&b.report)
        .into_iter()
        .map(|(k, v)| {
            (
                k,
                Summary {
                    n: 1,
                    median: v,
                    mad: 0.0,
                    min: v,
                    max: v,
                },
            )
        })
        .collect();
    let comparisons = compare_experiment(&current, Some(&base), tol);

    let mut out = String::new();
    out.push_str(&format!(
        "# fun3d-report diff: {} (A) vs {} (B)\n\n",
        a.path, b.path
    ));
    // Label threaded runs so a cross-thread-count diff is legible at a
    // glance (nthreads comes from the shared --threads/FUN3D_THREADS flag).
    if a.report.meta("nthreads").is_some() || b.report.meta("nthreads").is_some() {
        out.push_str(&format!(
            "threads: A={} B={}\n\n",
            a.report.meta("nthreads").unwrap_or("1"),
            b.report.meta("nthreads").unwrap_or("1"),
        ));
    }
    // Same treatment for rank counts, so a cross-rank-count diff is labelled.
    if a.report.meta("nranks").is_some() || b.report.meta("nranks").is_some() {
        out.push_str(&format!(
            "ranks: A={} B={} (partition: A={} B={})\n\n",
            a.report.meta("nranks").unwrap_or("1"),
            b.report.meta("nranks").unwrap_or("1"),
            a.report.meta("partition").unwrap_or("-"),
            b.report.meta("partition").unwrap_or("-"),
        ));
    }
    let rows: Vec<Vec<String>> = comparisons
        .iter()
        .map(|c| {
            vec![
                c.key.clone(),
                c.baseline
                    .map_or("-".to_string(), |bl| format!("{:.4e}", bl.median)),
                format!("{:.4e}", c.current.median),
                format!("{:+.4e}", c.delta),
                c.verdict.label().to_string(),
            ]
        })
        .collect();
    render_table(&mut out, &["metric", "A", "B", "delta", "verdict"], &rows);

    // Span-level deltas for paths both runs profiled.
    let span_rows: Vec<Vec<String>> = b
        .report
        .spans
        .iter()
        .filter_map(|sb| {
            a.report.span(&sb.path).map(|sa| {
                vec![
                    sb.path.clone(),
                    format!("{:.4e}", sa.total_s),
                    format!("{:.4e}", sb.total_s),
                    format!("{:+.4e}", sb.total_s - sa.total_s),
                    fmt_opt_s(sa.p95()),
                    fmt_opt_s(sb.p95()),
                ]
            })
        })
        .collect();
    if !span_rows.is_empty() {
        out.push_str("\n## Span deltas\n\n");
        render_table(
            &mut out,
            &[
                "span",
                "A total_s",
                "B total_s",
                "delta",
                "A p95_s",
                "B p95_s",
            ],
            &span_rows,
        );
    }

    let regressions = comparisons
        .iter()
        .filter(|c| c.verdict == Verdict::Regressed)
        .count();
    let improved = comparisons
        .iter()
        .filter(|c| c.verdict == Verdict::Improved)
        .count();
    out.push_str(&format!(
        "\nregressions: {regressions}  improved: {improved}  metrics: {}\n",
        comparisons.len()
    ));
    DiffOutcome {
        text: out,
        regressions,
    }
}

/// Render the serving view of a `serve` run: the open-loop rate sweep
/// (offered vs achieved solves/s with the histogram tail latencies and
/// per-rate rejects), the detected saturation knee, and the cache /
/// admission summary.  Reports without `rate{i}:` metrics get the headline
/// line plus a note, so the command degrades gracefully on other runs.
pub fn render_serve(run: &LoadedRun) -> String {
    let r = &run.report;
    let mut out = String::new();
    out.push_str(&format!(
        "# fun3d-report serve: {} ({})\n",
        r.name, run.path
    ));
    out.push_str(&format!(
        "workers: {}  queue depth: {}  max batch: {}  vertices: {}\n",
        r.meta("workers").unwrap_or("?"),
        r.meta("queue_depth").unwrap_or("?"),
        r.meta("max_batch").unwrap_or("?"),
        r.meta("nverts").unwrap_or("?"),
    ));

    let mut rows = Vec::new();
    let mut i = 0;
    while let Some(achieved) = r.metric(&format!("rate{i}:solves_per_s")) {
        let offered = r
            .meta(&format!("rate{i}:offered_per_s"))
            .unwrap_or("-")
            .to_string();
        // A rate whose latency histogram stayed empty (every arrival shed
        // or rejected) has no quantile metrics; say "n/a" rather than
        // dropping or blanking the row so the sweep stays visibly complete.
        let q = |name: &str| {
            r.metric(&format!("rate{i}:{name}"))
                .map_or("n/a".to_string(), |x| format!("{x:.2e}"))
        };
        rows.push(vec![
            i.to_string(),
            offered,
            format!("{achieved:.2}"),
            q("p50_s"),
            q("p95_s"),
            q("p99_s"),
            r.metric(&format!("rate{i}:rejected"))
                .map_or("-".to_string(), |v| format!("{v:.0}")),
            r.metric(&format!("rate{i}:burn"))
                .map_or("-".to_string(), |v| format!("{v:.2}")),
            r.metric(&format!("rate{i}:health_state"))
                .map_or("-".to_string(), |v| health_label(v).to_string()),
        ]);
        i += 1;
    }
    if rows.is_empty() {
        out.push_str("\nno rate-sweep metrics found (not a `serve` report?)\n");
        return out;
    }
    out.push_str("\n## Open-loop rate sweep\n\n");
    render_table(
        &mut out,
        &[
            "rate",
            "offered/s",
            "achieved/s",
            "p50_s",
            "p95_s",
            "p99_s",
            "rejected",
            "burn",
            "health",
        ],
        &rows,
    );

    out.push_str("\n## Serving summary\n\n");
    let line = |out: &mut String, label: &str, key: &str, fmt: &dyn Fn(f64) -> String| {
        if let Some(v) = r.metric(key) {
            out.push_str(&format!("{label}: {}\n", fmt(v)));
        }
    };
    line(
        &mut out,
        "calibrated capacity",
        "serve:capacity_solves_per_s",
        &|v| format!("{v:.2} solves/s"),
    );
    line(
        &mut out,
        "peak throughput",
        "serve:peak_solves_per_s",
        &|v| format!("{v:.2} solves/s"),
    );
    line(
        &mut out,
        "saturation knee",
        "serve:knee_solves_per_s",
        &|v| format!("{v:.2} solves/s sustained"),
    );
    line(&mut out, "cache hit rate", "serve:hit_rate", &|v| {
        format!("{:.1}%", 100.0 * v)
    });
    line(
        &mut out,
        "rejected arrivals",
        "serve:rejected_total",
        &|v| format!("{v:.0}"),
    );
    line(
        &mut out,
        "direct-path identity",
        "serve:identity_match_ratio",
        &|v| {
            if v >= 1.0 {
                "all results bitwise identical".to_string()
            } else {
                format!("MISMATCH: only {:.1}% identical", 100.0 * v)
            }
        },
    );
    line(
        &mut out,
        "setup per solve",
        "serve:setup_per_solve_s",
        &|v| format!("{v:.3e} s (amortized)"),
    );
    line(&mut out, "cold family build", "serve:cold_build_s", &|v| {
        format!("{v:.3e} s")
    });
    line(
        &mut out,
        "queue-wait fraction",
        "serve:queue_wait_frac",
        &|v| format!("{:.1}% of end-to-end latency", 100.0 * v),
    );
    out
}

/// Health-state code (0/1/2, the serve engine's `HealthState::code`) to its
/// label.  Unknown codes read as saturated — fail loud, not quiet.
fn health_label(code: f64) -> &'static str {
    match code as i64 {
        0 => "ok",
        1 => "degraded",
        _ => "saturated",
    }
}

/// Downsample to at most `width` buckets (mean per bucket) and render as an
/// eight-level Unicode sparkline.  A flat series renders as a run of
/// low blocks rather than collapsing to the empty string, so "constant"
/// and "absent" stay visually distinct.
fn sparkline(values: &[f64], width: usize) -> String {
    const LEVELS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if values.is_empty() {
        return String::new();
    }
    let nbins = values.len().min(width.max(1));
    let mut bins = vec![(0.0f64, 0usize); nbins];
    for (i, v) in values.iter().enumerate() {
        let b = (i * nbins / values.len()).min(nbins - 1);
        bins[b].0 += v;
        bins[b].1 += 1;
    }
    let means: Vec<f64> = bins
        .iter()
        .map(|(sum, n)| sum / (*n).max(1) as f64)
        .collect();
    let (lo, hi) = means
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    means
        .iter()
        .map(|&v| {
            if hi > lo {
                let idx = (((v - lo) / (hi - lo)) * 7.0).round() as usize;
                LEVELS[idx.min(7)]
            } else {
                LEVELS[0]
            }
        })
        .collect()
}

/// Robust per-series summaries of a metrics set, in series order — the
/// shape `compare_experiment` consumes, so the live A/B diff reuses the
/// gate's noise-aware verdicts and polarity heuristics verbatim.
fn series_summaries(set: &SeriesSet) -> Vec<(String, Summary)> {
    set.series()
        .iter()
        .filter_map(|s| summarize(&s.values()).map(|sum| (s.name().to_string(), sum)))
        .collect()
}

/// Render the live-telemetry view of a run: every `fun3d-metrics/1` time
/// series as a sparkline trend row with min/max/last, the health-state
/// timeline and SLO burn summary when the collector sampled them, and —
/// with a second run — a noise-aware per-series A/B diff (run B judged
/// against run A with the gate's polarity-aware verdicts).
pub fn render_live(run: &LoadedRun, other: Option<&LoadedRun>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# fun3d-report live: {} ({})\n",
        run.report.name, run.path
    ));
    if run.metrics.is_empty() {
        out.push_str(
            "\nno live metrics beside this report: rerun with --metrics so the\n\
             collector writes the <stem>.metrics.jsonl time series this view\n\
             renders.\n",
        );
        return out;
    }
    if let (Some(t), Some(b)) = (
        run.report.meta("slo_target_s"),
        run.report.meta("slo_budget_frac"),
    ) {
        out.push_str(&format!(
            "SLO: latency objective {t} s, error budget {b} of requests\n"
        ));
    }

    out.push_str("\n## Time series\n\n");
    let rows: Vec<Vec<String>> = run
        .metrics
        .series()
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let vals = s.values();
            let (lo, hi) = vals
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
                    (l.min(v), h.max(v))
                });
            vec![
                s.name().to_string(),
                sparkline(&vals, 40),
                fmt_sig(lo),
                fmt_sig(hi),
                fmt_sig(*vals.last().unwrap()),
                s.len().to_string(),
            ]
        })
        .collect();
    render_table(
        &mut out,
        &["series", "trend", "min", "max", "last", "n"],
        &rows,
    );

    if let Some(hs) = run.metrics.get("health_state") {
        out.push_str("\n## Health timeline\n\n");
        let mut prev: Option<f64> = None;
        for (t, v) in hs.points() {
            if prev != Some(v) {
                out.push_str(&format!("  {t:.3}s: {}\n", health_label(v)));
                prev = Some(v);
            }
        }
        if let Some(burn) = run.metrics.get("slo_burn") {
            let vals = burn.values();
            let peak = vals.iter().fold(0.0f64, |m, &v| m.max(v));
            let over = vals.iter().filter(|&&v| v > 1.0).count();
            out.push_str(&format!(
                "\npeak burn {peak:.2}x budget; {over} of {} samples above 1.0\n",
                vals.len()
            ));
        }
    }

    if let Some(o) = other {
        out.push_str(&format!("\n## Series A/B: {} vs {}\n\n", run.path, o.path));
        if o.metrics.is_empty() {
            out.push_str("run B carries no live metrics.\n");
            return out;
        }
        let base = ExperimentBaseline {
            name: run.report.name.clone(),
            metrics: series_summaries(&run.metrics)
                .into_iter()
                .map(|(k, s)| {
                    (
                        k,
                        MetricBaseline {
                            median: s.median,
                            mad: s.mad,
                            n: s.n,
                        },
                    )
                })
                .collect(),
        };
        let current = series_summaries(&o.metrics);
        let comparisons = compare_experiment(&current, Some(&base), &Tolerance::default());
        let rows: Vec<Vec<String>> = comparisons
            .iter()
            .map(|c| {
                vec![
                    c.key.clone(),
                    c.baseline
                        .map_or("-".to_string(), |bl| format!("{:.4e}", bl.median)),
                    format!("{:.4e}", c.current.median),
                    format!("{:+.4e}", c.delta),
                    c.verdict.label().to_string(),
                ]
            })
            .collect();
        render_table(
            &mut out,
            &["series", "A median", "B median", "delta", "verdict"],
            &rows,
        );
    }
    out
}

/// One ranked bottleneck hypothesis produced by [`render_explain`]: a cause
/// tag, a confidence score in [0, 1], and the evidence lines behind it.
#[derive(Debug, Clone)]
struct Hypothesis {
    cause: &'static str,
    confidence: f64,
    evidence: Vec<String>,
}

/// Anomaly-terminated: the solver's health monitor tripped (anomaly events
/// in the stream, an `anomaly:count` metric, or a flight-recorder dump
/// taken for a non-manual reason).  A run that died is diagnosed as such
/// before any performance cause is entertained.
fn anomaly_hypothesis(run: &LoadedRun, blackbox: Option<&BlackboxDump>) -> Option<Hypothesis> {
    // Repeated anomalies (one per table row, say) collapse to one line
    // with a count — the diagnosis is the kind, not the repetition.
    let mut evidence: Vec<String> = Vec::new();
    let mut counts: Vec<(String, usize)> = Vec::new();
    for e in &run.events.records {
        if let EventRecord::Anomaly {
            kind,
            step,
            residual_norm,
            detail,
        } = e
        {
            let line = format!(
                "solver anomaly `{kind}` at step {step} (residual {residual_norm:.3e}): {detail}"
            );
            match counts.iter_mut().find(|(l, _)| *l == line) {
                Some((_, n)) => *n += 1,
                None => counts.push((line, 1)),
            }
        }
    }
    for (line, n) in counts {
        if n > 1 {
            evidence.push(format!("{line} (x{n})"));
        } else {
            evidence.push(line);
        }
    }
    if let Some(n) = run.report.metric("anomaly:count") {
        if n > 0.0 {
            evidence.push(format!("anomaly:count = {n:.0} in the perf report"));
        }
    }
    if let Some(bb) = blackbox {
        if bb.reason != "manual" {
            evidence.push(format!(
                "flight-recorder dump taken (reason `{}`)",
                bb.reason
            ));
        }
    }
    (!evidence.is_empty()).then_some(Hypothesis {
        cause: "anomaly-terminated",
        confidence: 0.97,
        evidence,
    })
}

/// Bandwidth-bound: byte-counted spans achieving a large fraction of the
/// measured STREAM triad, weighted by the share of runtime they cover.  The
/// memmodel delta is the span's measured time against the time its modeled
/// traffic would take at the full STREAM rate.
fn bandwidth_hypothesis(run: &LoadedRun) -> Option<Hypothesis> {
    let r = &run.report;
    let bw = bandwidth_spans(r);
    if bw.is_empty() {
        return None;
    }
    let stream = r.metric("stream_triad_bytes_per_s").filter(|t| *t > 0.0);
    let roots: f64 = r
        .spans
        .iter()
        .filter(|s| !s.path.contains('/'))
        .map(|s| s.total_s)
        .sum();
    let bw_time: f64 = bw.iter().map(|s| s.total_s).sum();
    let share = if roots > 0.0 {
        (bw_time / roots).min(1.0)
    } else {
        1.0
    };
    let mut evidence = Vec::new();
    let mut best_pct: f64 = 0.0;
    for s in &bw {
        let bytes = s.counter("bytes").unwrap_or(0.0);
        let gbps = bytes / s.total_s / 1e9;
        match stream {
            Some(t) => {
                let pct = gbps * 1e9 / t;
                best_pct = best_pct.max(pct);
                evidence.push(format!(
                    "{}: {:.2} GB/s = {:.0}% of STREAM triad ({:.2} GB/s roofline)",
                    s.path,
                    gbps,
                    100.0 * pct,
                    t / 1e9
                ));
                let predicted = bytes / t;
                evidence.push(format!(
                    "  memmodel: {predicted:.3e} s predicted from {bytes:.3e} modeled bytes \
                     at STREAM rate; measured {:.3e} s ({:.2}x model)",
                    s.total_s,
                    s.total_s / predicted.max(f64::MIN_POSITIVE)
                ));
            }
            None => evidence.push(format!(
                "{}: {gbps:.2} GB/s achieved (no stream_triad_bytes_per_s anchor in report)",
                s.path
            )),
        }
    }
    // Traffic-dominated runtime is bandwidth-bound almost by construction;
    // how close the kernels run to the roofline refines the score.  Capped
    // below the anomaly score: a dead run outranks a fast one.
    let pct_term = stream.map_or(0.5, |_| best_pct.min(1.0));
    Some(Hypothesis {
        cause: "bandwidth-bound",
        confidence: (share * (0.5 + 0.5 * pct_term)).min(0.95),
        evidence,
    })
}

/// Imbalance-bound: parallel regions whose slowest thread holds the rest
/// hostage.  `1 - 1/imbalance` is the fraction of the region's wall time
/// that perfect balance would recover.
fn imbalance_hypothesis(run: &LoadedRun) -> Option<Hypothesis> {
    let regions = region_spans(&run.report);
    if regions.is_empty() {
        return None;
    }
    let mut worst: f64 = 1.0;
    let mut evidence = Vec::new();
    for s in &regions {
        let imbal = s.counter("imbalance").unwrap_or(1.0);
        worst = worst.max(imbal);
        evidence.push(format!(
            "{}: imbalance {imbal:.2} (busy max {:.3e} s vs mean {:.3e} s), join wait {:.3e} s",
            region_label(&s.path),
            s.counter("busy_max_s").unwrap_or(0.0),
            s.counter("busy_mean_s").unwrap_or(0.0),
            s.counter("join_wait_s").unwrap_or(0.0)
        ));
    }
    Some(Hypothesis {
        cause: "imbalance-bound",
        confidence: (1.0 - 1.0 / worst.max(1.0)).clamp(0.0, 1.0),
        evidence,
    })
}

/// Comm-wait-bound: critical-path wait share, per-rank wait fractions, and
/// the queue-wait fraction of a serving run.
fn comm_wait_hypothesis(run: &LoadedRun) -> Option<Hypothesis> {
    let r = &run.report;
    let mut evidence = Vec::new();
    let mut frac: f64 = 0.0;
    if let (Some(total), Some(wait)) = (r.metric("cp:total_s"), r.metric("cp:wait_s")) {
        if total > 0.0 {
            frac = frac.max(wait / total);
            evidence.push(format!(
                "critical path: {wait:.3e} s of {total:.3e} s spent waiting ({:.1}%)",
                100.0 * wait / total
            ));
        }
    }
    let rows = rank_phase_rows(r);
    if let Some((i, p)) = rows
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.wait_frac().total_cmp(&b.1.wait_frac()))
    {
        frac = frac.max(p.wait_frac());
        evidence.push(format!(
            "rank {i}: {:.1}% of its time waiting ({:.3e} s of {:.3e} s)",
            100.0 * p.wait_frac(),
            p.wait,
            p.total()
        ));
    }
    for key in [
        "rank:scatter:wait_frac",
        "rank:reduction:wait_frac",
        "serve:queue_wait_frac",
    ] {
        if let Some(v) = r.metric(key) {
            frac = frac.max(v);
            evidence.push(format!("{key} = {v:.3}"));
        }
    }
    (!evidence.is_empty()).then_some(Hypothesis {
        cause: "comm-wait-bound",
        confidence: frac.clamp(0.0, 1.0),
        evidence,
    })
}

/// Latency-bound: a span histogram with a fat tail (p99 far above p50)
/// points at per-call jitter rather than a structural throughput limit.
/// Capped below the structural causes — a tail alone is weak evidence.
fn latency_hypothesis(run: &LoadedRun) -> Option<Hypothesis> {
    let mut worst: Option<(&str, f64, f64)> = None;
    for s in &run.report.spans {
        if let (Some(p50), Some(p99)) = (s.p50(), s.p99()) {
            if p50 > 0.0 && p99 > 0.0 {
                let fatter = match worst {
                    Some((_, w50, w99)) => p99 / p50 > w99 / w50,
                    None => true,
                };
                if fatter {
                    worst = Some((&s.path, p50, p99));
                }
            }
        }
    }
    let (path, p50, p99) = worst?;
    let ratio = p99 / p50;
    Some(Hypothesis {
        cause: "latency-bound",
        confidence: ((1.0 - 1.0 / ratio).clamp(0.0, 1.0)) * 0.45,
        evidence: vec![format!(
            "{path}: p99 {p99:.3e} s vs p50 {p50:.3e} s ({ratio:.1}x tail)"
        )],
    })
}

/// The cause family a regressed metric key points at, for A/B attribution.
fn metric_cause(key: &str) -> &'static str {
    if key.contains("gbps") || key.contains("bytes_per_s") || key.contains("bandwidth") {
        "bandwidth"
    } else if key.contains("imbalance") || key.contains("join_wait") {
        "imbalance"
    } else if key.contains("wait") || key.starts_with("cp:") {
        "comm-wait"
    } else if key.contains("p99") || key.contains("p95") {
        "latency tail"
    } else {
        "time"
    }
}

/// Attribute a regression between two runs to the phase and cause that
/// moved: judge run B against run A metric by metric (polarity-aware, the
/// gate's verdicts), group the regressed keys by their span-path phase, and
/// rank phases by their worst relative degradation.
fn render_attribution(a: &LoadedRun, b: &LoadedRun) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\n## A/B attribution: {} (A) vs {} (B)\n\n",
        a.path, b.path
    ));
    let base = ExperimentBaseline {
        name: a.report.name.clone(),
        metrics: effective_metrics(&a.report)
            .into_iter()
            .map(|(k, v)| {
                (
                    k,
                    MetricBaseline {
                        median: v,
                        mad: 0.0,
                        n: 1,
                    },
                )
            })
            .collect(),
    };
    let current: Vec<(String, Summary)> = effective_metrics(&b.report)
        .into_iter()
        .map(|(k, v)| {
            (
                k,
                Summary {
                    n: 1,
                    median: v,
                    mad: 0.0,
                    min: v,
                    max: v,
                },
            )
        })
        .collect();
    let comparisons = compare_experiment(&current, Some(&base), &Tolerance::default());

    // Worst regressed mover per phase (the span path of `path:metric` keys;
    // bare keys are run-level).  Causes are ranked separately from movers:
    // a bandwidth drop is more diagnostic than the time/tail metrics it
    // inflates, even when those move further in relative terms.
    struct PhaseRow {
        phase: String,
        line: String,
        rel: f64,
        cause_rank: usize,
    }
    let cause_rank = |cause: &str| {
        [
            "bandwidth",
            "imbalance",
            "comm-wait",
            "latency tail",
            "time",
        ]
        .iter()
        .position(|c| *c == cause)
        .unwrap_or(usize::MAX)
    };
    let mut phases: Vec<PhaseRow> = Vec::new();
    for c in &comparisons {
        if c.verdict != Verdict::Regressed {
            continue;
        }
        let Some(bl) = c.baseline else { continue };
        let worse = if higher_is_better(&c.key) {
            -c.delta
        } else {
            c.delta
        };
        let rel = worse / bl.median.abs().max(f64::MIN_POSITIVE);
        let phase = match c.key.rsplit_once(':') {
            Some((p, _)) if !p.is_empty() => p.to_string(),
            _ => "run-level".to_string(),
        };
        let rank = cause_rank(metric_cause(&c.key));
        let line = format!(
            "`{}` {:.4e} -> {:.4e} ({:+.0}%, cause: {})",
            c.key,
            bl.median,
            c.current.median,
            100.0 * rel * if higher_is_better(&c.key) { -1.0 } else { 1.0 },
            metric_cause(&c.key)
        );
        match phases.iter_mut().find(|r| r.phase == phase) {
            Some(entry) => {
                if rel > entry.rel {
                    entry.line = line;
                    entry.rel = rel;
                }
                entry.cause_rank = entry.cause_rank.min(rank);
            }
            None => phases.push(PhaseRow {
                phase,
                line,
                rel,
                cause_rank: rank,
            }),
        }
    }
    if phases.is_empty() {
        out.push_str(
            "no metric regressed beyond tolerance: A and B are statistically the same run.\n",
        );
        return out;
    }
    // Span phases outrank the run-level bucket regardless of magnitude:
    // only a named phase can answer "where did the time go", so run-level
    // metrics are a fallback when nothing phase-scoped moved.
    phases.sort_by(|x, y| {
        (x.phase == "run-level")
            .cmp(&(y.phase == "run-level"))
            .then(y.rel.total_cmp(&x.rel))
    });
    for row in &phases {
        out.push_str(&format!(
            "regressed phase: {} — worst mover {}\n",
            row.phase, row.line
        ));
    }
    let top = &phases[0];
    let cause = [
        "bandwidth",
        "imbalance",
        "comm-wait",
        "latency tail",
        "time",
    ]
    .get(top.cause_rank)
    .copied()
    .unwrap_or("time");
    out.push_str(&format!(
        "\nregression attributed to phase `{}` (cause: {cause})\n",
        top.phase
    ));

    // Span-tree corroboration: the span whose total time grew the most.
    let mut grown: Option<(String, f64, f64)> = None;
    for sb in &b.report.spans {
        if let Some(sa) = a.report.span(&sb.path) {
            if sa.total_s > 0.0 {
                let rel = (sb.total_s - sa.total_s) / sa.total_s;
                if rel > 0.05 && grown.as_ref().is_none_or(|g| rel > g.2) {
                    grown = Some((sb.path.clone(), sa.total_s, rel));
                }
            }
        }
    }
    if let Some((path, was, rel)) = grown {
        out.push_str(&format!(
            "span `{path}` grew {was:.3e} s -> {:.3e} s ({:+.0}%)\n",
            was * (1.0 + rel),
            100.0 * rel
        ));
    }
    out
}

/// Render a parsed flight-recorder dump: the dump header plus each thread
/// ring's accounting and most recent records.
pub fn render_blackbox(bb: &BlackboxDump) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\n## Flight recorder ({})\n\n",
        fun3d_telemetry::blackbox::SCHEMA
    ));
    out.push_str(&format!(
        "reason: {}; capacity {} records/thread; {} ring(s)\n",
        bb.reason,
        bb.capacity,
        bb.rings.len()
    ));
    const TAIL: usize = 12;
    for ring in &bb.rings {
        out.push_str(&format!(
            "\n{}: {} written, {} dropped, {} captured; most recent last:\n",
            ring.thread,
            ring.written,
            ring.dropped,
            ring.records.len()
        ));
        let skip = ring.records.len().saturating_sub(TAIL);
        if skip > 0 {
            out.push_str(&format!("  ... {skip} older record(s) elided ...\n"));
        }
        for rec in ring.records.iter().skip(skip) {
            let line = match rec {
                FlightRecord::Span { path, t_s, dur_s } => {
                    format!("[{t_s:9.4}s] span    {path} ({dur_s:.3e} s)")
                }
                FlightRecord::Counter { path, delta, t_s } => {
                    format!("[{t_s:9.4}s] counter {path} {delta:+.3e}")
                }
                FlightRecord::Event { tag, data, t_s } => {
                    format!("[{t_s:9.4}s] event   {tag} {data}")
                }
            };
            out.push_str(&format!("  {line}\n"));
        }
    }
    out
}

/// Render the diagnosis view: join the run's perf report, profiler roofline
/// rows, rank-trace critical path, histogram tails, anomaly events, and
/// flight-recorder dump into a ranked list of bottleneck hypotheses with
/// evidence lines.  With a second run, append an A/B attribution naming the
/// phase and cause that moved.  With only a dump (`run = None`, the shape a
/// panicked run leaves behind), the diagnosis is anomaly-terminated and the
/// dump is rendered alone.
pub fn render_explain(
    run: Option<&LoadedRun>,
    other: Option<&LoadedRun>,
    blackbox: Option<&BlackboxDump>,
) -> String {
    let mut out = String::new();
    match run {
        Some(run) => {
            out.push_str(&format!(
                "# fun3d-report explain: {} ({})\n",
                run.report.name, run.path
            ));
            let mut hyps: Vec<Hypothesis> = Vec::new();
            hyps.extend(anomaly_hypothesis(run, blackbox));
            hyps.extend(bandwidth_hypothesis(run));
            hyps.extend(imbalance_hypothesis(run));
            hyps.extend(comm_wait_hypothesis(run));
            hyps.extend(latency_hypothesis(run));
            hyps.sort_by(|x, y| y.confidence.total_cmp(&x.confidence));
            if hyps.is_empty() {
                out.push_str(
                    "\nno diagnosis possible: the report carries no byte counters, region\n\
                     profiles, rank traces, histograms, or anomaly events.  Rerun with\n\
                     --profile, --trace-ranks, or --events to give `explain` evidence.\n",
                );
            } else {
                out.push_str("\n## Ranked bottleneck hypotheses\n\n");
                for (i, h) in hyps.iter().enumerate() {
                    out.push_str(&format!(
                        "{}. {} (confidence {:.2})\n",
                        i + 1,
                        h.cause,
                        h.confidence
                    ));
                    for e in &h.evidence {
                        out.push_str(&format!("   - {e}\n"));
                    }
                }
                out.push_str(&format!(
                    "\nexplain:confidence = {:.2} (top hypothesis `{}`; reported only, never gated)\n",
                    hyps[0].confidence, hyps[0].cause
                ));
            }
            if let Some(o) = other {
                out.push_str(&render_attribution(run, o));
            }
        }
        None => {
            out.push_str("# fun3d-report explain: flight-recorder dump only\n");
            if let Some(bb) = blackbox {
                out.push_str("\n## Ranked bottleneck hypotheses\n\n");
                out.push_str(&format!(
                    "1. anomaly-terminated (confidence 0.97)\n   - run died with a \
                     flight-recorder dump (reason `{}`) before writing a report\n",
                    bb.reason
                ));
                out.push_str(
                    "\nexplain:confidence = 0.97 (top hypothesis `anomaly-terminated`; \
                     reported only, never gated)\n",
                );
            }
        }
    }
    if let Some(bb) = blackbox {
        out.push_str(&render_blackbox(bb));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_telemetry::events::EventSink;
    use fun3d_telemetry::Registry;

    fn sample_run(time_s: f64) -> LoadedRun {
        let tel = Registry::enabled(0);
        for _ in 0..4 {
            let _g = tel.span("nks");
        }
        let mut report = PerfReport::new("unit")
            .with_meta("scale", "0.1")
            .with_snapshot(&tel.snapshot());
        report.push_metric("time_s", time_s);
        let sink = EventSink::enabled();
        sink.emit(EventRecord::RunMeta {
            name: "unit".into(),
            meta: vec![],
        });
        for step in 0..3u64 {
            sink.emit(EventRecord::NewtonStep {
                step,
                residual_norm: 1.0 / (step + 1) as f64,
                cfl: 5.0 * (step + 1) as f64,
                gmres_iters: 7,
                eta: 1e-2,
                t_residual: 0.1,
                t_jacobian: 0.2,
                t_precond: 0.05,
                t_krylov: 0.3,
            });
        }
        sink.emit(EventRecord::Scatter {
            bytes: 1024,
            neighbors: 3,
            t: 1e-5,
        });
        sink.emit(EventRecord::Checkpoint {
            step: 2,
            path: "ck.txt".into(),
        });
        LoadedRun {
            path: "unit.json".into(),
            report,
            events: EventStream::new(sink.drain()),
            metrics: Default::default(),
        }
    }

    #[test]
    fn show_renders_all_sections() {
        let run = sample_run(1.0);
        let text = render_show(&run);
        assert!(text.contains("# fun3d-report: unit"));
        assert!(text.contains("## Metrics"));
        assert!(text.contains("## Phase breakdown (Table 3)"));
        assert!(text.contains("Convergence (Figure 5)"));
        assert!(text.contains("## Ghost scatters"));
        assert!(text.contains("## Checkpoints"));
        assert!(text.contains("p95_s"));
    }

    #[test]
    fn self_diff_has_zero_regressions() {
        let run = sample_run(1.0);
        let d = render_diff(&run, &run, &Tolerance::default());
        assert_eq!(d.regressions, 0);
        assert!(d.text.contains("regressions: 0"));
        assert!(d.text.contains("## Span deltas"));
    }

    #[test]
    fn slower_run_regresses() {
        let a = sample_run(1.0);
        let b = sample_run(2.0);
        let d = render_diff(&a, &b, &Tolerance::default());
        assert!(d.regressions >= 1, "{}", d.text);
        assert!(d.text.contains("REGRESSED"));
    }

    #[test]
    fn effective_metrics_fold_in_span_tails_once() {
        let run = sample_run(1.0);
        let m = effective_metrics(&run.report);
        assert_eq!(m.iter().filter(|(k, _)| k == "nks:p95_s").count(), 1);
        // Already-present keys are not duplicated.
        let mut r2 = run.report.clone();
        let tails = r2.tail_metrics();
        for (k, v) in tails {
            r2.push_metric(k, v);
        }
        let m2 = effective_metrics(&r2);
        assert_eq!(m2.iter().filter(|(k, _)| k == "nks:p95_s").count(), 1);
    }

    /// A run the way a `--profile --threads N` bench run produces it:
    /// `par/{label}` region spans with derived counters, a byte-counted
    /// kernel span, and the STREAM anchor metric.
    fn profiled_run(nthreads: u64) -> LoadedRun {
        use fun3d_telemetry::TimeDomain;
        let tel = Registry::enabled(0);
        let m = TimeDomain::Measured;
        tel.record_span("par/spmv_csr", m, 0.5, 7);
        tel.counter_at("par/spmv_csr", m, "nthreads", nthreads as f64);
        tel.counter_at("par/spmv_csr", m, "busy_max_s", 0.45);
        tel.counter_at("par/spmv_csr", m, "busy_mean_s", 0.40);
        tel.counter_at("par/spmv_csr", m, "join_wait_s", 0.20);
        tel.counter_at("par/spmv_csr", m, "imbalance", 1.125);
        for t in 0..nthreads {
            tel.counter_at("par/spmv_csr", m, &format!("busy_t{t}_s"), 0.40);
        }
        tel.record_span("spmv/csr", m, 2.0, 10);
        tel.counter_at("spmv/csr", m, "bytes", 30e9);
        let mut report = PerfReport::new("spmv")
            .with_meta("nthreads", nthreads.to_string())
            .with_snapshot(&tel.snapshot());
        report.push_metric("stream_triad_bytes_per_s", 20e9);
        LoadedRun {
            path: format!("spmv_t{nthreads}.json"),
            report,
            events: EventStream::default(),
            metrics: Default::default(),
        }
    }

    #[test]
    fn profile_renders_imbalance_and_roofline_tables() {
        let run = profiled_run(2);
        let text = render_profile(&run, None);
        assert!(text.contains("load imbalance (Table 3)"), "{text}");
        assert!(text.contains("Achieved bandwidth (Table 2)"), "{text}");
        assert!(text.contains("spmv_csr"), "{text}");
        assert!(text.contains("busy_t0"), "{text}");
        // 30e9 bytes over 2.0 s = 15 GB/s, 75% of the 20 GB/s triad.
        assert!(text.contains("15.00"), "{text}");
        assert!(text.contains("75%"), "{text}");
        assert!(text.contains("1.12"), "{text}");
    }

    #[test]
    fn profile_without_data_says_so() {
        let run = sample_run(1.0);
        let text = render_profile(&run, None);
        assert!(text.contains("no profile data"), "{text}");
        assert!(!text.contains("Table 2"), "{text}");
    }

    #[test]
    fn profile_ab_diff_pairs_regions_across_thread_counts() {
        let a = profiled_run(1);
        let b = profiled_run(4);
        let text = render_profile(&a, Some(&b));
        assert!(text.contains("Region A/B"), "{text}");
        assert!(text.contains("spmv_csr"), "{text}");
        // Same wall/call on both sides -> 1.00x speedup column.
        assert!(text.contains("1.00x"), "{text}");
        // No shared labels: the section degrades to a note, not a panic.
        let text = render_profile(&a, Some(&sample_run(1.0)));
        assert!(text.contains("no region labels in common"), "{text}");
    }

    #[test]
    fn show_prints_region_summary_only_when_present() {
        let run = profiled_run(2);
        let text = render_show(&run);
        assert!(text.contains("## Parallel regions (2 threads)"), "{text}");
        assert!(text.contains("imbalance 1.12"), "{text}");
        // Runs without profile data keep the pre-profile rendering.
        let plain = sample_run(1.0);
        assert!(!render_show(&plain).contains("Parallel regions"));
    }

    #[test]
    fn old_reports_without_profile_data_round_trip_and_render() {
        // A pre-profile report exactly as PR-4-era tooling wrote it: no
        // `par/` spans, no byte counters, no histograms.  It must still
        // parse, render without the profile sections, and round-trip.
        let legacy = r#"{"schema":"fun3d-perf/1","name":"spmv","meta":{"nthreads":"1"},"metrics":{"time_csr_s":0.002},"spans":[{"path":"spmv/csr","domain":"measured","calls":8,"total_s":0.016,"counters":{}}]}"#;
        let report = PerfReport::from_json_str(legacy).unwrap();
        assert_eq!(
            PerfReport::from_json_str(&report.to_json_string()).unwrap(),
            report
        );
        let run = LoadedRun {
            path: "legacy.json".into(),
            report,
            events: EventStream::default(),
            metrics: Default::default(),
        };
        let show = render_show(&run);
        assert!(!show.contains("Parallel regions"), "{show}");
        let profile = render_profile(&run, None);
        assert!(profile.contains("no profile data"), "{profile}");
    }

    fn traced_run(rank1_compute: f64) -> LoadedRun {
        use fun3d_telemetry::TimeDomain;
        let tel = Registry::enabled(0);
        let s = TimeDomain::Simulated;
        tel.record_span("rank0/compute", s, 1.0, 12);
        tel.record_span("rank0/scatter", s, 0.2, 24);
        tel.counter_at("rank0/scatter", s, "bytes_sent", 4096.0);
        tel.counter_at("rank0/scatter", s, "msgs_sent", 24.0);
        tel.counter_at("rank0/scatter", s, "to1_bytes", 4096.0);
        tel.record_span("rank0/reduction", s, 0.1, 12);
        tel.record_span("rank0/wait", s, 0.3, 36);
        tel.record_span("rank1/compute", s, rank1_compute, 12);
        tel.record_span("rank1/scatter", s, 0.2, 24);
        tel.counter_at("rank1/scatter", s, "bytes_sent", 2048.0);
        tel.counter_at("rank1/scatter", s, "msgs_sent", 24.0);
        tel.counter_at("rank1/scatter", s, "to0_bytes", 2048.0);
        tel.record_span("rank1/reduction", s, 0.1, 12);
        tel.record_span("rank1/wait", s, 0.05, 36);
        let mut report = PerfReport::new("ranks")
            .with_meta("nranks", "2")
            .with_meta("partition", "kway")
            .with_snapshot(&tel.snapshot());
        report.push_metric("time_s", 1.0 + rank1_compute.max(1.0));
        report.push_metric("cp:total_s", 1.9);
        report.push_metric("cp:compute_s", 1.5);
        report.push_metric("cp:exchange_s", 0.3);
        report.push_metric("cp:wait_s", 0.1);
        report.push_metric("cp:hops", 7.0);
        report.push_metric("eta_overall", 0.55);
        report.push_metric("eta_alg", 0.58);
        report.push_metric("eta_impl", 0.94);
        LoadedRun {
            path: "traced.json".into(),
            report,
            events: EventStream::default(),
            metrics: Default::default(),
        }
    }

    #[test]
    fn comm_renders_per_rank_table_and_marks_laggard() {
        let run = traced_run(1.4);
        let out = render_comm(&run, None);
        assert!(out.contains("ranks: 2 (partition: kway)"), "{out}");
        assert!(out.contains("Per-rank phases"), "{out}");
        // rank 1 has the most compute time, so it is the laggard.
        let laggard_line = out
            .lines()
            .find(|l| l.contains("<- laggard"))
            .expect("laggard marked");
        let first_cell = laggard_line
            .split('|')
            .nth(1)
            .map(str::trim)
            .unwrap_or_default();
        assert_eq!(first_cell, "1", "{laggard_line}");
        assert!(out.contains("Neighbor volume"), "{out}");
        assert!(out.contains("Critical path"), "{out}");
        assert!(out.contains("eta_impl"), "{out}");
        assert!(out.contains("busiest rank accounts for"), "{out}");
    }

    #[test]
    fn comm_without_trace_suggests_trace_ranks_flag() {
        let run = sample_run(1.0);
        let out = render_comm(&run, None);
        assert!(out.contains("no per-rank trace"), "{out}");
        assert!(out.contains("--trace-ranks"), "{out}");
    }

    #[test]
    fn comm_ab_compares_wait_fractions_per_rank() {
        let a = traced_run(1.4);
        let b = traced_run(1.0);
        let out = render_comm(&a, Some(&b));
        assert!(out.contains("Per-rank wait A/B"), "{out}");
        assert!(out.contains("A wait %"), "{out}");
        // Both runs traced two ranks, so both rows pair up.
        let rows: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.contains("A wait %"))
            .filter(|l| {
                let cell = l.split('|').nth(1).map(str::trim).unwrap_or_default();
                cell == "0" || cell == "1"
            })
            .collect();
        assert_eq!(rows.len(), 2, "{out}");
        // An untraced B degrades gracefully.
        let out = render_comm(&a, Some(&sample_run(1.0)));
        assert!(out.contains("run B carries no per-rank trace"), "{out}");
    }

    #[test]
    fn render_serve_tables_rates_and_summary() {
        let mut report = PerfReport::new("serve")
            .with_meta("workers", "2")
            .with_meta("queue_depth", "4")
            .with_meta("max_batch", "4")
            .with_meta("nverts", "120");
        for i in 0..2 {
            report.meta.push((
                format!("rate{i}:offered_per_s"),
                format!("{}.00", 10 * (i + 1)),
            ));
            report.push_metric(format!("rate{i}:solves_per_s"), 9.5 + i as f64);
            report.push_metric(format!("rate{i}:p50_s"), 0.01);
            report.push_metric(format!("rate{i}:p95_s"), 0.02);
            report.push_metric(format!("rate{i}:p99_s"), 0.03);
            report.push_metric(format!("rate{i}:rejected"), i as f64);
        }
        // A fully-shed rate: achieved throughput but an empty latency
        // histogram, so no quantile metrics exist for it at all.
        report
            .meta
            .push(("rate2:offered_per_s".into(), "30.00".into()));
        report.push_metric("rate2:solves_per_s", 0.0);
        report.push_metric("rate2:rejected", 30.0);
        report.push_metric("serve:capacity_solves_per_s", 12.0);
        report.push_metric("serve:peak_solves_per_s", 10.5);
        report.push_metric("serve:knee_solves_per_s", 10.5);
        report.push_metric("serve:hit_rate", 0.96);
        report.push_metric("serve:rejected_total", 1.0);
        report.push_metric("serve:identity_match_ratio", 1.0);
        let run = LoadedRun {
            path: "serve.json".into(),
            report,
            events: EventStream::default(),
            metrics: Default::default(),
        };
        let out = render_serve(&run);
        assert!(out.contains("Open-loop rate sweep"), "{out}");
        assert!(out.contains("10.50"), "{out}");
        assert!(out.contains("96.0%"), "{out}");
        assert!(out.contains("all results bitwise identical"), "{out}");
        // The quantile-less rate keeps its row, with "n/a" latency cells.
        let rate2 = out
            .lines()
            .find(|l| l.split('|').nth(1).map(str::trim).unwrap_or_default() == "2")
            .expect("rate 2 row present");
        assert_eq!(rate2.matches("n/a").count(), 3, "{rate2}");
        assert!(rate2.contains("30"), "{rate2}");
        // Non-serve reports degrade to a note, not a panic.
        let other = sample_run(1.0);
        let out = render_serve(&other);
        assert!(out.contains("no rate-sweep metrics"), "{out}");
    }

    /// A run the way a `--metrics` serve sweep produces it: a metrics
    /// sidecar with queue/throughput/latency series plus the SLO burn and
    /// health-state series the collector samples from `Engine::health`.
    /// `scale` degrades the run: it divides throughput and multiplies
    /// queue depth and p99.
    fn live_run(scale: f64) -> LoadedRun {
        let mut metrics = SeriesSet::new(64);
        for i in 0..32u32 {
            let t = f64::from(i) * 0.1;
            metrics.record("queue_depth", t, f64::from(i % 4) * scale);
            metrics.record("throughput_solves_per_s", t, 100.0 / scale);
            metrics.record("p99_s", t, 0.01 * scale);
            metrics.record("slo_burn", t, if i >= 16 { 2.0 } else { 0.0 });
            metrics.record("health_state", t, if i >= 16 { 1.0 } else { 0.0 });
        }
        let mut report = PerfReport::new("serve")
            .with_meta("slo_target_s", "0.25")
            .with_meta("slo_budget_frac", "0.05");
        report.push_metric("serve:peak_solves_per_s", 100.0 / scale);
        LoadedRun {
            path: format!("serve_x{scale}.json"),
            report,
            events: EventStream::default(),
            metrics,
        }
    }

    #[test]
    fn live_renders_sparklines_and_health_timeline() {
        let run = live_run(1.0);
        let out = render_live(&run, None);
        assert!(out.contains("## Time series"), "{out}");
        assert!(out.contains("queue_depth"), "{out}");
        assert!(out.contains('\u{2581}'), "{out}");
        assert!(out.contains("SLO: latency objective 0.25 s"), "{out}");
        assert!(out.contains("0.000s: ok"), "{out}");
        assert!(out.contains("1.600s: degraded"), "{out}");
        assert!(out.contains("peak burn 2.00x"), "{out}");
        // Without a metrics sidecar the view degrades to a note.
        let out = render_live(&sample_run(1.0), None);
        assert!(out.contains("no live metrics"), "{out}");
        assert!(out.contains("--metrics"), "{out}");
    }

    #[test]
    fn live_ab_diff_is_polarity_aware() {
        let a = live_run(1.0);
        // Half the throughput, double the tail latency: a worse run on
        // both a higher-is-better and a lower-is-better series.
        let b = live_run(2.0);
        let out = render_live(&a, Some(&b));
        assert!(out.contains("## Series A/B"), "{out}");
        let regressed: Vec<&str> = out.lines().filter(|l| l.contains("REGRESSED")).collect();
        assert!(
            regressed
                .iter()
                .any(|l| l.contains("throughput_solves_per_s")),
            "{out}"
        );
        assert!(regressed.iter().any(|l| l.contains("p99_s")), "{out}");
        // Same run on both sides: nothing regresses.
        let out = render_live(&a, Some(&a));
        assert!(!out.contains("REGRESSED"), "{out}");
        // A metrics-less B degrades to a note.
        let out = render_live(&a, Some(&sample_run(1.0)));
        assert!(out.contains("run B carries no live metrics"), "{out}");
    }

    #[test]
    fn load_autodiscovers_sibling_events() {
        let dir = std::env::temp_dir();
        let rp = dir.join("fun3d_report_cli_test.json");
        let rp = rp.to_str().unwrap().to_string();
        let run = sample_run(1.0);
        run.report.write_json(&rp).unwrap();
        run.events.write_jsonl(&sibling_events_path(&rp)).unwrap();
        let loaded = LoadedRun::load(&rp, None).unwrap();
        assert_eq!(loaded.events, run.events);
        std::fs::remove_file(&rp).ok();
        std::fs::remove_file(sibling_events_path(&rp)).ok();
        // Without the sibling the stream is empty, not an error.
        let rp2 = dir.join("fun3d_report_cli_test2.json");
        let rp2 = rp2.to_str().unwrap().to_string();
        run.report.write_json(&rp2).unwrap();
        let loaded = LoadedRun::load(&rp2, None).unwrap();
        assert!(loaded.events.is_empty());
        std::fs::remove_file(&rp2).ok();
    }

    #[test]
    fn explain_ranks_bandwidth_bound_for_profiled_spmv() {
        let run = profiled_run(2);
        let text = render_explain(Some(&run), None, None);
        assert!(text.contains("Ranked bottleneck hypotheses"), "{text}");
        // The byte-counted SpMV kernel dominates: bandwidth-bound on top,
        // with the %-of-STREAM evidence line and the memmodel delta.
        assert!(text.contains("1. bandwidth-bound"), "{text}");
        assert!(text.contains("75% of STREAM triad"), "{text}");
        assert!(text.contains("memmodel:"), "{text}");
        assert!(text.contains("explain:confidence"), "{text}");
        // The imbalanced region still appears, ranked below.
        assert!(text.contains("imbalance-bound"), "{text}");
    }

    #[test]
    fn explain_puts_anomalies_first() {
        let mut run = sample_run(1.0);
        run.events.records.push(EventRecord::Anomaly {
            kind: "non_finite_residual".into(),
            step: 3,
            residual_norm: f64::NAN,
            detail: "residual norm is not finite".into(),
        });
        let text = render_explain(Some(&run), None, None);
        assert!(text.contains("1. anomaly-terminated"), "{text}");
        assert!(text.contains("non_finite_residual"), "{text}");
        assert!(text.contains("at step 3"), "{text}");
    }

    #[test]
    fn explain_without_evidence_says_so() {
        let run = LoadedRun {
            path: "bare.json".into(),
            report: PerfReport::new("bare"),
            events: EventStream::default(),
            metrics: Default::default(),
        };
        let text = render_explain(Some(&run), None, None);
        assert!(text.contains("no diagnosis possible"), "{text}");
        assert!(text.contains("--profile"), "{text}");
    }

    /// A byte-counted run whose kernel takes `total_s`: slowing it down
    /// drops the achieved GB/s, the regression signature `explain` must
    /// attribute.
    fn bw_run(total_s: f64) -> LoadedRun {
        use fun3d_telemetry::TimeDomain;
        let tel = Registry::enabled(0);
        tel.record_span("spmv/csr", TimeDomain::Measured, total_s, 10);
        tel.counter_at("spmv/csr", TimeDomain::Measured, "bytes", 30e9);
        let mut report = PerfReport::new("spmv").with_snapshot(&tel.snapshot());
        report.push_metric("stream_triad_bytes_per_s", 20e9);
        LoadedRun {
            path: format!("spmv_{total_s}.json"),
            report,
            events: EventStream::default(),
            metrics: Default::default(),
        }
    }

    #[test]
    fn explain_ab_names_the_regressed_phase_and_cause() {
        let a = bw_run(2.0);
        let b = bw_run(4.0); // same traffic, twice the time: gbps halves
        let text = render_explain(Some(&a), Some(&b), None);
        assert!(text.contains("A/B attribution"), "{text}");
        assert!(text.contains("regressed phase: spmv/csr"), "{text}");
        assert!(
            text.contains("regression attributed to phase `spmv/csr` (cause: bandwidth)"),
            "{text}"
        );
        // The span-tree corroboration names the grown span too.
        assert!(text.contains("span `spmv/csr` grew"), "{text}");
        // A self-pair attributes nothing.
        let text = render_explain(Some(&a), Some(&a), None);
        assert!(text.contains("statistically the same run"), "{text}");
    }

    #[test]
    fn explain_renders_a_blackbox_dump_alone() {
        use fun3d_telemetry::blackbox::parse_dump;
        let text = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            r#"{"schema":"fun3d-blackbox/1","capacity":64,"reason":"panic","rings":1}"#,
            r#"{"ring":"main#0","dropped":0,"written":3}"#,
            r#"{"rec":"span","path":"nks/krylov","t_s":0.5,"dur_s":0.01}"#,
            r#"{"rec":"counter","path":"anomalies","delta":1,"t_s":0.6}"#,
            r#"{"rec":"event","tag":"newton_step","data":"{\"ev\":\"newton_step\",\"step\":7}","t_s":0.7}"#,
        );
        let dump = parse_dump(&text).unwrap();
        let out = render_explain(None, None, Some(&dump));
        assert!(out.contains("1. anomaly-terminated"), "{out}");
        assert!(out.contains("reason `panic`"), "{out}");
        assert!(out.contains("Flight recorder (fun3d-blackbox/1)"), "{out}");
        assert!(out.contains("nks/krylov"), "{out}");
        assert!(out.contains("newton_step"), "{out}");
        assert!(out.contains("3 written, 0 dropped"), "{out}");
        // Paired with a report, the dump both feeds the anomaly hypothesis
        // and renders as a section.
        let run = sample_run(1.0);
        let out = render_explain(Some(&run), None, Some(&dump));
        assert!(
            out.contains("flight-recorder dump taken (reason `panic`)"),
            "{out}"
        );
        assert!(out.contains("## Flight recorder"), "{out}");
    }
}
