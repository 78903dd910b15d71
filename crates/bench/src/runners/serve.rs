//! `serve`: open-loop load sweep through the `fun3d-serve` engine.
//!
//! The paper benchmarks one solve at a time; this experiment measures the
//! serving layer built over the same stack: a worker pool pulling
//! same-family batches from a bounded, admission-controlled queue, with
//! mesh / ordering / partition / symbolic-ILU state shared from an
//! `Arc`-cache.  It calibrates the warm per-solve service time, then drives
//! the engine open-loop (arrivals on a fixed clock, independent of
//! completions) at a geometric sweep of offered rates from well below to
//! well above the calibrated capacity, and reports per rate: achieved
//! throughput, p50/p95/p99 latency from the telemetry histograms, and
//! rejected arrivals.  The saturation knee — the first offered rate the
//! engine stops tracking — is detected and summarized.
//!
//! Gate metrics: `rate{i}:solves_per_s`, `rate{i}:p50_s/p95_s/p99_s`,
//! `serve:hit_rate`, `serve:peak_solves_per_s`, `serve:knee_solves_per_s`,
//! `serve:rejected_total`, `serve:identity_match_ratio` (cached-path
//! results fingerprint-checked against the direct path),
//! `serve:setup_per_solve_s` (amortized family-state acquisition cost), and
//! `serve:queue_wait_frac` (queue wait as a fraction of end-to-end latency).
//!
//! With `--metrics` the engine runs with live telemetry: a background
//! collector samples queue depth, in-flight count, windowed throughput and
//! latency quantiles, cache hit rate, and SLO burn into a `fun3d-metrics/1`
//! time series (the record's `metrics.jsonl`); per-request traces land in
//! the event stream; each worker gets its own chrome-trace lane; and per
//! rate the report carries `rate{i}:burn` and `rate{i}:health_state`
//! (0 ok / 1 degraded / 2 saturated).  Solver results are bitwise identical
//! with metrics on or off.
//!
//! Knobs: `--steps n` sets the number of swept rates (clamped to 2..=6),
//! `--threads` the solver thread team per worker, and `FUN3D_SERVE_WORKERS`
//! the worker count (default 2).

use crate::{fmt_secs, say, time_median, BenchArgs, Experiment, RunOutcome};
use fun3d_mesh::generator::{BumpChannelSpec, MeshFamily};
use fun3d_serve::presets::{tiny_nks, tiny_scenario};
use fun3d_serve::{
    direct_solve, solution_fingerprint, AdmissionPolicy, Engine, EngineConfig, FamilyState,
    SloConfig,
};
use fun3d_telemetry::events::{EventSink, EventStream};
use fun3d_telemetry::hist::LogHistogram;
use fun3d_telemetry::metrics::Collector;
use fun3d_telemetry::report::PerfReport;
use fun3d_telemetry::{Registry, TimeDomain};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `serve` as a harness experiment.
pub struct Serve;

impl Experiment for Serve {
    fn name(&self) -> &'static str {
        "serve"
    }
    fn description(&self) -> &'static str {
        "open-loop serving sweep: throughput, tail latency, cache hit rate, admission control"
    }
    fn default_scale(&self) -> f64 {
        0.005
    }
    fn run(&self, args: &BenchArgs) -> RunOutcome {
        run(args)
    }
    fn supports_blackbox(&self) -> bool {
        true
    }
}

/// Worker-pool size: `FUN3D_SERVE_WORKERS`, default 2.
fn workers_from_env() -> usize {
    std::env::var("FUN3D_SERVE_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// Throughput below this fraction of the offered rate marks the knee.
const KNEE_TRACKING_FRAC: f64 = 0.85;

/// Run the open-loop serving sweep once.
pub fn run(args: &BenchArgs) -> RunOutcome {
    let wall0 = Instant::now();
    let workers = workers_from_env();
    // The scenario family scales like the other experiments but floors low:
    // a serving sweep runs dozens of solves, so each must stay fast.
    let target = (MeshFamily::Small.paper_vertices() as f64 * args.scale) as usize;
    let mut sc = tiny_scenario();
    sc.mesh = BumpChannelSpec::with_target_vertices(target.max(120));
    let nks = tiny_nks();

    // Reference result (uncached path) and warm service-time calibration.
    let (_, q_direct) = direct_solve(&sc, &nks);
    let fp_direct = solution_fingerprint(&q_direct);
    let family = FamilyState::build(&sc, workers);
    let t_svc = time_median(args.reps.max(2), || {
        family.solve(&nks, &Registry::disabled(), &EventSink::disabled());
    });
    let capacity = workers as f64 / t_svc.max(1e-9);
    say!(
        args,
        "Serving sweep: {} vertices, {} workers x {} solver thread(s); warm solve {} -> calibrated capacity {:.1} solves/s",
        family.nverts(),
        workers,
        args.threads.max(1),
        fmt_secs(t_svc),
        capacity
    );

    // One long-running engine across the whole sweep (the serving posture);
    // one warmup request populates the cache so the timed windows measure
    // steady-state serving, not the first cold family build.  The latency
    // objective scales with the calibrated service time: 4x warm-solve
    // covers queue wait and batching at healthy loads, with a 10% error
    // budget, so only genuine saturation burns budget.
    let queue_depth = (2 * workers).max(4);
    let slo = SloConfig {
        latency_target_s: (4.0 * t_svc).max(1e-4),
        budget_frac: 0.1,
    };
    let eng = Arc::new(Engine::start(&EngineConfig {
        workers,
        queue_depth,
        policy: AdmissionPolicy::Reject,
        max_batch: 4,
        cache_capacity: 2,
        solver_threads: args.threads.max(1),
        live: args.metrics.then_some(slo),
    }));
    let warm = eng
        .submit(&sc, &nks)
        .expect("warmup submit on an idle engine")
        .wait()
        .done()
        .expect("warmup solve completes");
    assert_eq!(
        warm.solution_fingerprint, fp_direct,
        "cached-path result diverged from the direct path"
    );

    // Background collector: samples engine state on a cadence tied to the
    // service time (fast enough to see per-rate structure, capped so tiny
    // solves don't spin).  Windowed quantiles come from diffing successive
    // cumulative-histogram snapshots (`LogHistogram::since`), windowed
    // throughput from completion-counter deltas.
    let collector = args.metrics.then(|| {
        let eng = Arc::clone(&eng);
        let mut prev_hist = LogHistogram::new();
        let mut prev_completed = 0u64;
        let mut last = Instant::now();
        Collector::start(
            Duration::from_secs_f64((0.5 * t_svc).clamp(0.002, 0.25)),
            4096,
            Box::new(move || {
                let now = Instant::now();
                let dt = now.duration_since(last).as_secs_f64().max(1e-9);
                last = now;
                let stats = eng.stats();
                let hist = eng.latency_hist();
                let window = hist.since(&prev_hist);
                prev_hist = hist;
                let solves = stats.completed - prev_completed;
                prev_completed = stats.completed;
                let mut out = vec![
                    ("queue_depth".to_string(), stats.queue_depth as f64),
                    ("in_flight".to_string(), stats.in_flight as f64),
                    ("throughput_solves_per_s".to_string(), solves as f64 / dt),
                    ("cache_hit_rate".to_string(), stats.cache.hit_rate()),
                    ("rejected_total".to_string(), stats.queue.rejected as f64),
                    ("shed_total".to_string(), stats.queue.shed as f64),
                ];
                if let Some(p50) = window.quantile(0.5) {
                    out.push(("p50_s".to_string(), p50));
                }
                if let Some(p99) = window.quantile(0.99) {
                    out.push(("p99_s".to_string(), p99));
                }
                if let Some(h) = eng.health() {
                    out.push(("slo_burn".to_string(), h.burn_rate));
                    out.push(("health_state".to_string(), h.state.code() as f64));
                }
                out
            }),
        )
    });

    // Offered rates: geometric from 0.4x to 3.2x the calibrated capacity.
    let nrates = args.steps.clamp(2, 6);
    let mults: Vec<f64> = (0..nrates)
        .map(|i| 0.4 * 8f64.powf(i as f64 / (nrates - 1) as f64))
        .collect();
    let nreq = (6 * workers).max(12);

    let reg = Registry::enabled(0);
    let mut report = PerfReport::new("serve")
        .with_meta("workers", workers.to_string())
        .with_meta("queue_depth", queue_depth.to_string())
        .with_meta("max_batch", "4")
        .with_meta("nverts", family.nverts().to_string())
        .with_meta("warm_solve_s", format!("{t_svc:.6}"))
        .with_meta("requests_per_rate", nreq.to_string());
    if args.metrics {
        report = report
            .with_meta("metrics", "on")
            .with_meta("slo_target_s", format!("{:.6}", slo.latency_target_s))
            .with_meta("slo_budget_frac", format!("{}", slo.budget_frac));
    }
    args.annotate(&mut report);

    let mut rows = Vec::new();
    let mut offered_rates = Vec::new();
    let mut achieved_rates = Vec::new();
    let mut rejected_per_rate = Vec::new();
    let mut matched = 0u64;
    let mut completed_total = 0u64;
    let mut setup_total_s = 0.0f64;
    let mut queue_wait_total_s = 0.0f64;
    let mut latency_total_s = 0.0f64;
    let mut stats_before = eng.stats();
    for (i, mult) in mults.iter().enumerate() {
        let offered = mult * capacity;
        let gap = Duration::from_secs_f64(1.0 / offered.max(1e-9));
        let t0 = Instant::now();
        let mut handles = Vec::new();
        let mut rejected = 0u64;
        for r in 0..nreq {
            // Open loop: arrival r is due at r * gap whether or not earlier
            // requests have finished; a full queue rejects, never blocks.
            if let Some(d) = (t0 + gap * r as u32).checked_duration_since(Instant::now()) {
                std::thread::sleep(d);
            }
            match eng.submit(&sc, &nks) {
                Ok(h) => handles.push(h),
                Err(_) => rejected += 1,
            }
        }
        let mut latencies = Vec::new();
        for h in handles {
            let resp = h.wait().done().expect("reject policy never sheds");
            reg.record_span(
                &format!("serve/rate{i}"),
                TimeDomain::Measured,
                resp.latency_s,
                1,
            );
            latencies.push(resp.latency_s);
            setup_total_s += resp.t_setup_s;
            queue_wait_total_s += resp.t_queue_s;
            latency_total_s += resp.latency_s;
            if resp.solution_fingerprint == fp_direct {
                matched += 1;
            }
        }
        let window = t0.elapsed().as_secs_f64();
        let completed = latencies.len() as u64;
        completed_total += completed;
        let achieved = completed as f64 / window.max(1e-9);
        let stats_now = eng.stats();
        debug_assert_eq!(
            stats_now.queue.rejected - stats_before.queue.rejected,
            rejected
        );
        stats_before = stats_now;
        offered_rates.push(offered);
        achieved_rates.push(achieved);
        rejected_per_rate.push(rejected);
        report.push_metric(format!("rate{i}:solves_per_s"), achieved);
        report.push_metric(format!("rate{i}:rejected"), rejected as f64);
        if args.metrics {
            // Per-rate SLO accounting from this rate's own completions:
            // budget burn (over-target fraction / budget) and the derived
            // health state.  Saturation = admission control refused work.
            let over = latencies
                .iter()
                .filter(|&&l| l > slo.latency_target_s)
                .count();
            let burn = (over as f64 / (completed as f64).max(1.0)) / slo.budget_frac;
            let health = if rejected > 0 {
                2.0
            } else if burn > 1.0 {
                1.0
            } else {
                0.0
            };
            report.push_metric(format!("rate{i}:burn"), burn);
            report.push_metric(format!("rate{i}:health_state"), health);
        }
        report
            .meta
            .push((format!("rate{i}:offered_per_s"), format!("{offered:.2}")));
    }

    // Latency percentiles come from the telemetry span histograms — the
    // same source `fun3d-report show` renders.  A rate whose span carries
    // no histogram (every arrival rejected) still gets its table row, with
    // the missing quantiles shown as n/a.
    let snap = reg.snapshot();
    for i in 0..nrates {
        let span = snap
            .spans
            .iter()
            .find(|s| s.path == format!("serve/rate{i}"));
        let quantiles = [
            ("p50", span.and_then(|s| s.p50())),
            ("p95", span.and_then(|s| s.p95())),
            ("p99", span.and_then(|s| s.p99())),
        ];
        for (q, v) in quantiles {
            if let Some(v) = v {
                report.push_metric(format!("rate{i}:{q}_s"), v);
            }
        }
        let cell = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), fmt_secs);
        rows.push(vec![
            format!("{:.2}", offered_rates[i]),
            format!("{:.2}", achieved_rates[i]),
            cell(quantiles[0].1),
            cell(quantiles[1].1),
            cell(quantiles[2].1),
            rejected_per_rate[i].to_string(),
        ]);
    }
    args.table(
        "Open-loop serving sweep (offered vs achieved solves/s; latency from telemetry histograms)",
        &["Offered/s", "Achieved/s", "p50", "p95", "p99", "Rejected"],
        &rows,
    );

    // Saturation knee: the first offered rate the achieved throughput stops
    // tracking.  The knee metric is the sustained throughput there (the
    // serving ceiling); without a knee, the sweep's peak.
    let knee_idx = (0..nrates).find(|&i| achieved_rates[i] < KNEE_TRACKING_FRAC * offered_rates[i]);
    let peak = achieved_rates.iter().cloned().fold(0.0f64, f64::max);
    let knee_rate = knee_idx.map_or(peak, |i| achieved_rates[i]);
    match knee_idx {
        Some(i) => say!(
            args,
            "\nSaturation knee at offered {:.1}/s: achieved {:.1}/s ({}% of offered), {} arrivals rejected by admission control",
            offered_rates[i],
            achieved_rates[i],
            (100.0 * achieved_rates[i] / offered_rates[i]) as i64,
            rejected_per_rate[i]
        ),
        None => say!(
            args,
            "\nNo saturation knee up to {:.1}/s offered (peak achieved {:.1}/s); raise --steps to sweep further",
            offered_rates.last().copied().unwrap_or(0.0),
            peak
        ),
    }

    // Wind down the live side before the engine: stop the sampler (one
    // final sample), then pull traces and per-worker lanes.
    let metrics_set = collector.map(|c| c.stop()).unwrap_or_default();
    let trace_records = eng.drain_trace_events();
    let worker_snaps = eng.telemetry_snapshots();
    let eng = match Arc::try_unwrap(eng) {
        Ok(e) => e,
        Err(_) => unreachable!("collector joined; engine is uniquely owned"),
    };
    let stats = eng.shutdown();
    let hit_rate = stats.cache.hit_rate();
    let mean_batch = stats.completed as f64 / (stats.batches as f64).max(1.0);
    say!(
        args,
        "Cache: {} hits / {} misses ({:.1}% hit rate); mean batch {:.2}; {} total rejects; results {}identical to the direct path",
        stats.cache.hits,
        stats.cache.misses,
        100.0 * hit_rate,
        mean_batch,
        stats.queue.rejected,
        if matched == completed_total { "bitwise " } else { "NOT " }
    );

    report.push_metric("serve:capacity_solves_per_s", capacity);
    report.push_metric("serve:peak_solves_per_s", peak);
    report.push_metric("serve:knee_solves_per_s", knee_rate);
    report.push_metric("serve:hit_rate", hit_rate);
    report.push_metric("serve:rejected_total", stats.queue.rejected as f64);
    report.push_metric(
        "serve:identity_match_ratio",
        matched as f64 / (completed_total as f64).max(1.0),
    );
    report.push_metric(
        "serve:setup_per_solve_s",
        setup_total_s / (completed_total as f64).max(1.0),
    );
    report.push_metric(
        "serve:queue_wait_frac",
        queue_wait_total_s / latency_total_s.max(1e-12),
    );
    report.push_metric("serve:cold_build_s", family.build_time_s());
    report.push_metric("wall_s", wall0.elapsed().as_secs_f64());
    if args.metrics {
        say!(
            args,
            "Live metrics: {} series collected; {} request traces (SLO target {}, budget {:.0}%)",
            metrics_set.series().len(),
            trace_records.len(),
            fmt_secs(slo.latency_target_s),
            100.0 * slo.budget_frac
        );
    }
    let report = report.with_snapshot(&snap);
    let mut telemetry = vec![snap];
    telemetry.extend(worker_snaps);
    RunOutcome {
        report,
        telemetry,
        events: EventStream::new(trace_records),
        metrics: metrics_set,
    }
}
