//! The long-running solve engine: worker pool over the bounded queue.
//!
//! Workers pull family batches from the bounded `JobQueue`, acquire the
//! shared [`FamilyState`](crate::state::FamilyState) through the
//! [`StateCache`], and run each solve in the batch against the warm state
//! on their own [`ParCtx`] thread team.  The engine never blocks a
//! submitter on solver work: admission is a bounded queue operation, and
//! outcomes are delivered through per-job channels.
//!
//! ## Live telemetry
//!
//! With [`EngineConfig::live`] set, every completed request additionally
//! feeds a cumulative latency histogram, an SLO error-budget counter, a
//! per-request [`EventRecord::RequestTrace`], and a per-worker [`Registry`]
//! whose `serve/queue` → `serve/setup` → `serve/solve` → `serve/respond`
//! events render as one chrome-trace lane per worker.  The solver itself
//! always runs with disabled telemetry handles, so solutions are bitwise
//! identical whether live telemetry is on or off.  When off, the entire
//! live path costs one relaxed atomic load per request.

use crate::cache::{CacheStats, StateCache};
use crate::queue::{AdmissionPolicy, Job, JobQueue, QueueStats};
use crate::scenario::{
    solution_fingerprint, ScenarioClass, SolveOutcome, SolveRequest, SolveResponse,
};
use fun3d_solver::pseudo::PseudoTransientOptions;
use fun3d_sparse::par::ParCtx;
use fun3d_telemetry::events::{EventRecord, EventSink};
use fun3d_telemetry::hist::LogHistogram;
use fun3d_telemetry::{Registry, Snapshot, TimeDomain};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads pulling from the queue.
    pub workers: usize,
    /// Queue depth bound enforced by admission control.
    pub queue_depth: usize,
    /// What to do with arrivals past the bound.
    pub policy: AdmissionPolicy,
    /// Most same-family jobs one worker pass serves (1 = no batching).
    pub max_batch: usize,
    /// Most families resident in the state cache.
    pub cache_capacity: usize,
    /// Thread-team width each worker's solves run with (the `ParCtx` the
    /// kernels of PR 4 parallelize over).  Also the subdomain count family
    /// partitions are built with.
    pub solver_threads: usize,
    /// Latency objective for live telemetry.  `None` (the default) keeps
    /// every live structure unallocated and the per-request overhead at one
    /// relaxed atomic load.
    pub live: Option<SloConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 32,
            policy: AdmissionPolicy::Reject,
            max_batch: 8,
            cache_capacity: 4,
            solver_threads: 1,
            live: None,
        }
    }
}

/// A latency service-level objective: at most `budget_frac` of completed
/// requests may exceed `latency_target_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// End-to-end latency target in seconds.
    pub latency_target_s: f64,
    /// Fraction of requests allowed over the target (the error budget).
    pub budget_frac: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            latency_target_s: 0.25,
            budget_frac: 0.05,
        }
    }
}

/// Coarse engine health derived from a [`HealthSnapshot`] window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Inside the error budget, no admission refusals.
    Ok,
    /// Burning error budget faster than allowed (`burn_rate > 1`).
    Degraded,
    /// Admission control refused work in the window, or the queue sits at
    /// its depth bound.
    Saturated,
}

impl HealthState {
    /// Stable numeric code for reports and gates: 0 ok, 1 degraded,
    /// 2 saturated (higher is worse, so the gate treats it lower-is-better).
    pub fn code(self) -> u64 {
        match self {
            HealthState::Ok => 0,
            HealthState::Degraded => 1,
            HealthState::Saturated => 2,
        }
    }

    /// Stable string label for reports.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Saturated => "saturated",
        }
    }
}

/// One windowed health observation: everything since the previous
/// [`Engine::health`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// The derived state.
    pub state: HealthState,
    /// Error-budget burn rate in the window: the observed over-target
    /// fraction divided by the budget fraction.  1.0 spends the budget
    /// exactly; above 1.0 is degraded.
    pub burn_rate: f64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Requests picked up but not yet answered at snapshot time.
    pub in_flight: u64,
    /// Requests completed in the window.
    pub window_completed: u64,
    /// Window completions that exceeded the latency target.
    pub window_over_target: u64,
    /// Window arrivals refused by admission control (rejected + shed).
    pub window_refused: u64,
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its depth bound under [`AdmissionPolicy::Reject`].
    QueueFull {
        /// The configured bound that was hit.
        depth: usize,
    },
    /// The engine is shutting down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => {
                write!(f, "queue full (depth bound {depth}); request rejected")
            }
            SubmitError::Closed => write!(f, "engine closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Waitable handle for one admitted request.
pub struct JobHandle {
    id: u64,
    rx: Receiver<SolveOutcome>,
}

impl JobHandle {
    /// The request id this handle tracks.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the outcome arrives.  A worker panic surfaces as
    /// [`SolveOutcome::Shed`] rather than a hang.
    pub fn wait(self) -> SolveOutcome {
        self.rx.recv().unwrap_or(SolveOutcome::Shed)
    }
}

/// Aggregate serving counters at shutdown (or any snapshot).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Solves completed.
    pub completed: u64,
    /// Completed solves that aborted on a solver anomaly
    /// ([`SolveOutcome::Failed`]).
    pub failed: u64,
    /// Worker passes (one shared state acquisition each).
    pub batches: u64,
    /// Completed solves that rode a batch of size > 1.
    pub batched_jobs: u64,
    /// Gauge: jobs admitted and still waiting in the queue right now.
    pub queue_depth: u64,
    /// Gauge: jobs picked up by a worker and not yet answered right now.
    pub in_flight: u64,
    /// Queue counters.
    pub queue: QueueStats,
    /// Cache counters.
    pub cache: CacheStats,
}

/// Live-telemetry state, allocated only when [`EngineConfig::live`] is set.
struct Live {
    slo: SloConfig,
    /// Time origin for trace-lane event starts (engine start).
    epoch: Instant,
    /// Per-request trace records ([`EventRecord::RequestTrace`]).
    sink: EventSink,
    /// One registry per worker — "rank" = worker index, so chrome traces
    /// get one lane per worker.
    regs: Vec<Registry>,
    /// Cumulative end-to-end latency histogram (diff two snapshots with
    /// `LogHistogram::since` for windowed quantiles).
    lat_hist: Mutex<LogHistogram>,
    /// Completions that exceeded the latency target or failed on an
    /// anomaly (both burn error budget).
    over_target: AtomicU64,
    /// Counter values at the previous `health()` call.
    window: Mutex<HealthWindow>,
    /// Whether the flight recorder has already been dumped for SLO
    /// saturation (one dump per engine, not one per health poll).
    saturation_dumped: AtomicBool,
}

#[derive(Default, Clone, Copy)]
struct HealthWindow {
    completed: u64,
    over_target: u64,
    refused: u64,
}

struct Shared {
    queue: JobQueue,
    cache: StateCache,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    in_flight: AtomicU64,
    /// The one-flag fast gate workers read per request.
    live_on: AtomicBool,
    live: Option<Live>,
}

/// The engine: spawn with [`Engine::start`], feed with [`Engine::submit`],
/// stop with [`Engine::shutdown`] (drains the queue, joins the workers).
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    solver_threads: usize,
    queue_depth: usize,
}

impl Engine {
    /// Spawn the worker pool and return the running engine.
    pub fn start(cfg: &EngineConfig) -> Self {
        let nworkers = cfg.workers.max(1);
        let live = cfg.live.map(|slo| Live {
            slo,
            epoch: Instant::now(),
            sink: EventSink::enabled(),
            regs: (0..nworkers).map(Registry::enabled).collect(),
            lat_hist: Mutex::new(LogHistogram::new()),
            over_target: AtomicU64::new(0),
            window: Mutex::new(HealthWindow::default()),
            saturation_dumped: AtomicBool::new(false),
        });
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_depth, cfg.policy),
            cache: StateCache::new(cfg.cache_capacity, cfg.solver_threads.max(1)),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_jobs: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            live_on: AtomicBool::new(live.is_some()),
            live,
        });
        let max_batch = cfg.max_batch.max(1);
        let workers = (0..nworkers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("fun3d-serve-{w}"))
                    .spawn(move || worker_loop(&shared, max_batch, w))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            shared,
            workers,
            next_id: AtomicU64::new(0),
            solver_threads: cfg.solver_threads.max(1),
            queue_depth: cfg.queue_depth.max(1),
        }
    }

    /// Submit one solve request.  Returns immediately: a handle when
    /// admitted, [`SubmitError::QueueFull`] when rejected at the bound.
    pub fn submit(
        &self,
        scenario: &ScenarioClass,
        nks: &PseudoTransientOptions,
    ) -> Result<JobHandle, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut nks = nks.clone();
        // Solves run on the engine's thread team; a fixed width keeps the
        // PR-4 determinism contract (results depend on the team size, so
        // the engine pins one).
        nks.krylov.par = ParCtx::new(self.solver_threads);
        let (tx, rx) = channel();
        let job = Job {
            req: SolveRequest {
                id,
                scenario: scenario.clone(),
                nks,
            },
            enqueued_at: Instant::now(),
            tx,
        };
        match self.shared.queue.submit(job) {
            Ok(()) => Ok(JobHandle { id, rx }),
            Err(_) => Err(SubmitError::QueueFull {
                depth: self.queue_depth,
            }),
        }
    }

    /// Live snapshot of the serving counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            batched_jobs: self.shared.batched_jobs.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.depth_now() as u64,
            in_flight: self.shared.in_flight.load(Ordering::Relaxed),
            queue: self.shared.queue.stats(),
            cache: self.shared.cache.stats(),
        }
    }

    /// Whether live telemetry is on.
    pub fn live_enabled(&self) -> bool {
        self.shared.live_on.load(Ordering::Relaxed)
    }

    /// Cumulative end-to-end latency histogram (empty when live telemetry
    /// is off).  Callers diff two snapshots with [`LogHistogram::since`]
    /// for windowed quantiles.
    pub fn latency_hist(&self) -> LogHistogram {
        match &self.shared.live {
            None => LogHistogram::new(),
            Some(live) => live
                .lat_hist
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }

    /// Take every per-request trace emitted so far
    /// ([`EventRecord::RequestTrace`]); empty when live telemetry is off.
    pub fn drain_trace_events(&self) -> Vec<EventRecord> {
        match &self.shared.live {
            None => Vec::new(),
            Some(live) => live.sink.drain(),
        }
    }

    /// One telemetry snapshot per worker (rank = worker index), carrying
    /// the `serve/*` segment events for chrome-trace lanes.  Empty when
    /// live telemetry is off.
    pub fn telemetry_snapshots(&self) -> Vec<Snapshot> {
        match &self.shared.live {
            None => Vec::new(),
            Some(live) => live.regs.iter().map(|r| r.snapshot()).collect(),
        }
    }

    /// Windowed health observation: burn rate and refusals since the
    /// previous `health()` call.  `None` when live telemetry is off.
    pub fn health(&self) -> Option<HealthSnapshot> {
        let live = self.shared.live.as_ref()?;
        let stats = self.stats();
        let over = live.over_target.load(Ordering::Relaxed);
        let refused = stats.queue.rejected + stats.queue.shed;
        let mut prev = live.window.lock().unwrap_or_else(|e| e.into_inner());
        let window_completed = stats.completed.saturating_sub(prev.completed);
        let window_over_target = over.saturating_sub(prev.over_target);
        let window_refused = refused.saturating_sub(prev.refused);
        *prev = HealthWindow {
            completed: stats.completed,
            over_target: over,
            refused,
        };
        drop(prev);
        let burn_rate = if window_completed > 0 && live.slo.budget_frac > 0.0 {
            (window_over_target as f64 / window_completed as f64) / live.slo.budget_frac
        } else {
            0.0
        };
        let saturated = window_refused > 0 || stats.queue_depth >= self.queue_depth as u64;
        let state = if saturated {
            HealthState::Saturated
        } else if burn_rate > 1.0 {
            HealthState::Degraded
        } else {
            HealthState::Ok
        };
        // First saturation observation dumps the flight recorder (if armed):
        // the rings hold the requests leading up to the overload.
        if state == HealthState::Saturated && !live.saturation_dumped.swap(true, Ordering::Relaxed)
        {
            fun3d_telemetry::blackbox::dump_now("slo_saturation");
        }
        Some(HealthSnapshot {
            state,
            burn_rate,
            queue_depth: stats.queue_depth,
            in_flight: stats.in_flight,
            window_completed,
            window_over_target,
            window_refused,
        })
    }

    /// Close the queue, drain remaining jobs, join the workers, and return
    /// the final counters.
    pub fn shutdown(mut self) -> EngineStats {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, max_batch: usize, w: usize) {
    while let Some(batch) = shared.queue.next_batch(max_batch) {
        let picked_up = Instant::now();
        let n = batch.len();
        shared.in_flight.fetch_add(n as u64, Ordering::Relaxed);
        let (state, hit) = shared.cache.get_or_build(&batch[0].req.scenario);
        let t_setup = picked_up.elapsed().as_secs_f64();
        shared.batches.fetch_add(1, Ordering::Relaxed);
        for (i, job) in batch.into_iter().enumerate() {
            let enq = job.enqueued_at;
            let id = job.req.id;
            // Segment boundaries: queue (admission → pickup), batch
            // (pickup → this solve's start: state acquisition plus earlier
            // same-batch solves), solve, respond (fingerprint + assembly).
            // Measured off successive Instants, so the four segments
            // partition the end-to-end latency exactly.
            let t_queue = picked_up.duration_since(enq).as_secs_f64();
            let s0 = Instant::now();
            let t_batch = s0.duration_since(picked_up).as_secs_f64();
            let (history, q) =
                state.solve(&job.req.nks, &Registry::disabled(), &EventSink::disabled());
            let s1 = Instant::now();
            let t_solve = s1.duration_since(s0).as_secs_f64();
            let fingerprint = solution_fingerprint(&q);
            let s2 = Instant::now();
            let t_respond = s2.duration_since(s1).as_secs_f64();
            let latency = s2.duration_since(enq).as_secs_f64();
            // Only the batch's first job can miss: the rest reuse the
            // state it just built (or found).
            let cache_hit = hit || i > 0;
            let anomalous = history.anomaly.is_some();
            shared.completed.fetch_add(1, Ordering::Relaxed);
            if anomalous {
                shared.failed.fetch_add(1, Ordering::Relaxed);
            }
            if n > 1 {
                shared.batched_jobs.fetch_add(1, Ordering::Relaxed);
            }
            // Decrement before the send so a completed wait() observes the
            // gauge already settled.
            shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            // Live recording precedes the send for the same reason: once a
            // waiter unblocks, its trace and histogram entry are visible.
            if shared.live_on.load(Ordering::Relaxed) {
                if let Some(live) = &shared.live {
                    live.lat_hist
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .record(latency);
                    // An anomaly-terminated request burns error budget even
                    // when it aborted quickly enough to meet the target.
                    if anomalous || latency > live.slo.latency_target_s {
                        live.over_target.fetch_add(1, Ordering::Relaxed);
                    }
                    live.sink.emit(EventRecord::RequestTrace {
                        id,
                        worker: w as u64,
                        batch_size: n as u64,
                        cache_hit,
                        t_queue_s: t_queue,
                        t_batch_s: t_batch,
                        t_setup_s: if i == 0 { t_setup } else { 0.0 },
                        t_solve_s: t_solve,
                        t_respond_s: t_respond,
                        latency_s: latency,
                    });
                    // Segment events on this worker's lane, timed against
                    // the shared engine epoch so lanes line up.
                    let reg = &live.regs[w];
                    let rel = |at: Instant| {
                        at.checked_duration_since(live.epoch)
                            .map_or(0.0, |d| d.as_secs_f64())
                    };
                    reg.record_event("serve/queue", TimeDomain::Measured, rel(enq), t_queue);
                    if i == 0 && t_setup > 0.0 {
                        reg.record_event(
                            "serve/setup",
                            TimeDomain::Measured,
                            rel(picked_up),
                            t_setup,
                        );
                    }
                    reg.record_event("serve/solve", TimeDomain::Measured, rel(s0), t_solve);
                    reg.record_event("serve/respond", TimeDomain::Measured, rel(s1), t_respond);
                }
            }
            let response = Box::new(SolveResponse {
                id,
                history,
                solution: q,
                solution_fingerprint: fingerprint,
                cache_hit,
                batch_size: n,
                t_queue_s: t_queue,
                t_batch_s: t_batch,
                // Shared acquisition is attributed to the job that paid it.
                t_setup_s: if i == 0 { t_setup } else { 0.0 },
                t_solve_s: t_solve,
                t_respond_s: t_respond,
                latency_s: latency,
            });
            // A dropped handle just means nobody is waiting on this job.
            let _ = job.tx.send(if anomalous {
                SolveOutcome::Failed(response)
            } else {
                SolveOutcome::Done(response)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::direct_solve;
    use crate::test_support::{tiny_nks, tiny_scenario};

    #[test]
    fn engine_serves_same_family_requests_from_one_cached_state() {
        let eng = Engine::start(&EngineConfig {
            workers: 2,
            queue_depth: 32,
            max_batch: 4,
            ..Default::default()
        });
        let sc = tiny_scenario();
        let nks = tiny_nks();
        let handles: Vec<_> = (0..6).map(|_| eng.submit(&sc, &nks).unwrap()).collect();
        let (hd, qd) = direct_solve(&sc, &nks);
        let mut hits = 0;
        for h in handles {
            let resp = h.wait().done().expect("no shedding under Reject");
            assert!(resp.history.converged);
            assert_eq!(resp.history.nsteps(), hd.nsteps());
            assert_eq!(resp.solution, qd, "bitwise identical to the direct path");
            assert_eq!(
                resp.solution_fingerprint,
                crate::scenario::solution_fingerprint(&qd)
            );
            assert!(resp.latency_s >= resp.t_solve_s);
            hits += resp.cache_hit as usize;
        }
        let stats = eng.shutdown();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.cache.misses, 1, "one family, one build");
        assert_eq!(hits, 5);
        assert_eq!(stats.queue.rejected, 0);
    }

    #[test]
    fn full_queue_rejects_instead_of_hanging() {
        // One worker, depth 1: a burst must split into admitted + rejected
        // and every admitted job must resolve.
        let eng = Engine::start(&EngineConfig {
            workers: 1,
            queue_depth: 1,
            max_batch: 1,
            ..Default::default()
        });
        let sc = tiny_scenario();
        let nks = tiny_nks();
        let mut admitted = Vec::new();
        let mut rejected = 0u64;
        for _ in 0..12 {
            match eng.submit(&sc, &nks) {
                Ok(h) => admitted.push(h),
                Err(SubmitError::QueueFull { .. }) => rejected += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        for h in admitted {
            assert!(h.wait().done().is_some());
        }
        let stats = eng.shutdown();
        assert_eq!(stats.queue.rejected, rejected);
        assert_eq!(stats.completed + rejected, 12);
        assert!(stats.queue.max_depth <= 1);
    }

    #[test]
    fn shed_policy_resolves_dropped_jobs_as_shed() {
        let eng = Engine::start(&EngineConfig {
            workers: 1,
            queue_depth: 1,
            policy: AdmissionPolicy::ShedOldest,
            max_batch: 1,
            ..Default::default()
        });
        let sc = tiny_scenario();
        let nks = tiny_nks();
        let handles: Vec<_> = (0..10).map(|_| eng.submit(&sc, &nks).unwrap()).collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
        let done = outcomes
            .iter()
            .filter(|o| matches!(o, SolveOutcome::Done(_)))
            .count();
        let shed = outcomes
            .iter()
            .filter(|o| matches!(o, SolveOutcome::Shed))
            .count();
        assert_eq!(done + shed, 10);
        let stats = eng.shutdown();
        assert_eq!(stats.queue.shed, shed as u64);
        assert_eq!(stats.queue.rejected, 0, "shedding admits every arrival");
    }

    #[test]
    fn batched_jobs_reuse_one_setup() {
        // One worker and a held queue: submit a burst before the worker can
        // start, so batching has material to work with.
        let eng = Engine::start(&EngineConfig {
            workers: 1,
            queue_depth: 32,
            max_batch: 8,
            ..Default::default()
        });
        let sc = tiny_scenario();
        let nks = tiny_nks();
        let handles: Vec<_> = (0..8).map(|_| eng.submit(&sc, &nks).unwrap()).collect();
        let responses: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().done().unwrap())
            .collect();
        let stats = eng.shutdown();
        assert_eq!(stats.completed, 8);
        // Fewer worker passes than jobs proves batching happened; jobs
        // beyond the first in a batch carry zero shared-setup cost.
        assert!(
            stats.batches < 8,
            "expected batching, got {} passes",
            stats.batches
        );
        let free_setups = responses
            .iter()
            .filter(|r| r.batch_size > 1 && r.t_setup_s == 0.0)
            .count();
        assert!(free_setups > 0);
    }

    /// The four response segments must partition the end-to-end latency
    /// (they are measured off successive `Instant`s, so only float rounding
    /// separates the sum from the direct measurement).
    fn assert_segments_partition(
        t_queue: f64,
        t_batch: f64,
        t_solve: f64,
        t_respond: f64,
        latency: f64,
    ) {
        let sum = t_queue + t_batch + t_solve + t_respond;
        assert!(
            (sum - latency).abs() <= 1e-9 * latency.max(1e-9),
            "segments {sum} must partition latency {latency}"
        );
    }

    #[test]
    fn live_telemetry_observes_without_perturbing_results() {
        let sc = tiny_scenario();
        let nks = tiny_nks();
        // Dark engine: live accessors are inert, one reference run.
        let dark = Engine::start(&EngineConfig {
            workers: 1,
            max_batch: 4,
            ..Default::default()
        });
        assert!(!dark.live_enabled());
        let handles: Vec<_> = (0..4).map(|_| dark.submit(&sc, &nks).unwrap()).collect();
        let dark_responses: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().done().unwrap())
            .collect();
        assert!(dark.health().is_none());
        assert!(dark.latency_hist().is_empty());
        assert!(dark.drain_trace_events().is_empty());
        assert!(dark.telemetry_snapshots().is_empty());
        dark.shutdown();
        // Live engine: same submissions, full observation.
        let eng = Engine::start(&EngineConfig {
            workers: 1,
            max_batch: 4,
            live: Some(SloConfig::default()),
            ..Default::default()
        });
        assert!(eng.live_enabled());
        let handles: Vec<_> = (0..4).map(|_| eng.submit(&sc, &nks).unwrap()).collect();
        let responses: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().done().unwrap())
            .collect();
        for (r, d) in responses.iter().zip(&dark_responses) {
            assert_eq!(
                r.solution, d.solution,
                "live telemetry must not perturb solver results"
            );
            assert_eq!(r.solution_fingerprint, d.solution_fingerprint);
            assert_segments_partition(
                r.t_queue_s,
                r.t_batch_s,
                r.t_solve_s,
                r.t_respond_s,
                r.latency_s,
            );
            // Batch assembly contains the shared-state acquisition.
            assert!(r.t_batch_s + 1e-12 >= r.t_setup_s);
        }
        // One trace per completed request, same partition contract.
        let traces = eng.drain_trace_events();
        assert_eq!(traces.len(), 4);
        let mut ids: Vec<u64> = Vec::new();
        for ev in &traces {
            match ev {
                EventRecord::RequestTrace {
                    id,
                    worker,
                    t_queue_s,
                    t_batch_s,
                    t_solve_s,
                    t_respond_s,
                    latency_s,
                    ..
                } => {
                    ids.push(*id);
                    assert_eq!(*worker, 0, "single-worker engine has one lane");
                    assert_segments_partition(
                        *t_queue_s,
                        *t_batch_s,
                        *t_solve_s,
                        *t_respond_s,
                        *latency_s,
                    );
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // Draining empties the sink.
        assert!(eng.drain_trace_events().is_empty());
        // The latency histogram saw every completion.
        assert_eq!(eng.latency_hist().count(), 4);
        // One lane per worker carrying the segment events.
        let snaps = eng.telemetry_snapshots();
        assert_eq!(snaps.len(), 1);
        let paths: Vec<&str> = snaps[0].spans.iter().map(|s| s.path.as_str()).collect();
        for p in ["serve/queue", "serve/setup", "serve/solve", "serve/respond"] {
            assert!(paths.contains(&p), "missing lane span {p} in {paths:?}");
        }
        eng.shutdown();
    }

    #[test]
    fn anomalous_solves_fail_the_request_and_burn_error_budget() {
        let eng = Engine::start(&EngineConfig {
            workers: 1,
            max_batch: 1,
            live: Some(SloConfig {
                latency_target_s: 1e9, // latency alone never burns budget here
                budget_frac: 0.05,
            }),
            ..Default::default()
        });
        let sc = tiny_scenario();
        let ok = eng.submit(&sc, &tiny_nks()).unwrap().wait();
        assert!(!ok.is_failed());
        assert!(ok.done().is_some());
        // A wedged solve: zero Krylov iterations means a zero Newton update,
        // so the residual is bitwise flat every step and the health
        // monitor's stagnation detector must trip.
        let mut wedged = tiny_nks();
        wedged.krylov.max_iters = 0;
        wedged.max_steps = 40;
        wedged.target_reduction = 1e-300;
        let out = eng.submit(&sc, &wedged).unwrap().wait();
        assert!(out.is_failed());
        let resp = out.response().expect("failed outcomes carry the response");
        let anomaly = resp
            .history
            .anomaly
            .as_ref()
            .expect("failed outcome must carry the anomaly verdict");
        assert_eq!(anomaly.kind, fun3d_solver::health::AnomalyKind::Stagnation);
        // The failure burns error budget despite the sky-high latency target.
        let h = eng.health().unwrap();
        assert_eq!(h.window_completed, 2);
        assert_eq!(h.window_over_target, 1);
        assert_eq!(h.state, HealthState::Degraded);
        let stats = eng.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn stats_expose_queue_and_in_flight_gauges() {
        let eng = Engine::start(&EngineConfig {
            workers: 1,
            max_batch: 2,
            ..Default::default()
        });
        let s0 = eng.stats();
        assert_eq!((s0.queue_depth, s0.in_flight), (0, 0));
        let sc = tiny_scenario();
        let nks = tiny_nks();
        let handles: Vec<_> = (0..6).map(|_| eng.submit(&sc, &nks).unwrap()).collect();
        for h in handles {
            assert!(h.wait().done().is_some());
        }
        // in_flight is decremented before each response is sent, so after
        // every wait() returns both gauges are settled.
        let s = eng.stats();
        assert_eq!((s.queue_depth, s.in_flight), (0, 0));
        assert_eq!(s.completed, 6);
        let final_stats = eng.shutdown();
        assert_eq!((final_stats.queue_depth, final_stats.in_flight), (0, 0));
    }

    #[test]
    fn health_reports_saturation_then_burn_then_recovery() {
        // Zero latency target: every completion burns budget, so once the
        // overload clears, the engine reads degraded, then recovers when a
        // window sees no completions at all.
        let eng = Engine::start(&EngineConfig {
            workers: 1,
            queue_depth: 1,
            max_batch: 1,
            live: Some(SloConfig {
                latency_target_s: 0.0,
                budget_frac: 0.05,
            }),
            ..Default::default()
        });
        let sc = tiny_scenario();
        let nks = tiny_nks();
        let mut admitted = Vec::new();
        for _ in 0..24 {
            if let Ok(h) = eng.submit(&sc, &nks) {
                admitted.push(h);
            }
        }
        assert!(
            admitted.len() < 24,
            "depth-1 queue must refuse part of an instant 24-burst"
        );
        let h1 = eng.health().expect("live engine has health");
        assert_eq!(h1.state, HealthState::Saturated);
        assert!(h1.window_refused > 0);
        for h in admitted {
            assert!(h.wait().done().is_some());
        }
        let h2 = eng.health().unwrap();
        assert_eq!(h2.state, HealthState::Degraded);
        assert!(h2.burn_rate > 1.0);
        assert_eq!(h2.window_refused, 0);
        assert!(h2.window_completed > 0);
        assert_eq!(h2.window_over_target, h2.window_completed);
        let h3 = eng.health().unwrap();
        assert_eq!(h3.state, HealthState::Ok);
        assert_eq!(h3.burn_rate, 0.0);
        assert_eq!(h3.window_completed, 0);
        eng.shutdown();
    }
}
