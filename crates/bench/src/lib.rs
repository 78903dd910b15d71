//! Shared harness utilities for the table/figure regenerator binaries.
//!
//! Every binary accepts `--scale <f>` (fraction of the paper's mesh size to
//! actually run; default keeps runs to seconds) and `--full` (the paper's
//! size — minutes to hours).  Measured numbers regenerate the paper's *rows*;
//! EXPERIMENTS.md records the paper-vs-measured comparison.
//!
//! Every regenerator's core loop lives in [`runners`] as a library function
//! returning a [`RunOutcome`]; each binary is one [`run_bin`] call, and
//! `fun3d-harness` schedules the same runners with warmup and repetitions
//! behind the [`Experiment`] trait.  A run's outputs go to one directory,
//! `--record <dir>`, whose file names [`record`] fixes.

pub mod record;
pub mod runners;

use fun3d_euler::field::FieldVec;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_memmodel::machine::MachineSpec;
use fun3d_mesh::generator::{BumpChannelSpec, MeshFamily};
use fun3d_mesh::tet::TetMesh;
use fun3d_sparse::csr::CsrMatrix;
use fun3d_sparse::layout::FieldLayout;
use fun3d_sparse::profile::RegionStats;
use fun3d_telemetry::events::{EventRecord, EventStream};
use fun3d_telemetry::metrics::SeriesSet;
use fun3d_telemetry::report::PerfReport;
use fun3d_telemetry::{Registry, Snapshot};

/// The shared flags, each setting the [`BenchArgs`] field of the same name
/// (`--full` sets `scale` to 1.0).  The regenerator binaries accept exactly
/// these; the `fun3d-bench` driver layers its own flags on top.
pub const KNOWN: [&str; 13] = [
    "--scale",
    "--full",
    "--steps",
    "--reps",
    "--suite",
    "--quiet",
    "--record",
    "--threads",
    "--profile",
    "--ranks",
    "--trace-ranks",
    "--metrics",
    "--blackbox",
];

/// Command-line options shared by the regenerators.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Fraction of the paper's vertex count to use.
    pub scale: f64,
    /// Number of measured pseudo-timesteps (where applicable).
    pub steps: usize,
    /// Number of repetitions for timed sections (`--reps <n>`).
    pub reps: usize,
    /// Suite selector (`--suite <name>`); consumed by the `fun3d-bench`
    /// driver, ignored by the single-experiment binaries.
    pub suite: Option<String>,
    /// Suppress human-readable tables and commentary ([`say!`],
    /// [`BenchArgs::table`]); machine-readable outputs are unaffected.
    pub quiet: bool,
    /// Write the run's record into this directory (`--record <dir>`; see
    /// [`record`] for its files).
    pub record: Option<String>,
    /// Thread-team size for the `_par` kernels (`--threads <n>`; defaults to
    /// `FUN3D_THREADS` or 1).
    pub threads: usize,
    /// Record per-thread region profiles (`--profile`).  Runners that honor
    /// it wrap their timed work in [`BenchArgs::profile_begin`] /
    /// [`BenchArgs::profile_finish`].
    pub profile: bool,
    /// Simulated rank-count cap for the message-passing experiments
    /// (`--ranks <n>`; 0 keeps each runner's default sweep).
    pub ranks: usize,
    /// Record per-rank span timelines, message ledgers, and cross-rank flow
    /// arrows in the message-passing experiments (`--trace-ranks`).
    pub trace_ranks: bool,
    /// Turn on live telemetry in runners that serve requests (`--metrics`):
    /// windowed time-series sampling, per-request traces, and SLO health.
    pub metrics: bool,
    /// Arm the flight recorder for the run (`--blackbox`, which needs
    /// `--record`): it dumps `fun3d-blackbox/1` JSONL into the record on
    /// panic or solver anomaly.  Only experiments whose
    /// [`Experiment::supports_blackbox`] is true drive the solver deeply
    /// enough for the rings to be useful, but arming is harmless everywhere.
    pub blackbox: bool,
    /// Shared flags that appeared more than once on the command line, in
    /// first-repeat order.  A repeated value flag (`--threads 2 --threads 4`)
    /// used to silently last-win; callers reject these via
    /// [`BenchArgs::reject_duplicates`] so the mistake is named instead.
    pub duplicates: Vec<String>,
}

impl BenchArgs {
    /// Baseline values before any flags are applied.  The thread count
    /// honors `FUN3D_THREADS` so whole suites can be threaded without
    /// touching every invocation.
    pub fn defaults(default_scale: f64) -> Self {
        Self {
            scale: default_scale,
            steps: 3,
            reps: 1,
            suite: None,
            quiet: false,
            record: None,
            threads: std::env::var("FUN3D_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1),
            profile: false,
            ranks: 0,
            trace_ranks: false,
            metrics: false,
            blackbox: false,
            duplicates: Vec::new(),
        }
    }

    /// Parse the shared flags ([`KNOWN`]) from `std::env::args` for the
    /// experiment named `suite`, panicking on unknown or repeated flags
    /// with the suite named.  With `--record <dir>` this begins the record
    /// ([`record::start`]) and then, under `--blackbox`, arms the flight
    /// recorder to dump into it.
    pub fn parse_for(suite: &str, default_scale: f64) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let (out, rest) = Self::parse_known(default_scale, &argv);
        Self::reject_leftovers(suite, &rest);
        out.reject_duplicates(suite);
        if let Some(dir) = &out.record {
            record::start(dir).unwrap_or_else(|e| panic!("starting record {dir} failed: {e}"));
            if out.blackbox {
                let dump = record::path(dir, record::BLACKBOX);
                fun3d_telemetry::blackbox::arm(
                    fun3d_telemetry::blackbox::DEFAULT_CAPACITY,
                    Some(&dump),
                );
            }
        }
        out
    }

    /// Panic on the first unrecognized argument, naming the suite so the
    /// message says *which* experiment rejected the flag.
    pub fn reject_leftovers(suite: &str, rest: &[String]) {
        if let Some(other) = rest.first() {
            panic!(
                "unknown argument: {other} (suite {suite}; expected {})",
                KNOWN.join("/")
            );
        }
    }

    /// The error message for a repeated shared flag, naming the suite —
    /// `None` when every flag appeared at most once.
    pub fn duplicate_error(&self, suite: &str) -> Option<String> {
        self.duplicates.first().map(|flag| {
            format!("duplicate flag: {flag} given more than once (suite {suite}; each shared flag may appear at most once)")
        })
    }

    /// Panic when a shared flag was repeated, naming the suite — repeated
    /// value flags would otherwise silently last-win.
    pub fn reject_duplicates(&self, suite: &str) {
        if let Some(msg) = self.duplicate_error(suite) {
            panic!("{msg}");
        }
    }

    /// Parse the shared flags out of `argv`, returning the parsed options
    /// and the arguments that were not recognized (in order).  This is the
    /// single flag-parsing helper: the per-table binaries reject leftovers,
    /// the `fun3d-bench` driver layers its own flags on top of them.
    pub fn parse_known(default_scale: f64, argv: &[String]) -> (Self, Vec<String>) {
        let mut out = Self::defaults(default_scale);
        let mut rest = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        let value = |i: usize, flag: &str| -> &String {
            argv.get(i)
                .unwrap_or_else(|| panic!("{flag} expects a value"))
        };
        let mut i = 0;
        while i < argv.len() {
            if let Some(flag) = KNOWN.iter().find(|f| **f == argv[i]) {
                if seen.contains(flag) && !out.duplicates.iter().any(|d| d == flag) {
                    out.duplicates.push(flag.to_string());
                }
                seen.push(flag);
            }
            match argv[i].as_str() {
                "--scale" => {
                    i += 1;
                    out.scale = value(i, "--scale")
                        .parse()
                        .expect("--scale expects a number");
                }
                "--full" => out.scale = 1.0,
                "--steps" => {
                    i += 1;
                    out.steps = value(i, "--steps")
                        .parse()
                        .expect("--steps expects an integer");
                }
                "--reps" => {
                    i += 1;
                    out.reps = value(i, "--reps")
                        .parse()
                        .expect("--reps expects an integer");
                }
                "--suite" => {
                    i += 1;
                    out.suite = Some(value(i, "--suite").clone());
                }
                "--quiet" => out.quiet = true,
                "--record" => {
                    i += 1;
                    out.record = Some(value(i, "--record").clone());
                }
                "--threads" => {
                    i += 1;
                    out.threads = value(i, "--threads")
                        .parse()
                        .expect("--threads expects an integer");
                }
                "--profile" => out.profile = true,
                "--ranks" => {
                    i += 1;
                    out.ranks = value(i, "--ranks")
                        .parse()
                        .expect("--ranks expects an integer");
                }
                "--trace-ranks" => out.trace_ranks = true,
                "--metrics" => out.metrics = true,
                "--blackbox" => out.blackbox = true,
                other => rest.push(other.to_string()),
            }
            i += 1;
        }
        assert!(out.scale > 0.0 && out.scale <= 4.0, "scale out of range");
        assert!(out.reps >= 1, "--reps must be at least 1");
        assert!(out.threads >= 1, "--threads must be at least 1");
        assert!(out.ranks <= 1024, "--ranks out of range");
        assert!(
            !out.blackbox || out.record.is_some(),
            "--blackbox needs --record <dir>: the flight recorder dumps into the record"
        );
        (out, rest)
    }

    /// The thread context the `--threads` flag selects (`threads == 0`,
    /// as in a struct-literal `Default`, means sequential).
    pub fn par(&self) -> fun3d_sparse::par::ParCtx {
        fun3d_sparse::par::ParCtx::new(self.threads.max(1))
    }

    /// Print a table unless `--quiet` was given.
    pub fn table(&self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        if !self.quiet {
            print_table(title, headers, rows);
        }
    }

    /// A mesh spec for the given paper family, scaled by `self.scale`.
    pub fn family_spec(&self, family: MeshFamily) -> BumpChannelSpec {
        let target = (family.paper_vertices() as f64 * self.scale) as usize;
        BumpChannelSpec::with_target_vertices(target.max(500))
    }

    /// Stamp the shared CLI context into `report` (scale, steps, nthreads).
    pub fn annotate(&self, report: &mut PerfReport) {
        report
            .meta
            .push(("scale".into(), format!("{}", self.scale)));
        report.meta.push(("steps".into(), self.steps.to_string()));
        report
            .meta
            .push(("nthreads".into(), self.threads.max(1).to_string()));
    }

    /// When `--profile` is on, arm the global region profiler (enable and
    /// clear it) ahead of the runner's timed work.  A no-op otherwise, so
    /// profiling-off runs execute the exact PR-4 kernel paths.
    pub fn profile_begin(&self) {
        if self.profile {
            fun3d_sparse::profile::set_enabled(true);
            fun3d_sparse::profile::reset();
        }
    }

    /// When `--profile` is on, drain the region profiler into `reg` and
    /// `events`, then disarm it (so later runs in the same process start
    /// clean).  Each region becomes a `par/{label}` span carrying the wall
    /// time plus derived counters (`nthreads`, `busy_max_s`, `busy_mean_s`,
    /// `join_wait_s`, `imbalance`, and per-thread `busy_t{t}_s`), and one
    /// [`EventRecord::ParRegion`] per region is appended to `events`.
    /// Returns the drained stats for runners that want to print them.
    pub fn profile_finish(&self, reg: &Registry, events: &mut EventStream) -> Vec<RegionStats> {
        if !self.profile {
            return Vec::new();
        }
        let stats = fun3d_sparse::profile::drain();
        fun3d_sparse::profile::set_enabled(false);
        ingest_regions(reg, &stats);
        for s in &stats {
            events.records.push(EventRecord::ParRegion {
                label: s.label.to_string(),
                nthreads: s.nthreads as u64,
                invocations: s.invocations,
                wall_s: s.wall_s,
                busy_max_s: s.busy_max_s(),
                busy_mean_s: s.busy_mean_s(),
                join_wait_s: s.join_wait_s(),
                imbalance: s.imbalance(),
            });
        }
        stats
    }
}

/// Fold drained [`RegionStats`] into a telemetry registry as `par/{label}`
/// spans with derived counters, the shape [`PerfReport::region_metrics`]
/// reads back.  When the same label ran at several team sizes in one run
/// (the `speedup` sweep does this), each team size gets its own
/// `par/{label}@n{nthreads}` span so the derived stats never mix.
pub fn ingest_regions(reg: &Registry, stats: &[RegionStats]) {
    use fun3d_telemetry::TimeDomain;
    for s in stats {
        let multi = stats
            .iter()
            .filter(|o| o.label == s.label && o.nthreads != s.nthreads)
            .count()
            > 0;
        let path = if multi {
            format!("par/{}@n{}", s.label, s.nthreads)
        } else {
            format!("par/{}", s.label)
        };
        reg.record_span(&path, TimeDomain::Measured, s.wall_s, s.invocations);
        let c = |name: &str, v: f64| reg.counter_at(&path, TimeDomain::Measured, name, v);
        c("nthreads", s.nthreads as f64);
        c("busy_max_s", s.busy_max_s());
        c("busy_mean_s", s.busy_mean_s());
        c("join_wait_s", s.join_wait_s());
        c("imbalance", s.imbalance());
        for (t, b) in s.busy_s.iter().enumerate() {
            c(&format!("busy_t{t}_s"), *b);
        }
    }
}

/// `println!` gated on the shared `--quiet` flag: the first argument is a
/// `&BenchArgs`, the rest is a normal format string.
#[macro_export]
macro_rules! say {
    ($args:expr) => {
        if !$args.quiet { println!(); }
    };
    ($args:expr, $($fmt:tt)*) => {
        if !$args.quiet { println!($($fmt)*); }
    };
}

/// The result of one experiment run: everything its [`record`] holds.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// The machine-readable report ([`record::REPORT`]).
    pub report: PerfReport,
    /// Per-rank snapshots for the chrome trace ([`record::TRACE`]; empty
    /// when the runner records no timeline).
    pub telemetry: Vec<Snapshot>,
    /// The run's `fun3d-events/1` stream ([`record::EVENTS`]; empty when
    /// the runner emits no events).
    pub events: EventStream,
    /// The run's `fun3d-metrics/1` time series ([`record::METRICS`]; empty
    /// when the runner collects no live metrics).
    pub metrics: SeriesSet,
}

impl From<PerfReport> for RunOutcome {
    fn from(report: PerfReport) -> Self {
        Self {
            report,
            ..Self::default()
        }
    }
}

/// A model-predicted value for one measured metric of a report, in the
/// metric's own units — the harness prints these as model-vs-measured
/// columns the way the paper reports predicted vs. observed rates.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelEstimate {
    /// Metric key in the report this estimate corresponds to.
    pub metric: String,
    /// The machine model's prediction for that metric.
    pub predicted: f64,
}

/// A runnable benchmark: one paper table/figure regenerator (or kernel
/// microbenchmark) exposed as a library call, so the harness can schedule
/// warmup and repetitions in-process instead of shelling out to the bins.
pub trait Experiment: Send + Sync {
    /// Stable name (equals the binary name: `table1`, `stream`, ...).
    fn name(&self) -> &'static str;
    /// One-line description for `fun3d-bench list`.
    fn description(&self) -> &'static str;
    /// The scale the standalone binary defaults to.
    fn default_scale(&self) -> f64;
    /// Execute once with the given options.
    fn run(&self, args: &BenchArgs) -> RunOutcome;
    /// Machine-model predictions for metrics of `report` on `machine`
    /// (empty when the experiment has no analytic model).
    fn model(&self, _report: &PerfReport, _machine: &MachineSpec) -> Vec<ModelEstimate> {
        Vec::new()
    }
    /// Whether `--blackbox` is meaningful for this experiment: true for
    /// runners that drive full ΨNKS solves (where the flight recorder and
    /// health monitor have material to capture), false for pure kernel
    /// microbenchmarks.
    fn supports_blackbox(&self) -> bool {
        false
    }
}

/// The whole body of every regenerator binary: parse the shared flags for
/// the registered experiment `name` at its registry default scale, run it
/// once, write its record when `--record` was given, and exit with status
/// 3 when the run ended on solver anomalies (distinct from panics and from
/// gate regressions), printing one line per anomaly to stderr.
pub fn run_bin(name: &str) {
    let exp = runners::find(name).unwrap_or_else(|| panic!("no registered experiment {name}"));
    let args = BenchArgs::parse_for(name, exp.default_scale());
    let out = exp.run(&args);
    if let Some(dir) = &args.record {
        record::write(dir, &out).unwrap_or_else(|e| panic!("writing record {dir} failed: {e}"));
        println!("\nwrote run record to {dir}");
    }
    let anomalies: Vec<String> = out
        .events
        .records
        .iter()
        .filter_map(|e| match e {
            EventRecord::Anomaly {
                kind,
                step,
                residual_norm,
                detail,
            } => Some(format!(
                "anomaly: {kind} at step {step} (residual {residual_norm:.3e}): {detail}"
            )),
            _ => None,
        })
        .collect();
    if !anomalies.is_empty() {
        anomalies.iter().for_each(|a| eprintln!("{a}"));
        eprintln!("run terminated on {} solver anomaly(ies)", anomalies.len());
        std::process::exit(3);
    }
}

/// Print a Markdown-ish table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Format seconds adaptively.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// A smoothly perturbed near-freestream state (so Jacobians and fluxes are
/// generic, not at the trivial constant state).
pub fn perturbed_state(disc: &Discretization, amplitude: f64) -> FieldVec {
    let mesh = disc.mesh();
    let mut q = disc.initial_state();
    for v in 0..mesh.nverts() {
        let x = mesh.coords()[v];
        let mut s = q.get(v);
        for c in 0..disc.ncomp() {
            s[c] +=
                amplitude * ((c + 1) as f64) * (1.3 * x[0] + 0.7 * x[1]).sin() * (0.9 * x[2]).cos();
        }
        q.set(v, &s);
    }
    q
}

/// Assemble a representative shifted Jacobian (first-order, pseudo-time
/// diagonal at the given CFL) — the matrix the solve-phase experiments
/// exercise.
pub fn representative_jacobian(
    mesh: &TetMesh,
    model: FlowModel,
    layout: FieldLayout,
    cfl: f64,
) -> CsrMatrix {
    let disc = Discretization::new(mesh, model, layout, SpatialOrder::First);
    let q = perturbed_state(&disc, 0.01);
    let mut jac = disc.jacobian(&q);
    let d: Vec<f64> = {
        let sums = disc.wavespeed_sums(&q);
        let nv = mesh.nverts();
        let ncomp = disc.ncomp();
        let mut out = vec![0.0; nv * ncomp];
        for v in 0..nv {
            for c in 0..ncomp {
                let idx = match layout {
                    FieldLayout::Interlaced => v * ncomp + c,
                    FieldLayout::Segregated => c * nv + v,
                };
                out[idx] = sums[v];
            }
        }
        out
    };
    jac.shift_diagonal_by(1.0 / cfl, &d);
    jac
}

/// Median of repeated timings of `f` (after one warmup call).
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Held by the test that profiles parallel regions and by the test that
/// sweeps team sizes: the region profiler is process-global, so a sweep
/// running inside the profiled window would split its regions by team
/// size (`par/{label}@n{nthreads}`).
#[cfg(test)]
pub(crate) static PROFILER_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_sparse::ilu::{IluFactors, IluOptions};

    #[test]
    fn family_spec_scales() {
        let args = BenchArgs {
            scale: 0.1,
            steps: 3,
            ..Default::default()
        };
        let spec = args.family_spec(MeshFamily::Small);
        let got = spec.nverts() as f64;
        assert!((got / 2267.7 - 1.0).abs() < 0.5, "{got}");
    }

    #[test]
    fn representative_jacobian_is_factorable() {
        let mesh = BumpChannelSpec::with_dims(6, 5, 5).build();
        let jac = representative_jacobian(
            &mesh,
            FlowModel::incompressible(),
            FieldLayout::Interlaced,
            10.0,
        );
        IluFactors::factor(&jac, &IluOptions::with_fill(0)).expect("factorable");
    }

    fn argv(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|s| s.to_string()).collect()
    }

    /// The message `f` panics with, with the panic hook silenced meanwhile.
    fn panic_message<R>(f: impl FnOnce() -> R + std::panic::UnwindSafe) -> String {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = std::panic::catch_unwind(f).err().expect("expected a panic");
        std::panic::set_hook(prev);
        err.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap())
    }

    #[test]
    fn parse_known_accepts_rank_flags_and_returns_leftovers() {
        let (args, rest) =
            BenchArgs::parse_known(0.5, &argv(&["--ranks", "8", "--trace-ranks", "--whoops"]));
        assert_eq!(args.ranks, 8);
        assert!(args.trace_ranks);
        assert_eq!(rest, vec!["--whoops".to_string()]);
    }

    #[test]
    fn parse_known_accepts_metrics_flags() {
        let (args, rest) = BenchArgs::parse_known(0.5, &[]);
        assert!(rest.is_empty());
        assert!(!args.metrics);
        assert_eq!(args.record, None);
        let (args, rest) = BenchArgs::parse_known(0.5, &argv(&["--metrics"]));
        assert!(args.metrics);
        assert!(rest.is_empty());
        // The series land in the record, which takes its directory.
        let (args, rest) = BenchArgs::parse_known(0.5, &argv(&["--metrics", "--record", "m"]));
        assert!(args.metrics);
        assert_eq!(args.record.as_deref(), Some("m"));
        assert!(rest.is_empty());
        // Repeats are caught like every other shared flag.
        let (args, _) = BenchArgs::parse_known(0.5, &argv(&["--record", "a", "--record", "b"]));
        assert_eq!(args.duplicates, vec!["--record".to_string()]);
    }

    #[test]
    fn parse_known_accepts_blackbox_flag() {
        let (args, rest) = BenchArgs::parse_known(0.5, &[]);
        assert!(rest.is_empty());
        assert!(!args.blackbox);
        let (args, rest) = BenchArgs::parse_known(0.5, &argv(&["--blackbox", "--record", "r"]));
        assert!(args.blackbox);
        assert_eq!(args.record.as_deref(), Some("r"));
        assert!(rest.is_empty());
        // Repeats are caught like every other shared flag.
        let repeated = argv(&["--blackbox", "--record", "r", "--blackbox"]);
        let (args, _) = BenchArgs::parse_known(0.5, &repeated);
        assert_eq!(args.duplicates, vec!["--blackbox".to_string()]);
        // The dump goes into the record, so the switch alone is refused.
        let msg = panic_message(|| BenchArgs::parse_known(0.5, &argv(&["--blackbox"])));
        assert!(
            msg.contains("--blackbox") && msg.contains("--record"),
            "{msg}"
        );
    }

    #[test]
    fn duplicate_flags_are_detected_and_rejected_by_suite_name() {
        // `--threads 2 --threads 4` used to silently last-win; it must now
        // be detected by the parser and rejected with the suite named.
        let flags = argv(&["--threads", "2", "--scale", "0.1", "--threads", "4"]);
        let (args, rest) = BenchArgs::parse_known(0.5, &flags);
        assert!(rest.is_empty());
        assert_eq!(args.duplicates, vec!["--threads".to_string()]);
        let msg = args.duplicate_error("serve").expect("duplicate reported");
        assert!(msg.contains("--threads") && msg.contains("serve"), "{msg}");
        let panic_msg = panic_message(|| args.reject_duplicates("serve"));
        assert!(
            panic_msg.contains("--threads") && panic_msg.contains("serve"),
            "{panic_msg}"
        );
        // Boolean flags repeat-checked too; singles stay clean.
        let (args, _) = BenchArgs::parse_known(0.5, &argv(&["--quiet", "--quiet"]));
        assert_eq!(args.duplicates, vec!["--quiet".to_string()]);
        let (args, _) = BenchArgs::parse_known(0.5, &argv(&["--threads", "2", "--quiet"]));
        assert!(args.duplicates.is_empty());
        assert!(args.duplicate_error("spmv").is_none());
    }

    #[test]
    fn every_experiment_rejects_typoed_flags_by_suite_name() {
        // Every binary funnels through `parse_for(name, ..)`, which calls
        // `reject_leftovers`; the panic must name the suite and the flag so
        // a typo in a 17-binary sweep is attributable from the message,
        // and list the shared flags.
        for e in crate::runners::all() {
            let name = e.name();
            let msg = panic_message(|| BenchArgs::reject_leftovers(name, &argv(&["--typo"])));
            assert!(
                msg.contains(name) && msg.contains("--typo") && msg.contains("--record"),
                "suite {name}: {msg}"
            );
        }
    }

    #[test]
    fn time_median_returns_positive() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<usize>());
        });
        assert!(t >= 0.0);
    }
}
