//! `fun3d-report`: inspect, diff, and diagnose `fun3d-perf/1` runs.
//!
//! ```text
//! fun3d-report show <record>
//! fun3d-report <record>                       # implicit show
//! fun3d-report profile <record> [<other>]
//! fun3d-report comm <record> [<other>]
//! fun3d-report serve <record>
//! fun3d-report live <record> [<other>]
//! fun3d-report diff <a> <b> [--tol-rel f] [--tol-mad-k f] [--tol-abs f]
//! fun3d-report explain <record> [<other>]
//! ```
//!
//! Every positional argument is a run record: the directory a bench
//! binary's `--record <dir>` wrote, or one experiment's `<dir>/<name>/`
//! from `fun3d-bench run --record <dir>` (file names in
//! `fun3d_bench::record`).  Every subcommand funnels its arguments through
//! one shared parser (`SubArgs`): the record directories and the `--tol-*`
//! tolerance knobs.
//!
//! `show` renders the run: metrics, the Table 3-style phase breakdown with
//! p50/p95/p99 tail latencies and modeled cache/TLB counters, a per-region
//! load-imbalance summary when the run was profiled, the Figure 5-style
//! convergence table from the event stream, scatter traffic, and
//! checkpoints.
//!
//! `profile` renders the thread-profile view of a `--profile` run: per
//! parallel region the max/mean per-thread busy time, imbalance factor, and
//! join-wait (the paper's Table 3 implementation-efficiency terms), plus
//! achieved GB/s and %-of-STREAM per byte-counted span (a live Table 2).
//! Naming a second report appends a region-by-region A/B comparison.
//!
//! `comm` renders the communication view of a `--trace-ranks` run: the
//! per-rank compute / exchange / wait table with the laggard rank flagged,
//! the neighbor byte-volume matrix, the critical-path breakdown, and the
//! η = η_alg · η_impl decomposition. Naming a second report appends a
//! per-rank wait-fraction A/B comparison.
//!
//! `serve` renders the serving view of a `serve` run: the open-loop rate
//! sweep, the saturation knee, and the cache / admission summary.
//!
//! `live` renders the `fun3d-metrics/1` time series of a `--metrics`
//! run: sparkline trend rows, the health-state timeline, and —
//! with a second report — a noise-aware per-series A/B diff.
//!
//! `diff` judges run B against run A with the gate's noise-aware verdicts.
//!
//! `explain` is the diagnosis pass: it joins the report, profiler roofline
//! rows, rank-trace critical path, histogram tails, anomaly events, and a
//! `--blackbox` flight-recorder dump into a ranked list of bottleneck
//! hypotheses (bandwidth-bound / imbalance-bound / comm-wait-bound /
//! latency-bound / anomaly-terminated) with evidence lines; with a second
//! record it attributes the regression to the phase and cause that moved.
//! A record holding only a dump renders what the panicked run left.
//!
//! Exit status: 0 on success (for `diff`, no regressions), 1 when a diff
//! regressed, 2 on usage or I/O errors.

use fun3d_harness::compare::Tolerance;
use fun3d_harness::report_cli::{
    explain_records, render_comm, render_diff, render_live, render_profile, render_serve,
    render_show, LoadedRun,
};

fn usage() -> ! {
    eprintln!(
        "usage: fun3d-report [show] <record>\n       \
         fun3d-report profile <record> [<other>]\n       \
         fun3d-report comm <record> [<other>]\n       \
         fun3d-report serve <record>\n       \
         fun3d-report live <record> [<other>]\n       \
         fun3d-report diff <a> <b> [--tol-rel f] [--tol-mad-k f] [--tol-abs f]\n       \
         fun3d-report explain <record> [<other>]\n\
         where each <record> is a run record directory (--record <dir>)"
    );
    std::process::exit(2);
}

/// The argument shape every subcommand shares: positional record
/// directories plus the tolerance flags.
struct SubArgs {
    paths: Vec<String>,
    tol: Tolerance,
}

impl SubArgs {
    fn parse(argv: &[String]) -> Self {
        let mut out = Self {
            paths: Vec::new(),
            tol: Tolerance::default(),
        };
        let value = |argv: &[String], i: usize, flag: &str| -> String {
            argv.get(i)
                .unwrap_or_else(|| {
                    eprintln!("{flag} expects a value");
                    usage()
                })
                .clone()
        };
        let num = |argv: &[String], i: usize, flag: &str| -> f64 {
            value(argv, i, flag).parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a number");
                usage()
            })
        };
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--tol-rel" => {
                    i += 1;
                    out.tol.rel = num(argv, i, "--tol-rel");
                }
                "--tol-mad-k" => {
                    i += 1;
                    out.tol.mad_k = num(argv, i, "--tol-mad-k");
                }
                "--tol-abs" => {
                    i += 1;
                    out.tol.abs_floor = num(argv, i, "--tol-abs");
                }
                other if other.starts_with("--") => {
                    eprintln!("unknown argument: {other}");
                    usage();
                }
                _ => out.paths.push(argv[i].clone()),
            }
            i += 1;
        }
        out
    }

    /// Load the first record and, when a second was named, that one too.
    /// Any other arity is a usage error.
    fn load_one_or_two(&self) -> (LoadedRun, Option<LoadedRun>) {
        match self.paths.as_slice() {
            [r] => (load_or_die(r), None),
            [r, o] => (load_or_die(r), Some(load_or_die(o))),
            _ => usage(),
        }
    }

    /// Load exactly one record; a second path is a usage error.
    fn load_exactly_one(&self) -> LoadedRun {
        match self.load_one_or_two() {
            (run, None) => run,
            _ => usage(),
        }
    }
}

fn load_or_die(dir: &str) -> LoadedRun {
    LoadedRun::load(dir).unwrap_or_else(|e| {
        eprintln!("failed to load {dir}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else { usage() };
    match command.as_str() {
        "diff" => diff(&SubArgs::parse(&argv[1..])),
        "show" => show(&SubArgs::parse(&argv[1..])),
        "profile" => {
            let (run, other) = SubArgs::parse(&argv[1..]).load_one_or_two();
            print!("{}", render_profile(&run, other.as_ref()));
        }
        "comm" => {
            let (run, other) = SubArgs::parse(&argv[1..]).load_one_or_two();
            print!("{}", render_comm(&run, other.as_ref()));
        }
        "serve" => {
            let run = SubArgs::parse(&argv[1..]).load_exactly_one();
            print!("{}", render_serve(&run));
        }
        "live" => {
            let (run, other) = SubArgs::parse(&argv[1..]).load_one_or_two();
            print!("{}", render_live(&run, other.as_ref()));
        }
        "explain" => explain(&SubArgs::parse(&argv[1..])),
        _ => show(&SubArgs::parse(&argv)),
    }
}

fn show(sub: &SubArgs) {
    let run = sub.load_exactly_one();
    print!("{}", render_show(&run));
}

fn explain(sub: &SubArgs) {
    let (dir, other) = match sub.paths.as_slice() {
        [r] => (r, None),
        [r, o] => (r, Some(o.as_str())),
        _ => usage(),
    };
    let text = explain_records(dir, other).unwrap_or_else(|e| {
        eprintln!("failed to load {dir}: {e}");
        std::process::exit(2);
    });
    print!("{text}");
}

fn diff(sub: &SubArgs) {
    let (a, b) = match sub.load_one_or_two() {
        (a, Some(b)) => (a, b),
        _ => usage(),
    };
    let d = render_diff(&a, &b, &sub.tol);
    print!("{}", d.text);
    if d.regressions > 0 {
        std::process::exit(1);
    }
}
