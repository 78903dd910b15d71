//! `fun3d-bench`: the experiment-orchestration driver.
//!
//! ```text
//! fun3d-bench list [--json]
//! fun3d-bench run --suite quick [--reps n] [--scale f | --full] [--steps n]
//!     [--threads n] [--profile] [--ranks n] [--trace-ranks] [--metrics]
//!     [--verbose] [--baseline b.json] [--save-baseline b.json]
//!     [--record dir] [--tol-rel f] [--tol-mad-k f] [--tol-abs f]
//! ```
//!
//! `--record dir` writes each experiment's representative repetition as the
//! run record `dir/<name>/`, and the suite verdicts as `dir/suite.json`
//! (`fun3d-gate/1`) and `dir/suite.md`.
//!
//! Exit status: 0 when no experiment regressed against the baseline (or no
//! baseline was given), 1 when at least one did, 2 on usage errors.

use fun3d_bench::{print_table, record, runners, BenchArgs};
use fun3d_harness::baseline::Baseline;
use fun3d_harness::compare::Verdict;
use fun3d_harness::gate::{run_suite, GateConfig};

fn usage() -> ! {
    eprintln!(
        "usage: fun3d-bench list [--json]\n       fun3d-bench run --suite <smoke|quick|full|EXPERIMENT> \
         [--reps n] [--scale f | --full] [--steps n] [--threads n] [--profile] [--ranks n] [--trace-ranks] [--metrics]\n           \
         [--verbose] [--baseline b.json] [--save-baseline b.json] [--record dir] \
         [--tol-rel f] [--tol-mad-k f] [--tol-abs f]"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else { usage() };
    match command.as_str() {
        "list" => list(&argv[1..]),
        "run" => run(&argv[1..]),
        _ => usage(),
    }
}

fn list(argv: &[String]) {
    let json = match argv {
        [] => false,
        [flag] if flag == "--json" => true,
        _ => usage(),
    };
    if json {
        // Machine-readable registry: one object per experiment, stable keys.
        use fun3d_telemetry::json::Value;
        let items: Vec<Value> = runners::all()
            .iter()
            .map(|e| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(e.name().into())),
                    ("default_scale".into(), Value::Num(e.default_scale())),
                    ("description".into(), Value::Str(e.description().into())),
                    ("blackbox".into(), Value::Bool(e.supports_blackbox())),
                ])
            })
            .collect();
        println!("{}", Value::Arr(items).render());
        return;
    }
    print_table(
        "Registered experiments",
        &["name", "scale", "blackbox", "description"],
        &runners::list_rows(),
    );
    println!("\nNamed suites: smoke (CI, seconds), quick (developer default), full (everything).");
}

fn run(argv: &[String]) {
    // The flight recorder arms one bench binary's run; a suite has no
    // single record for it to dump into.
    if argv.iter().any(|a| a == "--blackbox") {
        eprintln!(
            "--blackbox is not accepted by fun3d-bench run; arm it on one bench binary \
             with --blackbox --record <dir>"
        );
        usage();
    }
    // Shared flags first (`fun3d_bench::KNOWN`), then the driver-only flags
    // from the leftovers.
    let (args, rest) = BenchArgs::parse_known(1.0, argv);
    let suite_name = args.suite.clone().unwrap_or_else(|| "quick".into());
    // A repeated value flag (`--threads 2 --threads 4`) would silently
    // last-win; name the mistake and the suite instead.
    if let Some(msg) = args.duplicate_error(&suite_name) {
        eprintln!("{msg}");
        usage();
    }
    let given = |flag: &str| argv.iter().any(|a| a == flag);
    let mut cfg = GateConfig {
        suite: suite_name,
        // Treat explicitly-passed shared flags as overrides for every entry.
        reps: given("--reps").then_some(args.reps),
        scale: (given("--scale") || given("--full")).then_some(args.scale),
        steps: given("--steps").then_some(args.steps),
        threads: given("--threads").then_some(args.threads),
        profile: args.profile,
        ranks: given("--ranks").then_some(args.ranks),
        trace_ranks: args.trace_ranks,
        metrics: args.metrics,
        record: args.record,
        ..Default::default()
    };
    let mut baseline_path: Option<String> = None;
    let mut save_baseline: Option<String> = None;
    let mut i = 0;
    let value = |rest: &[String], i: usize, flag: &str| -> String {
        rest.get(i)
            .unwrap_or_else(|| {
                eprintln!("{flag} expects a value");
                usage()
            })
            .clone()
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_path = Some(value(&rest, i, "--baseline"));
            }
            "--save-baseline" => {
                i += 1;
                save_baseline = Some(value(&rest, i, "--save-baseline"));
            }
            "--tol-rel" => {
                i += 1;
                cfg.tol.rel = value(&rest, i, "--tol-rel").parse().unwrap_or_else(|_| {
                    eprintln!("--tol-rel expects a number");
                    usage()
                });
            }
            "--tol-mad-k" => {
                i += 1;
                cfg.tol.mad_k = value(&rest, i, "--tol-mad-k").parse().unwrap_or_else(|_| {
                    eprintln!("--tol-mad-k expects a number");
                    usage()
                });
            }
            "--tol-abs" => {
                i += 1;
                cfg.tol.abs_floor = value(&rest, i, "--tol-abs").parse().unwrap_or_else(|_| {
                    eprintln!("--tol-abs expects a number");
                    usage()
                });
            }
            "--verbose" => cfg.verbose = true,
            other => {
                eprintln!(
                    "unknown argument: {other} (while configuring suite {:?})",
                    cfg.suite
                );
                usage();
            }
        }
        i += 1;
    }

    let baseline = baseline_path.as_deref().map(|p| {
        Baseline::load(p).unwrap_or_else(|e| {
            eprintln!("failed to load baseline {p}: {e}");
            std::process::exit(2);
        })
    });

    println!(
        "fun3d-bench: suite `{}`{}",
        cfg.suite,
        baseline_path
            .as_deref()
            .map(|p| format!(", gating against {p}"))
            .unwrap_or_default()
    );
    let outcome = run_suite(&cfg, baseline.as_ref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!(
        "calibrated host STREAM triad: {:.0} MB/s",
        outcome.calibration.stream.triad / 1e6
    );

    // Per-experiment verdict table.
    let rows: Vec<Vec<String>> = outcome
        .outcomes
        .iter()
        .map(|o| {
            let count = |v: Verdict| o.comparisons.iter().filter(|c| c.verdict == v).count();
            vec![
                o.run.name.clone(),
                format!(
                    "{}x{}",
                    o.run.runs.len(),
                    cfg.scale.unwrap_or(o.entry.scale)
                ),
                o.comparisons.len().to_string(),
                count(Verdict::Regressed).to_string(),
                count(Verdict::Improved).to_string(),
                count(Verdict::UnknownMetric).to_string(),
                o.verdict.label().to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Suite `{}` verdicts", outcome.suite),
        &[
            "experiment",
            "reps x scale",
            "metrics",
            "regr",
            "impr",
            "unknown",
            "verdict",
        ],
        &rows,
    );

    // Flagged metrics in detail.
    for o in &outcome.outcomes {
        let flagged: Vec<Vec<String>> = o
            .comparisons
            .iter()
            .filter(|c| matches!(c.verdict, Verdict::Regressed | Verdict::Improved))
            .map(|c| {
                vec![
                    c.key.clone(),
                    format!("{:.4e}", c.baseline.map(|b| b.median).unwrap_or(f64::NAN)),
                    format!("{:.4e}", c.current.median),
                    format!("{:+.4e}", c.delta),
                    format!("{:.4e}", c.threshold),
                    c.verdict.label().to_string(),
                ]
            })
            .collect();
        if !flagged.is_empty() {
            print_table(
                &format!("{}: flagged metrics", o.run.name),
                &[
                    "metric",
                    "baseline",
                    "current",
                    "delta",
                    "threshold",
                    "verdict",
                ],
                &flagged,
            );
        }
    }

    // Model-vs-measured columns (calibrated host machine).
    for o in &outcome.outcomes {
        if o.models.is_empty() {
            continue;
        }
        let rows: Vec<Vec<String>> = o
            .models
            .iter()
            .map(|m| {
                vec![
                    m.metric.clone(),
                    format!("{:.4e}", m.predicted),
                    m.measured.map_or("-".into(), |x| format!("{x:.4e}")),
                    m.ratio().map_or("-".into(), |r| format!("{r:.2}")),
                ]
            })
            .collect();
        print_table(
            &format!("{}: model vs measured (calibrated host)", o.run.name),
            &["metric", "model", "measured", "measured/model"],
            &rows,
        );
    }

    if let Some(path) = &save_baseline {
        outcome.to_baseline().save(path).unwrap_or_else(|e| {
            eprintln!("failed to save baseline {path}: {e}");
            std::process::exit(2);
        });
        println!("\nsaved baseline to {path}");
    }
    if let Some(dir) = &cfg.record {
        let write = |name: &str, text: String| {
            let path = record::path(dir, name);
            std::fs::write(&path, text).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(2);
            });
        };
        write("suite.json", outcome.to_json().render());
        write("suite.md", outcome.to_markdown());
        println!("wrote run records and suite verdicts to {dir}");
    }

    let verdict = outcome.verdict();
    println!("\noverall: {}", verdict.label());
    if verdict == Verdict::Regressed {
        std::process::exit(1);
    }
}
