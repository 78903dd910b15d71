//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then one JSON result line.  Exits 2 on
//! a usage error, without a result line.

use perfbench::workloads::{run, RunOptions, Size, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: perfbench --workload <inc-tuned-seq|comp-matfree-t2|dist-2rank|serve-2w> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--size <full|tiny>]";

fn parse(args: &[String]) -> Result<RunOptions, String> {
    let mut workload = None;
    let mut opts = RunOptions {
        workload: Workload::IncTunedSeq,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                opts.size = match value {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    for d in &report.defects {
        println!("DEFECT {d}");
    }
    for m in &report.metrics {
        println!("{:<32} {:>16.6e} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
}
