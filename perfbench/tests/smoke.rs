//! Self-tests of the benchmark: every workload on a tiny mesh passes its
//! correctness checks on both listed seeds, prints exactly the metrics
//! `BENCHMARK.json` lists, has a ledger that adds up to wall time, and
//! repeats its step and iteration counts exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::report::Report;
use perfbench::workloads::{run, RunOptions, Size, Workload, DEFAULT_SEED, HELD_OUT_SEED};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&RunOptions {
        workload,
        seed,
        // A traced run reports the ledger of its median traced solve; a
        // second of them keeps one preempted solve from being that median.
        seconds: if trace { 1.0 } else { 0.0 },
        trace,
        size: Size::Tiny,
    })
}

/// The text of one array-valued section of `BENCHMARK.json`.
fn section(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{name}\"")).expect("section present");
    let end = start + text[start..].find(']').expect("section is an array");
    text[start..end].to_string()
}

/// Every string value of `key` in `text`, in order.
fn values(text: &str, key: &str) -> Vec<String> {
    let tag = format!("\"{key}\": \"");
    text.match_indices(&tag)
        .map(|(at, _)| {
            let rest = &text[at + tag.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(name: &str) -> Vec<(String, String)> {
    let s = section(name);
    values(&s, "name")
        .into_iter()
        .zip(values(&s, "unit"))
        .collect()
}

fn printed(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_on_both_listed_seeds() {
    let end_to_end = listed("end_to_end");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let workloads = values(&section("workloads"), "name");
    assert!(workloads.len() >= 2);
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let r = tiny(w, seed, false);
            assert!(
                r.correct(),
                "{} seed {seed}: {:?} {:?}",
                w.name(),
                r.defects,
                r.lines
            );
            assert_eq!(r.failed_frac(), 0.0);
            // A listed workload prints exactly the listed metrics; the
            // others print at least those.
            let out = printed(&r);
            if workloads.iter().any(|n| n == w.name()) {
                assert_eq!(out, end_to_end, "{}", w.name());
            } else {
                assert!(end_to_end.iter().all(|m| out.contains(m)), "{}", w.name());
            }
            assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);
        }
    }
}

#[test]
fn traced_ledger_adds_up_to_wall_time() {
    let per_layer = listed("per_layer");
    for w in Workload::ALL {
        let r = tiny(w, DEFAULT_SEED, true);
        assert!(r.correct(), "{}: {:?} {:?}", w.name(), r.defects, r.lines);
        assert_eq!(printed(&r), per_layer, "{}", w.name());
        let ledger = r.ledger.as_ref().expect("traced run carries its ledger");
        let rows: f64 = ledger.rows().iter().map(|row| row.2).sum();
        let unattributed = ledger.unattributed_s();
        assert!(
            (rows + unattributed - ledger.wall_s).abs() <= 1e-12 * ledger.wall_s,
            "{}: rows {rows} + unattributed {unattributed} != wall {}",
            w.name(),
            ledger.wall_s
        );
        assert!(
            unattributed >= -1e-3 * ledger.wall_s && unattributed <= 0.05 * ledger.wall_s,
            "{}: unattributed {unattributed} of {}",
            w.name(),
            ledger.wall_s
        );
        assert_eq!(r.get("ledger.wall_s"), Some(ledger.wall_s));
        assert_eq!(r.get("solver.unattributed_s"), Some(unattributed));
        assert!(ledger.residual.calls > 0 && ledger.jacobian.calls > 0);
    }
}

#[test]
fn solver_counts_repeat_exactly_between_runs() {
    for w in Workload::ALL {
        let a = tiny(w, DEFAULT_SEED, false).iterations;
        let b = tiny(w, DEFAULT_SEED, false).iterations;
        assert!(!a.is_empty(), "{}", w.name());
        assert_eq!(a, b, "{}", w.name());
    }
}
