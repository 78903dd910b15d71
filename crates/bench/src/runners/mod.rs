//! Library entry points for every regenerator.
//!
//! Each submodule holds the core loop that used to live in the matching
//! `src/bin/*.rs` binary, as `pub fn run(&BenchArgs) -> RunOutcome`, plus a
//! unit struct implementing [`Experiment`].  [`all`] is the registry the
//! harness builds its suites from.

pub mod ablations;
pub mod figure1;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod miss_bounds;
pub mod parallel_nks;
pub mod ranks;
pub mod serve;
pub mod speedup;
pub mod spmv;
pub mod stream;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

use crate::Experiment;

/// Every registered experiment, in stable (alphabetical) order.
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(ablations::Ablations),
        Box::new(figure1::Figure1),
        Box::new(figure2::Figure2),
        Box::new(figure3::Figure3),
        Box::new(figure4::Figure4),
        Box::new(figure5::Figure5),
        Box::new(miss_bounds::MissBounds),
        Box::new(parallel_nks::ParallelNks),
        Box::new(ranks::Ranks),
        Box::new(serve::Serve),
        Box::new(speedup::Speedup),
        Box::new(spmv::Spmv),
        Box::new(stream::Stream),
        Box::new(table1::Table1),
        Box::new(table2::Table2),
        Box::new(table3::Table3),
        Box::new(table4::Table4),
        Box::new(table5::Table5),
    ]
}

/// Look up an experiment by its stable name.
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    all().into_iter().find(|e| e.name() == name)
}

/// The rows `fun3d-bench list` prints: one `[name, default scale, blackbox
/// support, description]` entry per registered experiment, in registry
/// order.  The driver renders exactly this, so the listing can never drift
/// from [`all`].
pub fn list_rows() -> Vec<Vec<String>> {
    all()
        .iter()
        .map(|e| {
            vec![
                e.name().to_string(),
                format!("{}", e.default_scale()),
                if e.supports_blackbox() { "yes" } else { "" }.to_string(),
                e.description().to_string(),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_sorted() {
        let names: Vec<&str> = all().iter().map(|e| e.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "registry must be sorted and duplicate-free");
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn list_stays_in_sync_with_registry() {
        // One listing row per registered experiment, same order, name in
        // column 0, a nonempty description — the `fun3d-bench list` contract.
        let rows = list_rows();
        let names: Vec<&str> = all().iter().map(|e| e.name()).collect();
        assert_eq!(rows.len(), names.len());
        for (row, name) in rows.iter().zip(&names) {
            assert_eq!(row[0], *name);
            assert!(
                row[1].parse::<f64>().is_ok_and(|s| s > 0.0),
                "{name}: bad scale {}",
                row[1]
            );
            assert!(
                row[2] == "yes" || row[2].is_empty(),
                "{name}: bad blackbox marker {:?}",
                row[2]
            );
            assert!(!row[3].trim().is_empty(), "{name}: empty description");
        }
    }

    #[test]
    fn blackbox_support_marks_the_solver_driving_experiments() {
        // The runners that execute full ΨNKS solves accept `--blackbox`;
        // kernel microbenchmarks have nothing for the rings to capture.
        let yes: Vec<&str> = all()
            .iter()
            .filter(|e| e.supports_blackbox())
            .map(|e| e.name())
            .collect();
        assert_eq!(yes, vec!["ablations", "figure5", "serve", "table1"]);
    }

    #[test]
    fn find_resolves_registered_names() {
        assert!(find("table1").is_some());
        assert!(find("spmv").is_some());
        assert!(find("nonesuch").is_none());
    }

    #[test]
    fn default_scales_are_in_range() {
        for e in all() {
            let s = e.default_scale();
            assert!(s > 0.0 && s <= 4.0, "{}: scale {s}", e.name());
        }
    }
}
