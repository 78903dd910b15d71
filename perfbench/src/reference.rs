//! Reference wall forces of the converged solutions, stored with the
//! benchmark.  A solve whose integrated wall pressure force strays from the
//! reference by more than the stated relative tolerance has failed.

use crate::workloads::{Size, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Relative tolerance against a reference taken at the same seed: the
/// solve is deterministic, so only a changed result can move the force.
pub const SAME_SEED_RTOL: f64 = 1e-6;

/// Relative tolerance against the default seed's reference for any other
/// seed: the seed only jitters interior vertices, which moved the force by
/// under 2% between the two listed seeds.
pub const OTHER_SEED_RTOL: f64 = 5e-2;

/// `Discretization::wall_forces` of the converged solution, per workload,
/// mesh size and seed.
const REFERENCES: &[(Workload, Size, u64, [f64; 3])] = &[
    (
        Workload::IncTunedSeq,
        Size::Tiny,
        DEFAULT_SEED,
        [
            0.18899762721189758,
            0.12217111937397201,
            0.16316822856838256,
        ],
    ),
    (
        Workload::IncTunedSeq,
        Size::Tiny,
        HELD_OUT_SEED,
        [
            0.18916929488654735,
            0.12216299777140605,
            0.16279346215344406,
        ],
    ),
    (
        Workload::CompMatfreeT2,
        Size::Tiny,
        DEFAULT_SEED,
        [
            0.029263388483411826,
            0.00945086564428789,
            0.011401558039665208,
        ],
    ),
    (
        Workload::CompMatfreeT2,
        Size::Tiny,
        HELD_OUT_SEED,
        [
            0.029130884564410483,
            0.009500988471428426,
            0.011243525827713777,
        ],
    ),
    (
        Workload::Dist2Rank,
        Size::Tiny,
        DEFAULT_SEED,
        [0.43496721101934155, 0.20516681878533755, 0.2408971443267669],
    ),
    (
        Workload::Dist2Rank,
        Size::Tiny,
        HELD_OUT_SEED,
        [0.4325250098934604, 0.20517396909971536, 0.23812329514620093],
    ),
    (
        Workload::Serve2W,
        Size::Tiny,
        DEFAULT_SEED,
        [
            0.18899762721189758,
            0.12217111937397201,
            0.16316822856838256,
        ],
    ),
    (
        Workload::Serve2W,
        Size::Tiny,
        HELD_OUT_SEED,
        [
            0.18916929488654735,
            0.12216299777140605,
            0.16279346215344406,
        ],
    ),
    (
        Workload::IncTunedSeq,
        Size::Full,
        DEFAULT_SEED,
        [
            -0.0179309429405631,
            -0.11294812551563037,
            -0.11125328012829915,
        ],
    ),
    (
        Workload::IncTunedSeq,
        Size::Full,
        HELD_OUT_SEED,
        [
            -0.017979314435841106,
            -0.11413822739315384,
            -0.1107320190872719,
        ],
    ),
    (
        Workload::CompMatfreeT2,
        Size::Full,
        DEFAULT_SEED,
        [
            -0.0013286851722081844,
            -0.008314602825729888,
            -0.008277512006218204,
        ],
    ),
    (
        Workload::CompMatfreeT2,
        Size::Full,
        HELD_OUT_SEED,
        [
            -0.001332601471332365,
            -0.00840423846361547,
            -0.0082411147912013,
        ],
    ),
    (
        Workload::Dist2Rank,
        Size::Full,
        DEFAULT_SEED,
        [
            -0.011008304149976738,
            -0.09349645858359665,
            -0.08527564315162836,
        ],
    ),
    (
        Workload::Dist2Rank,
        Size::Full,
        HELD_OUT_SEED,
        [
            -0.011156395815253389,
            -0.09507104484020293,
            -0.08530843233031929,
        ],
    ),
    (
        Workload::Serve2W,
        Size::Full,
        DEFAULT_SEED,
        [
            -0.029446467679826494,
            -0.13470840840116372,
            -0.16190107403042014,
        ],
    ),
    (
        Workload::Serve2W,
        Size::Full,
        HELD_OUT_SEED,
        [
            -0.02995907526458103,
            -0.13396757322664155,
            -0.163491353031152,
        ],
    ),
];

/// Check `force` against the stored reference for this run.
pub fn check(workload: Workload, size: Size, seed: u64, force: [f64; 3]) -> Result<(), String> {
    let find = |s: u64| {
        REFERENCES
            .iter()
            .find(|r| r.0 == workload && r.1 == size && r.2 == s)
            .map(|r| r.3)
    };
    let (reference, rtol) = match find(seed) {
        Some(f) => (f, SAME_SEED_RTOL),
        None => match find(DEFAULT_SEED) {
            Some(f) => (f, OTHER_SEED_RTOL),
            None => {
                return Err(format!(
                    "no reference force for {} (measured {force:?})",
                    workload.name()
                ))
            }
        },
    };
    let err = rel_err(force, reference);
    if err <= rtol {
        Ok(())
    } else {
        Err(format!(
            "wall force {force:?} is {err:.2e} from reference {reference:?} (tolerance {rtol:.0e})"
        ))
    }
}

fn rel_err(a: [f64; 3], b: [f64; 3]) -> f64 {
    let norm = |v: [f64; 3]| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    norm([a[0] - b[0], a[1] - b[1], a[2] - b[2]]) / norm(b).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_references_for_both_listed_seeds() {
        for w in Workload::ALL {
            for size in [Size::Full, Size::Tiny] {
                for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                    assert!(
                        REFERENCES
                            .iter()
                            .any(|r| r.0 == w && r.1 == size && r.2 == seed),
                        "{} {size:?} seed {seed}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn a_perturbed_force_fails_the_check() {
        let (w, size, seed, f) = REFERENCES[0];
        assert!(check(w, size, seed, f).is_ok());
        let off = f.map(|v| v * (1.0 + 1e-3));
        assert!(check(w, size, seed, off).is_err());
    }
}
