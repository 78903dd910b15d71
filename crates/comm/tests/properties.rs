//! Property-based tests for the message-passing substrate.

use fun3d_comm::ranktrace::critical_path;
use fun3d_comm::scatter::build_scatter_plans;
use fun3d_comm::world::{run_world, run_world_with, WorldOptions};
use fun3d_memmodel::machine::MachineSpec;
use proptest::prelude::*;

fn traced() -> WorldOptions {
    WorldOptions {
        instrument: true,
        trace_ranks: true,
    }
}

/// Contiguous random split of `n` vertices over up to `nranks` ranks;
/// returns the owner array and the realized rank count.
fn random_path_partition(n: usize, nranks: usize, seed: u64) -> (Vec<u32>, usize) {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cuts: Vec<usize> = (0..nranks - 1).map(|_| rng.gen_range(1..n)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let nranks = cuts.len() + 1;
    let mut owner = vec![0u32; n];
    let mut r = 0u32;
    for (v, o) in owner.iter_mut().enumerate() {
        if cuts.contains(&v) {
            r += 1;
        }
        *o = r;
    }
    (owner, nranks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Allreduce-sum agrees with the sequential reduction in the same order,
    /// for any rank count and payload.
    #[test]
    fn allreduce_sum_matches_sequential(
        nranks in 1usize..7,
        len in 0usize..6,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let data: Vec<Vec<f64>> = (0..nranks)
            .map(|r| {
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(r as u64));
                (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
            })
            .collect();
        // Sequential reference in rank order (0 + 1 + 2 + ...), the same
        // order the star reduction uses, so agreement is bitwise.
        let mut expect = vec![0.0f64; len];
        for v in &data {
            for (e, x) in expect.iter_mut().zip(v) {
                *e += x;
            }
        }
        let out = run_world(nranks, &MachineSpec::asci_red(), |rank| {
            rank.allreduce_sum(&data[rank.id()])
        });
        for o in out {
            prop_assert_eq!(&o, &expect);
        }
    }

    /// Allreduce-max returns the global maximum on every rank.
    #[test]
    fn allreduce_max_is_global_max(nranks in 1usize..7, vals in proptest::collection::vec(-100.0f64..100.0, 1..7)) {
        let nranks = nranks.min(vals.len());
        let expect = vals[..nranks].iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let out = run_world(nranks, &MachineSpec::cray_t3e(), |rank| {
            rank.allreduce_max_scalar(vals[rank.id()])
        });
        for o in out {
            prop_assert_eq!(o, expect);
        }
    }

    /// Ghost exchange on a random path partition delivers owners' values.
    #[test]
    fn scatter_delivers_owner_values(n in 6usize..30, nranks in 2usize..5, seed in 0u64..500) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        // Contiguous random split of a path graph.
        let mut cuts: Vec<usize> = (0..nranks - 1).map(|_| rng.gen_range(1..n)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let nranks = cuts.len() + 1;
        let mut owner = vec![0u32; n];
        let mut r = 0u32;
        for (v, o) in owner.iter_mut().enumerate() {
            if cuts.contains(&v) {
                r += 1;
            }
            *o = r;
        }
        let edges: Vec<[u32; 2]> = (0..n as u32 - 1).map(|i| [i, i + 1]).collect();
        let plans = build_scatter_plans(n, &owner, &edges, nranks);
        let outs = run_world(nranks, &MachineSpec::origin2000(), |rank| {
            let (owned, ghosts, plan) = &plans[rank.id()];
            let mut local = vec![0.0; owned.len() + ghosts.len()];
            for (l, &g) in owned.iter().enumerate() {
                local[l] = 1000.0 + g as f64;
            }
            plan.execute(rank, &mut local, owned.len(), 1, 3);
            (ghosts.clone(), local[owned.len()..].to_vec())
        });
        for (ghosts, values) in outs {
            for (g, v) in ghosts.iter().zip(&values) {
                prop_assert_eq!(*v, 1000.0 + *g as f64);
            }
        }
    }

    /// Ledger conservation: over all ranks, total point-to-point bytes (and
    /// message counts) sent equal bytes received, and per-rank ledger
    /// counts match the scatter plan's per-execute message counts.
    #[test]
    fn ledger_bytes_sent_equal_bytes_received(
        n in 6usize..30,
        nranks in 2usize..5,
        seed in 0u64..500,
        ncomp in 1usize..4,
        execs in 1usize..4,
    ) {
        let (owner, nranks) = random_path_partition(n, nranks, seed);
        let edges: Vec<[u32; 2]> = (0..n as u32 - 1).map(|i| [i, i + 1]).collect();
        let plans = build_scatter_plans(n, &owner, &edges, nranks);
        let ledgers = run_world_with(nranks, &MachineSpec::asci_red(), traced(), |rank| {
            let (owned, ghosts, plan) = &plans[rank.id()];
            let mut local = vec![1.0; (owned.len() + ghosts.len()) * ncomp];
            for k in 0..execs {
                plan.execute(rank, &mut local, owned.len(), ncomp, 10 + k as u32);
            }
            let mut ledger = std::mem::take(&mut rank.ledger);
            ledger.close(rank.clock.now());
            ledger
        });
        let sent: f64 = ledgers.iter().map(|l| l.bytes_sent()).sum();
        let received: f64 = ledgers.iter().map(|l| l.bytes_received()).sum();
        prop_assert_eq!(sent, received);
        let nsends: usize = ledgers.iter().map(|l| l.nsends()).sum();
        let nrecvs: usize = ledgers.iter().map(|l| l.nrecvs()).sum();
        prop_assert_eq!(nsends, nrecvs);
        // Each execute posts exactly one message per neighbor.
        for (rank, ledger) in ledgers.iter().enumerate() {
            let neighbors = plans[rank].2.neighbors.len();
            prop_assert_eq!(ledger.nsends(), execs * neighbors);
            prop_assert_eq!(ledger.nrecvs(), execs * neighbors);
            // Ledger volume agrees with the clock's byte accounting.
            prop_assert_eq!(ledger.bytes_sent(), plans[rank].2.nsends() as f64 * ncomp as f64 * 8.0 * execs as f64);
        }
    }

    /// Critical-path invariants on random rank DAGs: the walk's total is
    /// the end-to-end time, at least every rank's busy (non-wait) time,
    /// and its parts account for the whole path.
    #[test]
    fn critical_path_bounds_busy_time(
        nranks in 1usize..6,
        rounds in 1usize..6,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // Same seed on every rank: all ranks agree on the op sequence.
        let script: Vec<(u64, bool)> = {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..rounds).map(|_| (rng.gen_range(1..40), rng.gen_bool(0.5))).collect()
        };
        let out = run_world_with(nranks, &MachineSpec::cray_t3e(), traced(), |rank| {
            for (round, &(work, collective)) in script.iter().enumerate() {
                // Imbalanced compute: rank r does (r+1)x the base work.
                let flops = 1e6 * work as f64 * (rank.id() + 1) as f64;
                rank.clock.compute(flops, 0.0, 1.0);
                if collective || rank.nranks() == 1 {
                    rank.allreduce_sum_scalar(1.0);
                } else {
                    let next = (rank.id() + 1) % rank.nranks();
                    let prev = (rank.id() + rank.nranks() - 1) % rank.nranks();
                    rank.send(next, round as u32, vec![1.0; 8]);
                    let _ = rank.recv(prev, round as u32);
                }
            }
            let mut ledger = std::mem::take(&mut rank.ledger);
            ledger.close(rank.clock.now());
            let b = rank.clock.breakdown();
            (ledger, b.compute + b.scatter + b.reduction, rank.clock.now())
        });
        let ledgers: Vec<_> = out.iter().map(|(l, _, _)| l.clone()).collect();
        let cp = critical_path(&ledgers);
        let max_finish = out.iter().map(|&(_, _, t)| t).fold(0.0f64, f64::max);
        prop_assert!((cp.total_s - max_finish).abs() <= 1e-12 * max_finish.max(1.0));
        // Critical path dominates every rank's busy time.
        for &(_, busy, _) in &out {
            prop_assert!(
                cp.total_s >= busy - 1e-9 * busy.max(1.0),
                "critical path {} < busy {}", cp.total_s, busy
            );
        }
        // Every second along the path is attributed exactly once.
        prop_assert!((cp.accounted_s() - cp.total_s).abs() <= 1e-9 * cp.total_s.max(1.0));
        prop_assert!(cp.compute_s >= 0.0 && cp.exchange_s >= 0.0 && cp.wait_s >= 0.0);
    }
}
