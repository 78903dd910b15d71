//! Ghost-point scatter — the PETSc `VecScatter` analogue.
//!
//! In a domain-decomposed PDE solve, each rank owns a set of vertices and
//! needs current values at the *ghost* vertices owned by its neighbors before
//! every flux evaluation or SpMV.  The scatter is the "nearest neighbor data
//! exchange" whose cost grows from 3% to 6% of execution time in Table 3 as
//! the surface-to-volume ratio of the subdomains degrades.

use crate::world::Rank;
use fun3d_telemetry::events::EventRecord;

/// A rank's ghost-exchange plan.
///
/// Local vector layout convention: owned vertices first (local indices
/// `0..nowned`), then ghosts grouped by neighbor in `neighbors` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterPlan {
    /// Neighbor rank ids, ascending.
    pub neighbors: Vec<usize>,
    /// For each neighbor: the *owned-local* indices this rank must send.
    pub send_indices: Vec<Vec<u32>>,
    /// For each neighbor: how many ghost vertices are received.
    pub recv_counts: Vec<usize>,
}

impl ScatterPlan {
    /// An empty plan (sequential run).
    pub fn empty() -> Self {
        Self {
            neighbors: Vec::new(),
            send_indices: Vec::new(),
            recv_counts: Vec::new(),
        }
    }

    /// Total ghost entries this plan receives.
    pub fn nghosts(&self) -> usize {
        self.recv_counts.iter().sum()
    }

    /// Total entries this plan sends.
    pub fn nsends(&self) -> usize {
        self.send_indices.iter().map(Vec::len).sum()
    }

    /// Execute the exchange for a vector with `ncomp` components per vertex.
    ///
    /// `local` holds owned values in its first `nowned * ncomp` entries and
    /// receives ghost values behind them (plan layout). All sends are posted
    /// before any receive, so the exchange cannot deadlock.
    pub fn execute(
        &self,
        rank: &mut Rank,
        local: &mut [f64],
        nowned: usize,
        ncomp: usize,
        tag: u32,
    ) {
        let tel = rank.telemetry.clone();
        let _span = tel.span("comm/scatter");
        let bytes = (self.nsends() + self.nghosts()) * ncomp * 8;
        tel.counter("scatter_bytes", bytes as f64);
        let t0 = rank.events.is_enabled().then(std::time::Instant::now);
        // Post sends.
        for (ni, &nbr) in self.neighbors.iter().enumerate() {
            let idx = &self.send_indices[ni];
            let mut buf = Vec::with_capacity(idx.len() * ncomp);
            for &li in idx {
                let base = li as usize * ncomp;
                buf.extend_from_slice(&local[base..base + ncomp]);
            }
            rank.send(nbr, tag, buf);
        }
        // Drain receives in neighbor order into the ghost region.
        let mut ghost_base = nowned * ncomp;
        for (ni, &nbr) in self.neighbors.iter().enumerate() {
            let data = rank.recv(nbr, tag);
            assert_eq!(
                data.len(),
                self.recv_counts[ni] * ncomp,
                "ghost count mismatch from rank {nbr}"
            );
            local[ghost_base..ghost_base + data.len()].copy_from_slice(&data);
            ghost_base += data.len();
        }
        if let Some(t0) = t0 {
            rank.events.emit(EventRecord::Scatter {
                bytes: bytes as u64,
                neighbors: self.neighbors.len() as u64,
                t: t0.elapsed().as_secs_f64(),
            });
        }
    }
}

/// Build per-rank scatter plans and local orderings from a global partition.
///
/// Input: the global vertex count, each vertex's owner, and the global
/// adjacency (as an edge list).  Output, per rank: the globally-indexed owned
/// vertices (ascending), the ghost vertices (grouped by owner, ascending
/// within a group), and the [`ScatterPlan`] wired so that
/// `plan.execute(...)` fills ghosts consistently on all ranks.
pub fn build_scatter_plans(
    nverts: usize,
    owner: &[u32],
    edges: &[[u32; 2]],
    nranks: usize,
) -> Vec<(Vec<usize>, Vec<usize>, ScatterPlan)> {
    assert_eq!(owner.len(), nverts);
    // Owned lists.
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); nranks];
    for (v, &o) in owner.iter().enumerate() {
        owned[o as usize].push(v);
    }
    // Ghosts: for each rank, the set of off-rank vertices adjacent to an
    // owned vertex, grouped by their owner.
    let mut ghost_sets: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); nranks];
    for &[a, b] in edges {
        let (a, b) = (a as usize, b as usize);
        let (oa, ob) = (owner[a] as usize, owner[b] as usize);
        if oa != ob {
            ghost_sets[oa].insert(b);
            ghost_sets[ob].insert(a);
        }
    }

    // For each rank r and neighbor s: the vertices r receives from s are
    // exactly the ghosts of r owned by s; s must send them in the same
    // (ascending-global) order.
    let mut result = Vec::with_capacity(nranks);
    for r in 0..nranks {
        // Group r's ghosts by owner.
        let mut by_owner: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for &g in &ghost_sets[r] {
            by_owner.entry(owner[g] as usize).or_default().push(g);
        }
        let neighbors: Vec<usize> = by_owner.keys().copied().collect();
        let recv_counts: Vec<usize> = by_owner.values().map(Vec::len).collect();
        // Sends: for each neighbor s, the vertices owned by r that s ghosts,
        // i.e. r-owned vertices adjacent to s-owned vertices, ascending.
        let mut send_indices = Vec::with_capacity(neighbors.len());
        // Map global -> owned-local for rank r.
        let mut global_to_local = std::collections::HashMap::new();
        for (li, &g) in owned[r].iter().enumerate() {
            global_to_local.insert(g, li as u32);
        }
        for &s in &neighbors {
            // Vertices of r ghosted by s = ghost_sets[s] ∩ owned-by-r.
            let mut sends: Vec<u32> = ghost_sets[s]
                .iter()
                .filter(|&&g| owner[g] as usize == r)
                .map(|&g| global_to_local[&g])
                .collect();
            sends.sort_unstable_by_key(|&li| owned[r][li as usize]);
            send_indices.push(sends);
        }
        let ghosts: Vec<usize> = by_owner.values().flatten().copied().collect();
        result.push((
            owned[r].clone(),
            ghosts,
            ScatterPlan {
                neighbors,
                send_indices,
                recv_counts,
            },
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_world;
    use fun3d_memmodel::machine::MachineSpec;

    /// Path graph 0-1-2-3-4-5 split into [0,1,2] and [3,4,5].
    fn path_setup() -> (usize, Vec<u32>, Vec<[u32; 2]>) {
        let owner = vec![0, 0, 0, 1, 1, 1];
        let edges: Vec<[u32; 2]> = (0..5u32).map(|i| [i, i + 1]).collect();
        (6, owner, edges)
    }

    #[test]
    fn plans_identify_interface() {
        let (n, owner, edges) = path_setup();
        let plans = build_scatter_plans(n, &owner, &edges, 2);
        let (owned0, ghosts0, p0) = &plans[0];
        assert_eq!(owned0, &vec![0, 1, 2]);
        assert_eq!(ghosts0, &vec![3]);
        assert_eq!(p0.neighbors, vec![1]);
        assert_eq!(p0.recv_counts, vec![1]);
        assert_eq!(p0.send_indices, vec![vec![2]]); // local index of global 2
        let (_, ghosts1, p1) = &plans[1];
        assert_eq!(ghosts1, &vec![2]);
        assert_eq!(p1.send_indices, vec![vec![0]]); // local index of global 3
    }

    #[test]
    fn exchange_moves_correct_values() {
        let (n, owner, edges) = path_setup();
        let plans = build_scatter_plans(n, &owner, &edges, 2);
        let out = run_world(2, &MachineSpec::asci_red(), |r| {
            let (owned, ghosts, plan) = &plans[r.id()];
            let ncomp = 2;
            let mut local = vec![0.0; (owned.len() + ghosts.len()) * ncomp];
            // Owned values: global index * 10 + component.
            for (li, &g) in owned.iter().enumerate() {
                for c in 0..ncomp {
                    local[li * ncomp + c] = (g * 10 + c) as f64;
                }
            }
            plan.execute(r, &mut local, owned.len(), ncomp, 42);
            local
        });
        // Rank 0's ghost (global 3) must hold [30, 31].
        let l0 = &out[0];
        assert_eq!(&l0[6..8], &[30.0, 31.0]);
        // Rank 1's ghost (global 2) must hold [20, 21].
        let l1 = &out[1];
        assert_eq!(&l1[6..8], &[20.0, 21.0]);
    }

    #[test]
    fn three_rank_exchange_is_consistent() {
        // 3x3 grid partitioned in rows.
        let mut edges = Vec::new();
        let id = |i: usize, j: usize| (i * 3 + j) as u32;
        for i in 0..3 {
            for j in 0..3 {
                if i + 1 < 3 {
                    edges.push([id(i, j), id(i + 1, j)]);
                }
                if j + 1 < 3 {
                    edges.push([id(i, j), id(i, j + 1)]);
                }
            }
        }
        let owner = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let plans = build_scatter_plans(9, &owner, &edges, 3);
        let out = run_world(3, &MachineSpec::cray_t3e(), |r| {
            let (owned, ghosts, plan) = &plans[r.id()];
            let mut local = vec![0.0; owned.len() + ghosts.len()];
            for (li, &g) in owned.iter().enumerate() {
                local[li] = g as f64;
            }
            plan.execute(r, &mut local, owned.len(), 1, 7);
            // Return ghost values for checking.
            (ghosts.clone(), local[owned.len()..].to_vec())
        });
        for (ghosts, values) in &out {
            for (g, v) in ghosts.iter().zip(values) {
                assert_eq!(*v, *g as f64, "ghost {g} got {v}");
            }
        }
        // Middle rank has two neighbors.
        assert_eq!(plans[1].2.neighbors, vec![0, 2]);
    }

    #[test]
    fn instrumented_scatter_emits_events() {
        use crate::world::{run_world_with, WorldOptions};
        let (n, owner, edges) = path_setup();
        let plans = build_scatter_plans(n, &owner, &edges, 2);
        let opts = WorldOptions {
            instrument: true,
            trace_ranks: false,
        };
        let out = run_world_with(2, &MachineSpec::asci_red(), opts, |r| {
            let (owned, ghosts, plan) = &plans[r.id()];
            let mut local = vec![0.0; owned.len() + ghosts.len()];
            for (li, &g) in owned.iter().enumerate() {
                local[li] = g as f64;
            }
            plan.execute(r, &mut local, owned.len(), 1, 9);
            plan.execute(r, &mut local, owned.len(), 1, 9);
            r.events.drain()
        });
        for (rank, evs) in out.iter().enumerate() {
            assert_eq!(evs.len(), 2, "rank {rank} scatter events");
            for ev in evs {
                let fun3d_telemetry::events::EventRecord::Scatter {
                    bytes,
                    neighbors,
                    t,
                } = ev
                else {
                    panic!("unexpected event {ev:?}");
                };
                // 1 send + 1 ghost, 1 component, 8 bytes each.
                assert_eq!(*bytes, 16);
                assert_eq!(*neighbors, 1);
                assert!(*t >= 0.0);
            }
        }
        // Uninstrumented worlds emit nothing.
        let out = run_world(2, &MachineSpec::asci_red(), |r| {
            let (owned, ghosts, plan) = &plans[r.id()];
            let mut local = vec![0.0; owned.len() + ghosts.len()];
            plan.execute(r, &mut local, owned.len(), 1, 9);
            r.events.drain().len()
        });
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn empty_plan_is_noop() {
        let plan = ScatterPlan::empty();
        let out = run_world(1, &MachineSpec::origin2000(), |r| {
            let mut local = vec![1.0, 2.0];
            plan.execute(r, &mut local, 2, 1, 0);
            local
        });
        assert_eq!(out[0], vec![1.0, 2.0]);
        assert_eq!(plan.nghosts(), 0);
        assert_eq!(plan.nsends(), 0);
    }
}
