//! `fun3d-profile`: a process-global, low-overhead region profiler for the
//! shared-memory parallel kernels.
//!
//! The paper's Table 3 decomposes parallel efficiency into an algorithmic
//! factor and an implementation factor, and charges the implementation side
//! to synchronization, scatter, and load imbalance.  This module measures
//! the shared-memory half of that story: every labeled [`ParCtx`] region
//! records its fork/join wall time plus each thread's busy time, aggregated
//! per `(label, nthreads)` into [`RegionStats`] — from which max/mean busy
//! time (imbalance factor) and join-wait (idle) time follow directly.
//!
//! Accounting identity, by construction and pinned by tests:
//!
//! ```text
//! sum_t busy[t] + join_wait = nthreads * wall
//! ```
//!
//! so per-thread busy times always sum to within the join-wait of the
//! team-seconds the region occupied.
//!
//! The profiler is **off by default** and costs exactly one relaxed atomic
//! load per region when off; the chunk partitioning is identical either
//! way, so profiling can never perturb results — only add timing.  State is
//! process-global (not per-[`ParCtx`]) so the context stays `Copy` and the
//! hot kernels need no new plumbing; callers that interleave independent
//! measurements should [`reset`] or [`drain`] between them.
//!
//! [`ParCtx`]: crate::par::ParCtx

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

type Table = BTreeMap<(&'static str, usize), RegionAccum>;

fn table() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

#[derive(Debug, Clone, Default)]
struct RegionAccum {
    invocations: u64,
    wall_s: f64,
    busy_s: Vec<f64>,
}

/// Aggregated timings for one region label at one team size.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStats {
    /// The stable label the kernel passed to its `ParCtx` helper.
    pub label: &'static str,
    /// Team size the region ran with (regions are keyed by `(label,
    /// nthreads)` so thread sweeps stay separable).
    pub nthreads: usize,
    /// Fork/join invocations aggregated here.
    pub invocations: u64,
    /// Total fork-to-join wall time across invocations, seconds.
    pub wall_s: f64,
    /// Per-thread busy seconds, indexed by thread id; a thread whose chunks
    /// were always empty stays at zero (pure imbalance).
    pub busy_s: Vec<f64>,
}

impl RegionStats {
    /// Busiest thread's total seconds.
    pub fn busy_max_s(&self) -> f64 {
        self.busy_s.iter().copied().fold(0.0, f64::max)
    }

    /// Mean busy seconds over all `nthreads` team slots (idle threads count:
    /// an unused slot *is* imbalance).
    pub fn busy_mean_s(&self) -> f64 {
        if self.nthreads == 0 {
            return 0.0;
        }
        self.busy_s.iter().sum::<f64>() / self.nthreads as f64
    }

    /// Load imbalance factor `busy_max / busy_mean` (1.0 = perfectly
    /// balanced; defined as 1.0 when the region did no measurable work).
    pub fn imbalance(&self) -> f64 {
        let mean = self.busy_mean_s();
        if mean > 0.0 {
            self.busy_max_s() / mean
        } else {
            1.0
        }
    }

    /// Idle team-seconds: `nthreads * wall - sum(busy)`.  This is the time
    /// threads spent waiting at the join (plus fork latency), the
    /// synchronization term of the paper's Table 3.  Can be a hair negative
    /// from timer granularity; not clamped so the accounting identity stays
    /// exact.
    pub fn join_wait_s(&self) -> f64 {
        self.nthreads as f64 * self.wall_s - self.busy_s.iter().sum::<f64>()
    }
}

/// Turn region profiling on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether region profiling is currently on.  This is the entire hot-path
/// cost of a disabled profiler.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discard all accumulated region data (leaves the enabled flag alone).
pub fn reset() {
    table().lock().unwrap().clear();
}

/// Snapshot the accumulated regions, sorted by `(label, nthreads)`.
pub fn snapshot() -> Vec<RegionStats> {
    table()
        .lock()
        .unwrap()
        .iter()
        .map(|(&(label, nthreads), acc)| RegionStats {
            label,
            nthreads,
            invocations: acc.invocations,
            wall_s: acc.wall_s,
            busy_s: acc.busy_s.clone(),
        })
        .collect()
}

/// [`snapshot`] then [`reset`] atomically.
pub fn drain() -> Vec<RegionStats> {
    let mut tab = table().lock().unwrap();
    let out = tab
        .iter()
        .map(|(&(label, nthreads), acc)| RegionStats {
            label,
            nthreads,
            invocations: acc.invocations,
            wall_s: acc.wall_s,
            busy_s: acc.busy_s.clone(),
        })
        .collect();
    tab.clear();
    out
}

/// Fold one fork/join invocation into the table.  `busy[t]` is thread `t`'s
/// busy seconds this invocation (zero for threads with empty chunks).
pub fn record(label: &'static str, nthreads: usize, wall_s: f64, busy: &[f64]) {
    let mut tab = table().lock().unwrap();
    let acc = tab.entry((label, nthreads)).or_default();
    acc.invocations += 1;
    acc.wall_s += wall_s;
    if acc.busy_s.len() < busy.len() {
        acc.busy_s.resize(busy.len(), 0.0);
    }
    for (a, b) in acc.busy_s.iter_mut().zip(busy) {
        *a += b;
    }
}

/// The profiler is process-global; tests that enable it must serialize on
/// this lock so concurrent test threads cannot interleave enable/reset.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_lock as lock;

    #[test]
    fn disabled_by_default_and_toggles() {
        let _g = lock();
        set_enabled(false);
        assert!(!is_enabled());
        set_enabled(true);
        assert!(is_enabled());
        set_enabled(false);
    }

    #[test]
    fn record_aggregates_by_label_and_team() {
        let _g = lock();
        reset();
        record("k", 2, 1.0, &[0.6, 0.2]);
        record("k", 2, 1.0, &[0.4, 0.8]);
        record("k", 4, 2.0, &[0.5, 0.5, 0.5, 0.5]);
        record("other", 2, 0.5, &[0.1, 0.1]);
        let stats = drain();
        assert_eq!(stats.len(), 3);
        let k2 = &stats[0];
        assert_eq!((k2.label, k2.nthreads, k2.invocations), ("k", 2, 2));
        assert!((k2.wall_s - 2.0).abs() < 1e-12);
        assert_eq!(k2.busy_s, vec![1.0, 1.0]);
        assert_eq!((stats[1].label, stats[1].nthreads), ("k", 4));
        assert_eq!(stats[2].label, "other");
        assert!(snapshot().is_empty(), "drain clears the table");
    }

    #[test]
    fn derived_stats_honor_the_accounting_identity() {
        let s = RegionStats {
            label: "k",
            nthreads: 4,
            invocations: 3,
            wall_s: 2.0,
            busy_s: vec![1.8, 1.2, 0.6, 0.0],
        };
        assert!((s.busy_max_s() - 1.8).abs() < 1e-12);
        assert!((s.busy_mean_s() - 0.9).abs() < 1e-12);
        assert!((s.imbalance() - 2.0).abs() < 1e-12);
        // sum(busy) + join_wait == nthreads * wall, exactly.
        let sum: f64 = s.busy_s.iter().sum();
        assert!((sum + s.join_wait_s() - 4.0 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_work_region_has_unit_imbalance() {
        let s = RegionStats {
            label: "idle",
            nthreads: 2,
            invocations: 1,
            wall_s: 0.0,
            busy_s: vec![0.0, 0.0],
        };
        assert_eq!(s.imbalance(), 1.0);
        assert_eq!(s.join_wait_s(), 0.0);
    }
}
