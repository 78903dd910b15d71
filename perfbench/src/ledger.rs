//! The per-layer ledger of one traced solve: disjoint rows that, with the
//! unattributed remainder, add up to the solve's wall time.

use crate::timed::Tally;
use fun3d_core::parallel_nks::ParallelNksReport;
use fun3d_solver::pseudo::SolveHistory;
use fun3d_telemetry::Snapshot;

/// Where the seconds of one solve went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Wall seconds of the solve (first residual to convergence).
    pub wall_s: f64,
    /// Residual evaluations, including those made by matrix-free matvecs
    /// and line-search trials.
    pub residual: Tally,
    /// Analytic bytes one residual evaluation moves.
    pub residual_bytes: f64,
    /// Jacobian assemblies.
    pub jacobian: Tally,
    /// Local-timestep scalings (`None` where the path does not time them
    /// apart from the rest, as in the distributed solve).
    pub timestep: Option<Tally>,
    /// Preconditioner construction seconds.
    pub precond_s: f64,
    /// Krylov seconds, excluding residual evaluations made inside it.
    pub krylov_s: f64,
    /// Communication outside the rows above (distributed solve only).
    pub comm_s: f64,
    /// Pseudo-timesteps taken.
    pub newton_steps: usize,
    /// Krylov iterations across all steps.
    pub linear_iters: usize,
    /// Busiest rank's compute seconds over the mean (1 for one rank).
    pub rank_imbalance: f64,
}

impl Ledger {
    /// Ledger of a sequential ΨNKS solve: residual, Jacobian and timestep
    /// rows from the problem wrapper, preconditioner and Krylov rows from
    /// the solver's own step records.  The solver times matrix-free
    /// matvecs as Krylov work; the residual evaluations they make are moved
    /// to the residual row so that no second is counted twice.
    pub fn sequential(
        wall_s: f64,
        history: &SolveHistory,
        residual: Tally,
        jacobian: Tally,
        timestep: Tally,
        residual_bytes: f64,
    ) -> Self {
        let phases = history.phases();
        let residual_in_krylov = (residual.seconds - phases.residual).max(0.0);
        Self {
            wall_s,
            residual,
            residual_bytes,
            jacobian,
            timestep: Some(timestep),
            precond_s: phases.precond,
            krylov_s: phases.krylov - residual_in_krylov,
            comm_s: 0.0,
            newton_steps: history.nsteps(),
            linear_iters: history.total_linear_iters(),
            rank_imbalance: 1.0,
        }
    }

    /// Ledger of a distributed solve from rank 0's measured spans: flux,
    /// Jacobian, subdomain ILU and distributed GMRES rows, plus the ghost
    /// scatters and reductions the Newton loop makes outside them.
    /// `residual_bytes` is the global residual traffic divided across ranks.
    pub fn distributed(wall_s: f64, report: &ParallelNksReport, residual_bytes: f64) -> Self {
        let snap = &report.telemetry[0];
        let span = |path: &str| {
            snap.span(path).map_or(Tally::default(), |s| Tally {
                calls: s.calls,
                seconds: s.total_s,
            })
        };
        let busy: Vec<f64> = report.telemetry.iter().map(compute_seconds).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        Self {
            wall_s,
            residual: span("nks/flux"),
            residual_bytes,
            jacobian: span("nks/jacobian"),
            timestep: None,
            precond_s: span("nks/ilu").seconds,
            krylov_s: span("nks/gmres").seconds,
            comm_s: span("nks/comm/scatter").seconds + span("nks/comm/allreduce").seconds,
            newton_steps: report.linear_iters.len(),
            linear_iters: report.linear_iters.iter().sum(),
            rank_imbalance: if mean > 0.0 { max / mean } else { 1.0 },
        }
    }

    /// The attributed rows, as (layer, calls, seconds).
    pub fn rows(&self) -> Vec<(&'static str, Option<u64>, f64)> {
        let mut rows = vec![
            (
                "euler.residual",
                Some(self.residual.calls),
                self.residual.seconds,
            ),
            (
                "euler.jacobian",
                Some(self.jacobian.calls),
                self.jacobian.seconds,
            ),
        ];
        if let Some(t) = self.timestep {
            rows.push(("euler.timestep_scale", Some(t.calls), t.seconds));
        }
        rows.push(("solver.precond", None, self.precond_s));
        rows.push(("solver.krylov", None, self.krylov_s));
        if self.comm_s > 0.0 {
            rows.push(("comm", None, self.comm_s));
        }
        rows
    }

    /// Wall seconds no row accounts for.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.rows().iter().map(|r| r.2).sum::<f64>()
    }

    /// Achieved residual bandwidth in GB/s.
    pub fn residual_gbps(&self) -> f64 {
        if self.residual.seconds > 0.0 {
            self.residual.calls as f64 * self.residual_bytes / self.residual.seconds / 1e9
        } else {
            0.0
        }
    }

    /// A defect description when the rows overrun the wall (time counted
    /// twice) or leave more than `max_frac` of it unexplained.
    pub fn defect(&self, max_frac: f64) -> Option<String> {
        let u = self.unattributed_s();
        let tol = 1e-3 * self.wall_s;
        if u < -tol {
            Some(format!(
                "ledger rows exceed wall by {:.3e} s of {:.3e} s",
                -u, self.wall_s
            ))
        } else if u > max_frac * self.wall_s {
            Some(format!(
                "ledger leaves {:.1}% of wall unattributed (limit {:.0}%)",
                100.0 * u / self.wall_s,
                100.0 * max_frac
            ))
        } else {
            None
        }
    }

    /// Table lines: one per row plus the unattributed remainder and wall.
    pub fn render(&self) -> Vec<String> {
        let mut out = vec![format!(
            "  {:<24} {:>8} {:>12} {:>7}",
            "layer", "calls", "seconds", "share"
        )];
        let pct = |s: f64| 100.0 * s / self.wall_s;
        for (name, calls, s) in self.rows() {
            let calls = calls.map_or("-".to_string(), |c| c.to_string());
            out.push(format!(
                "  {name:<24} {calls:>8} {s:>12.6} {:>6.1}%",
                pct(s)
            ));
        }
        let u = self.unattributed_s();
        out.push(format!(
            "  {:<24} {:>8} {u:>12.6} {:>6.1}%",
            "solver.unattributed",
            "-",
            pct(u)
        ));
        out.push(format!(
            "  {:<24} {:>8} {:>12.6} {:>6.1}%",
            "wall", "-", self.wall_s, 100.0
        ));
        out
    }
}

/// One rank's measured compute: flux, Jacobian, ILU and GMRES spans.
fn compute_seconds(snap: &Snapshot) -> f64 {
    ["nks/flux", "nks/jacobian", "nks/ilu", "nks/gmres"]
        .iter()
        .filter_map(|p| snap.span(p))
        .map(|s| s.total_s)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(calls: u64, seconds: f64) -> Tally {
        Tally { calls, seconds }
    }

    #[test]
    fn rows_and_remainder_sum_to_wall() {
        let l = Ledger {
            wall_s: 10.0,
            residual: tally(100, 1.0),
            jacobian: tally(40, 4.0),
            timestep: Some(tally(40, 0.1)),
            precond_s: 2.0,
            krylov_s: 2.5,
            ..Ledger::default()
        };
        let sum: f64 = l.rows().iter().map(|r| r.2).sum::<f64>() + l.unattributed_s();
        assert!((sum - l.wall_s).abs() < 1e-12);
        assert!((l.unattributed_s() - 0.4).abs() < 1e-12);
        assert!(l.defect(0.05).is_none());
        assert!(l.defect(0.01).is_some());
    }

    #[test]
    fn overrun_is_a_defect() {
        let l = Ledger {
            wall_s: 1.0,
            residual: tally(1, 0.8),
            krylov_s: 0.3,
            ..Ledger::default()
        };
        assert!(l.defect(0.5).unwrap().contains("exceed"));
    }
}
