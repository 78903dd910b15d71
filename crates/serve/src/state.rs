//! Immutable per-family solver state, shared across concurrent solves.
//!
//! Everything a solve needs that depends only on the [`ScenarioClass`] —
//! the generated mesh with its orderings applied, a k-way partition of the
//! vertex graph, and the symbolic ILU(k) / block ILU(0) / BCSR structure
//! templates — is built once per family and shared behind an `Arc`.  A
//! warm solve then pays only the marginal cost: discretization assembly,
//! numeric refactorization, and the Krylov iterations.  Results are bitwise
//! identical to the uncached path (the templates are pattern-only; see
//! [`fun3d_solver::pseudo::WarmStart`]).

use crate::scenario::{FamilyKey, ScenarioClass};
use fun3d_core::config::apply_orderings;
use fun3d_core::problem::EulerProblem;
use fun3d_euler::residual::Discretization;
use fun3d_mesh::tet::TetMesh;
use fun3d_partition::partition_kway;
use fun3d_solver::op::PseudoTransientProblem;
use fun3d_solver::pseudo::{
    solve_pseudo_transient_warm, PrecondSpec, PseudoTransientOptions, SolveHistory, WarmStart,
};
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::block_ilu::BlockIluFactors;
use fun3d_sparse::csr::CsrMatrix;
use fun3d_sparse::ilu::{IluFactors, IluOptions, PrecStorage};
use fun3d_telemetry::events::EventSink;
use fun3d_telemetry::Registry;
use std::sync::{Arc, Mutex, OnceLock};

/// Seed for the family partition (deterministic across builds).
const PARTITION_SEED: u64 = 0x5e7e_5e7e;

/// Structure templates built lazily per (options) and shared thereafter.
#[derive(Default)]
struct Templates {
    /// ILU(k) symbolic templates keyed by (fill level, storage).
    ilu: Vec<((usize, PrecStorage), Arc<IluFactors>)>,
    /// Block ILU(0) templates keyed by block size, factored from the BCSR
    /// template of the same block size.
    block_ilu: Vec<(usize, Arc<BlockIluFactors>)>,
    /// BCSR block-structure templates keyed by block size.
    bcsr: Vec<(usize, Arc<BcsrMatrix>)>,
}

/// The shared immutable state of one scenario family.
pub struct FamilyState {
    key: FamilyKey,
    scenario: ScenarioClass,
    mesh: TetMesh,
    /// Disjoint owned-vertex sets from a k-way partition of the vertex
    /// graph — reusable by Schwarz-preconditioned requests.
    subdomains: Vec<Vec<usize>>,
    /// [`FamilyState::jacobian_block_size`], found on its first call.
    jacobian_block: OnceLock<usize>,
    templates: Mutex<Templates>,
    build_time_s: f64,
}

impl std::fmt::Debug for FamilyState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FamilyState")
            .field("nverts", &self.mesh.nverts())
            .field("subdomains", &self.subdomains.len())
            .field("build_time_s", &self.build_time_s)
            .finish()
    }
}

impl FamilyState {
    /// Build the family state: generate and order the mesh, partition its
    /// vertex graph into `nsubdomains` parts.  This is the expensive,
    /// once-per-family step the cache amortizes.
    pub fn build(scenario: &ScenarioClass, nsubdomains: usize) -> Self {
        let t0 = std::time::Instant::now();
        let mesh = apply_orderings(
            scenario.mesh.build(),
            scenario.layout.vertex_ordering,
            scenario.layout.edge_ordering,
        );
        let g = mesh.vertex_graph();
        let k = nsubdomains.clamp(1, mesh.nverts());
        let subdomains = partition_kway(&g, k, PARTITION_SEED).subdomains();
        Self {
            key: scenario.key(),
            scenario: scenario.clone(),
            mesh,
            subdomains,
            jacobian_block: OnceLock::new(),
            templates: Mutex::new(Templates::default()),
            build_time_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// The family's cache key.
    pub fn key(&self) -> FamilyKey {
        self.key
    }

    /// The scenario class this state was built for.
    pub fn scenario(&self) -> &ScenarioClass {
        &self.scenario
    }

    /// The ordered mesh.
    pub fn mesh(&self) -> &TetMesh {
        &self.mesh
    }

    /// The block size of the first-order Jacobian every solve of this
    /// family shares ([`fun3d_sparse::csr::CsrPattern::block_size`]): the
    /// unknowns per vertex for an interlaced layout, 1 for a segregated
    /// one.  Found on the first call by laying out the pattern, which is
    /// then dropped.
    pub fn jacobian_block_size(&self) -> usize {
        *self.jacobian_block.get_or_init(|| {
            scenario_discretization(&self.scenario, &self.mesh)
                .jacobian_pattern()
                .block_size()
        })
    }

    /// Owned-vertex sets of the family partition.
    pub fn subdomains(&self) -> &[Vec<usize>] {
        &self.subdomains
    }

    /// Mesh vertices.
    pub fn nverts(&self) -> usize {
        self.mesh.nverts()
    }

    /// Unknowns per solve.
    pub fn nunknowns(&self) -> usize {
        self.mesh.nverts() * self.scenario.model.ncomp()
    }

    /// Seconds the one-time build took (mesh + orderings + partition).
    pub fn build_time_s(&self) -> f64 {
        self.build_time_s
    }

    /// A representative shifted first-order Jacobian: the pattern every
    /// step matrix of this family shares.  The diagonal shift mirrors the
    /// solver's pseudo-timestep term so the numeric factorization the
    /// template build runs cannot hit spurious zero pivots.
    fn representative_jacobian(&self, cfl: f64) -> CsrMatrix {
        let problem = EulerProblem::new(scenario_discretization(&self.scenario, &self.mesh));
        let q = problem.initial_state();
        let mut jac = problem.jacobian(&q);
        let d = problem.inverse_timestep_scale(&q);
        jac.shift_diagonal_by(1.0 / cfl.max(1e-6), &d);
        jac
    }

    /// The ILU(k) symbolic template for `opts`, built on first use.  Holding
    /// the lock across the build serializes first-touch per family but
    /// guarantees every caller gets the same `Arc` with no duplicate work.
    fn ilu_template(&self, opts: &IluOptions, cfl: f64) -> Option<Arc<IluFactors>> {
        let k = (opts.fill_level, opts.storage);
        let mut g = self.templates.lock().unwrap();
        if let Some((_, t)) = g.ilu.iter().find(|(key, _)| *key == k) {
            return Some(t.clone());
        }
        let jac = self.representative_jacobian(cfl);
        let t = Arc::new(IluFactors::factor(&jac, opts).ok()?);
        g.ilu.push((k, t.clone()));
        Some(t)
    }

    /// The BCSR block-structure template for block size `b`.
    fn bcsr_template(&self, b: usize, cfl: f64) -> Option<Arc<BcsrMatrix>> {
        self.bcsr_template_locked(&mut self.templates.lock().unwrap(), b, cfl)
    }

    /// [`Self::bcsr_template`] under a lock the caller already holds.
    fn bcsr_template_locked(
        &self,
        g: &mut Templates,
        b: usize,
        cfl: f64,
    ) -> Option<Arc<BcsrMatrix>> {
        if let Some((_, t)) = g.bcsr.iter().find(|(key, _)| *key == b) {
            return Some(t.clone());
        }
        if !self.nunknowns().is_multiple_of(b) {
            return None;
        }
        let jac = self.representative_jacobian(cfl);
        let t = Arc::new(BcsrMatrix::from_csr(&jac, b));
        g.bcsr.push((b, t.clone()));
        Some(t)
    }

    /// The block ILU(0) template for block size `b`, factored from the
    /// BCSR template (built first if need be), under one lock as above.
    fn block_ilu_template(&self, b: usize, cfl: f64) -> Option<Arc<BlockIluFactors>> {
        let mut g = self.templates.lock().unwrap();
        if let Some((_, t)) = g.block_ilu.iter().find(|(key, _)| *key == b) {
            return Some(t.clone());
        }
        let bcsr = self.bcsr_template_locked(&mut g, b, cfl)?;
        let t = Arc::new(BlockIluFactors::factor(&bcsr).ok()?);
        g.block_ilu.push((b, t.clone()));
        Some(t)
    }

    /// Assemble the [`WarmStart`] for a request's solver options, by the
    /// solver's own rule on this family's Jacobian block size
    /// ([`PseudoTransientOptions::block_ilu`]): the template of the
    /// request's global ILU preconditioner (block ILU(0) when the options
    /// take it, point ILU(k) otherwise), and the BCSR template of the
    /// matrix the solve refills (a blocked assembled operator, or a
    /// matrix-free block ILU(0) input).
    pub fn warm_start(&self, nks: &PseudoTransientOptions) -> WarmStart {
        // Only a matrix-free request's rule reads the block size, so an
        // assembled one never lays out the pattern to find it.
        let jac_block = if nks.matrix_free {
            self.jacobian_block_size()
        } else {
            1
        };
        let mut warm = WarmStart::none();
        if let Some(b) = nks.block_ilu(jac_block) {
            warm.block_ilu = self.block_ilu_template(b, nks.cfl0);
        } else if let PrecondSpec::Ilu(ilu) = &nks.precond {
            warm.ilu = self.ilu_template(ilu, nks.cfl0);
        }
        if let Some(b) = nks.bcsr_refill_block(jac_block) {
            warm.bcsr = self.bcsr_template(b, nks.cfl0);
        }
        warm
    }

    /// Number of structure templates currently held (for tests/metrics).
    pub fn template_count(&self) -> usize {
        let g = self.templates.lock().unwrap();
        g.ilu.len() + g.block_ilu.len() + g.bcsr.len()
    }

    /// Run one solve against this family's shared state.  Identical in
    /// result to [`direct_solve`] on the same scenario and options, but the
    /// mesh build, orderings, partition, and symbolic setup are all reused.
    pub fn solve(
        &self,
        nks: &PseudoTransientOptions,
        tel: &Registry,
        events: &EventSink,
    ) -> (SolveHistory, Vec<f64>) {
        let mut nks = nks.clone();
        nks.bcsr_block = self.scenario.bcsr_block();
        let warm = self.warm_start(&nks);
        let mut problem = EulerProblem::new(scenario_discretization(&self.scenario, &self.mesh));
        let mut q = problem.initial_state();
        let history = solve_pseudo_transient_warm(&mut problem, &mut q, &nks, tel, events, &warm);
        (history, q)
    }
}

/// The uncached reference path: build everything from scratch, exactly as
/// the sequential driver does, and solve cold.  The serve gates pin cached
/// results bitwise against this.
pub fn direct_solve(
    scenario: &ScenarioClass,
    nks: &PseudoTransientOptions,
) -> (SolveHistory, Vec<f64>) {
    let mut nks = nks.clone();
    nks.bcsr_block = scenario.bcsr_block();
    let mesh = apply_orderings(
        scenario.mesh.build(),
        scenario.layout.vertex_ordering,
        scenario.layout.edge_ordering,
    );
    let mut problem = EulerProblem::new(scenario_discretization(scenario, &mesh));
    let mut q = problem.initial_state();
    let history = solve_pseudo_transient_warm(
        &mut problem,
        &mut q,
        &nks,
        &Registry::disabled(),
        &EventSink::disabled(),
        &WarmStart::none(),
    );
    (history, q)
}

/// The scenario's discretization on `mesh`.
fn scenario_discretization<'m>(scenario: &ScenarioClass, mesh: &'m TetMesh) -> Discretization<'m> {
    Discretization::new(
        mesh,
        scenario.model,
        scenario.layout.field_layout(),
        scenario.order,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{tiny_nks, tiny_scenario};

    #[test]
    fn cached_solve_is_bitwise_identical_to_direct() {
        let sc = tiny_scenario();
        let nks = tiny_nks();
        let state = FamilyState::build(&sc, 2);
        let (hd, qd) = direct_solve(&sc, &nks);
        let (hc, qc) = state.solve(&nks, &Registry::disabled(), &EventSink::disabled());
        assert_eq!(qd, qc, "cached path must match direct path bitwise");
        assert_eq!(hd.nsteps(), hc.nsteps());
        assert_eq!(hd.final_residual, hc.final_residual);
        for (a, b) in hd.steps.iter().zip(&hc.steps) {
            assert_eq!(a.residual_norm, b.residual_norm);
            assert_eq!(a.linear_iters, b.linear_iters);
        }
        // Repeat solves reuse the same templates and stay identical.
        assert!(state.template_count() >= 1);
        let before = state.template_count();
        let (_, qc2) = state.solve(&nks, &Registry::disabled(), &EventSink::disabled());
        assert_eq!(qd, qc2);
        assert_eq!(state.template_count(), before, "no template rebuild");
    }

    #[test]
    fn blocked_ilu0_warm_solve_is_bitwise_identical_to_cold() {
        // The tuned layout is blocked, so ILU(0) requests take block ILU(0)
        // and get a block template (the ILU(1) requests above never do).
        let sc = tiny_scenario();
        let mut nks = tiny_nks();
        nks.precond = PrecondSpec::Ilu(IluOptions::with_fill(0));
        let state = FamilyState::build(&sc, 2);
        let mut blocked = nks.clone();
        blocked.bcsr_block = sc.bcsr_block();
        let warm = state.warm_start(&blocked);
        assert!(warm.block_ilu.is_some() && warm.bcsr.is_some());
        assert!(
            warm.ilu.is_none(),
            "no point template for a block ILU(0) run"
        );
        let (hd, qd) = direct_solve(&sc, &nks);
        let (hc, qc) = state.solve(&nks, &Registry::disabled(), &EventSink::disabled());
        assert!(hd.converged);
        assert_eq!(
            qd, qc,
            "warm block ILU(0) solve must match the cold one bitwise"
        );
        assert_eq!(hd.nsteps(), hc.nsteps());
        for (a, b) in hd.steps.iter().zip(&hc.steps) {
            assert_eq!(a.residual_norm.to_bits(), b.residual_norm.to_bits());
            assert_eq!(a.linear_iters, b.linear_iters);
        }
        assert_eq!(
            state.template_count(),
            2,
            "one block ILU and one BCSR template"
        );
    }

    #[test]
    fn matrix_free_ilu0_warm_solve_takes_block_ilu_on_interlaced_families() {
        // Matrix-free ILU(0) requests on an interlaced family take block
        // ILU(0) on the Jacobian's vertex blocks, blocked layout or not:
        // block ILU(0) and BCSR templates, and no point template.
        let mut nks = tiny_nks();
        nks.precond = PrecondSpec::Ilu(IluOptions::with_fill(0));
        nks.matrix_free = true;
        nks.pc_refresh = 3;
        for blocked in [true, false] {
            let mut sc = tiny_scenario();
            sc.layout.blocked = blocked;
            let state = FamilyState::build(&sc, 2);
            assert_eq!(state.jacobian_block_size(), 4);
            let warm = state.warm_start(&nks);
            assert!(
                warm.block_ilu.is_some() && warm.bcsr.is_some(),
                "blocked {blocked}"
            );
            assert!(warm.ilu.is_none(), "blocked {blocked}: no point template");
            let (hd, qd) = direct_solve(&sc, &nks);
            let (hc, qc) = state.solve(&nks, &Registry::disabled(), &EventSink::disabled());
            assert!(hd.converged, "blocked {blocked}");
            assert_eq!(qd, qc, "blocked {blocked}: warm must match cold bitwise");
            assert_eq!(hd.nsteps(), hc.nsteps());
            for (a, b) in hd.steps.iter().zip(&hc.steps) {
                assert_eq!(a.residual_norm.to_bits(), b.residual_norm.to_bits());
                assert_eq!(a.linear_iters, b.linear_iters);
            }
            assert_eq!(state.template_count(), 2, "blocked {blocked}");
            let (_, qc2) = state.solve(&nks, &Registry::disabled(), &EventSink::disabled());
            assert_eq!(qd, qc2);
            assert_eq!(state.template_count(), 2, "blocked {blocked}: no rebuild");
        }
        // A segregated family's Jacobian is point-wise: point ILU(0).
        let mut sc = tiny_scenario();
        sc.layout.interlaced = false;
        sc.layout.blocked = false;
        let state = FamilyState::build(&sc, 2);
        assert_eq!(state.jacobian_block_size(), 1);
        let warm = state.warm_start(&nks);
        assert!(warm.ilu.is_some() && warm.block_ilu.is_none() && warm.bcsr.is_none());
    }

    #[test]
    fn family_partition_covers_all_vertices() {
        let sc = tiny_scenario();
        let state = FamilyState::build(&sc, 3);
        assert_eq!(state.subdomains().len(), 3);
        let mut seen = vec![false; state.nverts()];
        for s in state.subdomains() {
            for &v in s {
                assert!(!seen[v], "vertex {v} owned twice");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(state.nunknowns(), state.nverts() * 4);
        assert!(state.build_time_s() > 0.0);
    }
}
