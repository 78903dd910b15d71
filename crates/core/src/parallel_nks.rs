//! Fully distributed pseudo-transient Newton–Krylov–Schwarz — the parallel
//! PETSc-FUN3D execution model.
//!
//! Each rank owns a subdomain of the mesh and holds one layer of ghost
//! vertices.  Flux evaluation, timestep scale and first-order Jacobian
//! assembly are purely local after a ghost scatter: they run the sequential
//! solve's kernels ([`EulerProblem`] on a [`Discretization`]) on the rank's
//! local dual mesh, whose edges crossing the interface are computed by both
//! sides (the duplicated work the paper's Table 5 discussion notes).  The
//! linear solve is the sequential solve's GMRES: its inner products go
//! through allreduce, its operator scatters ghosts, and its preconditioner
//! is block Jacobi with ILU(k) on each rank's diagonal block (`core::dist`'s
//! `RankComm`, `GhostedOperator` and `BlockJacobiIlu`).  The per-phase
//! simulated clock runs throughout, so every solve also yields the paper's
//! Table 3 phase decomposition at the machine model's scale.
//!
//! The setup here is *replicated* (every rank slices the same global mesh),
//! which is standard practice for reproductions at laptop scale; the
//! per-rank compute and communication paths are the real distributed ones.

use crate::dist::{BlockJacobiIlu, DistributedMatrix, GhostedOperator, RankComm};
use crate::problem::EulerProblem;
use fun3d_comm::clock::PhaseBreakdown;
use fun3d_comm::ranktrace::MessageLedger;
use fun3d_comm::scatter::{build_scatter_plans, ScatterPlan};
use fun3d_comm::world::{run_world_with, Rank, WorldOptions};
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_memmodel::machine::MachineSpec;
use fun3d_mesh::tet::{BoundaryFace, TetMesh};
use fun3d_solver::gmres::{gmres_with_events, GmresOptions};
use fun3d_solver::op::PseudoTransientProblem;
use fun3d_sparse::csr::CsrMatrix;
use fun3d_sparse::ilu::{IluFactors, IluOptions};
use fun3d_sparse::layout::FieldLayout;
use fun3d_telemetry::events::{EventRecord, EventSink, EventStream};
use fun3d_telemetry::{Registry, Snapshot};

/// One rank's static view of the problem: owned + ghost vertices, the
/// local dual mesh its owned residual rows need, and the scatter plan.
pub struct LocalSubdomain {
    /// Global indices: owned first (ascending), then ghosts (plan order).
    pub verts: Vec<usize>,
    /// Number of owned vertices.
    pub nowned: usize,
    /// Vertex-level ghost-exchange plan.
    pub plan: ScatterPlan,
    /// The edges and boundary faces with an owned vertex, in the global
    /// mesh's order and orientation, over local vertex indices.  A
    /// [`Discretization`] on it computes the owned rows of the residual,
    /// timestep scale and Jacobian bit for bit as on the global mesh; the
    /// ghost rows miss the contributions of the edges they share with other
    /// ranks' vertices and are not used.
    pub(crate) mesh: TetMesh,
}

impl LocalSubdomain {
    /// Slice rank `me`'s subdomain out of the global mesh.
    pub fn build(mesh: &TetMesh, owner: &[u32], nranks: usize, me: usize) -> Self {
        let plans = build_scatter_plans(mesh.nverts(), owner, mesh.edges(), nranks);
        Self::from_plan(mesh, owner, &plans[me], me)
    }

    /// Build from a precomputed `(owned, ghosts, plan)` triple.
    pub fn from_plan(
        mesh: &TetMesh,
        owner: &[u32],
        triple: &(Vec<usize>, Vec<usize>, ScatterPlan),
        me: usize,
    ) -> Self {
        let (owned, ghosts, plan) = triple;
        let mut verts = owned.clone();
        verts.extend_from_slice(ghosts);
        let mut global_to_local = vec![u32::MAX; mesh.nverts()];
        for (l, &g) in verts.iter().enumerate() {
            global_to_local[g] = l as u32;
        }
        // Every vertex within one edge of an owned vertex is local.
        let local = |v: u32| {
            let l = global_to_local[v as usize];
            assert!(l != u32::MAX, "ghost layer too thin");
            l
        };
        let is_owned = |v: &u32| owner[*v as usize] as usize == me;
        let (mut edges, mut edge_normals) = (Vec::new(), Vec::new());
        for (&[a, b], &n) in mesh.edges().iter().zip(mesh.edge_normals()) {
            if is_owned(&a) || is_owned(&b) {
                edges.push([local(a), local(b)]);
                edge_normals.push(n);
            }
        }
        let faces = (mesh.boundary_faces().iter())
            .filter(|f| f.verts.iter().any(is_owned))
            .map(|f| BoundaryFace {
                verts: f.verts.map(local),
                ..*f
            })
            .collect();
        let mesh = TetMesh::from_dual_parts(
            verts.iter().map(|&g| mesh.coords()[g]).collect(),
            edges,
            edge_normals,
            verts.iter().map(|&g| mesh.dual_volumes()[g]).collect(),
            faces,
        );
        Self {
            verts,
            nowned: owned.len(),
            plan: plan.clone(),
            mesh,
        }
    }

    /// Local vertex count (owned + ghosts).
    pub fn nlocal(&self) -> usize {
        self.verts.len()
    }
}

/// Options for the parallel NKS solve (a subset of the sequential options —
/// first order, block Jacobi, assembled operator).
#[derive(Debug, Clone)]
pub struct ParallelNksOptions {
    /// Initial CFL.
    pub cfl0: f64,
    /// SER exponent.
    pub cfl_exponent: f64,
    /// CFL ceiling.
    pub cfl_max: f64,
    /// Pseudo-timestep limit.
    pub max_steps: usize,
    /// Stop at this residual reduction.
    pub target_reduction: f64,
    /// Krylov options.
    pub krylov: GmresOptions,
    /// Subdomain ILU options.
    pub ilu: IluOptions,
    /// Record per-rank span timelines, message ledgers, and cross-rank flow
    /// edges in simulated time (one chrome-trace lane per rank, consumed by
    /// `fun3d-report comm` and the critical-path walk).  Tracing is pure
    /// observation: results and simulated clocks are bitwise identical with
    /// it on or off.
    pub trace_ranks: bool,
    /// Partition family label recorded in the run's `RunMeta` (the solver is
    /// partition-agnostic; callers pass whatever produced `owner`).
    pub partition_family: &'static str,
}

impl Default for ParallelNksOptions {
    fn default() -> Self {
        Self {
            cfl0: 5.0,
            cfl_exponent: 1.2,
            cfl_max: 1e6,
            max_steps: 60,
            target_reduction: 1e-8,
            krylov: GmresOptions {
                restart: 20,
                rtol: 1e-2,
                max_iters: 120,
                ..Default::default()
            },
            ilu: IluOptions::with_fill(1),
            trace_ranks: false,
            partition_family: "kway",
        }
    }
}

/// Result of a parallel NKS run.
#[derive(Debug, Clone)]
pub struct ParallelNksReport {
    /// Residual norm before each step.
    pub residual_history: Vec<f64>,
    /// Linear iterations per step.
    pub linear_iters: Vec<usize>,
    /// Converged?
    pub converged: bool,
    /// Final residual norm.
    pub final_residual: f64,
    /// Per-rank simulated phase breakdowns.
    pub breakdowns: Vec<PhaseBreakdown>,
    /// Simulated parallel time (max over ranks).
    pub sim_time: f64,
    /// Assembled global solution (interlaced layout).
    pub solution: Vec<f64>,
    /// Per-rank telemetry snapshots: measured span trees for
    /// flux/jacobian/ilu/gmres plus nested scatter/allreduce comm spans, and
    /// the simulated phase breakdown ingested under `sim/`.  Merge with
    /// [`fun3d_telemetry::merge`]; export with
    /// [`fun3d_telemetry::chrome_trace`].
    pub telemetry: Vec<Snapshot>,
    /// Structured event stream for the run: a `RunMeta` header, one
    /// synthesized `NewtonStep` per pseudo-timestep (timers are zero — the
    /// per-phase clock here is simulated, not wall), and rank 0's `Scatter`
    /// records.  Feed to `fun3d_telemetry::events::convergence_table` or
    /// write as `fun3d-events/1` JSONL.
    pub events: EventStream,
    /// Per-rank message ledgers (empty ops unless `trace_ranks` was set):
    /// every point-to-point message and collective with its wait/transfer
    /// split, in timeline order.  Feed to [`fun3d_comm::critical_path`].
    pub ledgers: Vec<MessageLedger>,
    /// Per-rank simulated-clock marks: `step_marks[r][0]` at the start of
    /// the Newton loop, then one entry after each pseudo-timestep, so
    /// `marks[i + 1] - marks[i]` is step `i`'s simulated duration on rank
    /// `r`.  Recorded on every run (observation only, no communication).
    pub step_marks: Vec<Vec<f64>>,
}

/// Run the distributed ΨNKS solve on `nranks` message-passing ranks.
pub fn solve_parallel_nks(
    mesh: &TetMesh,
    model: FlowModel,
    owner: &[u32],
    nranks: usize,
    machine: &MachineSpec,
    opts: &ParallelNksOptions,
) -> ParallelNksReport {
    let ncomp = model.ncomp();
    let plans = build_scatter_plans(mesh.nverts(), owner, mesh.edges(), nranks);

    let world_opts = WorldOptions {
        instrument: true,
        trace_ranks: opts.trace_ranks,
    };
    let outputs = run_world_with(nranks, machine, world_opts, |rank| {
        let me = rank.id();
        let tel = rank.telemetry.clone();
        let solve_span = tel.span("nks");
        let sub = LocalSubdomain::from_plan(mesh, owner, &plans[me], me);
        let problem = EulerProblem::new(Discretization::new(
            &sub.mesh,
            model,
            FieldLayout::Interlaced,
            SpatialOrder::First,
        ));
        let disc = problem.discretization();
        // Unknown counts: owned, and owned + ghosts.
        let (nown, nloc) = (sub.nowned * ncomp, sub.nlocal() * ncomp);
        let unknowns = |verts: &[usize]| -> Vec<usize> {
            (verts.iter())
                .flat_map(|&g| (0..ncomp).map(move |c| g * ncomp + c))
                .collect()
        };
        // The owned rows of the local Jacobian are its first `nown` rows,
        // since owned vertices come first.  Their pattern, like the
        // unknown-level plan, depends only on the partition; each step
        // refills the values.
        let mut mat = {
            let pattern = disc.jacobian_pattern();
            let full = CsrMatrix::from_pattern(pattern, vec![0.0; pattern.nnz()]);
            let nnz = full.row_ptr()[nown];
            DistributedMatrix {
                owned_rows: unknowns(&sub.verts[..sub.nowned]),
                ghost_cols: unknowns(&sub.verts[sub.nowned..]),
                local: CsrMatrix::from_raw(
                    nown,
                    nloc,
                    full.row_ptr()[..=nown].to_vec(),
                    full.col_idx()[..nnz].to_vec(),
                    vec![0.0; nnz],
                ),
                plan: expand_plan(&sub.plan, ncomp),
            }
        };
        let nnz = mat.local.nnz();
        // Local state with ghosts, interlaced.
        let mut q = problem.initial_state();
        let mut res = vec![0.0; nloc];
        // Refresh the ghosts of `q` and evaluate the residual; returns the
        // global norm of its owned rows.
        let mut tag = 0u32;
        let mut evaluate = |rank: &mut Rank, q: &mut [f64], res: &mut [f64]| {
            tag += 1;
            sub.plan.execute(rank, q, sub.nowned, ncomp, tag);
            {
                let _g = tel.span("flux");
                problem.residual(q, res);
                rank.clock
                    .compute(disc.residual_flops(), disc.residual_bytes(), 0.25);
            }
            let norm_local: f64 = res[..nown].iter().map(|v| v * v).sum();
            rank.allreduce_sum_scalar(norm_local).sqrt()
        };
        let r0 = evaluate(rank, &mut q, &mut res);
        let mut rnorm = r0;
        let mut history = vec![r0];
        let mut lin_iters = Vec::new();
        let mut marks = vec![rank.clock.now()];
        // The diagonal block's pattern is the partition's, so its symbolic
        // ILU analysis runs on the first step only; later steps refactor.
        let mut ilu: Option<IluFactors> = None;

        for _step in 0..opts.max_steps {
            if rnorm / r0 <= opts.target_reduction {
                break;
            }
            let cfl = (opts.cfl0 * (r0 / rnorm).powf(opts.cfl_exponent)).min(opts.cfl_max);
            let d = problem.inverse_timestep_scale(&q);
            {
                let _g = tel.span("jacobian");
                let mut jac = problem.jacobian(&q);
                jac.shift_diagonal_by(1.0 / cfl, &d);
                mat.local.values_mut().copy_from_slice(&jac.values()[..nnz]);
                let flops = 250.0 * sub.mesh.nedges() as f64 * (ncomp * ncomp) as f64 / 16.0;
                rank.clock.compute(flops, 12.0 * nnz as f64, 0.5);
            }
            let prec = {
                let _g = tel.span("ilu");
                let diag = mat.diagonal_block();
                let factored = match &mut ilu {
                    Some(f) => f.refactor(&diag),
                    None => IluFactors::factor(&diag, &opts.ilu).map(|f| ilu = Some(f)),
                };
                factored.expect("subdomain ILU failed");
                ilu.as_ref().expect("factored above")
            };
            let rhs: Vec<f64> = res[..nown].iter().map(|r| -r).collect();
            let mut delta = vec![0.0; nown];
            let lin = {
                let _g = tel.span("gmres");
                let comm = RankComm::new(rank);
                let op = GhostedOperator::new(&mat, &comm);
                let pc = BlockJacobiIlu::new(prec, &comm);
                let (tel, events) = (Registry::disabled(), EventSink::disabled());
                let krylov = &opts.krylov;
                gmres_with_events(&op, &pc, &rhs, &mut delta, krylov, &comm, &tel, &events, 0)
            };
            tel.counter("linear_iters", lin.iterations as f64);
            lin_iters.push(lin.iterations);
            // Line search matching the sequential driver: back off while the
            // residual grows more than 20%, and fall back to the full step
            // if no short step helps (the timestep is the real globalizer).
            // Every rank sees identical (allreduced) norms, so all ranks
            // take the same branch.
            let q_base = q[..nown].to_vec();
            let mut alpha = 1.0f64;
            let mut full_norm = f64::INFINITY;
            let mut accepted = false;
            for k in 0..4 {
                for i in 0..nown {
                    q[i] = q_base[i] + alpha * delta[i];
                }
                let tnorm = evaluate(rank, &mut q, &mut res);
                if k == 0 {
                    full_norm = tnorm;
                }
                if tnorm.is_finite() && tnorm <= 1.2 * rnorm {
                    rnorm = tnorm;
                    accepted = true;
                    break;
                }
                alpha *= 0.5;
            }
            if !accepted {
                // Full step anyway (mirrors the sequential fallback).
                for i in 0..nown {
                    q[i] = q_base[i] + delta[i];
                }
                let check = evaluate(rank, &mut q, &mut res);
                debug_assert!((check - full_norm).abs() <= 1e-9 * full_norm.max(1.0));
                rnorm = full_norm;
            }
            history.push(rnorm);
            marks.push(rank.clock.now());
        }
        let converged = rnorm / r0 <= opts.target_reduction;
        tel.counter("steps", lin_iters.len() as f64);
        // Fold the simulated clock into the registry so measured and modeled
        // time share one schema, then close the solve span and snapshot.
        rank.clock.flush_trace();
        rank.clock.ingest_into(&tel);
        rank.ledger.close(rank.clock.now());
        rank.ledger.ingest_into(&tel);
        let ledger = std::mem::take(&mut rank.ledger);
        drop(solve_span);
        (
            sub.verts[..sub.nowned].to_vec(),
            q[..nown].to_vec(),
            history,
            lin_iters,
            converged,
            rank.clock.breakdown(),
            rank.clock.now(),
            tel.snapshot(),
            rank.events.drain(),
            ledger,
            marks,
        )
    });

    // Assemble the report from rank 0's history (identical on all ranks).
    let mut solution = vec![0.0; mesh.nverts() * ncomp];
    let mut breakdowns = Vec::with_capacity(nranks);
    let mut telemetry = Vec::with_capacity(nranks);
    let mut ledgers = Vec::with_capacity(nranks);
    let mut step_marks = Vec::with_capacity(nranks);
    let mut sim_time: f64 = 0.0;
    for (verts, ql, _, _, _, bd, t, snap, _, ledger, marks) in &outputs {
        for (l, &g) in verts.iter().enumerate() {
            solution[g * ncomp..(g + 1) * ncomp].copy_from_slice(&ql[l * ncomp..(l + 1) * ncomp]);
        }
        breakdowns.push(*bd);
        telemetry.push(snap.clone());
        ledgers.push(ledger.clone());
        step_marks.push(marks.clone());
        sim_time = sim_time.max(*t);
    }
    let (_, _, history, lin_iters, converged, _, _, _, rank0_events, _, _) =
        outputs.into_iter().next().unwrap();
    let final_residual = *history.last().unwrap();

    // Synthesize the event stream from the (rank-invariant) history.  The
    // per-step timers are simulated here rather than wall-measured, so the
    // NewtonStep timer fields stay zero; CFL is reconstructed from the SER
    // law the loop above applied.
    let mut events = EventStream::new(Vec::new());
    events.records.push(EventRecord::RunMeta {
        name: "parallel_nks".to_string(),
        meta: vec![
            ("nranks".into(), nranks.to_string()),
            ("nverts".into(), mesh.nverts().to_string()),
            ("nthreads".into(), opts.krylov.par.nthreads().to_string()),
            ("partition".into(), opts.partition_family.to_string()),
        ],
    });
    let r0 = history[0];
    for (i, &iters) in lin_iters.iter().enumerate() {
        let cfl = (opts.cfl0 * (r0 / history[i]).powf(opts.cfl_exponent)).min(opts.cfl_max);
        events.records.push(EventRecord::NewtonStep {
            step: i as u64,
            residual_norm: history[i + 1],
            cfl,
            gmres_iters: iters as u64,
            eta: opts.krylov.rtol,
            t_residual: 0.0,
            t_jacobian: 0.0,
            t_precond: 0.0,
            t_krylov: 0.0,
        });
    }
    events.records.extend(
        rank0_events
            .into_iter()
            .filter(|e| matches!(e, EventRecord::Scatter { .. })),
    );

    ParallelNksReport {
        residual_history: history,
        linear_iters: lin_iters,
        converged,
        final_residual,
        breakdowns,
        sim_time,
        solution,
        telemetry,
        events,
        ledgers,
        step_marks,
    }
}

/// Expand a vertex-level scatter plan to unknown level (ncomp unknowns per
/// vertex, interlaced).
fn expand_plan(plan: &ScatterPlan, ncomp: usize) -> ScatterPlan {
    ScatterPlan {
        neighbors: plan.neighbors.clone(),
        send_indices: plan
            .send_indices
            .iter()
            .map(|idx| {
                idx.iter()
                    .flat_map(|&v| (0..ncomp as u32).map(move |c| v * ncomp as u32 + c))
                    .collect()
            })
            .collect(),
        recv_counts: plan.recv_counts.iter().map(|&c| c * ncomp).collect(),
    }
}

/// Convenience: the sequential reference solution for comparison tests.
pub fn sequential_reference(
    mesh: &TetMesh,
    model: FlowModel,
    owner: &[u32],
    nranks: usize,
    opts: &ParallelNksOptions,
) -> (Vec<f64>, Vec<usize>, bool) {
    let disc = Discretization::new(mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
    let mut problem = EulerProblem::new(disc);
    let mut q = problem.initial_state();
    let ncomp = model.ncomp();
    let owned_sets: Vec<Vec<usize>> = (0..nranks)
        .map(|r| {
            (0..mesh.nverts())
                .filter(|&v| owner[v] as usize == r)
                .flat_map(|v| (0..ncomp).map(move |c| v * ncomp + c))
                .collect()
        })
        .collect();
    let seq_opts = fun3d_solver::pseudo::PseudoTransientOptions {
        cfl0: opts.cfl0,
        cfl_exponent: opts.cfl_exponent,
        cfl_max: opts.cfl_max,
        max_steps: opts.max_steps,
        target_reduction: opts.target_reduction,
        krylov: opts.krylov,
        precond: fun3d_solver::pseudo::PrecondSpec::Schwarz {
            owned_sets,
            overlap: 0,
            ilu: opts.ilu,
            restricted: true,
        },
        line_search: false,
        ..Default::default()
    };
    let h = fun3d_solver::pseudo::solve_pseudo_transient(&mut problem, &mut q, &seq_opts);
    let its = h.steps.iter().map(|s| s.linear_iters).collect();
    (q, its, h.converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_mesh::generator::BumpChannelSpec;
    use fun3d_partition::partition_kway;

    fn setup(dims: (usize, usize, usize), nranks: usize) -> (TetMesh, Vec<u32>) {
        let mesh = BumpChannelSpec::with_dims(dims.0, dims.1, dims.2).build();
        let part = partition_kway(&mesh.vertex_graph(), nranks, 3);
        (mesh, part.part)
    }

    #[test]
    fn local_residual_matches_global() {
        // On each rank's local dual mesh, the owned rows of the residual,
        // the timestep scale and the Jacobian are the global ones, bit for
        // bit.
        let nranks = 3;
        let (mesh, owner) = setup((7, 5, 5), nranks);
        let plans = build_scatter_plans(mesh.nverts(), &owner, mesh.edges(), nranks);
        let bits = |v: &mut dyn Iterator<Item = f64>| v.map(f64::to_bits).collect::<Vec<_>>();
        for model in [FlowModel::incompressible(), FlowModel::compressible()] {
            let ncomp = model.ncomp();
            fn problem(m: &TetMesh, model: FlowModel) -> EulerProblem<'_> {
                let order = SpatialOrder::First;
                EulerProblem::new(Discretization::new(
                    m,
                    model,
                    FieldLayout::Interlaced,
                    order,
                ))
            }
            let global = problem(&mesh, model);
            let mut qg = global.initial_state();
            for (v, x) in mesh.coords().iter().enumerate() {
                for c in 0..ncomp {
                    qg[v * ncomp + c] += 0.02 * ((c + 1) as f64) * (x[0] - 0.3 * x[2]).sin();
                }
            }
            let mut rg = vec![0.0; qg.len()];
            global.residual(&qg, &mut rg);
            let (dg, jg) = (global.inverse_timestep_scale(&qg), global.jacobian(&qg));
            for me in 0..nranks {
                let sub = LocalSubdomain::from_plan(&mesh, &owner, &plans[me], me);
                let local = problem(&sub.mesh, model);
                // The global index of each local unknown.
                let g: Vec<usize> = (sub.verts.iter())
                    .flat_map(|&v| (0..ncomp).map(move |c| v * ncomp + c))
                    .collect();
                let q: Vec<f64> = g.iter().map(|&i| qg[i]).collect();
                let mut r = vec![0.0; q.len()];
                local.residual(&q, &mut r);
                let (d, j) = (local.inverse_timestep_scale(&q), local.jacobian(&q));
                let owned = &g[..sub.nowned * ncomp];
                let at = |v: &[f64]| bits(&mut owned.iter().map(|&i| v[i]));
                assert_eq!(bits(&mut r[..owned.len()].iter().copied()), at(&rg));
                assert_eq!(bits(&mut d[..owned.len()].iter().copied()), at(&dg));
                for (l, &i) in owned.iter().enumerate() {
                    let mut row: Vec<(usize, u64)> = (j.row_cols(l).iter().zip(j.row_vals(l)))
                        .map(|(&c, v)| (g[c as usize], v.to_bits()))
                        .collect();
                    row.sort_unstable();
                    let want: Vec<(usize, u64)> = (jg.row_cols(i).iter().zip(jg.row_vals(i)))
                        .map(|(&c, v)| (c as usize, v.to_bits()))
                        .collect();
                    assert_eq!(row, want, "{model:?} rank {me}: Jacobian row {i}");
                }
            }
        }
    }

    #[test]
    fn parallel_nks_converges_and_matches_sequential() {
        let nranks = 4;
        let (mesh, owner) = setup((8, 6, 6), nranks);
        let model = FlowModel::incompressible();
        let opts = ParallelNksOptions {
            max_steps: 50,
            ..Default::default()
        };
        let report = solve_parallel_nks(
            &mesh,
            model,
            &owner,
            nranks,
            &MachineSpec::asci_red(),
            &opts,
        );
        assert!(
            report.converged,
            "parallel reduction {:.2e}",
            report.final_residual / report.residual_history[0]
        );
        // Sequential reference with the same block structure converges to
        // the same state.
        let (q_seq, _its, conv) = sequential_reference(&mesh, model, &owner, nranks, &opts);
        assert!(conv);
        let scale = q_seq.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in report.solution.iter().zip(&q_seq) {
            assert!(
                (a - b).abs() / scale < 1e-5,
                "solutions diverged: {a} vs {b}"
            );
        }
        assert!(report.sim_time > 0.0);
        assert_eq!(report.breakdowns.len(), nranks);
    }

    #[test]
    fn telemetry_records_phase_spans_per_rank() {
        let nranks = 2;
        let (mesh, owner) = setup((6, 5, 5), nranks);
        let model = FlowModel::incompressible();
        let opts = ParallelNksOptions {
            max_steps: 3,
            target_reduction: 1e-30, // force all 3 steps
            ..Default::default()
        };
        let report = solve_parallel_nks(
            &mesh,
            model,
            &owner,
            nranks,
            &MachineSpec::asci_red(),
            &opts,
        );
        assert_eq!(report.telemetry.len(), nranks);
        for (rank, snap) in report.telemetry.iter().enumerate() {
            assert_eq!(snap.rank, rank);
            for path in [
                "nks",
                "nks/flux",
                "nks/jacobian",
                "nks/ilu",
                "nks/gmres",
                "nks/comm/scatter",
                "nks/gmres/comm/allreduce",
                "sim/compute",
                "sim/scatter",
            ] {
                assert!(snap.span(path).is_some(), "rank {rank} missing span {path}");
            }
            // Measured child spans fit inside the solve span.
            let nks = snap.span("nks").unwrap().total_s;
            let children: f64 = ["nks/flux", "nks/jacobian", "nks/ilu", "nks/gmres"]
                .iter()
                .map(|p| snap.span(p).unwrap().total_s)
                .sum();
            assert!(children <= nks * 1.0001 + 1e-9, "{children} > {nks}");
            // Counters recorded under the solve span.
            assert!(snap.span("nks").unwrap().counter("linear_iters").unwrap() > 0.0);
            assert_eq!(snap.span("nks").unwrap().counter("steps"), Some(3.0));
            // Simulated spans carry the simulated domain tag.
            assert_eq!(
                snap.span("sim/compute").unwrap().domain,
                fun3d_telemetry::TimeDomain::Simulated
            );
        }
        // Chrome trace over all ranks parses and has per-rank tids.
        let trace = fun3d_telemetry::chrome_trace(&report.telemetry);
        let v = fun3d_telemetry::json::Value::parse(&trace).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
    }

    #[test]
    fn event_stream_mirrors_history_and_carries_scatters() {
        let nranks = 2;
        let (mesh, owner) = setup((6, 5, 5), nranks);
        let model = FlowModel::incompressible();
        let opts = ParallelNksOptions {
            max_steps: 3,
            target_reduction: 1e-30, // force all 3 steps
            ..Default::default()
        };
        let report = solve_parallel_nks(
            &mesh,
            model,
            &owner,
            nranks,
            &MachineSpec::asci_red(),
            &opts,
        );
        assert!(matches!(
            &report.events.records[0],
            EventRecord::RunMeta { name, .. } if name == "parallel_nks"
        ));
        let steps = report.events.newton_steps();
        assert_eq!(steps.len(), report.linear_iters.len());
        for (i, s) in steps.iter().enumerate() {
            if let EventRecord::NewtonStep {
                step,
                residual_norm,
                gmres_iters,
                ..
            } = *s
            {
                assert_eq!(*step, i as u64);
                assert_eq!(*residual_norm, report.residual_history[i + 1]);
                assert_eq!(*gmres_iters, report.linear_iters[i] as u64);
            } else {
                unreachable!()
            }
        }
        let scatters = report
            .events
            .records
            .iter()
            .filter(|e| matches!(e, EventRecord::Scatter { .. }))
            .count();
        assert!(scatters > 0, "rank 0 scatter events missing");
        let table = fun3d_telemetry::events::convergence_table(&report.events);
        assert!(table.contains("Convergence (Figure 5)"));
    }

    #[test]
    fn traced_solve_is_bitwise_identical_and_yields_ledgers() {
        let nranks = 3;
        let (mesh, owner) = setup((6, 5, 5), nranks);
        let model = FlowModel::incompressible();
        let base = ParallelNksOptions {
            max_steps: 3,
            target_reduction: 1e-30, // force all 3 steps
            ..Default::default()
        };
        let machine = MachineSpec::asci_red();
        let plain = solve_parallel_nks(&mesh, model, &owner, nranks, &machine, &base);
        let traced_opts = ParallelNksOptions {
            trace_ranks: true,
            ..base.clone()
        };
        let traced = solve_parallel_nks(&mesh, model, &owner, nranks, &machine, &traced_opts);
        // Tracing is pure observation: identical results and clocks.
        assert_eq!(plain.solution, traced.solution);
        assert_eq!(plain.residual_history, traced.residual_history);
        assert_eq!(plain.sim_time, traced.sim_time);
        assert_eq!(plain.step_marks, traced.step_marks);
        // Ledgers fill only when traced.
        assert!(plain.ledgers.iter().all(|l| l.ops().is_empty()));
        assert_eq!(traced.ledgers.len(), nranks);
        for l in &traced.ledgers {
            assert!(l.nsends() > 0, "rank {} sent nothing", l.rank());
            assert!(l.ncollectives() > 0);
        }
        // One mark before the loop plus one per pseudo-timestep, monotone.
        for marks in &traced.step_marks {
            assert_eq!(marks.len(), traced.linear_iters.len() + 1);
            assert!(marks.windows(2).all(|w| w[0] <= w[1]));
        }
        // The critical path covers the whole run and is fully attributed.
        let cp = fun3d_comm::critical_path(&traced.ledgers);
        assert!(cp.total_s > 0.0);
        assert!((cp.accounted_s() - cp.total_s).abs() <= 1e-9 * cp.total_s);
        // Per-rank timeline spans exist; merged trace carries flow edges.
        for (r, snap) in traced.telemetry.iter().enumerate() {
            for phase in ["compute", "scatter", "reduction"] {
                let path = format!("rank{r}/{phase}");
                assert!(snap.span(&path).is_some(), "missing {path}");
            }
        }
        let merged = fun3d_telemetry::merge(&traced.telemetry);
        assert!(!merged.flows.is_empty());
    }

    #[test]
    fn parallel_residual_norm_history_is_rank_invariant() {
        // Running the same problem with different rank counts changes the
        // preconditioner (more blocks) but not the residual evaluation: the
        // initial residual norm must agree exactly.
        let model = FlowModel::incompressible();
        let mut first = None;
        for nranks in [2usize, 4] {
            let (mesh, owner) = setup((7, 5, 5), nranks);
            let opts = ParallelNksOptions {
                max_steps: 1,
                ..Default::default()
            };
            let report = solve_parallel_nks(
                &mesh,
                model,
                &owner,
                nranks,
                &MachineSpec::cray_t3e(),
                &opts,
            );
            let r0 = report.residual_history[0];
            if let Some(f) = first {
                let fd: f64 = f;
                assert!((fd - r0).abs() < 1e-10 * fd, "{fd} vs {r0}");
            }
            first = Some(r0);
        }
    }
}
