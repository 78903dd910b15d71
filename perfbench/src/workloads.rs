//! The four workloads and what one run of each measures.

use crate::host;
use crate::ledger::Ledger;
use crate::reference;
use crate::replay::{self, KernelCalls, KernelInput, OpKind};
use crate::report::Report;
use crate::stats::{median, median_index, percentile};
use crate::timed::TimedProblem;
use fun3d_core::config::{apply_orderings, LayoutConfig};
use fun3d_core::parallel_nks::{solve_parallel_nks, ParallelNksOptions};
use fun3d_core::EulerProblem;
use fun3d_euler::field::FieldVec;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_memmodel::machine::MachineSpec;
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_mesh::tet::TetMesh;
use fun3d_partition::partition_kway;
use fun3d_serve::{
    direct_solve, solution_fingerprint, Engine, EngineConfig, ScenarioClass, SolveResponse,
};
use fun3d_solver::gmres::GmresOptions;
use fun3d_solver::op::PseudoTransientProblem;
use fun3d_solver::pseudo::{
    solve_pseudo_transient_warm, Forcing, PrecondSpec, PseudoTransientOptions, SolveHistory,
    WarmStart,
};
use fun3d_sparse::ilu::IluOptions;
use fun3d_sparse::layout::FieldLayout;
use fun3d_sparse::par::ParCtx;
use fun3d_telemetry::events::EventSink;
use fun3d_telemetry::Registry;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The seed a run uses unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, for checking claims made on the default.
pub const HELD_OUT_SEED: u64 = 20_011;

/// Fewest measured operations of each kind in one run, however short
/// `--seconds` is.
const MIN_OPS: usize = 3;

/// Standalone setups timed at the start of the `serve-2w` run.
const SETUP_REPS: usize = 40;

/// Standalone setups timed before each operation of an untraced solving
/// run, so the setups sample the whole run.  `setup_s` is the median over
/// these batches of each batch's scaled median.
const SETUP_REPS_PER_OP: usize = 8;

/// Speed probes in each batch an untraced solving run times around its
/// operations.  A batch's median scales the times next to it to the
/// reference host speed.
const PROBES_PER_OP: usize = 8;

/// Meshes an untraced solving run cycles through, all made from its seed.
/// Their median solve time varies less from seed to seed than one mesh's.
const MESHES_PER_RUN: usize = 4;

/// Fewest traced solves in a traced run.
const MIN_TRACED: usize = 2;

/// Largest share of a traced solve's wall the ledger may leave unexplained.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Client threads of the `serve-2w` closed loop (requests in flight).
const SERVE_CLIENTS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tuned Table 1 configuration, assembled Jacobian, one thread.
    IncTunedSeq,
    /// Compressible, matrix-free Krylov, lagged ILU, two threads.
    CompMatfreeT2,
    /// `solve_parallel_nks` on two ranks.
    Dist2Rank,
    /// `fun3d-serve` engine, two workers, closed loop of two clients.
    Serve2W,
}

/// Mesh size class: the benchmark's own, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred vertices at most, for smoke tests.
    Tiny,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::IncTunedSeq,
        Workload::CompMatfreeT2,
        Workload::Dist2Rank,
        Workload::Serve2W,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IncTunedSeq => "inc-tuned-seq",
            Workload::CompMatfreeT2 => "comp-matfree-t2",
            Workload::Dist2Rank => "dist-2rank",
            Workload::Serve2W => "serve-2w",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The mesh, physics and solver options this workload runs with.
    pub fn case(self, seed: u64, size: Size) -> Case {
        // The two listed workloads run on 960 vertices, so a run holds
        // enough solves for its median to ride out the host's speed swings.
        // The compressible mesh keeps 4,800 unknowns, above the size below
        // which `ParCtx` stays sequential.  `dist-2rank` keeps 2,420
        // vertices.  The served family is small enough for about a hundred
        // requests per run.
        let dims = match (self, size) {
            (Workload::Serve2W, Size::Full) => (10, 6, 5),
            (Workload::IncTunedSeq | Workload::CompMatfreeT2, Size::Full) => (15, 8, 8),
            (_, Size::Full) => (20, 11, 11),
            (Workload::IncTunedSeq | Workload::Serve2W, Size::Tiny) => (6, 5, 4),
            (_, Size::Tiny) => (8, 6, 6),
        };
        let mut spec = BumpChannelSpec::with_dims(dims.0, dims.1, dims.2);
        spec.seed = seed;
        let ilu0 = IluOptions::with_fill(0);
        let mut nks = PseudoTransientOptions {
            cfl0: 5.0,
            cfl_exponent: 1.2,
            cfl_max: 1e6,
            max_steps: 100,
            target_reduction: 1e-8,
            krylov: GmresOptions {
                restart: 20,
                rtol: 1e-2,
                max_iters: 120,
                ..Default::default()
            },
            precond: PrecondSpec::Ilu(ilu0),
            second_order_switch: None,
            matrix_free: false,
            line_search: true,
            bcsr_block: Some(4),
            forcing: Forcing::Constant,
            pc_refresh: 1,
        };
        let (model, op, ilu) = match self {
            Workload::IncTunedSeq | Workload::Serve2W => {
                (FlowModel::incompressible(), OpKind::Bcsr(4), ilu0)
            }
            Workload::CompMatfreeT2 => {
                nks.cfl0 = 2.0;
                nks.krylov.rtol = 1e-3;
                nks.krylov.par = ParCtx::new(2);
                nks.pc_refresh = 4;
                nks.matrix_free = true;
                nks.bcsr_block = None;
                (FlowModel::compressible(), OpKind::MatrixFree, ilu0)
            }
            Workload::Dist2Rank => {
                // The sequential equivalent of `ParallelNksOptions::default()`
                // (point CSR, ILU(1)), used by the replays.
                let d = ParallelNksOptions::default();
                nks.cfl0 = d.cfl0;
                nks.cfl_exponent = d.cfl_exponent;
                nks.cfl_max = d.cfl_max;
                nks.max_steps = d.max_steps;
                nks.target_reduction = d.target_reduction;
                nks.krylov = d.krylov;
                nks.precond = PrecondSpec::Ilu(d.ilu);
                nks.bcsr_block = None;
                (FlowModel::incompressible(), OpKind::Csr, d.ilu)
            }
        };
        Case {
            workload: self,
            size,
            seed,
            spec,
            model,
            layout: LayoutConfig::tuned(),
            nks,
            ilu,
            op,
        }
    }
}

/// Everything that fixes one workload's inputs.
#[derive(Debug, Clone)]
pub struct Case {
    /// The workload.
    pub workload: Workload,
    /// Mesh size class.
    pub size: Size,
    /// Seed of the mesh jitter (and of the partition).
    pub seed: u64,
    /// Mesh generator parameters.
    pub spec: BumpChannelSpec,
    /// Flow model.
    pub model: FlowModel,
    /// Data layout and orderings (the tuned Table 1 row).
    pub layout: LayoutConfig,
    /// ΨNKS options.
    pub nks: PseudoTransientOptions,
    /// ILU options of the preconditioner.
    pub ilu: IluOptions,
    /// The Krylov operator.
    pub op: OpKind,
}

impl Case {
    /// Generate the mesh and apply the layout's orderings.
    fn build_mesh(&self) -> TetMesh {
        apply_orderings(
            self.spec.build(),
            self.layout.vertex_ordering,
            self.layout.edge_ordering,
        )
    }

    fn check_force(&self, force: [f64; 3]) -> Result<(), String> {
        reference::check(self.workload, self.size, self.seed, force)
    }

    /// The `j`-th mesh of an untraced solving run: the same case on a mesh
    /// jittered with a seed derived from this one.  Mesh 0 is this case.
    fn variant(&self, j: usize) -> Case {
        let seed = self.seed ^ (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut case = self.clone();
        case.seed = seed;
        case.spec.seed = seed;
        case
    }
}

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Report the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Mesh size class.
    pub size: Size,
}

/// Run one workload and report its metrics.
pub fn run(opts: &RunOptions) -> Report {
    let case = opts.workload.case(opts.seed, opts.size);
    let mut rep = Report::default();
    rep.lines.push(format!(
        "workload {}  seed {}  vertices {}  unknowns {}  threads {}  trace {}",
        opts.workload.name(),
        opts.seed,
        case.spec.nverts(),
        case.spec.nverts() * case.model.ncomp(),
        case.nks.krylov.par.nthreads(),
        u8::from(opts.trace)
    ));
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds.max(0.0));
    let measured = match opts.workload {
        Workload::Serve2W => run_serve(&case, opts, deadline, &mut rep),
        _ => run_solves(&case, opts, deadline, &mut rep),
    };
    if opts.trace && !measured.traced.is_empty() {
        push_layers(&case, &measured, &mut rep);
    }
    let mut firsts: Vec<(u64, usize, usize)> = Vec::new();
    for &(seed, steps, iters) in &rep.iterations {
        match firsts.iter().find(|f| f.0 == seed) {
            None => firsts.push((seed, steps, iters)),
            Some(&f) if f != (seed, steps, iters) => {
                rep.defects.push(format!(
                    "step or iteration counts differ between repeated solves of mesh seed {seed}"
                ));
                break;
            }
            Some(_) => {}
        }
    }
    for (seed, steps, iters) in firsts {
        rep.lines.push(format!(
            "mesh seed {seed}: newton steps {steps}  linear iterations {iters}"
        ));
    }
    rep.lines.push(format!(
        "operations {}  failed {}  failed share {:.3}",
        rep.attempted,
        rep.failed,
        rep.failed_frac()
    ));
    rep
}

/// One measured operation: a solve, after building its own mesh and
/// discretization (or partition).
struct Solve {
    /// Peak resident MiB of the process during the operation.
    peak_rss_mib: f64,
    /// Wall seconds of the solve.
    solve_s: f64,
    /// Pseudo-timesteps and Krylov iterations (for the repeatability check).
    steps: usize,
    linear_iters: usize,
    /// CFL of the last step.
    last_cfl: f64,
    /// Converged state (interlaced).
    q: Vec<f64>,
    /// The ledger, for traced solves.
    ledger: Option<Ledger>,
}

/// What the measuring part of a run hands to the per-layer report.
struct Measured {
    /// Untraced operations' wall seconds (solve only).
    plain: Vec<f64>,
    /// Traced solves.
    traced: Vec<Solve>,
    /// Engine-side metrics of the serving loop (serve-2w only).
    serve: Option<ServeLayers>,
}

/// Per-layer serving metrics.
struct ServeLayers {
    service_s: f64,
    queue_wait_frac: f64,
    cache_hit_rate: f64,
    batched_frac: f64,
    queue_max_depth: f64,
    rejected: u64,
}

/// Record one operation's outcome and, when it ran, its (mesh seed,
/// pseudo-timesteps, Krylov iterations).
fn tally(
    rep: &mut Report,
    label: &str,
    outcome: Result<(), String>,
    counts: Option<(u64, usize, usize)>,
) {
    rep.attempted += 1;
    rep.iterations.extend(counts);
    if let Err(e) = outcome {
        rep.failed += 1;
        rep.lines.push(format!("FAILED {label}: {e}"));
    }
}

/// The solve converged without tripping the health monitor.
fn check_history(history: &SolveHistory) -> Result<(), String> {
    if let Some(a) = &history.anomaly {
        return Err(format!("health monitor tripped: {a:?}"));
    }
    if !history.converged {
        return Err(format!(
            "not converged: reduction {:.2e} after {} steps",
            history.reduction(),
            history.nsteps()
        ));
    }
    Ok(())
}

fn counts(seed: u64, history: &SolveHistory) -> (u64, usize, usize) {
    (seed, history.nsteps(), history.total_linear_iters())
}

fn wall_force(mesh: &TetMesh, model: FlowModel, q: &[f64]) -> [f64; 3] {
    let disc = Discretization::new(mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
    let field = FieldVec::from_vec(
        q.to_vec(),
        mesh.nverts(),
        model.ncomp(),
        FieldLayout::Interlaced,
    );
    disc.wall_forces(&field)
}

/// One ΨNKS solve on `mesh`, optionally through the timing wrapper.
/// Returns the solve and the result of its correctness checks.
fn solve_on(
    case: &Case,
    mesh: &TetMesh,
    warm: &WarmStart,
    trace: bool,
) -> (Solve, Result<(), String>) {
    let disc = Discretization::new(
        mesh,
        case.model,
        case.layout.field_layout(),
        SpatialOrder::First,
    );
    let residual_bytes = disc.residual_traffic_bytes();
    let mut problem = TimedProblem::new(EulerProblem::new(disc), trace);
    let mut q = problem.inner().initial_state();
    let t1 = Instant::now();
    let history = solve_pseudo_transient_warm(
        &mut problem,
        &mut q,
        &case.nks,
        &Registry::disabled(),
        &EventSink::disabled(),
        warm,
    );
    let solve_s = t1.elapsed().as_secs_f64();
    let check =
        check_history(&history).and_then(|()| case.check_force(wall_force(mesh, case.model, &q)));
    let ledger = trace.then(|| {
        Ledger::sequential(
            solve_s,
            &history,
            problem.residual_tally(),
            problem.jacobian_tally(),
            problem.timestep_tally(),
            residual_bytes,
        )
    });
    let solve = Solve {
        peak_rss_mib: 0.0,
        solve_s,
        steps: history.nsteps(),
        linear_iters: history.total_linear_iters(),
        last_cfl: history.steps.last().map_or(case.nks.cfl0, |s| s.cfl),
        q,
        ledger,
    };
    (solve, check)
}

/// One sequential operation: build the mesh, discretize, solve.
fn sequential_op(case: &Case, trace: bool) -> (Solve, Result<(), String>) {
    solve_on(case, &case.build_mesh(), &WarmStart::none(), trace)
}

/// One standalone per-operation setup, in seconds: the mesh, its orderings,
/// and the discretization (or, for `dist-2rank`, the partition).
fn setup_once(case: &Case) -> f64 {
    let t0 = Instant::now();
    let mesh = case.build_mesh();
    if case.workload == Workload::Dist2Rank {
        black_box(partition_kway(&mesh.vertex_graph(), 2, case.seed));
    } else {
        let disc = Discretization::new(
            &mesh,
            case.model,
            case.layout.field_layout(),
            SpatialOrder::First,
        );
        black_box(EulerProblem::new(disc).initial_state());
    }
    t0.elapsed().as_secs_f64()
}

/// One distributed operation: build the mesh, partition it, solve on two
/// ranks.  The solver builds its scatter plans itself, inside the solve.
fn distributed_op(case: &Case, trace: bool) -> (Solve, Result<(), String>) {
    let mesh = case.build_mesh();
    let owner = partition_kway(&mesh.vertex_graph(), 2, case.seed).part;
    let opts = ParallelNksOptions::default();
    let t1 = Instant::now();
    let report = solve_parallel_nks(
        &mesh,
        case.model,
        &owner,
        2,
        &MachineSpec::asci_red(),
        &opts,
    );
    let solve_s = t1.elapsed().as_secs_f64();
    let check = if report.converged {
        case.check_force(wall_force(&mesh, case.model, &report.solution))
    } else {
        Err(format!(
            "not converged: reduction {:.2e} after {} steps",
            report.final_residual / report.residual_history[0],
            report.linear_iters.len()
        ))
    };
    let steps = report.linear_iters.len();
    let r0 = report.residual_history[0];
    let last = report.residual_history[steps.saturating_sub(1)];
    let solve = Solve {
        peak_rss_mib: 0.0,
        solve_s,
        steps,
        linear_iters: report.linear_iters.iter().sum(),
        last_cfl: (opts.cfl0 * (r0 / last).powf(opts.cfl_exponent)).min(opts.cfl_max),
        q: report.solution.clone(),
        ledger: trace.then(|| {
            let disc = Discretization::new(
                &mesh,
                case.model,
                FieldLayout::Interlaced,
                SpatialOrder::First,
            );
            Ledger::distributed(solve_s, &report, disc.residual_traffic_bytes() / 2.0)
        }),
    };
    (solve, check)
}

/// The three solving workloads: repeat whole operations until the deadline.
/// An untraced run cycles through [`MESHES_PER_RUN`] meshes made from the
/// seed, and times a batch of speed probes and setups before each
/// operation and a last probe batch after them.  A traced run solves the
/// seed's own mesh only, alternating untraced and traced operations so the
/// tracing overhead is measured on the same machine state.
fn run_solves(case: &Case, opts: &RunOptions, deadline: Instant, rep: &mut Report) -> Measured {
    let meshes: Vec<Case> = if opts.trace {
        vec![case.clone()]
    } else {
        (0..MESHES_PER_RUN).map(|j| case.variant(j)).collect()
    };
    let op = |case: &Case, trace: bool| {
        host::reset_peak_rss();
        let (mut solve, check) = match case.workload {
            Workload::Dist2Rank => distributed_op(case, trace),
            _ => sequential_op(case, trace),
        };
        solve.peak_rss_mib = host::peak_rss_mib().unwrap_or(0.0);
        (solve, check)
    };
    let team = match case.workload {
        Workload::Dist2Rank => 2,
        _ => case.nks.krylov.par.nthreads(),
    };
    let mut probe = (!opts.trace).then(host::SpeedProbe::new);
    // Per batch: median probe seconds on one thread and on the solve's
    // team, and median setup seconds.
    let mut batches: Vec<(f64, f64, f64)> = Vec::new();
    let mut plain: Vec<Solve> = Vec::new();
    let mut traced: Vec<Solve> = Vec::new();
    loop {
        let case = &meshes[(plain.len() + traced.len()) % meshes.len()];
        if let Some(p) = probe.as_mut() {
            let (one, on_team) = probe_batch(p, team);
            let setups: Vec<f64> = (0..SETUP_REPS_PER_OP).map(|_| setup_once(case)).collect();
            batches.push((one, on_team, median(&setups)));
        }
        let trace = opts.trace && traced.len() < plain.len();
        let (solve, check) = op(case, trace);
        let counts = (case.seed, solve.steps, solve.linear_iters);
        tally(rep, "solve", check, Some(counts));
        if trace {
            traced.push(solve);
        } else {
            plain.push(solve);
        }
        let enough = if opts.trace {
            plain.len() >= MIN_TRACED && traced.len() >= MIN_TRACED
        } else {
            plain.len() >= MIN_OPS
        };
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    let solves: Vec<f64> = plain.iter().map(|s| s.solve_s).collect();
    rep.lines.push(format!("solve seconds {solves:.3?}"));
    if let Some(p) = probe.as_mut() {
        // Each setup batch is scaled by the probes just before it, each
        // solve by the mean of the probe batches before and after it.
        let (_, last_on_team) = probe_batch(p, team);
        let setup_scales: Vec<f64> = batches
            .iter()
            .map(|b| host::SpeedProbe::scale(1, b.0))
            .collect();
        let solve_scales: Vec<f64> = (0..solves.len())
            .map(|i| {
                let after = batches.get(i + 1).map_or(last_on_team, |b| b.1);
                host::SpeedProbe::scale(team, 0.5 * (batches[i].1 + after))
            })
            .collect();
        let setups: Vec<f64> = batches.iter().map(|b| b.2).collect();
        let scaled = |xs: &[f64], scales: &[f64]| -> f64 {
            median(
                &xs.iter()
                    .zip(scales)
                    .map(|(x, s)| x * s)
                    .collect::<Vec<_>>(),
            )
        };
        rep.lines.push(format!(
            "wall medians: solve {:.4} s  setup {:.6} s;  median scale to the reference \
             probe {:?} s: solve x{:.4} ({team} thread(s))  setup x{:.4}",
            median(&solves),
            median(&setups),
            host::PROBE_REFERENCE_S,
            median(&solve_scales),
            median(&setup_scales),
        ));
        // The peak leaves out the probe's own field.
        let peaks: Vec<f64> = plain
            .iter()
            .map(|s| s.peak_rss_mib - p.resident_mib())
            .collect();
        push_end_to_end(
            rep,
            scaled(&solves, &solve_scales),
            scaled(&setups, &setup_scales),
            median(&peaks),
        );
    }
    Measured {
        plain: solves,
        traced,
        serve: None,
    }
}

/// Median seconds of [`PROBES_PER_OP`] speed probes on one thread and on
/// `team` threads (the same figure when `team` is 1).
fn probe_batch(p: &mut host::SpeedProbe, team: usize) -> (f64, f64) {
    let mut run = |threads: usize| {
        median(
            &(0..PROBES_PER_OP)
                .map(|_| p.time_once(threads))
                .collect::<Vec<_>>(),
        )
    };
    let one = run(1);
    let on_team = if team > 1 { run(team) } else { one };
    (one, on_team)
}

/// The end-to-end metrics every workload reports.
fn push_end_to_end(rep: &mut Report, tts: f64, setup: f64, peak_rss: f64) {
    rep.push("time_to_solution_s", tts, "s");
    rep.push("setup_s", setup, "s");
    rep.push("peak_rss_mib", peak_rss, "MiB");
}

/// The serving workload: cold family setup (timed several times), one
/// cold request, then a closed loop of two clients against a two-worker
/// engine until the deadline.  Every response must match the fingerprint
/// of the uncached `direct_solve`.
fn run_serve(case: &Case, opts: &RunOptions, deadline: Instant, rep: &mut Report) -> Measured {
    let scenario = ScenarioClass {
        mesh: case.spec,
        model: case.model,
        layout: case.layout,
        order: SpatialOrder::First,
    };
    let (setups, family) =
        replay::family_setup(&case.spec, case.model, case.layout, &case.nks, SETUP_REPS);
    let setup_s = median(&setups.iter().map(|s| s.0 + s.1).collect::<Vec<_>>());

    let (direct, q_direct) = direct_solve(&scenario, &case.nks);
    let expect = solution_fingerprint(&q_direct);
    let verify = |resp: &SolveResponse| -> Result<(), String> {
        check_history(&resp.history)?;
        if resp.solution_fingerprint != expect {
            return Err("solution differs from direct_solve".into());
        }
        case.check_force(wall_force(family.mesh(), case.model, &resp.solution))
    };
    if let Err(e) = check_history(&direct) {
        rep.defects.push(format!("direct_solve reference: {e}"));
    }

    let engine = Engine::start(&EngineConfig {
        workers: 2,
        solver_threads: 1,
        ..EngineConfig::default()
    });
    // An aborted solve still carries its history, which `verify` rejects.
    let submit = || -> Result<SolveResponse, String> {
        let handle = engine
            .submit(&scenario, &case.nks)
            .map_err(|e| e.to_string())?;
        handle
            .wait()
            .response()
            .ok_or_else(|| "request shed".into())
    };
    // The cold request builds the engine's family state; it is checked but
    // not timed.
    match submit() {
        Ok(r) => tally(
            rep,
            "cold request",
            verify(&r),
            Some(counts(case.seed, &r.history)),
        ),
        Err(e) => tally(rep, "cold request", Err(e), None),
    }

    let loop_end = if opts.trace {
        Instant::now() + deadline.saturating_duration_since(Instant::now()) / 2
    } else {
        deadline
    };
    host::reset_peak_rss();
    let t_loop = Instant::now();
    let results: Vec<(f64, Result<SolveResponse, String>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..SERVE_CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while out.len() < MIN_OPS || Instant::now() < loop_end {
                        let t0 = Instant::now();
                        let r = submit();
                        out.push((t0.elapsed().as_secs_f64(), r));
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    let window = t_loop.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_mib().unwrap_or(0.0);
    let stats = engine.shutdown();

    let mut latencies = Vec::new();
    let mut responses = Vec::new();
    for (lat, r) in results {
        latencies.push(lat);
        match r {
            Ok(resp) => {
                tally(
                    rep,
                    "request",
                    verify(&resp),
                    Some(counts(case.seed, &resp.history)),
                );
                responses.push(resp);
            }
            Err(e) => tally(rep, "request", Err(e), None),
        }
    }
    if responses.is_empty() {
        rep.defects.push("no request was answered".into());
        return Measured {
            plain: vec![f64::NAN],
            traced: Vec::new(),
            serve: None,
        };
    }
    let sum = |f: &dyn Fn(&SolveResponse) -> f64| responses.iter().map(f).sum::<f64>();
    let n = responses.len() as f64;
    let solve_times: Vec<f64> = responses.iter().map(|r| r.t_solve_s).collect();
    let serve = ServeLayers {
        service_s: median(
            &responses
                .iter()
                .map(|r| r.latency_s - r.t_queue_s)
                .collect::<Vec<_>>(),
        ),
        queue_wait_frac: sum(&|r| r.t_queue_s) / sum(&|r| r.latency_s),
        cache_hit_rate: responses.iter().filter(|r| r.cache_hit).count() as f64 / n,
        batched_frac: responses.iter().filter(|r| r.batch_size > 1).count() as f64 / n,
        queue_max_depth: stats.queue.max_depth as f64,
        rejected: stats.queue.rejected,
    };
    rep.lines.push(format!(
        "served {} requests in {window:.3} s  ({} batches, {} rejected)",
        latencies.len(),
        stats.batches,
        stats.queue.rejected
    ));
    if !opts.trace {
        push_end_to_end(rep, median(&solve_times), setup_s, peak_rss);
        // Serving metrics of the closed loop, printed by this workload only.
        rep.push(
            "throughput_solves_per_s",
            latencies.len() as f64 / window,
            "1/s",
        );
        rep.push("latency_p50_s", percentile(&latencies, 50.0), "s");
        rep.push("latency_p90_s", percentile(&latencies, 90.0), "s");
        return Measured {
            plain: solve_times,
            traced: Vec::new(),
            serve: Some(serve),
        };
    }

    // Traced: the ledger of one served solve, replayed on the family's
    // shared state and warm-start templates exactly as a worker runs it.
    let warm = family.warm_start(&case.nks);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while traced.len() < MIN_TRACED || Instant::now() < deadline {
        let trace = traced.len() < plain.len();
        let (solve, check) = solve_on(case, family.mesh(), &warm, trace);
        tally(
            rep,
            "replayed solve",
            check,
            Some((case.seed, solve.steps, solve.linear_iters)),
        );
        if trace {
            traced.push(solve);
        } else {
            plain.push(solve.solve_s);
        }
    }
    Measured {
        plain,
        traced,
        serve: Some(serve),
    }
}

/// The per-layer metrics of a traced run.
fn push_layers(case: &Case, m: &Measured, rep: &mut Report) {
    let llc = host::llc_bytes();
    // The smoke-test size keeps the anchor cheap; its figure is cache-bound.
    let stream_elems = match case.size {
        Size::Full => host::stream_elems(llc),
        Size::Tiny => 1 << 20,
    };
    let stream_gbps = host::stream_triad_gbps(stream_elems);
    let pick = median_index(&m.traced.iter().map(|s| s.solve_s).collect::<Vec<_>>());
    let solve = &m.traced[pick];
    let ledger = solve
        .ledger
        .as_ref()
        .expect("traced solve carries a ledger");
    let setup = replay::setup_calls(&case.spec, case.model, case.layout, &case.nks, case.seed);
    let kernels = kernel_replay(case, solve);

    rep.push("host.stream_triad_gbps", stream_gbps, "GB/s");
    rep.push("host.llc_bytes", llc.unwrap_or(0) as f64, "bytes");
    rep.push("host.hw_threads", host::hw_threads() as f64, "count");
    rep.push("host.working_set_bytes", kernels.working_set_bytes, "bytes");

    rep.push("mesh.generate_s", setup.generate_s, "s");
    rep.push("mesh.reorder_s", setup.reorder_s, "s");
    rep.push("euler.discretize_s", setup.discretize_s, "s");
    rep.push("partition.kway_s", setup.partition_kway_s, "s");
    rep.push("comm.scatter_plan_s", setup.scatter_plan_s, "s");
    rep.push("serve.family_build_s", setup.family_build_s, "s");
    rep.push("serve.warm_start_s", setup.warm_start_s, "s");

    rep.push("ledger.wall_s", ledger.wall_s, "s");
    rep.push(
        "euler.residual_calls",
        ledger.residual.calls as f64,
        "count",
    );
    rep.push("euler.residual_s", ledger.residual.seconds, "s");
    rep.push("euler.residual_gbps", ledger.residual_gbps(), "GB/s");
    rep.push(
        "euler.jacobian_calls",
        ledger.jacobian.calls as f64,
        "count",
    );
    rep.push("euler.jacobian_s", ledger.jacobian.seconds, "s");
    rep.push("solver.precond_s", ledger.precond_s, "s");
    rep.push("solver.krylov_s", ledger.krylov_s, "s");
    rep.push("solver.unattributed_s", ledger.unattributed_s(), "s");
    rep.push("solver.newton_steps", ledger.newton_steps as f64, "count");
    rep.push("solver.linear_iters", ledger.linear_iters as f64, "count");
    rep.push(
        "solver.time_per_step_s",
        ledger.wall_s / ledger.newton_steps.max(1) as f64,
        "s",
    );
    let overhead =
        median(&m.traced.iter().map(|s| s.solve_s).collect::<Vec<_>>()) / median(&m.plain) - 1.0;
    rep.push("trace_overhead_frac", overhead, "ratio");

    rep.push("sparse.ilu_factor_s", kernels.ilu_factor_s, "s");
    rep.push("sparse.ilu_refactor_s", kernels.ilu_refactor_s, "s");
    rep.push("sparse.block_ilu_factor_s", kernels.block_ilu_factor_s, "s");
    rep.push("sparse.bcsr_from_csr_s", kernels.bcsr_from_csr_s, "s");
    rep.push("sparse.bcsr_refill_s", kernels.bcsr_refill_s, "s");
    rep.push("sparse.spmv_bcsr_s", kernels.spmv_bcsr_s, "s");
    let spmv_gbps = kernels.spmv_bcsr_bytes / kernels.spmv_bcsr_s / 1e9;
    rep.push("sparse.spmv_bcsr_gbps", spmv_gbps, "GB/s");
    rep.push(
        "sparse.spmv_bcsr_stream_frac",
        spmv_gbps / stream_gbps,
        "ratio",
    );
    rep.push("sparse.ilu_solve_s", kernels.ilu_solve_s, "s");
    let ilu_gbps = kernels.ilu_solve_bytes / kernels.ilu_solve_s / 1e9;
    rep.push("sparse.ilu_solve_gbps", ilu_gbps, "GB/s");
    rep.push(
        "sparse.ilu_solve_stream_frac",
        ilu_gbps / stream_gbps,
        "ratio",
    );
    rep.push("solver.gmres_apply_s", kernels.gmres_apply_s, "s");
    rep.push("solver.gmres_precond_s", kernels.gmres_precond_s, "s");
    rep.push("solver.gmres_orth_s", kernels.gmres_orth_s, "s");

    rep.push("comm.scatter_s", setup.scatter_s, "s");
    rep.push("comm.allreduce_s", setup.allreduce_s, "s");
    rep.push("comm.frac", ledger.comm_s / ledger.wall_s, "ratio");
    rep.push("dist.rank_imbalance", ledger.rank_imbalance, "ratio");

    // Serving metrics; a solving workload is a server of one request at a
    // time with no queue, no cache and no batching.
    let serve = m.serve.as_ref();
    let op_s = median(&m.plain);
    rep.push("serve.service_s", serve.map_or(op_s, |s| s.service_s), "s");
    rep.push(
        "serve.queue_wait_frac",
        serve.map_or(0.0, |s| s.queue_wait_frac),
        "ratio",
    );
    rep.push(
        "serve.cache_hit_rate",
        serve.map_or(0.0, |s| s.cache_hit_rate),
        "ratio",
    );
    rep.push(
        "serve.batched_frac",
        serve.map_or(0.0, |s| s.batched_frac),
        "ratio",
    );
    rep.push(
        "serve.queue_max_depth",
        serve.map_or(0.0, |s| s.queue_max_depth),
        "count",
    );

    rep.lines.push(format!(
        "ledger of the median traced solve ({} of {} traced):",
        pick + 1,
        m.traced.len()
    ));
    rep.lines.extend(ledger.render());
    if let Some(s) = serve {
        rep.lines
            .push(format!("serve rejected requests {}", s.rejected));
    }
    rep.lines.push(format!(
        "host: STREAM triad {stream_gbps:.2} GB/s over {} MiB arrays, LLC {} MiB, {} hw threads, \
         working set {:.1} MiB",
        (stream_elems * 8) >> 20,
        llc.unwrap_or(0) >> 20,
        host::hw_threads(),
        kernels.working_set_bytes / (1u64 << 20) as f64
    ));
    if let Some(d) = ledger.defect(MAX_UNATTRIBUTED) {
        rep.defects.push(d);
    }
    rep.ledger = Some(ledger.clone());
}

/// Replay the kernels on the final shifted Jacobian of `solve`, with the
/// workload's own problem, preconditioner options and thread team.
fn kernel_replay(case: &Case, solve: &Solve) -> KernelCalls {
    let mesh = case.build_mesh();
    let disc = Discretization::new(
        &mesh,
        case.model,
        case.layout.field_layout(),
        SpatialOrder::First,
    );
    let problem = EulerProblem::new(disc);
    assert_eq!(problem.n(), solve.q.len());
    replay::kernel_calls(&KernelInput {
        problem: &problem,
        q: &solve.q,
        cfl: solve.last_cfl,
        block: case.model.ncomp(),
        ilu: case.ilu,
        op: case.op,
        krylov: case.nks.krylov,
        nedges: mesh.nedges(),
        nverts: mesh.nverts(),
    })
}
