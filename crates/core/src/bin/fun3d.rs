//! `fun3d` — the command-line solver, in the spirit of the original
//! PETSc-FUN3D executable and its runtime options.
//!
//! ```sh
//! fun3d --vertices 20000 --model incompressible --cfl0 10 --ilu 1 \
//!       --subdomains 8 --overlap 0 --order 2 --vtk flow.vtk
//! ```
//!
//! Prints a PETSc-style run summary: mesh statistics, per-step convergence,
//! phase timings, and (optionally) writes the flow field for ParaView.

use fun3d_core::config::{apply_orderings, LayoutConfig};
use fun3d_core::output::write_vtk_file;
use fun3d_core::problem::EulerProblem;
use fun3d_euler::field::FieldVec;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_mesh::metrics::{mesh_quality, ordering_metrics};
use fun3d_partition::partition_kway;
use fun3d_solver::gmres::GmresOptions;
use fun3d_solver::pseudo::{solve_pseudo_transient, Forcing, PrecondSpec, PseudoTransientOptions};
use fun3d_sparse::ilu::IluOptions;

struct Options {
    vertices: usize,
    model: FlowModel,
    order: SpatialOrder,
    cfl0: f64,
    cfl_exponent: f64,
    max_steps: usize,
    rtol: f64,
    reduction: f64,
    restart: usize,
    ilu_fill: usize,
    subdomains: usize,
    overlap: usize,
    matrix_free: bool,
    blocked: bool,
    second_order_switch: Option<f64>,
    viscosity: f64,
    vtk: Option<String>,
    quiet: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            vertices: 10_000,
            model: FlowModel::incompressible(),
            order: SpatialOrder::First,
            cfl0: 5.0,
            cfl_exponent: 1.2,
            max_steps: 100,
            rtol: 1e-2,
            reduction: 1e-10,
            restart: 20,
            ilu_fill: 1,
            subdomains: 1,
            overlap: 0,
            matrix_free: false,
            blocked: true,
            second_order_switch: None,
            viscosity: 0.0,
            vtk: None,
            quiet: false,
        }
    }
}

const USAGE: &str = "\
fun3d — pseudo-transient Newton-Krylov-Schwarz Euler solver

Options (PETSc-FUN3D style):
  --vertices <n>       target mesh size                      [10000]
  --model <m>          incompressible | compressible         [incompressible]
  --order <1|2|2lim>   spatial order (2lim = limited MUSCL)  [1]
  --order-switch <r>   switch 1st->2nd order at reduction r
  --cfl0 <v>           initial CFL number                    [5]
  --cfl-exponent <p>   SER power-law exponent                [1.2]
  --max-steps <n>      pseudo-timestep limit                 [100]
  --rtol <v>           inner (Krylov) relative tolerance     [1e-2]
  --reduction <v>      outer residual reduction target       [1e-10]
  --restart <m>        GMRES restart dimension               [20]
  --ilu <k>            ILU fill level (a blocked or matrix-  [1]
                       free ILU(0) run factors on the
                       Jacobian's vertex blocks)
  --subdomains <n>     Schwarz subdomain count (1 = global)  [1]
  --overlap <d>        Schwarz overlap                       [0]
  --viscosity <mu>     laminar viscosity (0 = Euler)         [0]
  --matrix-free        matrix-free Jacobian-vector products
  --no-blocking        disable BCSR structural blocking
  --vtk <path>         write the converged field (legacy VTK)
  --quiet              suppress per-step output
  --help               this text
";

fn parse_args() -> Options {
    let mut o = Options::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| {
                eprintln!("missing value for {}", args[*i - 1]);
                std::process::exit(2);
            })
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--vertices" => o.vertices = value(&mut i).parse().expect("--vertices"),
            "--model" => {
                o.model = match value(&mut i).as_str() {
                    "incompressible" => FlowModel::incompressible(),
                    "compressible" => FlowModel::compressible(),
                    other => {
                        eprintln!("unknown model {other}");
                        std::process::exit(2);
                    }
                }
            }
            "--order" => {
                o.order = match value(&mut i).as_str() {
                    "1" => SpatialOrder::First,
                    "2" => SpatialOrder::Second,
                    "2lim" => SpatialOrder::SecondLimited,
                    other => {
                        eprintln!("unknown order {other}");
                        std::process::exit(2);
                    }
                }
            }
            "--order-switch" => {
                o.second_order_switch = Some(value(&mut i).parse().expect("--order-switch"))
            }
            "--cfl0" => o.cfl0 = value(&mut i).parse().expect("--cfl0"),
            "--cfl-exponent" => o.cfl_exponent = value(&mut i).parse().expect("--cfl-exponent"),
            "--max-steps" => o.max_steps = value(&mut i).parse().expect("--max-steps"),
            "--rtol" => o.rtol = value(&mut i).parse().expect("--rtol"),
            "--reduction" => o.reduction = value(&mut i).parse().expect("--reduction"),
            "--restart" => o.restart = value(&mut i).parse().expect("--restart"),
            "--ilu" => o.ilu_fill = value(&mut i).parse().expect("--ilu"),
            "--subdomains" => o.subdomains = value(&mut i).parse().expect("--subdomains"),
            "--overlap" => o.overlap = value(&mut i).parse().expect("--overlap"),
            "--viscosity" => o.viscosity = value(&mut i).parse().expect("--viscosity"),
            "--matrix-free" => o.matrix_free = true,
            "--no-blocking" => o.blocked = false,
            "--vtk" => o.vtk = Some(value(&mut i)),
            "--quiet" => o.quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    o
}

fn main() {
    let o = parse_args();
    let ncomp = o.model.ncomp();

    // --- Mesh ---
    let spec = BumpChannelSpec::with_target_vertices(o.vertices);
    let layout_cfg = LayoutConfig::tuned();
    let mesh = apply_orderings(
        spec.build(),
        layout_cfg.vertex_ordering,
        layout_cfg.edge_ordering,
    );
    let quality = mesh_quality(&mesh);
    let g = mesh.vertex_graph();
    let id: Vec<usize> = (0..g.n()).collect();
    let om = ordering_metrics(&g, &id);
    println!(
        "mesh: {} vertices, {} tets, {} edges",
        mesh.nverts(),
        mesh.ntets(),
        mesh.nedges()
    );
    println!(
        "      bandwidth {} | mean wavefront {:.0} | mean degree {:.1} | min tet volume {:.2e}",
        om.bandwidth, om.mean_wavefront, quality.mean_degree, quality.min_volume
    );
    println!(
        "model: {} ({} unknowns/vertex, {} total), order {:?}{}",
        if ncomp == 4 {
            "incompressible Euler"
        } else {
            "compressible Euler"
        },
        ncomp,
        mesh.nverts() * ncomp,
        o.order,
        if o.viscosity > 0.0 { " + viscous" } else { "" },
    );

    // --- Preconditioner spec ---
    let ilu = IluOptions::with_fill(o.ilu_fill);
    let precond = if o.subdomains > 1 {
        let part = partition_kway(&g, o.subdomains, 7);
        let mut owned_sets: Vec<Vec<usize>> = vec![Vec::new(); o.subdomains];
        for (v, &p) in part.part.iter().enumerate() {
            for c in 0..ncomp {
                owned_sets[p as usize].push(v * ncomp + c);
            }
        }
        println!(
            "preconditioner: RASM, {} subdomains, overlap {}, ILU({})",
            o.subdomains, o.overlap, o.ilu_fill
        );
        PrecondSpec::Schwarz {
            owned_sets,
            overlap: o.overlap,
            ilu,
            restricted: true,
        }
    } else {
        PrecondSpec::Ilu(ilu)
    };

    // --- Solve ---
    let mut disc = Discretization::new(&mesh, o.model, layout_cfg.field_layout(), o.order);
    if o.viscosity > 0.0 {
        disc = disc.with_viscosity(o.viscosity);
    }
    let mut problem = EulerProblem::new(disc);
    let mut q = problem.initial_state();
    let opts = PseudoTransientOptions {
        cfl0: o.cfl0,
        cfl_exponent: o.cfl_exponent,
        cfl_max: 1e6,
        max_steps: o.max_steps,
        target_reduction: o.reduction,
        krylov: GmresOptions {
            restart: o.restart,
            rtol: o.rtol,
            max_iters: 10 * o.restart,
            ..Default::default()
        },
        precond,
        second_order_switch: o.second_order_switch,
        matrix_free: o.matrix_free,
        line_search: true,
        bcsr_block: if o.blocked && o.subdomains <= 1 {
            Some(ncomp)
        } else {
            None
        },
        forcing: Forcing::Constant,
        pc_refresh: 1,
    };
    if o.subdomains <= 1 {
        // The solver's own rule, on the pattern its Jacobians will share.
        match opts.block_ilu(problem.discretization().jacobian_pattern().block_size()) {
            Some(b) => println!("preconditioner: global block-ILU(0), b = {b}"),
            None => println!("preconditioner: global ILU({})", o.ilu_fill),
        }
    }
    let t0 = std::time::Instant::now();
    let history = solve_pseudo_transient(&mut problem, &mut q, &opts);
    let wall = t0.elapsed().as_secs_f64();

    if !o.quiet {
        for s in &history.steps {
            println!(
                "  {:4}  CFL {:9.3e}  |R| {:12.6e}  lin {:4}  alpha {:.2}",
                s.step, s.cfl, s.residual_norm, s.linear_iters, s.step_length
            );
        }
    }
    let phases = history.phases();
    println!("---");
    println!(
        "{} in {} steps, {} linear iterations, {:.3}s wall",
        if history.converged {
            "CONVERGED"
        } else {
            "NOT CONVERGED"
        },
        history.nsteps(),
        history.total_linear_iters(),
        wall
    );
    println!(
        "residual {:.3e} -> {:.3e} (reduction {:.2e})",
        history.initial_residual,
        history.final_residual,
        history.reduction()
    );
    println!(
        "phases: residual {:.2}s | jacobian {:.2}s | preconditioner {:.2}s | krylov {:.2}s",
        phases.residual, phases.jacobian, phases.precond, phases.krylov
    );

    // --- Forces & output ---
    let field = FieldVec::from_vec(q, mesh.nverts(), ncomp, layout_cfg.field_layout());
    let disc = Discretization::new(&mesh, o.model, layout_cfg.field_layout(), o.order);
    let f = disc.wall_forces(&field);
    println!(
        "wall pressure force: [{:+.5e}, {:+.5e}, {:+.5e}]",
        f[0], f[1], f[2]
    );
    if let Some(path) = &o.vtk {
        write_vtk_file(std::path::Path::new(path), &mesh, Some((&field, &o.model)))
            .expect("VTK write failed");
        println!("wrote {path}");
    }
    if !history.converged {
        std::process::exit(1);
    }
}
