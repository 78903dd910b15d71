//! **Table 5**: using a node's second processor on the flux evaluation
//! phase — shared-memory threads (OpenMP analogue) vs a second MPI process
//! per node.
//!
//! Two things are *measured* on the host: the real speedup of the edge-loop
//! flux kernel on a 2-thread [`ParCtx`] using the paper's private-array +
//! gather reduction, and the same work split as two subdomain "processes"
//! (cut edges duplicated — the redundant work that grows with subdomain
//! count).  The machine-model extrapolation then reproduces the paper's
//! node counts.

use crate::{perturbed_state, say, time_median, BenchArgs, Experiment, RunOutcome};
use fun3d_euler::field::FieldVec;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder, VertexStates};
use fun3d_memmodel::machine::MachineSpec;
use fun3d_mesh::generator::MeshFamily;
use fun3d_partition::partition_kway;
use fun3d_sparse::layout::FieldLayout;
use fun3d_sparse::par::ParCtx;

/// `table5` as a harness experiment.
pub struct Table5;

impl Experiment for Table5 {
    fn name(&self) -> &'static str {
        "table5"
    }
    fn description(&self) -> &'static str {
        "hybrid MPI/OpenMP vs pure MPI on the flux phase"
    }
    fn default_scale(&self) -> f64 {
        0.02
    }
    fn run(&self, args: &BenchArgs) -> RunOutcome {
        run(args)
    }
}

/// The hybrid row's flux evaluation into `res`: each thread of `ctx` runs
/// [`Discretization::edge_flux_residual`] over its static chunk of the
/// edges into a private array, and the private arrays are then added into
/// the zeroed `res` in ascending thread order — the OpenMP private-array
/// scheme of Section 2.5, whose gather is one extra residual sweep per
/// thread.  Deterministic for a fixed thread count; it matches the
/// one-thread edge loop to rounding.
fn hybrid_flux(disc: &Discretization, states: &VertexStates, ctx: &ParCtx, res: &mut FieldVec) {
    let privates = ctx.map_chunks("hybrid_flux", disc.mesh().nedges(), |_, range| {
        let mut local = FieldVec::zeros(disc.mesh().nverts(), disc.ncomp(), disc.layout());
        disc.edge_flux_residual(states, &mut local, range);
        local
    });
    let res = res.as_mut_slice();
    res.iter_mut().for_each(|x| *x = 0.0);
    for private in &privates {
        for (r, p) in res.iter_mut().zip(private.as_slice()) {
            *r += p;
        }
    }
}

/// Regenerate Table 5 once.
pub fn run(args: &BenchArgs) -> RunOutcome {
    let spec = args.family_spec(MeshFamily::Large);
    let mesh = spec.build();
    say!(
        args,
        "Table 5 regenerator: {} vertices, {} edges (paper: 2.8M vertices; scale {:.3}), flux phase only",
        mesh.nverts(),
        mesh.nedges(),
        args.scale
    );
    let disc = Discretization::new(
        &mesh,
        FlowModel::incompressible(),
        FieldLayout::Interlaced,
        SpatialOrder::First,
    );
    let q = perturbed_state(&disc, 0.01);
    let nedges = mesh.nedges();

    // Every flux evaluation below runs the vertex pass once, before any
    // edge range, and shares its states across ranges and threads.
    let mut ws = disc.workspace();

    // --- Real measurement: 1 thread ---
    let mut res = FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced);
    let t1 = time_median(5, || {
        res.as_mut_slice().iter_mut().for_each(|x| *x = 0.0);
        let states = disc.vertex_states(&q, &mut ws);
        disc.edge_flux_residual(&states, &mut res, 0..nedges);
    });

    // --- Real measurement: 2 threads, private arrays + gather (OpenMP) ---
    let ctx = ParCtx::new(2);
    let t2_omp = time_median(5, || {
        let states = disc.vertex_states(&q, &mut ws);
        hybrid_flux(&disc, &states, &ctx, &mut res);
    });

    // --- Real measurement: 2 "MPI processes" (edge split by subdomain,
    // cut edges computed by both sides — the duplicated interface work) ---
    let graph = mesh.vertex_graph();
    let part2 = partition_kway(&graph, 2, 1);
    // Edge lists per process: all edges with at least one owned endpoint.
    let mut proc_edges: Vec<Vec<usize>> = vec![Vec::new(); 2];
    let mut duplicated = 0usize;
    for (e, &[a, b]) in mesh.edges().iter().enumerate() {
        let (pa, pb) = (part2.part[a as usize], part2.part[b as usize]);
        proc_edges[pa as usize].push(e);
        if pb != pa {
            proc_edges[pb as usize].push(e);
            duplicated += 1;
        }
    }
    // Each process owns one residual array for the whole measurement and
    // zeroes it per evaluation, as the one-thread row does.
    let mut proc_res: Vec<FieldVec> = (0..2)
        .map(|_| FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced))
        .collect();
    let t2_mpi = time_median(5, || {
        let states = disc.vertex_states(&q, &mut ws);
        std::thread::scope(|scope| {
            for (edges, local) in proc_edges.iter().zip(&mut proc_res) {
                let disc = &disc;
                let states = &states;
                scope.spawn(move || {
                    local.as_mut_slice().iter_mut().for_each(|x| *x = 0.0);
                    // Runs of consecutive edge indices are batched so the
                    // kernel call overhead stays negligible.
                    let mut i = 0usize;
                    while i < edges.len() {
                        let start = edges[i];
                        let mut j = i + 1;
                        while j < edges.len() && edges[j] == edges[j - 1] + 1 {
                            j += 1;
                        }
                        disc.edge_flux_residual(states, local, start..edges[j - 1] + 1);
                        i = j;
                    }
                    std::hint::black_box(&local);
                });
            }
        });
    });
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    say!(
        args,
        "\nHost measurements of one flux evaluation ({host_cpus} host CPU(s) available —"
    );
    say!(
        args,
        "with a single CPU the threaded variants cannot show real speedup; the"
    );
    say!(
        args,
        "measurement then only exposes the private-array/duplication overheads):"
    );
    say!(args, "  1 thread:            {:.1} ms", t1 * 1e3);
    say!(
        args,
        "  2 threads (hybrid):  {:.1} ms  (speedup {:.2}x; includes the private-array gather)",
        t2_omp * 1e3,
        t1 / t2_omp
    );
    say!(
        args,
        "  2 processes (MPI):   {:.1} ms  (speedup {:.2}x; {:.1}% of edges duplicated at the cut)",
        t2_mpi * 1e3,
        t1 / t2_mpi,
        100.0 * duplicated as f64 / nedges as f64
    );

    // --- Extrapolation to the paper's node counts on the Red model ---
    // Flux work per node: edges/nodes; MPI-2 doubles the subdomain count,
    // which multiplies the duplicated interface work (surface/volume law);
    // the hybrid pays the gather (one extra residual-array sweep per eval).
    let machine = MachineSpec::asci_red();
    let shape_edges = 7.0 * 2.8e6f64;
    let flux_flops_per_edge = 400.0;
    let eff = 0.13;
    // Interface fraction at s subdomains of N vertices (edges cut / total).
    let cut_fraction =
        |s: f64| (2.7 * s.powf(0.47) * 2.8e6f64.powf(2.0 / 3.0) / shape_edges).min(0.5);
    let mut rows = Vec::new();
    for &nodes in &[256usize, 2560, 3072] {
        let per_cpu_flops = |subdomains: f64, cpus: f64| {
            shape_edges * (1.0 + cut_fraction(subdomains)) * flux_flops_per_edge / cpus
        };
        let peak = machine.peak_flops_per_cpu() * eff;
        let t_1 = per_cpu_flops(nodes as f64, nodes as f64) / peak;
        // Hybrid: 2 threads split the node's edges; gather adds a residual
        // sweep (bandwidth bound) per evaluation.
        let gather = 2.8e6 * 4.0 * 8.0 * 2.0 / nodes as f64 / machine.stream_bytes_per_s;
        let t_omp = per_cpu_flops(nodes as f64, 2.0 * nodes as f64) / peak + gather;
        // MPI x2: twice the subdomains, so (a) more duplicated interface
        // work per evaluation and (b) more evaluations overall, because the
        // convergence of the NKS iteration degrades with subdomain count
        // (the its(p) growth law of Table 3).
        let its_growth = 2.0f64.powf(0.133);
        let t_mpi = per_cpu_flops(2.0 * nodes as f64, 2.0 * nodes as f64) / peak * its_growth;
        // The paper's numbers cover all function evaluations of the run;
        // calibrate the evaluation count to the 456 s MPI-1p figure at 256.
        let evals = 456.0 / (per_cpu_flops(256.0, 256.0) / peak);
        rows.push(vec![
            nodes.to_string(),
            format!("{:.0}s", evals * t_1),
            format!("{:.0}s", evals * t_omp),
            format!("{:.0}s", evals * t_1),
            format!("{:.0}s", evals * t_mpi),
        ]);
    }
    args.table(
        "Table 5: flux-evaluation time, hybrid MPI/OpenMP vs pure MPI (ASCI Red model)",
        &["Nodes", "Hybrid 1t", "Hybrid 2t", "MPI 1p", "MPI 2p"],
        &rows,
    );
    say!(
        args,
        "\nPaper: 256 nodes: 483/261 vs 456/258 (MPI slightly ahead); 2560: 76/39 vs 72/45"
    );
    say!(
        args,
        "and 3072: 66/33 vs 62/40 (hybrid ahead — doubling subdomains costs more at scale)."
    );

    let mut perf = fun3d_telemetry::report::PerfReport::new("table5")
        .with_meta("machine", "asci_red")
        .with_meta("nverts", mesh.nverts().to_string())
        .with_meta("nedges", nedges.to_string());
    args.annotate(&mut perf);
    perf.push_metric("flux_1thread_s", t1);
    perf.push_metric("flux_2thread_omp_s", t2_omp);
    perf.push_metric("flux_2proc_mpi_s", t2_mpi);
    perf.push_metric("omp_speedup", t1 / t2_omp);
    perf.push_metric("mpi_speedup", t1 / t2_mpi);
    perf.push_metric("cut_edge_fraction", duplicated as f64 / nedges as f64);
    perf.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_mesh::generator::BumpChannelSpec;

    /// The hybrid flux is the per-thread chunks summed in ascending thread
    /// order, bit for bit, and the one-thread edge loop to rounding — on a
    /// mesh large enough that the region really forks.
    #[test]
    fn hybrid_flux_is_the_ordered_sum_of_its_chunks() {
        let mesh = BumpChannelSpec::with_dims(14, 8, 8).build();
        let nedges = mesh.nedges();
        assert!(nedges >= 4096, "{nedges} edges do not fork");
        let disc = Discretization::new(
            &mesh,
            FlowModel::incompressible(),
            FieldLayout::Interlaced,
            SpatialOrder::First,
        );
        let q = perturbed_state(&disc, 0.01);
        let mut ws = disc.workspace();
        let states = disc.vertex_states(&q, &mut ws);
        let zeros = || FieldVec::zeros(mesh.nverts(), disc.ncomp(), disc.layout());
        let mut serial = zeros();
        disc.edge_flux_residual(&states, &mut serial, 0..nedges);
        let scale = serial.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let bits = |v: &FieldVec| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for nthreads in [2, 3] {
            let ctx = ParCtx::new(nthreads);
            let mut want = zeros();
            for t in 0..nthreads {
                let mut chunk = zeros();
                disc.edge_flux_residual(&states, &mut chunk, ctx.chunk(nedges, t));
                for (w, c) in want.as_mut_slice().iter_mut().zip(chunk.as_slice()) {
                    *w += c;
                }
            }
            let mut got = zeros();
            hybrid_flux(&disc, &states, &ctx, &mut got);
            assert!(
                bits(&got) == bits(&want),
                "nthreads={nthreads}: not the ordered sum"
            );
            for (g, s) in got.as_slice().iter().zip(serial.as_slice()) {
                assert!(
                    (g - s).abs() <= 1e-12 * scale,
                    "nthreads={nthreads}: {g} vs {s}"
                );
            }
        }
    }
}
