//! **Table 3**: scalability bottlenecks on ASCI Red, 128 to 1024 nodes, for
//! the 2.8M-vertex mesh with block Jacobi / ILU(1): time, speedup, the
//! eta_overall = eta_alg * eta_impl decomposition, the percent time in
//! global reductions / implicit synchronizations / ghost scatters, the data
//! sent per time step, and the application-level effective bandwidth.
//!
//! Calibration is *measured* where the laptop allows: the iteration-growth
//! law its(p) comes from real block-Jacobi NKS linear solves at affordable
//! block counts (power-law fit), and the interface law from real partitions
//! of the mesh family.  Machine arithmetic comes from the ASCI Red model.

use crate::{representative_jacobian, say, BenchArgs, Experiment, RunOutcome};
use fun3d_core::efficiency::efficiency_from_reports;
use fun3d_core::scaling::{Calibration, FixedSizeModel, PowerLaw, ProblemShape};
use fun3d_euler::model::FlowModel;
use fun3d_memmodel::machine::MachineSpec;
use fun3d_mesh::generator::MeshFamily;
use fun3d_partition::partition_kway;
use fun3d_solver::gmres::{gmres, GmresOptions};
use fun3d_solver::op::CsrOperator;
use fun3d_solver::precond::AdditiveSchwarz;
use fun3d_sparse::ilu::IluOptions;
use fun3d_sparse::layout::FieldLayout;
use fun3d_telemetry::report::PerfReport;
use fun3d_telemetry::{Registry, TimeDomain};

/// `table3` as a harness experiment.
pub struct Table3;

impl Experiment for Table3 {
    fn name(&self) -> &'static str {
        "table3"
    }
    fn description(&self) -> &'static str {
        "efficiency decomposition + overhead percentages on the ASCI Red model"
    }
    fn default_scale(&self) -> f64 {
        0.008
    }
    fn run(&self, args: &BenchArgs) -> RunOutcome {
        run(args)
    }
}

/// Regenerate Table 3 once.
pub fn run(args: &BenchArgs) -> RunOutcome {
    let spec = args.family_spec(MeshFamily::Large);
    let mesh = spec.build();
    let ncomp = 4usize;
    say!(
        args,
        "Table 3 regenerator: calibrating on {} vertices, extrapolating to the 2.8M-vertex",
        mesh.nverts()
    );
    say!(args, "paper case on the ASCI Red model.\n");

    // --- Measure iteration growth with subdomain count (block Jacobi ILU(1)) ---
    let jac = representative_jacobian(
        &mesh,
        FlowModel::incompressible(),
        FieldLayout::Interlaced,
        50.0,
    );
    let n = jac.nrows();
    let rhs: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) / 3.0).collect();
    let graph = mesh.vertex_graph();
    let opts = GmresOptions {
        restart: 20,
        rtol: 1e-6,
        max_iters: 6000,
        ..Default::default()
    };
    let mut its_samples = Vec::new();
    for &p in &[4usize, 8, 16, 32] {
        let part = partition_kway(&graph, p, 3);
        let mut owned_sets: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (v, &pp) in part.part.iter().enumerate() {
            for c in 0..ncomp {
                owned_sets[pp as usize].push(v * ncomp + c);
            }
        }
        let pc =
            AdditiveSchwarz::block_jacobi(&jac, &owned_sets, &IluOptions::with_fill(1)).unwrap();
        let mut x = vec![0.0; n];
        let res = gmres(&CsrOperator::new(&jac), &pc, &rhs, &mut x, &opts);
        assert!(res.converged);
        its_samples.push((p as f64, res.iterations as f64));
        say!(
            args,
            "  measured: {p:3} blocks -> {} linear its",
            res.iterations
        );
    }
    let its_fit = PowerLaw::fit(&its_samples);
    say!(
        args,
        "  fitted iteration growth exponent: {:.3} (paper's Its column implies ~0.133)",
        its_fit.gamma
    );

    // --- Measure the interface (surface/volume) law from real partitions ---
    let mut iface_samples = Vec::new();
    for &p in &[8usize, 16, 32, 64] {
        let q = partition_kway(&graph, p, 5).quality(&graph);
        // interface = c * p^eta * N^(2/3): sample the left side.
        iface_samples.push((p as f64, q.interface_vertices as f64));
    }
    let iface_fit = PowerLaw::fit(&iface_samples);
    let nv = mesh.nverts() as f64;
    let c_interface = iface_fit.y0 / (iface_fit.p0.powf(iface_fit.gamma) * nv.powf(2.0 / 3.0));
    say!(
        args,
        "  fitted interface law: exponent {:.3}, coefficient {:.2}",
        iface_fit.gamma,
        c_interface
    );

    // --- Assemble the full-scale model ---
    let mut cal = Calibration::paper_defaults();
    cal.its = PowerLaw {
        y0: 22.0, // time steps at 128 (the paper's base point)
        p0: 128.0,
        gamma: its_fit.gamma.clamp(0.05, 0.3),
    };
    cal.interface_exponent = iface_fit.gamma.clamp(0.3, 0.6);
    let model = FixedSizeModel {
        machine: MachineSpec::asci_red(),
        shape: ProblemShape::large_euler(),
        cal,
    };

    let procs = [128usize, 256, 512, 768, 1024];
    let pts = model.series(&procs);
    // Route every model point through the telemetry schema: each becomes a
    // fun3d-perf/1 report whose simulated span tree carries the phase
    // breakdown, and the efficiency columns are derived by reading those
    // reports back (the same path a measured run takes).
    let reports: Vec<PerfReport> = pts
        .iter()
        .map(|p| {
            let reg = Registry::enabled(0);
            let frac = |pct: f64| pct / 100.0 * p.time;
            reg.record_span(
                "sim/compute",
                TimeDomain::Simulated,
                frac(100.0 - p.pct_reductions - p.pct_implicit_sync - p.pct_scatters),
                p.its.round() as u64,
            );
            reg.record_span(
                "sim/reduction",
                TimeDomain::Simulated,
                frac(p.pct_reductions),
                1,
            );
            reg.record_span(
                "sim/implicit_sync",
                TimeDomain::Simulated,
                frac(p.pct_implicit_sync),
                1,
            );
            reg.record_span(
                "sim/scatter",
                TimeDomain::Simulated,
                frac(p.pct_scatters),
                1,
            );
            reg.counter_at(
                "sim",
                TimeDomain::Simulated,
                "bytes_sent",
                p.scatter_bytes_per_it,
            );
            let mut r = PerfReport::new("table3")
                .with_meta("machine", "asci_red")
                .with_meta("nranks", p.nprocs.to_string())
                .with_snapshot(&reg.snapshot());
            args.annotate(&mut r);
            r.push_metric("nprocs", p.nprocs as f64);
            r.push_metric("linear_its", p.its.round());
            r.push_metric("time_s", p.time);
            r.push_metric("effective_bandwidth", p.effective_bandwidth);
            r
        })
        .collect();
    let eff = efficiency_from_reports(&reports);

    let rows: Vec<Vec<String>> = eff
        .iter()
        .map(|r| {
            vec![
                r.nprocs.to_string(),
                r.its.to_string(),
                format!("{:.0}s", r.time),
                format!("{:.2}", r.speedup),
                format!("{:.2}", r.eta_overall),
                format!("{:.2}", r.eta_alg),
                format!("{:.2}", r.eta_impl),
            ]
        })
        .collect();
    args.table(
        "Table 3a: efficiency decomposition (ASCI Red model, 2.8M vertices)",
        &[
            "Procs",
            "Its",
            "Time",
            "Speedup",
            "eta_overall",
            "eta_alg",
            "eta_impl",
        ],
        &rows,
    );
    say!(
        args,
        "\nPaper: its 22/24/26/27/29; time 2039/1144/638/441/362s; speedup 1.00/1.78/3.20/"
    );
    say!(
        args,
        "4.62/5.63; eta 1.00/0.89/0.80/0.77/0.70 = alg 1.00/0.92/0.85/0.81/0.76 x impl ~0.93-0.97."
    );

    // Table 3b is read back from the reports' simulated span trees, not the
    // model points: what you see is exactly what the record's report holds.
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let time = r.metric("time_s").unwrap();
            let pct = |path: &str| 100.0 * r.span(path).map_or(0.0, |s| s.total_s) / time;
            vec![
                r.metric("nprocs").unwrap().to_string(),
                format!("{:.0}", pct("sim/reduction")),
                format!("{:.0}", pct("sim/implicit_sync")),
                format!("{:.0}", pct("sim/scatter")),
                format!(
                    "{:.1}",
                    r.span("sim")
                        .and_then(|s| s.counter("bytes_sent"))
                        .unwrap_or(0.0)
                        / 1e9
                ),
                format!(
                    "{:.1}",
                    r.metric("effective_bandwidth").unwrap_or(0.0) / 1e6
                ),
            ]
        })
        .collect();
    args.table(
        "Table 3b: percent times and scatter scalability",
        &[
            "Procs",
            "Reductions %",
            "Impl. sync %",
            "Scatters %",
            "GB/step",
            "Eff. BW (MB/s/node)",
        ],
        &rows,
    );
    say!(
        args,
        "\nPaper: reductions 5/3/3/3/3%; implicit sync 4/6/7/8/10%; scatters 3/4/5/5/6%;"
    );
    say!(
        args,
        "data 2.0/2.8/4.0/4.6/5.3 GB; effective bandwidth 3.9/4.2/3.4/4.2/4.2 MB/s."
    );

    // Summary report: the largest-proc-count report, annotated with the
    // efficiency decomposition of the whole series.
    let mut summary = reports.last().expect("non-empty series").clone();
    for r in &eff {
        summary.push_metric(format!("eta_overall_p{}", r.nprocs), r.eta_overall);
        summary.push_metric(format!("eta_alg_p{}", r.nprocs), r.eta_alg);
        summary.push_metric(format!("eta_impl_p{}", r.nprocs), r.eta_impl);
    }
    summary.into()
}
