//! Figure 5 residual vs pseudo-timestep across CFL choices (`fun3d_bench::runners::figure5`).
//! Usage: `figure5 [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("figure5");
}
