//! Figure 2 Gflop/s and time across the paper's machines (`fun3d_bench::runners::figure2`).
//! Usage: `figure2 [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("figure2");
}
