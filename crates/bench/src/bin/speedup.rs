//! Thread-scaling sweep of the `_par` kernels (`fun3d_bench::runners::speedup`).
//! Usage: `speedup [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("speedup");
}
