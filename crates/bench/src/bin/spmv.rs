//! Measured CSR/BCSR SpMV vs the bandwidth model (`fun3d_bench::runners::spmv`).
//! Usage: `spmv [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("spmv");
}
