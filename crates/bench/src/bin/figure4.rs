//! Figure 4 k-way vs fragmented partitioning (`fun3d_bench::runners::figure4`).
//! Usage: `figure4 [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("figure4");
}
