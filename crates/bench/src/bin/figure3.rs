//! Figure 3 simulated TLB/L2 misses under data orderings (`fun3d_bench::runners::figure3`).
//! Usage: `figure3 [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("figure3");
}
