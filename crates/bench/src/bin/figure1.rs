//! Figure 1 fixed-size scaling on the ASCI Red model (`fun3d_bench::runners::figure1`).
//! Usage: `figure1 [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("figure1");
}
