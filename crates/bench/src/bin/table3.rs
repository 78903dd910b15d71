//! Table 3 efficiency decomposition on the ASCI Red model (`fun3d_bench::runners::table3`).
//! Usage: `table3 [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("table3");
}
