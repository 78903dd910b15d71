//! Table 2 single- vs double-precision preconditioner storage (`fun3d_bench::runners::table2`).
//! Usage: `table2 [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("table2");
}
