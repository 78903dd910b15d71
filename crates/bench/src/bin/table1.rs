//! Table 1 layout enhancements (`fun3d_bench::runners::table1`).
//! Usage: `table1 [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("table1");
}
