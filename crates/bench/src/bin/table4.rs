//! Table 4 additive-Schwarz design space (`fun3d_bench::runners::table4`).
//! Usage: `table4 [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("table4");
}
