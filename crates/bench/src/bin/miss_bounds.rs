//! Eqs. (1)-(2) conflict-miss bound validation (`fun3d_bench::runners::miss_bounds`).
//! Usage: `miss_bounds [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("miss_bounds");
}
