//! Table 5 hybrid MPI/OpenMP vs pure MPI (`fun3d_bench::runners::table5`).
//! Usage: `table5 [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("table5");
}
