//! Section 2.4 ablation studies (`fun3d_bench::runners::ablations`).
//! Usage: `ablations [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("ablations");
}
