//! Rank-count sweep with per-rank distributed tracing (`fun3d_bench::runners::ranks`).
//! Usage: `ranks [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("ranks");
}
