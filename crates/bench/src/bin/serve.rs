//! Open-loop load sweep through the `fun3d-serve` engine (`fun3d_bench::runners::serve`).
//! Usage: `serve [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.
//! `FUN3D_SERVE_WORKERS` selects the worker-pool size (default 2).

fn main() {
    fun3d_bench::run_bin("serve");
}
