//! Host STREAM bandwidth vs the machine models (`fun3d_bench::runners::stream`).
//! Usage: `stream [--scale f] [--record dir] ...`, any of `fun3d_bench::KNOWN`.

fn main() {
    fun3d_bench::run_bin("stream");
}
