//! The host anchor: cache size, hardware threads, peak memory and a STREAM
//! triad sized past the last-level cache, so a reader can tell whether a
//! kernel's share of STREAM is cache- or DRAM-bound.

use fun3d_memmodel::stream::run_stream;

/// Largest cache size the kernel reports for CPU 0 (the last-level cache),
/// in bytes; `None` when `/sys` does not describe the caches.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let path = e.ok()?.path();
        let size = std::fs::read_to_string(path.join("size")).ok()?;
        parse_size(size.trim())
    })
    .max()
}

/// Parse a `/sys` cache size such as `32K`, `1024K` or `105M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Hardware threads available to this process.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reset this process's peak-RSS mark to its current resident size (Linux
/// `clear_refs` code 5), so the next [`peak_rss_mib`] covers only what
/// runs after it.  Returns whether the kernel allowed the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process since start or since the last
/// [`reset_peak_rss`] (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Doubles per STREAM array: four times the last-level cache, at least
/// 8 Mi elements (64 MiB) when the cache size is unknown or small, and at
/// most 64 Mi elements (512 MiB per array) to bound the footprint.
pub fn stream_elems(llc: Option<u64>) -> usize {
    let want = llc.map_or(0, |b| 4 * b / 8) as usize;
    want.clamp(8 << 20, 64 << 20)
}

/// Single-thread STREAM triad bandwidth in GB/s (best of three repetitions,
/// the STREAM convention) over arrays of `elems` doubles.
pub fn stream_triad_gbps(elems: usize) -> f64 {
    run_stream(elems, 3).triad / 1e9
}

/// A fixed loop that measures how fast the host runs right now.  It is the
/// benchmark's own code, independent of the program's, so a change to the
/// program never changes the probe.  It is an edge loop in the style of the
/// flux kernels: each vertex of a 4 MiB field meets a few near neighbours
/// and accumulates a flux with a square root and a division.  A shared
/// host slows the probe and the solves alike, so their ratio holds still
/// while the host's speed swings.
pub struct SpeedProbe {
    x: Vec<f64>,
    y: Vec<f64>,
}

/// Vertices of the probe's field.
const PROBE_VERTS: usize = 1 << 18;

/// Median seconds of one probe on one and on two threads, on the 2-vCPU
/// host the benchmark was built on at its quieter times.  Times scaled by
/// [`SpeedProbe::scale`] read as seconds on that host at that speed.
pub const PROBE_REFERENCE_S: [f64; 2] = [3.0e-3, 1.7e-3];

impl SpeedProbe {
    /// Allocate the probe's field.
    pub fn new() -> Self {
        SpeedProbe {
            x: (0..PROBE_VERTS)
                .map(|i| 1.0 + (i % 97) as f64 * 1e-2)
                .collect(),
            y: vec![0.0; PROBE_VERTS],
        }
    }

    /// Resident MiB of the probe's field, which stays allocated for the
    /// whole run.
    pub fn resident_mib(&self) -> f64 {
        ((self.x.len() + self.y.len()) * 8) as f64 / (1u64 << 20) as f64
    }

    /// The factor that scales a time measured while the probe took
    /// `probe_s` on `threads` threads (1 or 2) to the reference speed.
    pub fn scale(threads: usize, probe_s: f64) -> f64 {
        PROBE_REFERENCE_S[threads.clamp(1, 2) - 1] / probe_s
    }

    /// Seconds of one probe on `threads` threads.  Each thread takes a
    /// contiguous part of the field and is spawned for this probe alone,
    /// as `ParCtx` spawns its team for each call.
    pub fn time_once(&mut self, threads: usize) -> f64 {
        let t0 = std::time::Instant::now();
        let chunk = PROBE_VERTS.div_ceil(threads.max(1));
        std::thread::scope(|s| {
            let mut parts = self.x.chunks(chunk).zip(self.y.chunks_mut(chunk));
            let first = parts.next().expect("probe field is not empty");
            for (x, y) in parts {
                s.spawn(move || edge_pass(x, y));
            }
            edge_pass(first.0, first.1);
        });
        std::hint::black_box(&self.y);
        t0.elapsed().as_secs_f64()
    }
}

/// One pass of the probe's edge loop over a part of the field.
fn edge_pass(x: &[f64], y: &mut [f64]) {
    let n = x.len();
    for i in 0..n {
        for k in [1, 9, 40] {
            let j = (i + k + (i * 7) % 23) % n;
            let (a, b) = (x[i], x[j]);
            let f = (a - b) * (a * b + 1.0).sqrt() / (a + b + 1.0);
            y[i] += f;
            y[j] -= f;
        }
    }
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_units() {
        assert_eq!(parse_size("32K"), Some(32 << 10));
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn probe_times_are_positive_and_scale_to_the_reference() {
        let mut p = SpeedProbe::new();
        assert!(p.time_once(1) > 0.0 && p.time_once(2) > 0.0);
        assert_eq!(SpeedProbe::scale(1, PROBE_REFERENCE_S[0]), 1.0);
        assert_eq!(SpeedProbe::scale(2, PROBE_REFERENCE_S[1]), 1.0);
        assert_eq!(p.resident_mib(), 4.0);
    }

    #[test]
    fn stream_arrays_cover_four_caches() {
        assert_eq!(stream_elems(Some(105 << 20)), (4 * (105 << 20)) / 8);
        assert_eq!(stream_elems(None), 8 << 20);
        assert_eq!(stream_elems(Some(1 << 40)), 64 << 20);
    }
}
