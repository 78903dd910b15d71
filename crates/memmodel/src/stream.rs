//! A STREAM benchmark (McCalpin) — the sustainable-memory-bandwidth
//! yardstick the paper uses for the sparse solve phase (Section 2.2).
//!
//! The four canonical kernels are measured on the *host* machine; the
//! returned triad bandwidth is what the SpMV performance model divides by.
//! Array sizes default to 4x the last-level cache of typical hosts so the
//! measurement reflects memory, not cache.

use std::time::Instant;

/// Results of one STREAM run, bytes/second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamResult {
    /// `c[i] = a[i]` — 16 bytes per iteration.
    pub copy: f64,
    /// `b[i] = s * c[i]` — 16 bytes per iteration.
    pub scale: f64,
    /// `c[i] = a[i] + b[i]` — 24 bytes per iteration.
    pub add: f64,
    /// `a[i] = b[i] + s * c[i]` — 24 bytes per iteration.
    pub triad: f64,
    /// Elements per array used.
    pub n: usize,
}

impl StreamResult {
    /// The conventional single-number summary (triad).
    pub fn bandwidth(&self) -> f64 {
        self.triad
    }
}

fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Run STREAM with `n` doubles per array and `reps` timed repetitions
/// (best-of, per STREAM convention).
pub fn run_stream(n: usize, reps: usize) -> StreamResult {
    assert!(n >= 1024, "array too small for a meaningful measurement");
    assert!(reps >= 1);
    let mut a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    let s = 3.0f64;

    // The explicit element loop *is* the benchmark kernel (memcpy would
    // measure libc, not the STREAM access pattern).
    #[allow(clippy::manual_memcpy)]
    let t_copy = time_best(reps, || {
        for i in 0..n {
            c[i] = a[i];
        }
        std::hint::black_box(&mut c);
    });
    let t_scale = time_best(reps, || {
        for i in 0..n {
            b[i] = s * c[i];
        }
        std::hint::black_box(&mut b);
    });
    let t_add = time_best(reps, || {
        for i in 0..n {
            c[i] = a[i] + b[i];
        }
        std::hint::black_box(&mut c);
    });
    let t_triad = time_best(reps, || {
        for i in 0..n {
            a[i] = b[i] + s * c[i];
        }
        std::hint::black_box(&mut a);
    });

    let nb = n as f64;
    StreamResult {
        copy: 16.0 * nb / t_copy,
        scale: 16.0 * nb / t_scale,
        add: 24.0 * nb / t_add,
        triad: 24.0 * nb / t_triad,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_reports_positive_bandwidth() {
        let r = run_stream(64 * 1024, 2);
        assert!(r.copy > 0.0 && r.scale > 0.0 && r.add > 0.0 && r.triad > 0.0);
        // Any machine since the 90s moves more than 100 MB/s.
        assert!(r.bandwidth() > 100e6, "triad {} B/s", r.triad);
    }

    #[test]
    fn kernels_are_within_an_order_of_magnitude() {
        let r = run_stream(256 * 1024, 2);
        let rates = [r.copy, r.scale, r.add, r.triad];
        let max = rates.iter().fold(0.0f64, |m, &v| m.max(v));
        let min = rates.iter().fold(f64::INFINITY, |m, &v| m.min(v));
        assert!(max / min < 10.0, "rates spread too far: {rates:?}");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_arrays() {
        run_stream(16, 1);
    }
}
