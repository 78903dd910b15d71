//! Order statistics over repeated measurements.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`: the smallest sample with at
/// least `p`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Index of the sample closest to the median (the run whose ledger is
/// reported as representative).
pub fn median_index(xs: &[f64]) -> usize {
    let m = median(xs);
    (0..xs.len())
        .min_by(|&a, &b| (xs[a] - m).abs().total_cmp(&(xs[b] - m).abs()))
        .expect("median_index of no samples")
}

/// Run `f` repeatedly until at least `min_reps` calls and `min_s` seconds
/// have passed (capped at `max_reps`), returning the median seconds per call.
pub fn time_median<F: FnMut()>(min_reps: usize, max_reps: usize, min_s: f64, mut f: F) -> f64 {
    let start = std::time::Instant::now();
    let mut samples = Vec::new();
    while samples.len() < max_reps
        && (samples.len() < min_reps || start.elapsed().as_secs_f64() < min_s)
    {
        let t0 = std::time::Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_index_picks_the_middle_sample() {
        assert_eq!(median_index(&[5.0, 1.0, 3.0]), 2);
    }
}
