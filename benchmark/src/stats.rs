//! Order statistics over timing samples.

/// The `p`-th percentile (`0.0..=100.0`) of `samples`, by linear
/// interpolation between closest ranks. Empty input gives `0.0`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Interquartile range as a share of the median — the spread the bounds in
/// `BENCHMARK.json` are judged against. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what the
/// pipeline computes. Fewer than two samples have no spread.
pub fn iqr_frac(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |q: f64| {
        let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n);
        sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * (pos - lo as f64)
    };
    let med = median(&sorted);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(0.75) - quantile(0.25)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_frac(&[3.0]), 0.0);
    }
}
