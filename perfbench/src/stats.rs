//! Sample statistics: the percentile rule, medians and quartiles.

/// Samples that must lie beyond a reported percentile (choosing-metrics
/// §1: "the highest percentile that has at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    pub q: f64,
    pub n: usize,
    pub needed: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{:.0} refused: {} samples, {} needed for {MIN_BEYOND} beyond it",
            self.q * 100.0,
            self.n,
            self.needed
        )
    }
}

/// Nearest-rank percentile of `xs` (`0 < q < 1`). A tail percentile
/// (`q > 0.5`) is refused unless at least [`MIN_BEYOND`] samples lie beyond
/// it; the median is always defined for a non-empty sample.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "percentile wants 0 < q < 1");
    let n = xs.len();
    let needed = if q > 0.5 {
        (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize
    } else {
        1
    };
    if n < needed {
        return Err(TooFewSamples { q, n, needed });
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    Ok(v[rank - 1])
}

/// Median (mean of the two middle samples for an even count), the same
/// value Python's `statistics.median` gives. Panics on an empty sample: a
/// workload that timed nothing is a harness bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile by Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) — the rule the acceptance spread is defined by.
/// `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 below two samples.
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) => {
            let m = median(xs);
            if m == 0.0 {
                if q3 == q1 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (q3 - q1) / m.abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        let err = percentile(&xs, 0.95).unwrap_err();
        assert_eq!((err.n, err.needed), (199, 200));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Ok(190.0));
        // p99 needs 1000; the median never refuses.
        assert!(percentile(&xs, 0.99).is_err());
        assert_eq!(percentile(&[3.0], 0.5), Ok(3.0));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median / statistics.quantiles(n=4) on the same lists.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
    }
}
