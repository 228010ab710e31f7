//! Small statistics toolkit used by workload analysis and the evaluation
//! metrics: means, coefficients of variation, Pearson correlation,
//! percentiles and empirical CDFs.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Coefficient of variation (σ/μ); 0 when the mean is 0.
///
/// The paper reports demand CoVs of ≈1.0 (cpu), 0.64 (mem), 1.84 (disk),
/// 1.35 (network) across tasks (§2.2.2) and much smaller CoVs *within* a
/// stage (§4.1) — both are verified against generated traces.
pub fn coeff_of_variation(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        0.0
    } else {
        std_dev(xs) / m
    }
}

/// Pearson correlation coefficient; 0 when either side has no variance.
///
/// Used for the paper's Table 2 (cross-resource demand correlation).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson needs equal-length samples");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// `q`-th percentile (`q ∈ [0,1]`) by linear interpolation on a *sorted
/// copy* of the data; 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&sorted, q)
}

/// `q`-th percentile of already-sorted data.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// An empirical CDF: sorted samples with evaluation helpers, plus fixed-grid
/// rendering for the paper's CDF figures (Figs. 4, 7).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from arbitrary samples (NaNs are rejected by panic — CDFs of
    /// metrics must be total).
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "NaN sample in ECDF input"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Inverse CDF (quantile).
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q)
    }

    /// Sample `(x, P(X ≤ x))` pairs at `n` evenly spaced quantiles — the
    /// series the figure harness prints.
    pub fn series(&self, n: usize) -> Vec<(f64, f64)> {
        (0..=n)
            .map(|i| {
                let q = i as f64 / n as f64;
                (self.quantile(q), q)
            })
            .collect()
    }

    /// Fraction of samples strictly below zero (used for "fraction of jobs
    /// that slow down" in Figs. 4/7/9).
    pub fn frac_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert!((coeff_of_variation(&xs) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert_eq!(coeff_of_variation(&[0.0, 0.0]), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_no_variance_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_independent_is_small() {
        // Deterministic pseudo-random pairs via a simple LCG.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let xs: Vec<f64> = (0..5000).map(|_| next()).collect();
        let ys: Vec<f64> = (0..5000).map(|_| next()).collect();
        assert!(pearson(&xs, &ys).abs() < 0.05);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ecdf_quantile_and_bounds() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
    }

    #[test]
    fn ecdf_frac_below() {
        let e = Ecdf::new(vec![-2.0, -1.0, 0.0, 1.0]);
        assert_eq!(e.frac_below(0.0), 0.5);
        assert_eq!(e.frac_below(-5.0), 0.0);
        assert_eq!(e.frac_below(5.0), 1.0);
    }

    #[test]
    fn ecdf_series_is_monotone() {
        let e = Ecdf::new((0..100).map(|i| (i * 7 % 31) as f64).collect());
        let s = e.series(20);
        assert_eq!(s.len(), 21);
        for w in s.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        let _ = Ecdf::new(vec![1.0, f64::NAN]);
    }
}
