//! Fixed-bucket latency histograms.
//!
//! Buckets are powers of two: bucket 0 holds the value 0, bucket `i`
//! (1 ≤ i ≤ 40) holds values in `[2^(i−1), 2^i)`, and one saturating
//! overflow bucket holds everything ≥ 2^40 (~18 minutes in nanoseconds —
//! far beyond any sane heartbeat). Recording is O(1) with no allocation;
//! quantiles are read by walking the cumulative counts.
//!
//! Exact `min`/`max`/`sum` are tracked alongside the buckets, so
//! single-sample and extreme quantiles report exact values rather than
//! bucket edges.

/// Number of power-of-two buckets before the overflow bucket.
pub(crate) const NUM_BUCKETS: usize = 41;

/// A fixed-bucket histogram of `u64` samples (typically nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; NUM_BUCKETS + 1],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; NUM_BUCKETS + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value.
    #[inline]
    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            // floor(log2(v)) + 1, capped at the overflow bucket.
            let b = 64 - v.leading_zeros() as usize;
            b.min(NUM_BUCKETS)
        }
    }

    /// Inclusive upper edge of a bucket (used as the quantile
    /// representative for interior buckets).
    #[inline]
    fn upper_edge(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= NUM_BUCKETS {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, if any samples.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Quantile `q` in `[0, 1]`: the representative value below which at
    /// least `q` of the samples fall. Interior buckets report their upper
    /// edge clamped to the observed `[min, max]`, so a single-sample
    /// histogram reports the sample exactly and the overflow bucket
    /// reports the observed maximum.
    ///
    /// Edge cases are defined, not incidental: an empty histogram
    /// returns `None` for every `q` (including NaN); a NaN `q` returns
    /// `None` (NaN slips through `clamp`, and "quantile of NaN" has no
    /// meaningful rank); when all samples share one bucket, every
    /// quantile reports a value clamped into the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Some(Self::upper_edge(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram into this one. Buckets add element-wise
    /// (both sides share the fixed power-of-two layout), and the exact
    /// `count`/`sum`/`min`/`max` side-channels combine losslessly — so
    /// merging per-worker histograms from a parallel run yields the same
    /// quantiles the serial run would have reported.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Snapshot for serialization.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (Self::upper_edge(i), c))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Serializable summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: Option<u64>,
    /// Largest sample.
    pub max: Option<u64>,
    /// Arithmetic mean.
    pub mean: Option<f64>,
    /// Median.
    pub p50: Option<u64>,
    /// 90th percentile.
    pub p90: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
    /// Non-empty buckets as `(inclusive upper edge, count)`; the edge
    /// `u64::MAX` marks the saturating overflow bucket.
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest value representable without falling into the overflow bucket.
    const MAX_TRACKED: u64 = (1 << (NUM_BUCKETS - 1)) - 1;

    #[test]
    fn bucket_math() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(1023), 10);
        assert_eq!(Histogram::bucket(1024), 11);
        assert_eq!(Histogram::bucket(MAX_TRACKED), NUM_BUCKETS - 1);
        assert_eq!(Histogram::bucket(MAX_TRACKED + 1), NUM_BUCKETS);
        assert_eq!(Histogram::bucket(u64::MAX), NUM_BUCKETS);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert!(s.buckets.is_empty());
    }

    /// The snapshot's headline quantiles of an empty histogram are all
    /// absent — not zeros, not bucket edges.
    #[test]
    fn empty_histogram_snapshot_quantiles_are_none() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.p50, None);
        assert_eq!(s.p90, None);
        assert_eq!(s.p99, None);
        assert_eq!((s.min, s.max, s.mean), (None, None, None));
    }

    /// Out-of-range and non-finite `q` have pinned behavior: negatives
    /// clamp to the minimum quantile, >1 clamps to the maximum, and NaN
    /// (which `clamp` passes through) is rejected instead of producing a
    /// garbage rank.
    #[test]
    fn quantile_handles_out_of_range_and_nan_q() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(2000);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.5), h.quantile(1.0));
        assert_eq!(h.quantile(f64::INFINITY), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), None);
        assert_eq!(Histogram::new().quantile(f64::NAN), None);
    }

    /// Many samples collapsed into one bucket: every headline quantile is
    /// defined and lies within the observed range (here all samples are
    /// equal, so p50 = p90 = p99 = the sample).
    #[test]
    fn single_bucket_histogram_has_defined_quantiles() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(5); // all in bucket [4, 8)
        }
        let s = h.snapshot();
        assert_eq!(s.p50, Some(5));
        assert_eq!(s.p90, Some(5));
        assert_eq!(s.p99, Some(5));
        assert_eq!(s.buckets, vec![(7, 100)]);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let mut h = Histogram::new();
        h.record(777);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(777), "q={q}");
        }
        assert_eq!(h.min(), Some(777));
        assert_eq!(h.max(), Some(777));
        assert_eq!(h.mean(), Some(777.0));
    }

    #[test]
    fn overflow_bucket_saturates_to_observed_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 5);
        h.record(MAX_TRACKED + 1);
        assert_eq!(h.quantile(0.99), Some(u64::MAX));
        assert_eq!(h.quantile(0.01), Some(u64::MAX)); // all in overflow
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(u64::MAX, 3)]);
        // Sum tracked in u128: no wrap even with several u64::MAX samples.
        assert!(h.mean().unwrap() > (u64::MAX / 2) as f64);
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let mut h = Histogram::new();
        // 90 fast samples (~100ns bucket), 10 slow (~1e6ns bucket).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 < 256, "p50 {p50} should sit in the fast bucket");
        assert!(p99 >= 524_288, "p99 {p99} should sit in the slow bucket");
        assert_eq!(h.quantile(1.0), Some(1_000_000));
        // q=0 reports the first bucket's upper edge (100 lives in [64,128)).
        assert_eq!(h.quantile(0.0), Some(127));
    }

    #[test]
    fn quantile_representative_clamps_to_observed_range() {
        let mut h = Histogram::new();
        h.record(5); // bucket [4, 8) → upper edge 7, clamped to 5
        h.record(5);
        assert_eq!(h.quantile(0.5), Some(5));
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let xs = [0u64, 1, 5, 100, 1023, 1_000_000];
        let ys = [3u64, 100, 77_777, u64::MAX];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for &v in &xs {
            a.record(v);
            both.record(v);
        }
        for &v in &ys {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), both.snapshot());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = a.snapshot();
        a.merge(&Histogram::new());
        assert_eq!(a.snapshot(), before);

        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.snapshot(), before);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut h = Histogram::new();
        for v in [0, 1, 5, 1000, 12345] {
            h.record(v);
        }
        let s = h.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
