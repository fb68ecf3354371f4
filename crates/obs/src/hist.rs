//! The log-bucketed histogram every percentile in this repo now runs on.
//!
//! One implementation, three hosts: `sysmem`'s GC and per-operation pause
//! histograms are one, the router's per-packet latency distribution is one,
//! and the metrics registry snapshots its atomic histograms into it.
//! Buckets are powers of two from 1 ns to ~17 s, so recording is O(1),
//! allocation-free, and mergeable — the properties that let it live inside
//! measured regions without distorting them.

use std::fmt;
use std::time::Duration;

/// Number of power-of-two buckets.
pub const BUCKETS: usize = 64;

/// A fixed-bucket log-scale histogram of `u64` samples (typically
/// nanoseconds).
///
/// A sample `v` lands in bucket `floor(log2 v)` (bucket 0 for `v <= 1`);
/// percentiles interpolate linearly inside the containing bucket, so the
/// answer is within one interpolation step (`bucket_width / bucket_count`)
/// of the exact rank statistic instead of snapping to the power-of-two
/// upper edge (which overestimated by up to 2x). Recording stays O(1) and
/// allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max: u64,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            max: 0,
            total: 0,
        }
    }

    /// Index of the bucket a sample lands in.
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (63 - u64::leading_zeros(v) as usize).min(BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value in O(1) — the weighted form the
    /// router uses to attribute one batch-completion latency to every packet
    /// in the batch.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(v)] += n;
        self.count += n;
        self.max = self.max.max(v);
        self.total = self.total.saturating_add(v.saturating_mul(n));
    }

    /// Records a [`Duration`] as nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 if empty). The running total saturates, so the mean is
    /// a floor after ~2^64 total.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile (`0.0..=1.0`), linearly interpolated inside the
    /// containing power-of-two bucket and clamped to the observed maximum.
    /// Returns 0 when empty.
    ///
    /// The rank-`r` sample of the `n` samples in bucket `[L, U)` resolves to
    /// `L + (U - L) * r / n`: rank `n` lands on the upper edge (preserving
    /// the old monotone upper-bound behaviour at bucket boundaries), rank 1
    /// sits one step above the lower edge. Error vs the exact order
    /// statistic is at most one step, `(U - L) / n`, rather than the up-to-2x
    /// overshoot the plain upper-edge rule gave.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let clamped = p.clamp(0.0, 1.0);
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let target = ((clamped * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Bucket i spans [L, U): bucket 0 is [0, 2), the top bucket
                // runs to u64::MAX. Interpolate by rank within the bucket.
                let lower = if i == 0 { 0 } else { 1u64 << i };
                let upper = if i + 1 >= BUCKETS {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
                let rank = target - (seen - n); // 1..=n
                let width = upper - lower;
                let step = (u128::from(width) * u128::from(rank) / u128::from(n)) as u64;
                return (lower + step).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.total = self.total.saturating_add(other.total);
    }

    /// Raw bucket counts (index = `floor(log2 value)`).
    #[must_use]
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Assembles a histogram from raw parts (the atomic registry twin
    /// snapshots through this so count/max/total stay exact even though the
    /// per-bucket sample values are only known to bucket resolution).
    pub(crate) fn from_raw(buckets: [u64; BUCKETS], count: u64, max: u64, total: u64) -> Self {
        LogHistogram {
            buckets,
            count,
            max,
            total,
        }
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} p999={} max={}",
            self.count,
            self.mean(),
            self.percentile(0.50),
            self.percentile(0.99),
            self.percentile(0.999),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_sample_bounds_every_percentile() {
        let mut h = LogHistogram::new();
        h.record(1000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 1000);
        assert_eq!(h.max(), 1000);
        // Bucket edge for 1000 is 1024, clamped to max 1000.
        assert_eq!(h.percentile(0.0), 1000);
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded_by_max() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 17);
        }
        let p50 = h.percentile(0.50);
        let p90 = h.percentile(0.90);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= h.max().next_power_of_two());
    }

    #[test]
    fn weighted_record_equals_repeated_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_n(300, 5);
        for _ in 0..5 {
            b.record(300);
        }
        assert_eq!(a, b);
        a.record_n(77, 0); // zero weight is a no-op
        assert_eq!(a, b);
    }

    #[test]
    fn saturating_values_land_in_the_top_bucket() {
        let mut h = LogHistogram::new();
        // A duration past u64::MAX ns saturates instead of wrapping.
        h.record_duration(Duration::from_secs(u64::MAX / 1_000_000_000 + 1));
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[BUCKETS - 1], 2);
        // The total saturates instead of wrapping; the mean stays a floor.
        assert!(h.mean() >= u64::MAX / 2);
        assert_eq!(h.percentile(0.99), u64::MAX);
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let mut h = LogHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 0);
        assert_eq!(h.buckets()[0], 1);
        // Percentiles clamp to the observed maximum, so an all-zero
        // distribution answers at most 1.
        assert!(h.percentile(0.5) <= 1);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn merge_adds_counts_and_keeps_max() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = LogHistogram::new();
        a.record(500);
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, before, "merging an empty histogram changes nothing");
        let mut empty = LogHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before, "merging into empty copies the source");
    }

    #[test]
    fn interpolated_quantiles_track_exact_order_statistics() {
        // Uniform 1..=1000: every value recorded once, so a bucket that the
        // samples fill end-to-end interpolates to within one step
        // (bucket_width / bucket_count) of the exact rank statistic.
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (p, exact) in [(0.25, 250u64), (0.50, 500u64)] {
            let got = h.percentile(p);
            let i = LogHistogram::bucket_index(exact);
            let width = 1u64 << i; // bucket [2^i, 2^{i+1})
            let step = (width / h.buckets()[i]).max(1);
            assert!(
                got.abs_diff(exact) <= step,
                "p{p}: got {got}, exact {exact}, step {step}"
            );
        }
    }

    #[test]
    fn quantiles_inside_one_bucket_no_longer_collapse_to_the_edge() {
        // The motivating bug: every router p50 read exactly 65536 because
        // all samples shared the [32768, 65536) bucket and percentile()
        // answered with the upper edge. Interpolation must spread them.
        let mut h = LogHistogram::new();
        for v in (32_768..65_536u64).step_by(32) {
            h.record(v);
        }
        let p50 = h.percentile(0.50);
        let p90 = h.percentile(0.90);
        let p99 = h.percentile(0.99);
        assert!(p50 < p90 && p90 < p99, "{p50} {p90} {p99}");
        assert!(p99 < 65_536, "p99 must stay inside the bucket: {p99}");
        // The bucket is filled uniformly, so p50 sits near the middle.
        assert!(p50.abs_diff(49_152) <= 64, "p50 {p50} vs midpoint 49152");
    }

    #[test]
    fn rank_n_still_reaches_the_bucket_edge_clamped_to_max() {
        // The highest rank in a bucket resolves to the upper edge, so the
        // old monotone-upper-bound behaviour survives at the boundary.
        let mut h = LogHistogram::new();
        h.record_n(700, 10);
        assert_eq!(h.percentile(1.0), 700); // edge 1024 clamped to max
        let mut g = LogHistogram::new();
        g.record_n(700, 10);
        g.record(2000);
        // target = ceil(0.5 * 11) = 6 → rank 6 of 10 in [512, 1024).
        assert_eq!(g.percentile(0.5), 512 + 512 * 6 / 10);
    }

    #[test]
    fn display_names_the_tail() {
        let mut h = LogHistogram::new();
        h.record(64);
        let s = h.to_string();
        assert!(s.contains("n=1"), "{s}");
        assert!(s.contains("p999=64"), "{s}");
        assert!(s.contains("max=64"), "{s}");
    }

    #[test]
    fn interpolated_p999_is_pinned_on_a_known_distribution() {
        // 999 samples at 100 ns and one at 60000 ns: both p99 and p999
        // interpolate inside the [64, 128) bucket — only p100 reaches the
        // outlier. Attack sweeps live exactly in this regime: a p999 of
        // ~128 with a max of 60000 is a different system than one whose
        // p999 is 60000, and the report must distinguish them.
        let mut h = LogHistogram::new();
        h.record_n(100, 999);
        h.record(60_000);
        // target = ceil(0.99 * 1000) = 990 → rank 990 of 999 in [64, 128):
        // 64 + 64 * 990 / 999 = 127.
        assert_eq!(h.percentile(0.99), 127);
        // Rank ceil(0.999 * 1000) = 999 of 999 in [64, 128) → the bucket's
        // upper edge, exactly 128 — still two decades under the outlier.
        assert_eq!(h.percentile(0.999), 128);
        assert_eq!(h.percentile(1.0), 60_000);
        // A tail-free distribution keeps p999 tight to p99.
        let mut g = LogHistogram::new();
        g.record_n(100, 1000);
        assert_eq!(g.percentile(0.999), g.percentile(0.99));
    }
}
