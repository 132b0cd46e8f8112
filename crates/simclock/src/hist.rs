//! Fixed-bucket log2 latency histograms.
//!
//! Every layer of the stack records virtual-nanosecond durations into
//! [`Histogram`]s: 65 log2 buckets cover the full `u64` range and never
//! allocate. Each bucket and the sum are lane words (see the `lane`
//! module): recording checks the lane once, then the owner thread bumps
//! one bucket and the sum with plain stores while any other thread uses
//! two relaxed `fetch_add`s. There is no separate count: it is the sum of
//! the buckets, so a snapshot never holds more samples than its buckets.
//! Percentile queries interpolate linearly inside the winning bucket,
//! which is the usual HdrHistogram-style trade: exact counts, bounded
//! relative error on quantiles (at most 2x, the width of a log2 bucket).

use crate::lane::{self, LaneWord};

/// Number of log2 buckets: bucket `i` holds values whose bit length is `i`
/// (bucket 0 holds the value zero, bucket 1 holds exactly 1, bucket 2 holds
/// 2..=3, and so on up to bucket 64 for values with the top bit set).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A concurrent fixed-bucket log2 histogram over `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [LaneWord; HISTOGRAM_BUCKETS],
    sum: LaneWord,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// An owned point-in-time copy of a histogram, used for report snapshots
/// and interval deltas.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

/// The bucket a value lands in: its bit length.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Lower bound (inclusive) of bucket `i`.
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Upper bound (inclusive) of bucket `i`.
pub fn bucket_ceil(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { LaneWord::new() }; HISTOGRAM_BUCKETS],
            sum: LaneWord::new(),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let owner = lane::owned();
        self.buckets[bucket_of(value)].add(owner, 1);
        self.sum.add(owner, value);
    }

    /// Total samples recorded: the sum of the buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(LaneWord::sum).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.sum()
    }

    /// Mean sample, or zero when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum() as f64 / count as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), interpolated linearly inside the
    /// winning log2 bucket. Returns zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// An owned copy of the current state. Its count is the sum of its
    /// own buckets, so quantiles always land inside a bucket even while
    /// another thread records.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(LaneWord::sum).collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            buckets,
            sum: self.sum(),
        }
    }
}

impl HistogramSnapshot {
    /// Total samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), interpolated linearly inside the
    /// winning log2 bucket. Returns zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based, at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_floor(i);
                let hi = bucket_ceil(i);
                // Linear interpolation inside the winning bucket: treat its
                // `n` samples as evenly spread over [lo, hi] and read off
                // the mid-rank position (the k-th of n samples sits at the
                // (2k-1)/2n point of the span). The old lower-bound form
                // pinned rank 1 to `lo`, understating p99 by up to the full
                // bucket width (2x relative error). u128 keeps the top
                // bucket (span ~ 2^63) from overflowing the product.
                let into = rank - seen; // 1..=n
                let span = (hi - lo) as u128;
                let offset = span * (2 * into as u128 - 1) / (2 * n as u128);
                return lo + offset as u64;
            }
            seen += n;
        }
        bucket_ceil(HISTOGRAM_BUCKETS - 1)
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Per-bucket difference against an earlier snapshot of the same
    /// histogram. Saturates at zero so a reset histogram yields an empty
    /// delta rather than underflowing.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| n.saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..64 {
            assert_eq!(bucket_of(bucket_floor(i)), i);
            assert_eq!(bucket_of(bucket_ceil(i)), i);
        }
    }

    #[test]
    fn count_sum_mean_roundtrip() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_on_uniform_samples() {
        let h = Histogram::new();
        // 100 samples in distinct buckets 1..=100 collapse into log2
        // buckets; quantiles must stay within a bucket-width (2x) of truth.
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.p50();
        assert!((25..=100).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((64..=127).contains(&p99), "p99 = {p99}");
        assert!(h.p95() <= p99 || h.p95() >= p50, "quantiles ordered");
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        for v in [1u64, 5, 9, 120, 4000, 4001, 70_000] {
            h.record(v);
        }
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_quantiles_hit_its_bucket() {
        let h = Histogram::new();
        h.record(1000);
        let (lo, hi) = (bucket_floor(bucket_of(1000)), bucket_ceil(bucket_of(1000)));
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= lo && v <= hi, "q={q} -> {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn quantiles_interpolate_within_bucket() {
        // 512 uniform samples fill bucket 10 ([512, 1023]) exactly, so the
        // interpolated quantile must track the true quantile closely — not
        // collapse to the bucket floor the way lower-bound reporting did.
        let h = Histogram::new();
        for v in 512..=1023u64 {
            h.record(v);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let truth = 512.0 + 511.0 * q;
            let got = h.quantile(q) as f64;
            assert!(
                (got - truth).abs() <= 2.0,
                "q={q}: got {got}, want ~{truth}"
            );
        }
    }

    #[test]
    fn single_sample_does_not_pin_to_bucket_floor() {
        // The old lower-bound form returned exactly `lo` for every quantile
        // of a one-sample bucket; mid-rank interpolation lands mid-bucket.
        let h = Histogram::new();
        h.record(1000);
        let (lo, hi) = (bucket_floor(bucket_of(1000)), bucket_ceil(bucket_of(1000)));
        let p99 = h.p99();
        assert!(
            p99 > lo && p99 < hi,
            "p99 = {p99} should be inside ({lo}, {hi})"
        );
        assert_eq!(p99, lo + (hi - lo) / 2);
    }

    #[test]
    fn top_bucket_interpolation_does_not_overflow() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        for q in [0.0, 0.5, 1.0] {
            let v = h.quantile(q);
            assert!(v >= bucket_floor(64), "q={q} -> {v}");
        }
        assert!(h.quantile(1.0) >= h.quantile(0.0));
    }

    #[test]
    fn interpolated_quantiles_stay_monotone_across_buckets() {
        // Known mixed distribution spanning several buckets: quantiles must
        // be monotone in q and bracket the recorded values.
        let h = Histogram::new();
        for v in [3u64, 3, 3, 40, 41, 42, 43, 5000, 5001, 900_000] {
            h.record(v);
        }
        let qs: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(
            qs[0] >= 2 && qs[0] <= 3,
            "low end in value's bucket: {}",
            qs[0]
        );
        assert!(
            *qs.last().unwrap() >= 524_288,
            "tail reaches the top sample's bucket"
        );
    }

    #[test]
    fn snapshots_taken_during_recording_stay_inside_their_buckets() {
        // A count read apart from the buckets could run ahead of them, and
        // p100 then walked off the last bucket to `u64::MAX`. The largest
        // value is a bucket ceiling, so interpolation cannot exceed it.
        use std::sync::atomic::{AtomicBool, Ordering};
        const LARGEST: u64 = 1023;
        let h = Histogram::new();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..200_000u64 {
                    h.record(i % (LARGEST + 1));
                }
                done.store(true, Ordering::Release);
            });
            let mut snapshots = 0u64;
            while !done.load(Ordering::Acquire) || snapshots == 0 {
                let snap = h.snapshot();
                assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
                let p100 = snap.quantile(1.0);
                assert!(p100 <= LARGEST, "p100 = {p100}");
                snapshots += 1;
            }
        });
        assert_eq!(h.count(), 200_000);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let h = Histogram::new();
        h.record(100);
        let early = h.snapshot();
        h.record(100);
        h.record(7);
        let delta = h.snapshot().delta(&early);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 107);
        assert_eq!(delta.buckets[bucket_of(100)], 1);
        assert_eq!(delta.buckets[bucket_of(7)], 1);
    }
}
