//! Lightweight atomic statistics used across the simulated stack.

use crate::lane::{self, LaneWord};
use crate::NS_PER_SEC;

/// A relaxed event counter on the owner lane (see the `lane` module):
/// the owner thread adds with a plain store, other threads with
/// `fetch_add`.
#[derive(Debug, Default)]
pub struct Counter(LaneWord);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.add(lane::owned(), n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.sum()
    }
}

/// Wait/hold accounting for one contention point.
///
/// The paper's Table 1 reports "time spent on the lock (%)"; this is the
/// accumulator those percentages are computed from.
#[derive(Debug, Default)]
pub struct LockStats {
    acquisitions: Counter,
    contended: Counter,
    wait_ns: Counter,
    hold_ns: Counter,
}

impl LockStats {
    /// Records one acquisition that waited `wait_ns` and held `hold_ns`.
    pub fn record(&self, wait_ns: u64, hold_ns: u64) {
        let owner = lane::owned();
        self.acquisitions.0.add(owner, 1);
        if wait_ns > 0 {
            self.contended.0.add(owner, 1);
        }
        self.wait_ns.0.add(owner, wait_ns);
        self.hold_ns.0.add(owner, hold_ns);
    }

    /// Total acquisitions recorded.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.get()
    }

    /// Acquisitions that had to wait.
    pub fn contended(&self) -> u64 {
        self.contended.get()
    }

    /// Total queueing delay in nanoseconds.
    pub fn wait_ns(&self) -> u64 {
        self.wait_ns.get()
    }

    /// Total hold time in nanoseconds.
    pub fn hold_ns(&self) -> u64 {
        self.hold_ns.get()
    }
}

/// A throughput measurement over virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Payload bytes moved.
    pub bytes: u64,
    /// Operations completed.
    pub ops: u64,
    /// Elapsed virtual nanoseconds (the slowest worker's span).
    pub elapsed_ns: u64,
}

impl Throughput {
    /// Builds a measurement; `elapsed_ns` of zero yields zero rates.
    pub fn new(bytes: u64, ops: u64, elapsed_ns: u64) -> Self {
        Self {
            bytes,
            ops,
            elapsed_ns,
        }
    }

    /// Megabytes per second of virtual time (decimal MB).
    pub fn mb_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        (self.bytes as f64 / 1e6) / (self.elapsed_ns as f64 / NS_PER_SEC as f64)
    }

    /// Thousand operations per second of virtual time.
    pub fn kops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        (self.ops as f64 / 1e3) / (self.elapsed_ns as f64 / NS_PER_SEC as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let counter = Counter::new();
        counter.incr();
        counter.add(4);
        assert_eq!(counter.get(), 5);
    }

    #[test]
    fn lock_stats_classify_contention() {
        let stats = LockStats::default();
        stats.record(0, 10);
        stats.record(7, 10);
        assert_eq!(stats.acquisitions(), 2);
        assert_eq!(stats.contended(), 1);
        assert_eq!(stats.wait_ns(), 7);
        assert_eq!(stats.hold_ns(), 20);
    }

    #[test]
    fn throughput_rates() {
        let t = Throughput::new(2_000_000, 1_000, NS_PER_SEC);
        assert!((t.mb_per_sec() - 2.0).abs() < 1e-9);
        assert!((t.kops_per_sec() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_zero_elapsed_is_zero_rate() {
        let t = Throughput::new(100, 100, 0);
        assert_eq!(t.mb_per_sec(), 0.0);
        assert_eq!(t.kops_per_sec(), 0.0);
    }
}
