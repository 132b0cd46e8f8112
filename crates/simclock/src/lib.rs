//! Virtual-time substrate for the CrossPrefetch reproduction.
//!
//! Every performance number in this repository is computed in *virtual
//! nanoseconds*. Worker threads carry a [`ThreadClock`]; shared hardware and
//! software resources (storage devices, per-inode cache-tree locks, bitmap
//! locks, range-tree node locks) are modeled as first-come-first-served
//! servers ([`FcfsResource`]) whose "next free" timestamps introduce queueing
//! delays exactly where the paper reports contention.
//!
//! The split keeps wall-clock time decoupled from simulated I/O time: a
//! 100 GB-scale experiment replays in seconds, while real threads and real
//! locks still exercise the data structures under genuine concurrency.
//!
//! # Example
//!
//! ```
//! use simclock::{GlobalClock, ThreadClock, FcfsResource};
//! use std::sync::Arc;
//!
//! let global = Arc::new(GlobalClock::new());
//! let device = FcfsResource::new("nvme");
//! let mut clock = ThreadClock::new(Arc::clone(&global));
//!
//! // A 4 KiB read that takes 3 us of device service time.
//! let access = device.access(clock.now(), 3_000);
//! clock.advance_to(access.end_ns);
//! assert_eq!(clock.now(), 3_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod cost;
mod hist;
mod resource;
mod stats;

pub use clock::{run_threads, GlobalClock, ThreadClock};
pub use cost::CostModel;
pub use hist::{bucket_ceil, bucket_floor, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use resource::{Access, FcfsResource, RwContention};
pub use stats::{Counter, LockStats, Throughput};

/// Nanoseconds per microsecond.
pub const NS_PER_US: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const NS_PER_MS: u64 = 1_000_000;
/// Nanoseconds per second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// Computes the virtual service time for moving `bytes` at `bytes_per_sec`.
///
/// Rounds up so that a nonzero transfer always costs at least one
/// nanosecond, keeping resource occupancy monotone.
///
/// ```
/// // 1 MiB at 1 GiB/s is ~1 ms.
/// let ns = simclock::transfer_ns(1 << 20, (1u64 << 30) as f64);
/// assert!((900_000..1_100_000).contains(&ns));
/// ```
pub fn transfer_ns(bytes: u64, bytes_per_sec: f64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    assert!(
        bytes_per_sec > 0.0,
        "transfer rate must be positive, got {bytes_per_sec}"
    );
    let ns = (bytes as f64) * (NS_PER_SEC as f64) / bytes_per_sec;
    ns.ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_ns_zero_bytes_is_free() {
        assert_eq!(transfer_ns(0, 1e9), 0);
    }

    #[test]
    fn transfer_ns_is_monotone_in_bytes() {
        let small = transfer_ns(4096, 1.4e9);
        let large = transfer_ns(8192, 1.4e9);
        assert!(large >= small);
        assert!(small >= 1);
    }

    #[test]
    fn transfer_ns_scales_inverse_with_bandwidth() {
        let slow = transfer_ns(1 << 20, 0.7e9);
        let fast = transfer_ns(1 << 20, 1.4e9);
        assert!(slow > fast);
        // Exactly 2x modulo rounding.
        assert!((slow as i64 - 2 * fast as i64).unsigned_abs() <= 2);
    }

    #[test]
    #[should_panic(expected = "transfer rate must be positive")]
    fn transfer_ns_rejects_zero_rate() {
        transfer_ns(1, 0.0);
    }
}
