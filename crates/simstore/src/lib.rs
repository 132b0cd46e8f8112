//! Simulated block storage for the CrossPrefetch reproduction.
//!
//! The paper evaluates on a 1.6 TB NVMe SSD (1.4 GB/s read, 0.9 GB/s write)
//! and on RDMA-attached remote NVMe-oF storage. This crate models both as
//! bandwidth/latency servers in virtual time over a byte-faithful
//! [`SparseStore`]: what a workload writes is exactly what it later reads,
//! while blocks that were never written return a deterministic synthetic
//! pattern so that terabyte-scale read workloads need no backing RAM.
//!
//! Two request priorities exist, mirroring §4.7 of the paper: `Blocking`
//! (application read/write misses) and `Prefetch`. Prefetch requests are
//! subject to a congestion window — when the device backlog exceeds the
//! window, the prefetching thread stalls until the backlog drains, bounding
//! the delay that prefetch traffic can impose on later blocking I/O.
//!
//! # Example
//!
//! ```
//! use simclock::{GlobalClock, ThreadClock};
//! use simstore::{Device, DeviceConfig, IoPriority};
//! use std::sync::Arc;
//!
//! let device = Device::new(DeviceConfig::local_nvme());
//! let mut clock = ThreadClock::new(Arc::new(GlobalClock::new()));
//!
//! // Charge a one-block write and store its bytes, then charge the read
//! // and read them back: time and content are separate calls.
//! device.charge_write(&mut clock, 1, IoPriority::Blocking);
//! device.store().write_block(7, &[0xAB; simstore::BLOCK_SIZE]);
//! device.charge_read(&mut clock, 1, IoPriority::Blocking);
//! assert!(device.store().read_block_vec(7).iter().all(|&b| b == 0xAB));
//! assert!(clock.now() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod device;
mod fault;
mod store;
mod tiered;
pub mod wordwalk;

pub use config::DeviceConfig;
pub use device::{Device, DeviceStats, IoPriority};
pub use fault::{DeviceError, FaultPlan};
pub use store::{BlockHasher, BlockMap, SparseStore};
pub use tiered::{Tier, TierStats, TieredStore, WriteNote, PLACEMENT_WORD_BLOCKS};

/// Bytes per device block (and per OS page): 4 KiB.
pub const BLOCK_SIZE: usize = 4096;
/// log2 of [`BLOCK_SIZE`].
pub const BLOCK_SHIFT: u32 = 12;

/// Converts a byte count to the number of blocks that cover it.
pub fn blocks_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(BLOCK_SIZE as u64)
}

/// Deterministic content for a block that was never written.
///
/// The pattern depends only on the physical block number, so reads are
/// reproducible across runs and verifiable by tests without storing data.
pub fn synthetic_block(pblock: u64) -> Vec<u8> {
    let mut data = vec![0u8; BLOCK_SIZE];
    fill_synthetic(pblock, &mut data);
    data
}

/// Fills `out` (one block) with the synthetic pattern for `pblock`.
pub fn fill_synthetic(pblock: u64, out: &mut [u8]) {
    debug_assert_eq!(out.len(), BLOCK_SIZE);
    // SplitMix64 over (block, word) — cheap, uniform, and reproducible.
    for (word_idx, chunk) in out.chunks_exact_mut(8).enumerate() {
        let mut x = pblock
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(word_idx as u64);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        chunk.copy_from_slice(&x.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_for_bytes_rounds_up() {
        assert_eq!(blocks_for_bytes(0), 0);
        assert_eq!(blocks_for_bytes(1), 1);
        assert_eq!(blocks_for_bytes(4096), 1);
        assert_eq!(blocks_for_bytes(4097), 2);
    }

    #[test]
    fn synthetic_blocks_are_deterministic_and_distinct() {
        assert_eq!(synthetic_block(5), synthetic_block(5));
        assert_ne!(synthetic_block(5), synthetic_block(6));
    }

    #[test]
    fn synthetic_block_is_full_size() {
        assert_eq!(synthetic_block(0).len(), BLOCK_SIZE);
    }
}
