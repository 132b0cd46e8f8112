//! OS-level configuration.

use simclock::{CostModel, NS_PER_SEC};

/// Write-back daemon tunables (CAWL-style cache-aware write-back: writes
/// absorb into the page cache and are flushed in coalesced runs when
/// the per-file threshold, the global background or hard limit, or a
/// virtual-time deadline forces it). The daemon is the OS's only write
/// path; these values shape it.
#[derive(Debug, Clone, PartialEq)]
pub struct WritebackConfig {
    /// Per-file dirty pages that trigger a background flush of that file.
    pub file_dirty_threshold_pages: u64,
    /// Global dirty pages that trigger a background sweep of the oldest
    /// dirty files (softer than the write path's hard synchronous
    /// limit, a constant of `writeback.rs`).
    pub background_dirty_pages: u64,
    /// Flush every write synchronously instead of absorbing — the
    /// write-through comparison baseline for the coalescing gate.
    pub write_through: bool,
}

impl Default for WritebackConfig {
    fn default() -> Self {
        Self {
            file_dirty_threshold_pages: 1024,
            background_dirty_pages: 2048,
            write_through: false,
        }
    }
}

/// Tunables of the simulated OS.
#[derive(Debug, Clone)]
pub struct OsConfig {
    /// Page-cache capacity in pages (the machine's memory budget).
    pub memory_budget_pages: u64,
    /// Default per-window readahead cap in pages (Linux: 32 = 128 KiB).
    pub ra_max_pages: u64,
    /// Fraction of the budget to free when reclaim triggers (reclaim runs
    /// until `resident <= budget * (1 - reclaim_slack)`).
    pub reclaim_slack: f64,
    /// Pages a fault pulls in around an `mmap` access (Linux fault-around).
    pub fault_around_pages: u64,
    /// Inactivity horizon after which a file is reclaim-preferred (30 s in
    /// both Linux and the paper's CROSS-LIB).
    pub inactive_after_ns: u64,
    /// Whether this kernel implements the `readahead_info` syscall. When
    /// `false` (a stock kernel without CROSS-OS), [`crate::Os::try_readahead_info`]
    /// returns [`crate::IoError::Unsupported`] and CROSS-LIB must degrade
    /// to blind `readahead(2)`. The infallible `readahead_info` ignores
    /// this flag.
    pub readahead_info_supported: bool,
    /// Write-back daemon tunables; `None` (default) means
    /// [`WritebackConfig::default`]. The OS resolves this once at boot.
    pub writeback: Option<WritebackConfig>,
    /// Software operation costs.
    pub costs: CostModel,
}

impl OsConfig {
    /// A machine with `memory_mb` of page cache and paper-default knobs.
    pub fn with_memory_mb(memory_mb: u64) -> Self {
        Self {
            memory_budget_pages: memory_mb * 256, // 4 KiB pages
            ..Self::default()
        }
    }
}

impl Default for OsConfig {
    fn default() -> Self {
        Self {
            memory_budget_pages: 64 * 256, // 64 MiB — tests override
            ra_max_pages: 32,
            reclaim_slack: 0.05,
            fault_around_pages: 16,
            inactive_after_ns: 30 * NS_PER_SEC,
            writeback: None,
            readahead_info_supported: true,
            costs: CostModel::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_memory_mb_converts_pages() {
        let config = OsConfig::with_memory_mb(128);
        assert_eq!(config.memory_budget_pages, 128 * 256);
        assert_eq!(config.ra_max_pages, 32);
    }

    #[test]
    fn default_ra_cap_is_128kib() {
        let config = OsConfig::default();
        assert_eq!(config.ra_max_pages * 4096, 128 * 1024);
    }
}
