//! Per-operation virtual-time cost constants.

/// Virtual-time costs for the software operations in the simulated stack.
///
/// All values are nanoseconds and loosely calibrated against published
/// numbers for a ~3 GHz x86 server running Linux 5.x: a syscall round trip
/// is ~1 us with mitigations, a 4 KiB copy from the page cache is ~400 ns
/// (~10 GB/s effective memcpy), an uncontended lock operation is tens of
/// nanoseconds, and a radix-tree descent costs a few cache misses per page.
///
/// The *shape* of the paper's results is insensitive to modest changes in
/// these constants (see `tests/sensitivity.rs` at the workspace root); they
/// set scale, while queueing on [`FcfsResource`]s sets relative ordering.
///
/// [`FcfsResource`]: crate::FcfsResource
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed user/kernel crossing cost charged per system call.
    pub syscall_ns: u64,
    /// Copying one 4 KiB page between kernel and user buffers.
    pub page_copy_ns: u64,
    /// Walking the per-file cache tree to locate one page (slow path).
    pub tree_walk_per_page_ns: u64,
    /// Inserting one page into the per-file cache tree.
    pub tree_insert_per_page_ns: u64,
    /// Checking or setting one 64-page word of a cache-state bitmap.
    pub bitmap_word_ns: u64,
    /// Hold time on the per-inode bitmap rw-lock per operation.
    pub bitmap_lock_hold_ns: u64,
    /// Uncontended lock/unlock pair (fast path) cost.
    pub lock_op_ns: u64,
    /// Scanning one page's metadata during an mincore/fincore-style walk.
    pub fincore_scan_per_page_ns: u64,
    /// Fixed cost of the address-space-wide lock taken by fincore/mincore.
    pub fincore_mmap_lock_ns: u64,
    /// Copying one 64-page bitmap word to user space via `readahead_info`.
    pub bitmap_copy_word_ns: u64,
    /// LRU bookkeeping per page moved between lists.
    pub lru_per_page_ns: u64,
    /// Page allocation (buddy/pcp) cost per page.
    pub page_alloc_ns: u64,
    /// Predictor update per intercepted I/O in CROSS-LIB.
    pub predictor_step_ns: u64,
    /// Range-index lookup plus per-leaf lock in CROSS-LIB. This one
    /// constant prices routing: the index charges nothing per level,
    /// split or merge.
    pub range_tree_op_ns: u64,
    /// Major-fault fixed cost for memory-mapped access (trap + page-table).
    pub fault_ns: u64,
    /// Minor cost of touching an already-resident mapped page.
    pub mmap_minor_ns: u64,
    /// Penalty an optimistic range-index read pays when version validation
    /// fails against a writer in service and the reader retries instead
    /// of blocking (always capped at the blocking wait it replaces).
    /// Validation failures only exist under multi-threaded contention, so
    /// the charge never perturbs single-threaded timelines.
    pub range_index_retry_ns: u64,
}

impl CostModel {
    /// Cost of copying `pages` cached pages to a user buffer.
    pub fn copy_pages_ns(&self, pages: u64) -> u64 {
        self.page_copy_ns * pages
    }

    /// Cost of walking the cache tree for `pages` pages.
    pub fn tree_walk_ns(&self, pages: u64) -> u64 {
        self.tree_walk_per_page_ns * pages
    }

    /// Cost of a bitmap scan covering `pages` pages (64 pages per word).
    pub fn bitmap_scan_ns(&self, pages: u64) -> u64 {
        self.bitmap_word_ns * pages.div_ceil(64).max(1)
    }

    /// Cost of copying a `pages`-page bitmap window to user space.
    pub fn bitmap_copy_ns(&self, pages: u64) -> u64 {
        self.bitmap_copy_word_ns * pages.div_ceil(64).max(1)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            syscall_ns: 1_000,
            page_copy_ns: 400,
            tree_walk_per_page_ns: 120,
            tree_insert_per_page_ns: 250,
            bitmap_word_ns: 12,
            bitmap_lock_hold_ns: 60,
            lock_op_ns: 40,
            fincore_scan_per_page_ns: 90,
            fincore_mmap_lock_ns: 4_000,
            bitmap_copy_word_ns: 10,
            lru_per_page_ns: 50,
            page_alloc_ns: 180,
            predictor_step_ns: 25,
            range_tree_op_ns: 90,
            fault_ns: 1_500,
            mmap_minor_ns: 120,
            range_index_retry_ns: 120,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_positive() {
        let costs = CostModel::default();
        assert!(costs.syscall_ns > 0);
        assert!(costs.page_copy_ns > 0);
        assert!(costs.bitmap_word_ns > 0);
    }

    #[test]
    fn bitmap_scan_is_much_cheaper_than_tree_walk() {
        // The core CROSS-OS claim: bitmap lookups beat cache-tree walks.
        let costs = CostModel::default();
        let pages = 512; // 2 MiB prefetch window
        assert!(costs.bitmap_scan_ns(pages) * 10 < costs.tree_walk_ns(pages));
    }

    #[test]
    fn bitmap_scan_rounds_up_to_a_word() {
        let costs = CostModel::default();
        assert_eq!(costs.bitmap_scan_ns(1), costs.bitmap_word_ns);
        assert_eq!(costs.bitmap_scan_ns(64), costs.bitmap_word_ns);
        assert_eq!(costs.bitmap_scan_ns(65), 2 * costs.bitmap_word_ns);
    }

    #[test]
    fn clone_equals_original() {
        let costs = CostModel::default();
        assert_eq!(costs.clone(), costs);
    }
}
