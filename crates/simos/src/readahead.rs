//! Linux-style incremental readahead state machine.
//!
//! Reimplements the behaviour the paper's baselines depend on (§2.1, §3):
//!
//! * incremental prefetching capped at `ra_max_pages` (32 pages = 128 KiB
//!   by default, regardless of free memory);
//! * window growth by doubling once a sequential stream is established, and
//!   an *async marker* placed inside the window so the next window is
//!   requested before the stream drains;
//! * accesses within a 32-block batch of the previous position are deemed
//!   sequential (§3.1);
//! * window shrink on random access, with the window collapsing to nothing
//!   when a file keeps missing;
//! * `fadvise` overrides: `SEQUENTIAL` doubles the cap, `RANDOM` disables
//!   readahead entirely.

/// Access-mode override installed by `fadvise`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RaMode {
    /// Heuristic detection (default).
    #[default]
    Normal,
    /// `POSIX_FADV_SEQUENTIAL`: double the readahead cap.
    Sequential,
    /// `POSIX_FADV_RANDOM`: disable readahead.
    Random,
}

/// A readahead decision: prefetch pages `[start, start + count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaRequest {
    /// First page to prefetch.
    pub start: u64,
    /// Pages to prefetch.
    pub count: u64,
}

/// Linux's batch window for calling an access "sequential" (§3.1: strides
/// shorter than 32 blocks still trigger the next batch).
pub const SEQ_BATCH_PAGES: u64 = 32;

/// Per-file-descriptor readahead state.
#[derive(Debug, Clone)]
pub struct RaState {
    /// Current window start page.
    window_start: u64,
    /// Current window size in pages (0 = no window yet).
    window_size: u64,
    /// Pages before window end at which the next window is triggered.
    async_size: u64,
    /// Page just past the previous read.
    prev_end: Option<u64>,
    /// Consecutive random accesses observed.
    random_streak: u32,
    /// Mode override.
    mode: RaMode,
    /// Cap on one readahead window, in pages.
    ra_max_pages: u64,
}

impl RaState {
    /// Fresh state with the given per-window cap.
    pub fn new(ra_max_pages: u64) -> Self {
        Self {
            window_start: 0,
            window_size: 0,
            async_size: 0,
            prev_end: None,
            random_streak: 0,
            mode: RaMode::Normal,
            ra_max_pages,
        }
    }

    /// Installs an `fadvise` mode override.
    pub fn set_mode(&mut self, mode: RaMode) {
        self.mode = mode;
        if mode == RaMode::Random {
            self.window_size = 0;
            self.async_size = 0;
        }
    }

    /// Current mode override.
    pub fn mode(&self) -> RaMode {
        self.mode
    }

    /// Effective cap for one window.
    pub fn effective_max(&self) -> u64 {
        match self.mode {
            RaMode::Sequential => self.ra_max_pages * 2,
            _ => self.ra_max_pages,
        }
    }

    /// Feeds one read of `[page, page + count)` through the state machine
    /// and returns the readahead to issue, if any.
    pub fn on_read(&mut self, page: u64, count: u64) -> Option<RaRequest> {
        if self.mode == RaMode::Random {
            return None;
        }
        let max = self.effective_max();
        let sequentialish = match self.prev_end {
            None => page == 0, // first access from the file head counts
            Some(prev) => {
                page >= prev.saturating_sub(SEQ_BATCH_PAGES) && page <= prev + SEQ_BATCH_PAGES
            }
        };
        let read_end = page + count;
        self.prev_end = Some(read_end);

        if !sequentialish {
            // Random jump: shrink. After a few misses, give up entirely
            // until sequentiality re-establishes.
            self.random_streak += 1;
            self.window_size = if self.random_streak >= 2 {
                0
            } else {
                self.window_size / 2
            };
            self.async_size = self.window_size / 2;
            if self.window_size == 0 {
                return None;
            }
            self.window_start = read_end;
            return Some(RaRequest {
                start: read_end,
                count: self.window_size,
            });
        }

        self.random_streak = 0;
        if self.window_size == 0 {
            // Initial window: 4x the request, at least 4 pages, capped.
            // Initial window: 4x the request, at least 4 pages, never
            // past the cap (which may be tiny in limit-sweep configs).
            let initial = (count * 4).max(4).min(max.max(1));
            self.window_start = read_end;
            self.window_size = initial;
            self.async_size = initial / 2;
            return Some(RaRequest {
                start: read_end,
                count: initial,
            });
        }

        let window_end = self.window_start + self.window_size;
        let marker = window_end.saturating_sub(self.async_size);
        if read_end >= marker {
            // Hit the async marker: schedule the next, doubled window.
            let next_size = (self.window_size * 2).min(max);
            let next_start = window_end.max(read_end);
            self.window_start = next_start;
            self.window_size = next_size;
            self.async_size = next_size / 2;
            return Some(RaRequest {
                start: next_start,
                count: next_size,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RA_MAX: u64 = 32;

    #[test]
    fn first_sequential_read_opens_initial_window() {
        let mut ra = RaState::new(RA_MAX);
        let req = ra.on_read(0, 4).expect("initial window");
        assert_eq!(req.start, 4);
        assert_eq!(req.count, 16); // 4x request
    }

    #[test]
    fn window_doubles_up_to_cap() {
        let mut ra = RaState::new(RA_MAX);
        let first = ra.on_read(0, 4).unwrap();
        // Read into the async marker to trigger the next window.
        let mut page = 4;
        let mut sizes = vec![first.count];
        for _ in 0..4 {
            let mut req = None;
            while req.is_none() {
                req = ra.on_read(page, 4);
                page += 4;
            }
            sizes.push(req.unwrap().count);
        }
        assert!(sizes.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(*sizes.last().unwrap(), RA_MAX);
    }

    #[test]
    fn never_exceeds_cap() {
        let mut ra = RaState::new(RA_MAX);
        let mut page = 0;
        for _ in 0..200 {
            if let Some(req) = ra.on_read(page, 8) {
                assert!(req.count <= RA_MAX);
            }
            page += 8;
        }
    }

    #[test]
    fn random_mode_disables_readahead() {
        let mut ra = RaState::new(RA_MAX);
        ra.set_mode(RaMode::Random);
        assert_eq!(ra.on_read(0, 4), None);
        assert_eq!(ra.on_read(1000, 4), None);
    }

    #[test]
    fn sequential_mode_doubles_cap() {
        let mut ra = RaState::new(RA_MAX);
        ra.set_mode(RaMode::Sequential);
        assert_eq!(ra.effective_max(), 2 * RA_MAX);
        let mut page = 0;
        let mut best = 0;
        for _ in 0..50 {
            if let Some(req) = ra.on_read(page, 8) {
                best = best.max(req.count);
            }
            page += 8;
        }
        assert_eq!(best, 2 * RA_MAX);
    }

    #[test]
    fn random_jumps_shrink_then_kill_window() {
        let mut ra = RaState::new(RA_MAX);
        ra.on_read(0, 4).unwrap();
        // Two far jumps: first shrinks, second disables.
        let first_jump = ra.on_read(10_000, 4);
        let second_jump = ra.on_read(50_000, 4);
        assert!(first_jump.map_or(0, |r| r.count) <= 8);
        assert_eq!(second_jump, None);
    }

    #[test]
    fn sequentiality_reestablishes_after_randomness() {
        let mut ra = RaState::new(RA_MAX);
        ra.on_read(0, 4);
        ra.on_read(10_000, 4);
        ra.on_read(50_000, 4);
        assert_eq!(ra.on_read(90_000, 4), None);
        // Now read sequentially from the last position.
        let req = ra.on_read(90_004, 4).expect("window reopens");
        assert!(req.count >= 4);
    }

    #[test]
    fn short_strides_count_as_sequential() {
        // Paper §3.1: strides within 32 blocks still trigger prefetch.
        let mut ra = RaState::new(RA_MAX);
        ra.on_read(0, 4);
        let mut issued = 0;
        let mut page = 20; // stride of 16 pages from prev_end=4... within 32
        for _ in 0..20 {
            if ra.on_read(page, 4).is_some() {
                issued += 1;
            }
            page += 20;
        }
        assert!(issued > 0, "strided access should still prefetch");
    }
}
