//! Per-thread virtual clocks and the shared global high-water mark.

use std::sync::Arc;

use crate::lane::{self, LaneWord};

/// Monotone high-water mark of virtual time across all worker threads.
///
/// Individual workers advance their own [`ThreadClock`] independently; the
/// global clock tracks the maximum observed time. Components that need a
/// notion of "now" without a calling thread (e.g. the OS LRU's 30-second
/// file-inactivity rule) read the global clock.
///
/// The mark is a lane word (see the `lane` module): the owner thread
/// raises its word with a plain store, others with `fetch_max`, and
/// [`GlobalClock::now`] reads the larger of the two.
#[derive(Debug, Default)]
pub struct GlobalClock {
    max_ns: LaneWord,
}

impl GlobalClock {
    /// Creates a global clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the highest virtual time any thread has reached.
    pub fn now(&self) -> u64 {
        self.max_ns.max()
    }

    /// Publishes `ns` as a candidate high-water mark.
    ///
    /// Returns the (possibly newer) global time after the update.
    pub fn publish(&self, ns: u64) -> u64 {
        self.raise(ns);
        self.now()
    }

    /// Publishes `ns` without reading the mark back.
    fn raise(&self, ns: u64) {
        self.max_ns.raise(lane::owned(), ns);
    }
}

/// A worker thread's private virtual clock.
///
/// The clock only moves forward. Each simulated operation (syscall entry,
/// lock wait, page copy, device access) advances it by the operation's
/// virtual cost; interactions with shared [`FcfsResource`]s couple clocks
/// across threads.
///
/// [`FcfsResource`]: crate::FcfsResource
#[derive(Debug, Clone)]
pub struct ThreadClock {
    now_ns: u64,
    /// The clock this one publishes to; `None` for a detached clock.
    global: Option<Arc<GlobalClock>>,
}

impl ThreadClock {
    /// Creates a clock at time zero attached to `global`.
    pub fn new(global: Arc<GlobalClock>) -> Self {
        Self {
            now_ns: 0,
            global: Some(global),
        }
    }

    /// Creates a clock starting at `start_ns` (e.g. forked from a parent).
    pub fn starting_at(global: Arc<GlobalClock>, start_ns: u64) -> Self {
        let mut clock = Self::new(global);
        clock.advance_to(start_ns);
        clock
    }

    /// Creates a *detached* clock for background/asynchronous work
    /// (prefetch streams, writeback). Detached clocks never publish to a
    /// global high-water mark, so a prefetch stream scheduling far-future
    /// device work does not drag "now" forward for LRU aging or
    /// congestion accounting.
    pub fn detached_at(start_ns: u64) -> Self {
        Self {
            now_ns: start_ns,
            global: None,
        }
    }

    /// Current virtual time of this thread.
    pub fn now(&self) -> u64 {
        self.now_ns
    }

    /// Advances by a relative cost in nanoseconds.
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
        if let Some(global) = &self.global {
            global.raise(self.now_ns);
        }
    }

    /// Advances to an absolute completion time.
    ///
    /// Times in the past are ignored (the clock never goes backwards), so it
    /// is always safe to pass a resource completion timestamp.
    pub fn advance_to(&mut self, ns: u64) {
        if ns > self.now_ns {
            self.now_ns = ns;
            if let Some(global) = &self.global {
                global.raise(ns);
            }
        }
    }
}

/// Runs `n` simulated threads to completion on scoped OS threads: thread
/// `t` gets its own [`ThreadClock`] starting at `start_ns` on `global` and
/// runs `body(t, &mut clock)`. Results come back in thread-index order; a
/// panicking thread's panic resumes on the caller.
///
/// Every multi-threaded workload and bench launches its workers here, so
/// this is the one place a thread schedule is decided.
pub fn run_threads<T, F>(global: &Arc<GlobalClock>, start_ns: u64, n: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut ThreadClock) -> T + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let body = &body;
                scope.spawn(move || {
                    let mut clock = ThreadClock::starting_at(Arc::clone(global), start_ns);
                    body(t, &mut clock)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let global = Arc::new(GlobalClock::new());
        let mut clock = ThreadClock::new(Arc::clone(&global));
        assert_eq!(clock.now(), 0);
        clock.advance(100);
        assert_eq!(clock.now(), 100);
        assert_eq!(global.now(), 100);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let global = Arc::new(GlobalClock::new());
        let mut clock = ThreadClock::new(global);
        clock.advance(500);
        clock.advance_to(300);
        assert_eq!(clock.now(), 500);
        clock.advance_to(900);
        assert_eq!(clock.now(), 900);
    }

    #[test]
    fn global_tracks_max_across_threads() {
        let global = Arc::new(GlobalClock::new());
        let mut a = ThreadClock::new(Arc::clone(&global));
        let mut b = ThreadClock::new(Arc::clone(&global));
        a.advance(10);
        b.advance(25);
        a.advance(5); // a at 15
        assert_eq!(global.now(), 25);
    }

    #[test]
    fn starting_at_publishes() {
        let global = Arc::new(GlobalClock::new());
        let clock = ThreadClock::starting_at(Arc::clone(&global), 42);
        assert_eq!(clock.now(), 42);
        assert_eq!(global.now(), 42);
    }

    #[test]
    fn detached_clock_keeps_time_without_publishing() {
        let mut clock = ThreadClock::detached_at(40);
        clock.advance(10);
        clock.advance_to(30);
        assert_eq!(clock.now(), 50);
        assert!(clock.global.is_none());
    }

    #[test]
    fn run_threads_forks_clocks_and_keeps_index_order() {
        let global = Arc::new(GlobalClock::new());
        let ends = run_threads(&global, 100, 4, |t, clock| {
            assert_eq!(clock.now(), 100);
            clock.advance(t as u64 * 10);
            (t, clock.now())
        });
        assert_eq!(ends, vec![(0, 100), (1, 110), (2, 120), (3, 130)]);
        assert_eq!(global.now(), 130);
    }

    #[test]
    fn publish_returns_latest() {
        let global = GlobalClock::new();
        assert_eq!(global.publish(10), 10);
        assert_eq!(global.publish(5), 10);
        assert_eq!(global.publish(20), 20);
    }

    #[test]
    fn concurrent_publish_is_monotone() {
        let global = Arc::new(GlobalClock::new());
        crossbeam::scope(|scope| {
            for thread_id in 0..8u64 {
                let global = Arc::clone(&global);
                scope.spawn(move |_| {
                    for step in 0..1000u64 {
                        global.publish(thread_id * 1000 + step);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(global.now(), 7 * 1000 + 999);
    }
}
