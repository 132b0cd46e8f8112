//! Shared resources modeled as single servers in virtual time.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::LockStats;

/// The outcome of occupying a resource for some service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Virtual time at which service began (>= request time).
    pub start_ns: u64,
    /// Virtual time at which service completed.
    pub end_ns: u64,
    /// Time spent queued behind earlier occupants (`start - request`).
    pub wait_ns: u64,
}

impl Access {
    /// Total time the caller was delayed by this access (wait + service).
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - (self.start_ns - self.wait_ns)
    }
}

/// Upper bound on tracked busy intervals; beyond it the oldest gap is
/// forfeited (conservative — capacity is never double-booked).
const MAX_INTERVALS: usize = 8192;

/// Whether every busy interval ends at or before `now`, so a request at
/// `now` appends to the calendar. Intervals are sorted and disjoint,
/// hence so are their ends: the last one decides, and the binary search
/// for the first interval ending after `now` would answer `len`.
fn idle_from(busy: &VecDeque<(u64, u64)>, now: u64) -> bool {
    busy.back().is_none_or(|&(_, end)| end <= now)
}

/// A single-server resource in virtual time with **gap filling**.
///
/// Storage bandwidth, a journal, or an exclusively-held lock all behave
/// the same way under this model: at any virtual instant at most one
/// request is in service, and occupancy accumulates.
///
/// Worker threads advance their virtual clocks at different rates, so
/// requests arrive out of virtual-time order: a thread whose clock reads
/// 20 ms may request *after* (in real time) another thread stamped
/// 300 ms. A naive next-free horizon would force the earlier-stamped
/// request to queue behind the later one, serializing the simulation on
/// thread skew. This implementation instead tracks busy *intervals* and
/// lets a request occupy the earliest idle gap at or after its own
/// timestamp — single-server semantics that are insensitive to arrival
/// order.
#[derive(Debug)]
pub struct FcfsResource {
    name: &'static str,
    busy: Mutex<VecDeque<(u64, u64)>>,
    busy_ns: AtomicU64,
    stats: LockStats,
}

impl FcfsResource {
    /// Creates an idle resource named for diagnostics.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            busy: Mutex::new(VecDeque::new()),
            busy_ns: AtomicU64::new(0),
            stats: LockStats::default(),
        }
    }

    /// Diagnostic name of this resource.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Occupies the resource for `service_ns` starting no earlier than
    /// `now`, filling the earliest idle gap.
    ///
    /// Returns when service begins and ends in virtual time. The caller is
    /// responsible for advancing its [`ThreadClock`] to `end_ns`.
    ///
    /// [`ThreadClock`]: crate::ThreadClock
    pub fn access(&self, now: u64, service_ns: u64) -> Access {
        let mut busy = self.busy.lock();
        // Find the insertion point: first interval ending after `now`.
        let mut idx = if idle_from(&busy, now) {
            busy.len()
        } else {
            busy.partition_point(|&(_, end)| end <= now)
        };
        let mut start = now;
        while idx < busy.len() {
            let (istart, iend) = busy[idx];
            if start + service_ns <= istart {
                break; // fits in the gap before interval idx
            }
            start = start.max(iend);
            idx += 1;
        }
        let end = start + service_ns;
        // Insert and merge with neighbours.
        busy.insert(idx, (start, end));
        // Merge right.
        while idx + 1 < busy.len() && busy[idx].1 >= busy[idx + 1].0 {
            let (_, next_end) = busy.remove(idx + 1).expect("bounds checked");
            busy[idx].1 = busy[idx].1.max(next_end);
        }
        // Merge left.
        while idx > 0 && busy[idx - 1].1 >= busy[idx].0 {
            let (_, cur_end) = busy.remove(idx).expect("bounds checked");
            busy[idx - 1].1 = busy[idx - 1].1.max(cur_end);
            idx -= 1;
        }
        // Bound memory: forfeit the oldest gap.
        if busy.len() > MAX_INTERVALS {
            let (first_start, _) = busy[0];
            let (_, second_end) = busy[1];
            busy[1] = (first_start, second_end);
            busy.pop_front();
        }
        drop(busy);

        let wait = start - now;
        self.busy_ns.fetch_add(service_ns, Ordering::Relaxed);
        self.stats.record(wait, service_ns);
        Access {
            start_ns: start,
            end_ns: end,
            wait_ns: wait,
        }
    }

    /// The end of the last busy interval (the classic FCFS horizon).
    pub fn next_free(&self) -> u64 {
        self.busy.lock().back().map_or(0, |&(_, end)| end)
    }

    /// The earliest time at or after `now` when the resource is idle —
    /// i.e. the end of the busy interval containing `now`, or `now`.
    pub fn clear_time(&self, now: u64) -> u64 {
        let busy = self.busy.lock();
        if idle_from(&busy, now) {
            return now;
        }
        let idx = busy.partition_point(|&(_, end)| end <= now);
        match busy.get(idx) {
            Some(&(start, end)) if start <= now => end,
            _ => now,
        }
    }

    /// Total virtual time the resource has been occupied.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Contention statistics accumulated so far.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }
}

/// Reader-writer contention model for a lock in virtual time.
///
/// Mirrors the paper's description of the per-file cache-tree lock:
/// writers (page insertions from prefetch or miss fills) serialize and
/// delay everyone; readers (lookups) are delayed by writers in service at
/// their timestamp but run concurrently with each other.
///
/// Readers never occupy the writer's capacity, so this model slightly
/// understates reader-blocks-writer effects — the dominant pathology in
/// the paper (prefetch writers blocking regular reads) is captured.
#[derive(Debug)]
pub struct RwContention {
    writer: FcfsResource,
    read_stats: LockStats,
}

impl RwContention {
    /// Creates an uncontended lock model named for diagnostics.
    pub fn new(name: &'static str) -> Self {
        Self {
            writer: FcfsResource::new(name),
            read_stats: LockStats::default(),
        }
    }

    /// Charges a shared (read) acquisition of `hold_ns`.
    ///
    /// The read begins once any writer holding the lock *at its timestamp*
    /// has drained; it does not block other readers or future writers.
    pub fn read(&self, now: u64, hold_ns: u64) -> Access {
        let start = self.writer.clear_time(now);
        let end = start + hold_ns;
        let wait = start - now;
        self.read_stats.record(wait, hold_ns);
        Access {
            start_ns: start,
            end_ns: end,
            wait_ns: wait,
        }
    }

    /// Charges an exclusive (write) acquisition of `hold_ns`.
    pub fn write(&self, now: u64, hold_ns: u64) -> Access {
        self.writer.access(now, hold_ns)
    }

    /// Statistics for exclusive acquisitions.
    pub fn write_stats(&self) -> &LockStats {
        self.writer.stats()
    }

    /// Statistics for shared acquisitions.
    pub fn read_stats(&self) -> &LockStats {
        &self.read_stats
    }

    /// Total wait time across read and write sides, in nanoseconds.
    pub fn total_wait_ns(&self) -> u64 {
        self.read_stats.wait_ns() + self.writer.stats().wait_ns()
    }

    /// When a writer in service at `now` drains, or `now` if none is.
    ///
    /// Pure peek: nothing is recorded. Optimistic lock coupling uses this
    /// to decide whether a version-validated read descent would have
    /// conflicted with a writer and must charge a retry penalty.
    pub fn write_busy_until(&self, now: u64) -> u64 {
        self.writer.clear_time(now)
    }

    /// Records a shared acquisition whose wait the caller determined.
    ///
    /// Optimistic readers pay a bounded retry penalty instead of the
    /// blocking wait [`RwContention::read`] would charge; the penalty
    /// still lands in the read-side statistics so aggregate lock-wait
    /// accounting covers both locking disciplines.
    pub fn record_read(&self, wait_ns: u64, hold_ns: u64) {
        self.read_stats.record(wait_ns, hold_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The calendar as it was before the append fast path: every request
    /// binary-searches for its insertion point. Differential oracle.
    #[derive(Default)]
    struct SearchingCalendar {
        busy: VecDeque<(u64, u64)>,
    }

    impl SearchingCalendar {
        fn access(&mut self, now: u64, service_ns: u64) -> Access {
            let busy = &mut self.busy;
            let mut idx = busy.partition_point(|&(_, end)| end <= now);
            let mut start = now;
            while idx < busy.len() {
                let (istart, iend) = busy[idx];
                if start + service_ns <= istart {
                    break;
                }
                start = start.max(iend);
                idx += 1;
            }
            let end = start + service_ns;
            busy.insert(idx, (start, end));
            while idx + 1 < busy.len() && busy[idx].1 >= busy[idx + 1].0 {
                let (_, next_end) = busy.remove(idx + 1).expect("bounds checked");
                busy[idx].1 = busy[idx].1.max(next_end);
            }
            while idx > 0 && busy[idx - 1].1 >= busy[idx].0 {
                let (_, cur_end) = busy.remove(idx).expect("bounds checked");
                busy[idx - 1].1 = busy[idx - 1].1.max(cur_end);
                idx -= 1;
            }
            if busy.len() > MAX_INTERVALS {
                let (first_start, _) = busy[0];
                let (_, second_end) = busy[1];
                busy[1] = (first_start, second_end);
                busy.pop_front();
            }
            Access {
                start_ns: start,
                end_ns: end,
                wait_ns: start - now,
            }
        }

        fn clear_time(&self, now: u64) -> u64 {
            let idx = self.busy.partition_point(|&(_, end)| end <= now);
            match self.busy.get(idx) {
                Some(&(start, end)) if start <= now => end,
                _ => now,
            }
        }
    }

    /// The calendar beside its oracle: every `Access`, and the
    /// `clear_time` of every instant a request names (its arrival, its
    /// start, its end), must agree.
    struct Differential {
        device: FcfsResource,
        oracle: SearchingCalendar,
    }

    impl Differential {
        fn new() -> Self {
            Self {
                device: FcfsResource::new("dev"),
                oracle: SearchingCalendar::default(),
            }
        }

        fn access(&mut self, now: u64, service_ns: u64) -> Access {
            assert_eq!(self.device.clear_time(now), self.oracle.clear_time(now));
            let access = self.device.access(now, service_ns);
            assert_eq!(access, self.oracle.access(now, service_ns));
            for at in [now, access.start_ns, access.end_ns] {
                assert_eq!(self.device.clear_time(at), self.oracle.clear_time(at));
            }
            access
        }

        fn assert_same_intervals(&self) {
            assert_eq!(*self.device.busy.lock(), self.oracle.busy);
        }
    }

    proptest! {
        #[test]
        fn append_fast_path_matches_the_searching_calendar(
            ops in prop::collection::vec((0u8..5, 0u64..3_000, 0u64..400), 1..300)
        ) {
            // Arrival shapes: in order (0, 1), back-to-back at the last
            // completion (2), out of order anywhere in the past (3), and
            // far ahead so later ones land in the middle (4); one service
            // time in eight is zero-length.
            let mut pair = Differential::new();
            let mut cursor = 0u64;
            let mut last_end = 0u64;
            for (shape, delta, service) in ops {
                let now = match shape {
                    0 | 1 => {
                        cursor += delta;
                        cursor
                    }
                    2 => last_end,
                    3 => delta * cursor / 3_000,
                    _ => cursor + 40 * delta,
                };
                let service_ns = if service % 8 == 0 { 0 } else { service };
                last_end = pair.access(now, service_ns).end_ns;
            }
            pair.assert_same_intervals();
        }
    }

    #[test]
    fn interval_forfeit_matches_the_searching_calendar() {
        // Spaced appends up to and past `MAX_INTERVALS`, with every
        // seventh request reaching back into an old gap.
        let mut pair = Differential::new();
        for i in 0..MAX_INTERVALS as u64 + 200 {
            match i % 7 {
                6 => pair.access(i * 500 + 250, 3),
                _ => pair.access(i * 1_000, 1),
            };
        }
        pair.assert_same_intervals();
        assert_eq!(pair.oracle.busy.len(), MAX_INTERVALS);
    }

    #[test]
    fn fcfs_serializes_back_to_back_requests() {
        let device = FcfsResource::new("dev");
        let first = device.access(0, 100);
        assert_eq!((first.start_ns, first.end_ns, first.wait_ns), (0, 100, 0));
        // Requested at t=10 while busy until t=100: waits 90.
        let second = device.access(10, 50);
        assert_eq!(
            (second.start_ns, second.end_ns, second.wait_ns),
            (100, 150, 90)
        );
    }

    #[test]
    fn fcfs_idle_gap_does_not_backfill_for_late_requests() {
        let device = FcfsResource::new("dev");
        device.access(0, 10);
        // A late request starts at its own arrival time.
        let late = device.access(1_000, 10);
        assert_eq!(late.start_ns, 1_000);
        assert_eq!(late.wait_ns, 0);
    }

    #[test]
    fn fcfs_backfills_out_of_order_arrivals() {
        // The skew-tolerance property: a request stamped far in the
        // future must not delay one stamped earlier.
        let device = FcfsResource::new("dev");
        let future = device.access(1_000_000, 100);
        assert_eq!(future.start_ns, 1_000_000);
        let past = device.access(0, 100);
        assert_eq!(past.start_ns, 0, "early request uses the idle past");
        assert_eq!(past.wait_ns, 0);
    }

    #[test]
    fn fcfs_gap_too_small_skips_to_next_gap() {
        let device = FcfsResource::new("dev");
        device.access(0, 100); // [0,100)
        device.access(150, 100); // [150,250)
                                 // 60ns of service does not fit in the 50ns gap [100,150).
        let access = device.access(90, 60);
        assert_eq!(access.start_ns, 250);
        // But 40ns fits.
        let access = device.access(90, 40);
        assert_eq!(access.start_ns, 100);
    }

    #[test]
    fn fcfs_busy_accumulates() {
        let device = FcfsResource::new("dev");
        device.access(0, 30);
        device.access(0, 70);
        assert_eq!(device.busy_ns(), 100);
        assert_eq!(device.stats().acquisitions(), 2);
    }

    #[test]
    fn access_latency_includes_wait() {
        let device = FcfsResource::new("dev");
        device.access(0, 100);
        let second = device.access(40, 60);
        assert_eq!(second.latency_ns(), 60 + 60);
    }

    #[test]
    fn clear_time_finds_idle_point() {
        let device = FcfsResource::new("dev");
        device.access(100, 100); // [100,200)
        assert_eq!(device.clear_time(0), 0);
        assert_eq!(device.clear_time(150), 200);
        assert_eq!(device.clear_time(300), 300);
    }

    #[test]
    fn intervals_merge_when_contiguous() {
        let device = FcfsResource::new("dev");
        for i in 0..100 {
            device.access(i * 10, 10);
        }
        // All contiguous — one interval, horizon at 1000.
        assert_eq!(device.next_free(), 1000);
        assert_eq!(device.clear_time(500), 1000);
    }

    #[test]
    fn readers_do_not_block_each_other() {
        let lock = RwContention::new("tree");
        let r1 = lock.read(0, 50);
        let r2 = lock.read(0, 50);
        assert_eq!(r1.start_ns, 0);
        assert_eq!(r2.start_ns, 0);
    }

    #[test]
    fn writers_block_readers_at_their_timestamp() {
        let lock = RwContention::new("tree");
        lock.write(0, 200);
        let read = lock.read(10, 5);
        assert_eq!(read.start_ns, 200);
        assert_eq!(read.wait_ns, 190);
        assert!(lock.total_wait_ns() >= 190);
        // A reader far in the future is unaffected.
        let late = lock.read(10_000, 5);
        assert_eq!(late.wait_ns, 0);
    }

    #[test]
    fn write_busy_until_peeks_without_recording() {
        let lock = RwContention::new("tree");
        lock.write(0, 200);
        assert_eq!(lock.write_busy_until(50), 200);
        assert_eq!(lock.write_busy_until(200), 200);
        assert_eq!(lock.write_busy_until(201), 201);
        // The peek left no trace in the read-side statistics.
        assert_eq!(lock.read_stats().acquisitions(), 0);
    }

    #[test]
    fn record_read_lands_in_read_stats() {
        let lock = RwContention::new("tree");
        lock.record_read(35, 10);
        assert_eq!(lock.read_stats().wait_ns(), 35);
        assert_eq!(lock.read_stats().acquisitions(), 1);
        assert_eq!(lock.total_wait_ns(), 35);
    }

    #[test]
    fn writers_serialize() {
        let lock = RwContention::new("tree");
        lock.write(0, 100);
        let second = lock.write(0, 100);
        assert_eq!(second.start_ns, 100);
        assert_eq!(lock.write_stats().contended(), 1);
    }

    #[test]
    fn concurrent_fcfs_occupancy_is_consistent() {
        use std::sync::Arc;
        let device = Arc::new(FcfsResource::new("dev"));
        crossbeam::scope(|scope| {
            for _ in 0..8 {
                let device = Arc::clone(&device);
                scope.spawn(move |_| {
                    for _ in 0..500 {
                        device.access(0, 3);
                    }
                });
            }
        })
        .unwrap();
        // 8 threads x 500 accesses x 3ns each, perfectly serialized.
        assert_eq!(device.busy_ns(), 8 * 500 * 3);
        assert_eq!(device.next_free(), 8 * 500 * 3);
    }

    #[test]
    fn interval_cap_is_respected() {
        let device = FcfsResource::new("dev");
        // Many widely spaced intervals.
        for i in 0..(MAX_INTERVALS as u64 + 100) {
            device.access(i * 1000, 1);
        }
        // Still functional and bounded.
        assert!(device.next_free() > 0);
        let access = device.access(0, 1);
        assert!(access.end_ns > 0);
    }
}
