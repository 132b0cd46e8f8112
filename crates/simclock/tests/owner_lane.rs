//! The owner lane under concurrency, in its own test binary so this test
//! decides which thread owns the lane: the first thread that records
//! claims it, and nothing else in this process records.
//!
//! One owner and four shared threads each add 100 k to one `Counter`,
//! record 100 k samples into one `Histogram` and publish 100 k instants
//! to one `GlobalClock`; totals, every bucket and the high-water mark must
//! be exact. The owner then exits, a new thread claims the lane, and the
//! totals must stay exact across the handoff.

use std::sync::Barrier;
use std::thread;

use simclock::{Counter, GlobalClock, Histogram, HISTOGRAM_BUCKETS};

const PER_THREAD: u64 = 100_000;

struct Stats {
    counter: Counter,
    hist: Histogram,
    global: GlobalClock,
}

/// Thread `t`'s `i`-th sample; spread over a dozen buckets.
fn sample(t: u64, i: u64) -> u64 {
    (i * 7 + t * 131) % 5_000
}

/// Thread `t`'s `i`-th published instant; a larger `t` publishes later.
fn instant(t: u64, i: u64) -> u64 {
    t * 1_000_000 + i
}

fn bucket(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

fn work(stats: &Stats, t: u64) {
    for i in 0..PER_THREAD {
        stats.counter.incr();
        stats.hist.record(sample(t, i));
        stats.global.publish(instant(t, i));
    }
}

/// Runs `owner` (which records first, so claims the lane if it is free)
/// beside `shared`, which start only once the owner has recorded.
fn round(stats: &Stats, owner: u64, shared: &[u64]) {
    let claimed = Barrier::new(shared.len() + 1);
    thread::scope(|scope| {
        let claimed = &claimed;
        scope.spawn(move || {
            stats.counter.add(0);
            claimed.wait();
            work(stats, owner);
        });
        for &t in shared {
            scope.spawn(move || {
                claimed.wait();
                work(stats, t);
            });
        }
    });
}

fn assert_exact(stats: &Stats, threads: &[u64]) {
    let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
    let mut sum = 0u64;
    for &t in threads {
        for i in 0..PER_THREAD {
            buckets[bucket(sample(t, i))] += 1;
            sum += sample(t, i);
        }
    }
    let samples = PER_THREAD * threads.len() as u64;
    assert_eq!(stats.counter.get(), samples);
    let snap = stats.hist.snapshot();
    assert_eq!(snap.buckets, buckets);
    assert_eq!((snap.count, snap.sum), (samples, sum));
    assert_eq!(stats.hist.count(), samples);
    let high = threads.iter().map(|&t| instant(t, PER_THREAD - 1)).max();
    assert_eq!(Some(stats.global.now()), high);
}

#[test]
fn owner_and_shared_lanes_stay_exact_across_a_handoff() {
    let stats = Stats {
        counter: Counter::new(),
        hist: Histogram::new(),
        global: GlobalClock::new(),
    };
    // The first owner publishes the earliest instants, so the mark comes
    // from a shared word; after the handoff the new owner's word holds it.
    round(&stats, 0, &[1, 2, 3, 4]);
    assert_exact(&stats, &[0, 1, 2, 3, 4]);
    round(&stats, 9, &[5, 6]);
    assert_exact(&stats, &[0, 1, 2, 3, 4, 5, 6, 9]);
}
