//! Seeded multi-thread stress for the B+ range index.
//!
//! Five properties that must survive eight host threads hammering one
//! shared index:
//!
//! * **Same-seed determinism of the page set.** For a mark-only workload
//!   the final cached-page set is the union of every marked range, which
//!   is independent of thread interleaving — so two runs with the same
//!   seed must report the identical `(resident, missing_in)` answer, and
//!   it must match a single-threaded reference replay.
//! * **Accounting under mixed ops.** With clears in the mix the final
//!   page set depends on interleaving, but `resident` must equal the
//!   page-count complement of `missing_in` at quiescence.
//! * **Marks racing node insertion.** Confined to two adjacent regions,
//!   the threads' first touches race to insert the same two nodes while
//!   the others write bits into them; the page set must still be the
//!   union of the marks, and the pages the marks report as newly marked
//!   must sum to it (no bit counted twice or lost).
//! * **Range clears racing marks.** Over the same two regions, range
//!   clears and queries run beside the marks; the pages the marks report
//!   newly marked, minus those the clears report cleared, must equal what
//!   stays resident.
//! * **Contended-read scaling.** Colliding on one region under
//!   `LockScope::PerNode`, optimistic lock coupling (bounded retry
//!   penalty) must accumulate less virtual lock wait than the flat
//!   reference tree's blocking reader queue.

use std::sync::{Arc, Barrier};
use std::thread;

use crossprefetch::range_index::NODE_PAGES;
use crossprefetch::{BPlusRangeIndex, LockScope, RangeTree};
use simclock::{CostModel, GlobalClock, ThreadClock};

const THREADS: u64 = 8;
const OPS_PER_THREAD: u64 = 400;
/// Page-space bound: large enough for ~200 region nodes, small enough
/// that ranges collide constantly.
const SPACE: u64 = 200_000;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// The op stream for one thread, derived purely from the seed — so the
/// same seed always produces the same set of marked ranges.
fn ops_for(seed: u64, thread: u64) -> Vec<(u64, u64)> {
    let mut state = seed ^ (thread.wrapping_mul(0x9E3779B97F4A7C15));
    (0..OPS_PER_THREAD)
        .map(|_| {
            let start = lcg(&mut state) % SPACE;
            let len = 1 + lcg(&mut state) % 3000;
            (start, (start + len).min(SPACE))
        })
        .collect()
}

/// Runs the seeded mark-only workload on a fresh shared index and returns
/// the quiescent page-set observation.
fn stress_run(seed: u64) -> (u64, Vec<(u64, u64)>) {
    let index = Arc::new(BPlusRangeIndex::new());
    let global = Arc::new(GlobalClock::new());
    thread::scope(|s| {
        for t in 0..THREADS {
            let index = Arc::clone(&index);
            let global = Arc::clone(&global);
            s.spawn(move || {
                let costs = CostModel::default();
                let mut clock = ThreadClock::new(Arc::clone(&global));
                for (start, end) in ops_for(seed, t) {
                    index.mark_cached(&mut clock, &costs, LockScope::PerNode, start, end);
                }
            });
        }
    });
    let costs = CostModel::default();
    let mut clock = ThreadClock::new(global);
    let missing = index.missing_in(&mut clock, &costs, LockScope::PerNode, 0, SPACE);
    (index.resident(), missing)
}

#[test]
fn same_seed_stress_is_deterministic_and_matches_reference() {
    for seed in [0xC0FFEE_u64, 0xDECAFBAD] {
        let first = stress_run(seed);
        let second = stress_run(seed);
        assert_eq!(
            first, second,
            "seed {seed:#x}: same-seed runs diverged in final page set"
        );

        // Single-threaded replay through the flat tree as the reference
        // model: union of ranges is interleaving-independent, so the
        // concurrent B+ result must match it exactly.
        let reference = RangeTree::new();
        let costs = CostModel::default();
        let mut clock = ThreadClock::new(Arc::new(GlobalClock::new()));
        for t in 0..THREADS {
            for (start, end) in ops_for(seed, t) {
                reference.mark_cached(&mut clock, &costs, LockScope::PerNode, start, end);
            }
        }
        let ref_missing = reference.missing_in(&mut clock, &costs, LockScope::PerNode, 0, SPACE);
        assert_eq!(first.0, reference.resident(), "seed {seed:#x}: resident");
        assert_eq!(first.1, ref_missing, "seed {seed:#x}: missing ranges");
    }
}

#[test]
fn mixed_ops_with_clears_keep_invariants_and_accounting() {
    let index = Arc::new(BPlusRangeIndex::new());
    let global = Arc::new(GlobalClock::new());
    thread::scope(|s| {
        for t in 0..THREADS {
            let index = Arc::clone(&index);
            let global = Arc::clone(&global);
            s.spawn(move || {
                let costs = CostModel::default();
                let mut clock = ThreadClock::new(Arc::clone(&global));
                let mut state = 0xFEED ^ (t.wrapping_mul(0x2545F4914F6CDD1D));
                for i in 0..OPS_PER_THREAD {
                    let start = lcg(&mut state) % SPACE;
                    let end = (start + 1 + lcg(&mut state) % 3000).min(SPACE);
                    match (lcg(&mut state) % 16, i) {
                        // Rare full clears from two of the threads.
                        (0, _) if t < 2 => {
                            index.clear(&mut clock, &costs, LockScope::PerNode);
                        }
                        (1..=4, _) => {
                            index.missing_in(&mut clock, &costs, LockScope::PerNode, start, end);
                        }
                        _ => {
                            index.mark_cached(&mut clock, &costs, LockScope::PerNode, start, end);
                        }
                    }
                }
            });
        }
    });
    let costs = CostModel::default();
    let mut clock = ThreadClock::new(global);
    let missing = index.missing_in(&mut clock, &costs, LockScope::PerNode, 0, SPACE);
    let missing_pages: u64 = missing.iter().map(|&(s, e)| e - s).sum();
    assert_eq!(
        index.resident(),
        SPACE - missing_pages,
        "resident pages must be the exact complement of missing pages"
    );
}

#[test]
fn two_region_marks_race_restructures() {
    // All eight threads mark short ranges of two adjacent regions, so
    // first touches race to insert the same two nodes while other
    // threads write bits into them.
    const BASE: u64 = 7 * NODE_PAGES;
    const WIDTH: u64 = 2 * NODE_PAGES;
    let ops = |t: u64| -> Vec<(u64, u64)> {
        let mut state = 0x5EED ^ t.wrapping_mul(0x9E3779B97F4A7C15);
        (0..OPS_PER_THREAD)
            .map(|_| {
                let start = BASE + lcg(&mut state) % WIDTH;
                let len = 1 + lcg(&mut state) % 6;
                (start, (start + len).min(BASE + WIDTH))
            })
            .collect()
    };
    let index = BPlusRangeIndex::new();
    let global = Arc::new(GlobalClock::new());
    let start_line = Barrier::new(THREADS as usize);
    let newly: u64 = thread::scope(|s| {
        let runs: Vec<_> = (0..THREADS)
            .map(|t| {
                let (index, global, ops, start_line) =
                    (&index, Arc::clone(&global), &ops, &start_line);
                s.spawn(move || {
                    let costs = CostModel::default();
                    let mut clock = ThreadClock::new(global);
                    let ops = ops(t);
                    start_line.wait();
                    ops.into_iter()
                        .map(|(start, end)| {
                            index.mark_cached(&mut clock, &costs, LockScope::PerNode, start, end)
                        })
                        .sum::<u64>()
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("marking thread panicked"))
            .sum()
    });
    let mut marked = vec![false; WIDTH as usize];
    for t in 0..THREADS {
        for (start, end) in ops(t) {
            marked[(start - BASE) as usize..(end - BASE) as usize].fill(true);
        }
    }
    let mut expect: Vec<(u64, u64)> = Vec::new();
    for page in (0..WIDTH).filter(|&p| !marked[p as usize]) {
        match expect.last_mut() {
            Some(run) if run.1 == BASE + page => run.1 += 1,
            _ => expect.push((BASE + page, BASE + page + 1)),
        }
    }
    let costs = CostModel::default();
    let mut clock = ThreadClock::new(global);
    assert_eq!(
        index.missing_in(&mut clock, &costs, LockScope::PerNode, BASE, BASE + WIDTH),
        expect,
        "the marked pages must be the union of every mark"
    );
    let union = marked.iter().filter(|&&m| m).count() as u64;
    assert_eq!(index.resident(), union);
    assert_eq!(newly, union, "racing marks must count each page once");
}

#[test]
fn range_clears_race_marks_and_queries() {
    // Eight threads over two adjacent regions: marks insert and fill the
    // two nodes while range clears and queries run beside them. A bit
    // changes only by `fetch_or` (a mark) or `fetch_and` (a clear), each
    // reporting the bits it changed, so the pages marked minus the pages
    // cleared must equal what stays resident, whatever the interleaving.
    const BASE: u64 = 3 * NODE_PAGES;
    const WIDTH: u64 = 2 * NODE_PAGES;
    let index = BPlusRangeIndex::new();
    let global = Arc::new(GlobalClock::new());
    let start_line = Barrier::new(THREADS as usize);
    let (marked, cleared) = thread::scope(|s| {
        let runs: Vec<_> = (0..THREADS)
            .map(|t| {
                let (index, global, start_line) = (&index, Arc::clone(&global), &start_line);
                s.spawn(move || {
                    let costs = CostModel::default();
                    let mut clock = ThreadClock::new(global);
                    let mut state = 0xC1EA ^ t.wrapping_mul(0x9E3779B97F4A7C15);
                    let (mut marked, mut cleared) = (0u64, 0u64);
                    start_line.wait();
                    for _ in 0..OPS_PER_THREAD {
                        let start = BASE + lcg(&mut state) % WIDTH;
                        let end = (start + 1 + lcg(&mut state) % 200).min(BASE + WIDTH);
                        match lcg(&mut state) % 8 {
                            0..=2 => {
                                cleared += index.clear_range(
                                    &mut clock,
                                    &costs,
                                    LockScope::PerNode,
                                    start,
                                    end,
                                );
                            }
                            3 => {
                                let missing = index.missing_in(
                                    &mut clock,
                                    &costs,
                                    LockScope::PerNode,
                                    start,
                                    end,
                                );
                                assert!(missing
                                    .iter()
                                    .all(|&(a, b)| start <= a && a < b && b <= end));
                            }
                            _ => {
                                marked += index.mark_cached(
                                    &mut clock,
                                    &costs,
                                    LockScope::PerNode,
                                    start,
                                    end,
                                );
                            }
                        }
                    }
                    (marked, cleared)
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("racing thread panicked"))
            .fold((0, 0), |(m, c), (dm, dc)| (m + dm, c + dc))
    });
    assert!(cleared > 0, "the clears must have found marked pages");
    assert_eq!(
        marked - cleared,
        index.resident(),
        "every page marked is either still resident or counted by one clear"
    );
    let costs = CostModel::default();
    let mut clock = ThreadClock::new(global);
    let missing = index.missing_in(&mut clock, &costs, LockScope::PerNode, BASE, BASE + WIDTH);
    let missing_pages: u64 = missing.iter().map(|&(s, e)| e - s).sum();
    assert_eq!(index.resident(), WIDTH - missing_pages);
}

/// Eight threads colliding on one shared index, barrier-synchronised per
/// round. Each round every thread starts a fresh clock at virtual zero
/// (the open-loop arrival pattern: a long-running thread's clock drifts
/// microseconds from its peers and would dilute the collision), then runs
/// `mark_then_query` on the round's previously untouched region — so
/// writer holds overlap reader arrivals on the same node.
fn contended_rounds(
    rounds: u64,
    mark_then_query: impl Fn(&mut ThreadClock, &CostModel, u64) + Sync,
) {
    let global = Arc::new(GlobalClock::new());
    let barrier = Barrier::new(THREADS as usize);
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let costs = CostModel::default();
                for r in 0..rounds {
                    barrier.wait();
                    let mut clock = ThreadClock::new(Arc::clone(&global));
                    mark_then_query(&mut clock, &costs, r * NODE_PAGES);
                }
            });
        }
    });
}

#[test]
fn contended_reads_favor_optimistic_coupling() {
    let scope = LockScope::PerNode;
    // Wall-clock interleavings are noisy: scale the workload up until the
    // flat reference shows unambiguous blocking (≥ 50 µs of virtual lock
    // wait) so the comparison is not a coin flip on scheduler noise.
    let mut rounds = 16;
    let mut last = (0, 0, 0);
    for _attempt in 0..6 {
        let flat = RangeTree::new();
        contended_rounds(rounds, |clock, costs, base| {
            flat.mark_cached(clock, costs, scope, base, base + NODE_PAGES);
            flat.missing_in(clock, costs, scope, base, base + NODE_PAGES);
        });
        let bplus = BPlusRangeIndex::new();
        contended_rounds(rounds, |clock, costs, base| {
            bplus.mark_cached(clock, costs, scope, base, base + NODE_PAGES);
            bplus.missing_in(clock, costs, scope, base, base + NODE_PAGES);
        });
        let retries = bplus.stats().optimistic_retries;
        last = (flat.lock_wait_ns(), bplus.lock_wait_ns(), retries);
        if last.0 >= 50_000 && last.1 < last.0 && retries > 0 {
            return;
        }
        rounds *= 2;
    }
    panic!(
        "optimistic coupling never separated from the flat reference: \
         flat wait {} ns, B+ wait {} ns, {} retries",
        last.0, last.1, last.2
    );
}
