//! Seeded multi-thread stress for the B+ range index.
//!
//! Three properties that must survive eight host threads hammering one
//! shared index:
//!
//! * **Same-seed determinism of the page set.** For a mark-only workload
//!   the final cached-page set is the union of every marked range, which
//!   is independent of thread interleaving — so two runs with the same
//!   seed must report the identical `(resident, missing_in)` answer, and
//!   it must match a single-threaded reference replay. (Leaf *geometry* —
//!   who split where — legitimately depends on interleaving and is not
//!   asserted; the structural invariants are checked instead.)
//! * **Invariants and accounting under mixed ops.** With clears in the
//!   mix the final page set depends on interleaving, but the B+ structure
//!   must stay well-formed and `resident` must equal the page-count
//!   complement of `missing_in` at quiescence.
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
/// Page-space bound: large enough for hundreds of leaves, small enough
/// that ranges collide constantly (so gap fills abut and leaves merge).
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
    index.check_invariants();
    assert!(
        index.stats().merges > 0,
        "colliding marks must absorb leaves, or the detach path never ran under threads"
    );
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
    index.check_invariants();
    let costs = CostModel::default();
    let mut clock = ThreadClock::new(global);
    let missing = index.missing_in(&mut clock, &costs, LockScope::PerNode, 0, SPACE);
    let missing_pages: u64 = missing.iter().map(|&(s, e)| e - s).sum();
    assert_eq!(
        index.resident(),
        SPACE - missing_pages,
        "resident pages must be the exact complement of missing pages"
    );
    let stats = index.stats();
    // The seeded marks cover the space many times over, so it takes at
    // least one capped leaf per `NODE_PAGES`; and neighbours whose union
    // fits one leaf are absorbed, so it takes fewer than two.
    let span_floor = SPACE.div_ceil(NODE_PAGES);
    assert!(
        (span_floor..=2 * span_floor).contains(&stats.leaves),
        "{} leaves for a covered space of {span_floor} leaf spans",
        stats.leaves
    );
    assert!(
        stats.merges > 0,
        "colliding marks must absorb leaves, or the detach path never ran under threads"
    );
}

/// Eight threads colliding on one shared index, barrier-synchronised per
/// round. Each round every thread starts a fresh clock at virtual zero
/// (the open-loop arrival pattern: a long-running thread's clock drifts
/// microseconds from its peers and would dilute the collision), then runs
/// `mark_then_query` on the round's previously untouched region — so
/// writer holds overlap reader arrivals on the same leaf/node.
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
