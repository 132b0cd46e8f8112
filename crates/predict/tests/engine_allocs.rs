//! Heap allocations of the engines' per-access work, counted.
//!
//! A counting global allocator keeps one count per thread, so only the
//! test's own thread is counted whatever else the harness runs. Each
//! engine is driven by a stream shaped like the benchmark's `kv_probe`
//! (a zipfian key's index page, then its eight record pages), warmed up
//! until the correlation miner's association table is at its cap, and
//! then counted over 10 000 steps of what the runtime does per read:
//! `observe`, `outcome`, a mining pass whenever one is due, and the
//! quality feedback every 64 reads. Once warm, none of it may allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

use predict::{
    AccessObservation, Engine, EngineConfig, EngineKind, PredictionEngine, QualityFeedback,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation and reallocation of the calling
/// thread.
struct Counting;

fn count_one() {
    // A thread being torn down has no count left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Keys of the probed index; the data region holds eight pages a key.
const KEYS: u64 = 16_384;
const RECORD_PAGES: u64 = 8;
/// The association table's cap (`correlation::tests::default_sizes_are_pinned`).
const TABLE_CAP: usize = 4_096;
/// Reads between two quality-feedback deltas, as the runtime feeds them.
const FEEDBACK_INTERVAL: usize = 64;
/// Counted steps once warm.
const COUNTED_STEPS: usize = 10_000;

/// SplitMix64's finaliser.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Zipfian keys over `0..KEYS` at theta 0.99 (Gray et al.'s inversion).
struct Zipf {
    state: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(seed: u64) -> Self {
        let theta = 0.99;
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(KEYS);
        let eta = (1.0 - (2.0 / KEYS as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Self {
            state: seed,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    fn key(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let u = (mix(self.state) >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (KEYS as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(KEYS - 1)
    }
}

/// `count` probes as single-page reads: the key's index page, then its
/// record's eight pages at a hashed slot of the data region.
fn probe_pages(seed: u64, count: usize) -> Vec<u64> {
    let mut zipf = Zipf::new(seed);
    let mut pages = Vec::with_capacity(count * (1 + RECORD_PAGES as usize));
    for _ in 0..count {
        let key = zipf.key();
        pages.push(key);
        let record = KEYS + mix(key ^ seed) % KEYS * RECORD_PAGES;
        pages.extend(record..record + RECORD_PAGES);
    }
    pages
}

/// One read as the runtime drives the engine: returns whether it mined.
fn step(engine: &mut Engine, page: u64, n: usize) -> bool {
    let decision = engine.observe(&AccessObservation {
        page,
        pages: 1,
        aggressive_ok: false,
        max_prefetch_pages: 4_096,
    });
    std::hint::black_box(&decision);
    if engine.wants_feedback() {
        engine.outcome(mix(page ^ n as u64).is_multiple_of(8));
        if n.is_multiple_of(FEEDBACK_INTERVAL) {
            engine.feedback(&QualityFeedback {
                timely: 40,
                late: 4,
                wasted: 2,
            });
        }
    }
    if decision.mine_due {
        std::hint::black_box(engine.mine());
    }
    decision.mine_due
}

/// Allocations of `COUNTED_STEPS` warm steps of `kind`.
fn counted_allocations(kind: EngineKind) -> u64 {
    let pages = probe_pages(42, 20_000);
    let mut engine = Engine::for_kind(kind, &EngineConfig::default());
    // Warm up until a mining pass has folded more distinct predecessors
    // than the table holds: it is then at its cap, and stays there. (The
    // strided engine never mines.)
    let mines = kind != EngineKind::Strided;
    let mut seen = HashSet::new();
    let mut n = 0;
    loop {
        let page = pages[n];
        seen.insert(page);
        let mined = step(&mut engine, page, n);
        n += 1;
        if (mined || !mines) && seen.len() > TABLE_CAP + 1 {
            break;
        }
    }
    assert!(
        n + COUNTED_STEPS <= pages.len(),
        "the stream ran out warming up"
    );
    let before = allocations();
    for (i, &page) in pages[n..n + COUNTED_STEPS].iter().enumerate() {
        step(&mut engine, page, n + i);
    }
    allocations() - before
}

#[test]
fn adaptive_allocates_nothing_once_warm() {
    assert_eq!(counted_allocations(EngineKind::Adaptive), 0);
}

#[test]
fn correlation_allocates_nothing_once_warm() {
    assert_eq!(counted_allocations(EngineKind::Correlation), 0);
}

#[test]
fn strided_allocates_nothing_once_warm() {
    assert_eq!(counted_allocations(EngineKind::Strided), 0);
}
