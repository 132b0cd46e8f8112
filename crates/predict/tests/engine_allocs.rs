//! Heap allocations of the predictor's per-access work, counted.
//!
//! A counting global allocator keeps one count per thread, so only the
//! test's own thread is counted whatever else the harness runs. The
//! predictor is driven by a stream shaped like the benchmark's `kv_probe`
//! (a zipfian key's index page, then its eight record pages), warmed up,
//! and then counted over 10 000 steps of what the runtime does per read:
//! `on_access`. Once warm, it may not allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use predict::Predictor;

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
/// Steps before counting.
const WARM_STEPS: usize = 4_096;
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

/// Allocations of `COUNTED_STEPS` steps of the predictor after
/// `WARM_STEPS`.
fn counted_allocations() -> u64 {
    let pages = probe_pages(42, 2_000);
    let mut predictor = Predictor::new(3);
    let mut step = |page| {
        std::hint::black_box(predictor.on_access(page, 1, false, 4_096));
    };
    pages[..WARM_STEPS].iter().for_each(|&page| step(page));
    let before = allocations();
    pages[WARM_STEPS..WARM_STEPS + COUNTED_STEPS]
        .iter()
        .for_each(|&page| step(page));
    allocations() - before
}

#[test]
fn strided_allocates_nothing_once_warm() {
    assert_eq!(counted_allocations(), 0);
}
