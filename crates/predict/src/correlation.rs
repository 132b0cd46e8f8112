//! MITHRIL-style correlation prefetching.
//!
//! The strided counter (§4.6) is blind to *recurring but non-sequential*
//! access: a zipfian key-value workload re-reads the same index-page →
//! data-page chains over and over, yet every chain hop looks like a random
//! jump. This engine mines those chains into a bounded block-association
//! table and, on the hot path, does nothing more than one hash-map lookup
//! to turn a learned association into explicit prefetch runs.
//!
//! Structure (after MITHRIL's mining/filtering split):
//!
//! * a **history ring** of the most recent `(block, span)` observations,
//!   capped at 512 entries — the only state the hot path writes;
//! * an **association table** `block → [successor; 4]` capped at 4096
//!   fixed-size entries, evicted by combined recency + frequency score off
//!   a lazy eviction queue — the only state the hot path reads;
//! * a **mining pass** ([`PredictionEngine::mine`]) that folds the ring
//!   into the table. The runtime schedules it on the worker pool every 64
//!   observations, so table maintenance is charged to background virtual
//!   time, not the read path.
//!
//! The sizes are constants; the crate-private `CorrelationConfig` exists
//! so tests can build small tables, not as a tuning surface.
//!
//! Nothing walks the table to decide anything: lookups and mining go by
//! block, and eviction order comes from the queue's `(score, block)`
//! keys, which are unique. So mining and eviction are deterministic whatever
//! order the hash map keeps, and same-seed runs stay byte-identical.
//!
//! The miner runs on every access a file sees, so it pays only for the
//! work it does. Once warm it allocates nothing: the table and the
//! eviction queue are sized on the first pass, the ring keeps its buffer
//! across passes, and a decision holds its runs inline
//! ([`crate::PrefetchRuns`]). The table hashes a block with one folded
//! multiply (`PageHasher`): its keys are page numbers the runtime
//! computes, never outside input, so it needs no keyed hash. And most
//! victims leave the eviction queue from the front of a sorted deque, not
//! the top of a heap of every entry.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::{
    AccessObservation, EngineKind, PredictionEngine, PrefetchDecision, PrefetchRun, QualityFeedback,
};

/// Successor slots kept per association-table entry, and so the most
/// runs one decision carries.
pub(crate) const SUCCESSOR_SLOTS: usize = 4;

/// How many observations a table entry's frequency extends its lifetime
/// by, relative to pure recency, when the table is over capacity.
const FREQUENCY_LIFETIME_BONUS: u64 = 16;

/// The miner's sizes. The defaults — the only values the runtime ever
/// runs — bound the engine to under a MiB per file descriptor once it
/// mines (8 192 hash buckets of 88 bytes, room for every entry's 16-byte
/// eviction key in each of two queues); tests substitute small tables
/// through
/// [`CorrelationEngine::with_config`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CorrelationConfig {
    /// History-ring capacity in observations (bounded memory; overflow
    /// drops the oldest unmined entries).
    pub(crate) history: usize,
    /// Association-table capacity in entries; recency+frequency eviction
    /// keeps it at or under this.
    pub(crate) max_assocs: usize,
    /// Observations between background mining passes.
    pub(crate) mine_interval: u64,
    /// Minimum times a successor must have followed a block before it is
    /// prefetched.
    pub(crate) min_support: u32,
    /// Cap on the pages prefetched per learned successor.
    pub(crate) max_span_pages: u64,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        Self {
            history: 512,
            max_assocs: 4096,
            mine_interval: 64,
            min_support: 2,
            max_span_pages: 32,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Successor {
    block: u64,
    /// Widest read seen starting at `block`, in pages, saturating at
    /// `u32::MAX`: every use clamps it to `max_span_pages` first.
    span: u32,
    count: u32,
}

/// One association-table entry: fixed size, nothing on the heap.
#[derive(Debug, Clone, Default)]
struct AssocEntry {
    /// Successor slots in the order they were filled; the first `len`
    /// are in use.
    slots: [Successor; SUCCESSOR_SLOTS],
    len: u8,
    /// Total times this block was seen as a predecessor.
    freq: u32,
    /// Observation stamp of the last mining touch or lookup hit.
    last_seen: u64,
}

impl AssocEntry {
    fn successors(&self) -> &[Successor] {
        &self.slots[..usize::from(self.len)]
    }

    /// Eviction order under table pressure: lowest goes first. Recency,
    /// extended by [`FREQUENCY_LIFETIME_BONUS`] observations per sighting.
    /// Both terms only grow, so an entry's score never falls.
    fn eviction_score(&self) -> u64 {
        self.last_seen
            .saturating_add(u64::from(self.freq) * FREQUENCY_LIFETIME_BONUS)
    }
}

/// The association table's hasher: the two halves of the 128-bit product
/// of the block number and FxHash's odd constant, XORed together, so high
/// block bits reach the low bits the table indexes by and low bits reach
/// the high ones it tags with.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the association table hashes u64 blocks only");
    }

    fn write_u64(&mut self, block: u64) {
        let product = u128::from(block) * 0x517C_C1B7_2722_0A95;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

/// The eviction order: one `(eviction score, block)` key per table entry,
/// least first, each a lower bound on its entry's current key (see
/// `CorrelationEngine::enforce_cap`). Two queues hold the keys:
///
/// * `fresh`, in ascending order: keys taken when their entries were
///   inserted. A pass inserts its entries seen once, at the pass's stamp,
///   so its keys share one score and follow those of every earlier pass,
///   whose stamps were lower; sorted by block, they extend the order.
/// * `raised`, a min-heap: keys raised to their entry's current score,
///   and any inserted key that would not extend `fresh`.
///
/// The least key is the lesser of the two fronts. Evicting an entry that
/// was never touched again, which is most evictions, pops `fresh`'s
/// front instead of sifting a heap of every entry.
#[derive(Debug, Clone, Default)]
struct EvictionQueue {
    fresh: VecDeque<(u64, u64)>,
    raised: BinaryHeap<Reverse<(u64, u64)>>,
    /// Keys of the entries the pass in progress inserted; `admit` orders
    /// them in.
    arrivals: Vec<(u64, u64)>,
}

impl EvictionQueue {
    /// Room for `keys` keys in either queue and a pass of `pass` arrivals.
    fn reserve(&mut self, keys: usize, pass: usize) {
        self.fresh.reserve(keys);
        self.raised.reserve(keys);
        self.arrivals.reserve(pass);
    }

    fn len(&self) -> usize {
        self.fresh.len() + self.raised.len() + self.arrivals.len()
    }

    fn push(&mut self, key: (u64, u64)) {
        self.arrivals.push(key);
    }

    /// Moves the pass's keys in, by block (they share one score): onto
    /// `fresh` while they extend it, into `raised` otherwise, so `fresh`
    /// stays ascending whatever the keys are.
    fn admit(&mut self) {
        self.arrivals.sort_unstable_by_key(|&(_, block)| block);
        for key in self.arrivals.drain(..) {
            if self.fresh.back().is_none_or(|&last| last < key) {
                self.fresh.push_back(key);
            } else {
                self.raised.push(Reverse(key));
            }
        }
    }

    /// The least admitted key, and whether it is `fresh`'s front.
    fn least(&self) -> Option<((u64, u64), bool)> {
        match (self.fresh.front(), self.raised.peek()) {
            (Some(&fresh), Some(&Reverse(raised))) if raised < fresh => Some((raised, false)),
            (Some(&fresh), _) => Some((fresh, true)),
            (None, Some(&Reverse(raised))) => Some((raised, false)),
            (None, None) => None,
        }
    }

    /// Removes the least key (`fresh` says which queue holds it).
    fn pop_least(&mut self, fresh: bool) {
        if fresh {
            self.fresh.pop_front();
        } else {
            self.raised.pop();
        }
    }

    /// Replaces the least key with `key`, a larger one of the same entry.
    fn raise_least(&mut self, fresh: bool, key: (u64, u64)) {
        if fresh {
            self.fresh.pop_front();
            self.raised.push(Reverse(key));
        } else if let Some(mut least) = self.raised.peek_mut() {
            *least = Reverse(key);
        }
    }
}

/// The correlation prefetch engine. See the module docs for structure.
#[derive(Debug, Clone)]
pub struct CorrelationEngine {
    config: CorrelationConfig,
    /// Unmined observations, oldest first. Bounded by `config.history`.
    ring: Vec<(u64, u64)>,
    /// The association table, sized on the first pass (see `mine_pass`).
    table: HashMap<u64, AssocEntry, BuildHasherDefault<PageHasher>>,
    /// One `(eviction score, block)` key per table entry, taken when the
    /// entry was inserted: a lower bound on its current key (see
    /// `enforce_cap`).
    evictions: EvictionQueue,
    observations: u64,
    since_mine: u64,
    /// Feedback-driven support adjustment: sustained waste raises the
    /// support bar, sustained timely hits lower it back.
    support_boost: u32,
    feedback_timely: u64,
    feedback_wasted: u64,
}

impl Default for CorrelationEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CorrelationEngine {
    /// Creates an engine with empty history and table.
    pub fn new() -> Self {
        Self::with_config(CorrelationConfig::default())
    }

    /// The construction seam: an engine over tables of the given sizes.
    pub(crate) fn with_config(config: CorrelationConfig) -> Self {
        assert!(config.history >= 2, "history ring needs at least 2 slots");
        assert!(config.max_assocs >= 1, "association table needs capacity");
        assert!(config.mine_interval >= 1, "mine interval must be positive");
        Self {
            config,
            ring: Vec::new(),
            table: HashMap::default(),
            evictions: EvictionQueue::default(),
            observations: 0,
            since_mine: 0,
            support_boost: 0,
            feedback_timely: 0,
            feedback_wasted: 0,
        }
    }

    /// Effective support threshold after feedback adjustment.
    fn effective_support(&self) -> u32 {
        self.config.min_support + self.support_boost
    }

    fn note_pair(&mut self, pred: u64, succ: u64, span: u64) {
        let stamp = self.observations;
        let span = u32::try_from(span).unwrap_or(u32::MAX);
        let (entry, inserted) = match self.table.entry(pred) {
            Entry::Occupied(slot) => (slot.into_mut(), false),
            Entry::Vacant(slot) => (slot.insert(AssocEntry::default()), true),
        };
        entry.freq = entry.freq.saturating_add(1);
        entry.last_seen = stamp;
        if inserted {
            self.evictions.push((entry.eviction_score(), pred));
        }
        let live = usize::from(entry.len);
        if let Some(slot) = entry.slots[..live].iter_mut().find(|s| s.block == succ) {
            slot.count = slot.count.saturating_add(1);
            slot.span = slot.span.max(span);
            return;
        }
        let fresh = Successor {
            block: succ,
            span,
            count: 1,
        };
        if live < SUCCESSOR_SLOTS {
            entry.slots[live] = fresh;
            entry.len += 1;
            return;
        }
        // All slots taken: replace the weakest successor (lowest count,
        // lowest block breaking ties — deterministic).
        if let Some(weakest) = entry.slots.iter_mut().min_by_key(|s| (s.count, s.block)) {
            if weakest.count <= 1 {
                *weakest = fresh;
            }
        }
    }

    /// Evicts table entries down to capacity by the lowest
    /// recency+frequency score (`last_seen + freq * bonus`), ties broken
    /// by block id, so the victims are a function of the table alone.
    ///
    /// `evictions` holds one key per entry, taken when the entry was
    /// inserted; an entry's score never falls, so its key is a lower
    /// bound on its current one. While the smallest key is below its
    /// entry's current key it is raised to it. Once it equals it, that
    /// entry holds the table's smallest key — every other entry's current
    /// key is at least its own queued key, which is at least this one —
    /// and goes. Removing an entry changes no survivor's key and the block
    /// id makes every key unique, so these are the victims one minimum
    /// scan per victim would pick. Each raise is paid for by a touch that
    /// made the key stale, so a pass costs queue steps per victim and per
    /// touch, not a walk of the table.
    fn enforce_cap(&mut self) {
        self.evictions.admit();
        while self.table.len() > self.config.max_assocs {
            let ((key, block), fresh) = self
                .evictions
                .least()
                .expect("one queued key per table entry");
            let Entry::Occupied(entry) = self.table.entry(block) else {
                unreachable!("one table entry per queued key");
            };
            let current = entry.get().eviction_score();
            if key < current {
                self.evictions.raise_least(fresh, (current, block));
            } else {
                debug_assert_eq!(key, current, "a queued key never exceeds its entry's score");
                self.evictions.pop_least(fresh);
                entry.remove();
            }
        }
        debug_assert_eq!(self.evictions.len(), self.table.len(), "one key per entry");
    }

    fn mine_pass(&mut self) -> u64 {
        if self.table.capacity() == 0 {
            // Sized once, for the cap plus a pass of all-new blocks (a pass
            // is at most a full ring), so the table never grows again; an
            // engine that never mines allocates nothing.
            let most = self.config.max_assocs + self.config.history;
            self.table.reserve(most);
            self.evictions.reserve(most, self.config.history);
        }
        let mut pending = std::mem::take(&mut self.ring);
        let mut pairs = 0;
        for window in pending.windows(2) {
            let (pred, _) = window[0];
            let (succ, span) = window[1];
            if pred != succ {
                self.note_pair(pred, succ, span);
                pairs += 1;
            }
        }
        // Keep the last observation as the bridge into the next segment so
        // the pair spanning two mining passes is not lost. The buffer goes
        // back with it, so the ring never regrows.
        pending.drain(..pending.len().saturating_sub(1));
        self.ring = pending;
        self.enforce_cap();
        self.since_mine = 0;
        pairs
    }
}

impl PredictionEngine for CorrelationEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Correlation
    }

    fn observe(&mut self, obs: &AccessObservation) -> PrefetchDecision {
        self.observations += 1;
        self.since_mine += 1;
        if self.ring.len() >= self.config.history {
            // Mining has fallen behind; drop the oldest half so the ring
            // stays bounded without thrashing one-in-one-out.
            self.ring.drain(..self.config.history / 2);
        }
        self.ring.push((obs.page, obs.pages));

        let mut decision = PrefetchDecision {
            mine_due: self.since_mine >= self.config.mine_interval,
            ..PrefetchDecision::default()
        };
        let support = self.effective_support();
        let stamp = self.observations;
        if let Some(entry) = self.table.get_mut(&obs.page) {
            entry.last_seen = stamp;
            let freq = entry.freq.max(1);
            for s in entry.successors() {
                if s.count < support {
                    continue;
                }
                let pages = u64::from(s.span)
                    .min(self.config.max_span_pages)
                    .min(obs.max_prefetch_pages);
                if pages == 0 {
                    continue;
                }
                decision.runs.push(PrefetchRun {
                    start: s.block,
                    pages,
                });
                let strength = f64::from(s.count) / f64::from(freq);
                if strength > decision.confidence {
                    decision.confidence = strength;
                }
            }
        }
        decision
    }

    fn feedback(&mut self, fb: &QualityFeedback) {
        self.feedback_timely += fb.timely + fb.late;
        self.feedback_wasted += fb.wasted;
        // Sustained waste beyond consumption raises the support bar (up to
        // +2); consumption pulling 4x ahead relaxes it again. Tallies reset
        // at each adjustment so the bar tracks recent behaviour.
        if self.feedback_wasted > self.feedback_timely + 64 {
            self.support_boost = (self.support_boost + 1).min(2);
            self.feedback_timely = 0;
            self.feedback_wasted = 0;
        } else if self.support_boost > 0 && self.feedback_timely > 4 * (self.feedback_wasted + 16) {
            self.support_boost -= 1;
            self.feedback_timely = 0;
            self.feedback_wasted = 0;
        }
    }

    fn wants_feedback(&self) -> bool {
        true
    }

    fn mine(&mut self) -> u64 {
        self.mine_pass()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn obs(page: u64, pages: u64) -> AccessObservation {
        AccessObservation {
            page,
            pages,
            aggressive_ok: false,
            max_prefetch_pages: 16_384,
        }
    }

    /// Size snapshot the tests check the memory caps with.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct CorrelationStats {
        /// Live association-table entries.
        assoc_entries: usize,
        /// Unmined history-ring entries.
        pending: usize,
    }

    impl CorrelationEngine {
        fn stats(&self) -> CorrelationStats {
            CorrelationStats {
                assoc_entries: self.table.len(),
                pending: self.ring.len(),
            }
        }
    }

    fn drive_chain(engine: &mut CorrelationEngine, rounds: u64) {
        // A recurring chain: 100 → 500 → 900, repeated.
        for _ in 0..rounds {
            engine.observe(&obs(100, 1));
            engine.observe(&obs(500, 4));
            engine.observe(&obs(900, 4));
            engine.mine();
        }
    }

    #[test]
    fn default_sizes_are_pinned() {
        assert_eq!(
            CorrelationConfig::default(),
            CorrelationConfig {
                history: 512,
                max_assocs: 4096,
                mine_interval: 64,
                min_support: 2,
                max_span_pages: 32,
            }
        );
    }

    #[test]
    fn learned_chain_emits_runs_with_support() {
        let mut engine = CorrelationEngine::new();
        drive_chain(&mut engine, 3);
        let decision = engine.observe(&obs(100, 1));
        assert_eq!(decision.runs.len(), 1, "one learned successor");
        assert_eq!(
            decision.runs[0],
            PrefetchRun {
                start: 500,
                pages: 4
            }
        );
        assert!(decision.confidence > 0.0);
        // The next hop is learned too.
        let decision = engine.observe(&obs(500, 4));
        assert!(decision.runs.iter().any(|r| r.start == 900));
    }

    #[test]
    fn single_occurrence_is_below_support() {
        let mut engine = CorrelationEngine::new();
        drive_chain(&mut engine, 1);
        let decision = engine.observe(&obs(100, 1));
        assert!(
            decision.runs.is_empty(),
            "support 1 < min_support 2 must not prefetch"
        );
    }

    #[test]
    fn association_table_respects_the_cap() {
        let config = CorrelationConfig {
            max_assocs: 32,
            mine_interval: 8,
            ..CorrelationConfig::default()
        };
        let mut engine = CorrelationEngine::with_config(config);
        let mut mined_pairs = 0;
        for i in 0..4096u64 {
            engine.observe(&obs(i * 7, 1));
            if i % 8 == 7 {
                mined_pairs += engine.mine();
            }
        }
        mined_pairs += engine.mine();
        assert!(engine.stats().assoc_entries <= 32);
        assert!(mined_pairs > 0);
    }

    #[test]
    fn history_ring_stays_bounded_without_mining() {
        let config = CorrelationConfig {
            history: 64,
            ..CorrelationConfig::default()
        };
        let mut engine = CorrelationEngine::with_config(config);
        for i in 0..1000u64 {
            engine.observe(&obs(i, 1));
        }
        assert!(engine.stats().pending <= 64);
        // What it dropped is the oldest.
        assert_eq!(engine.ring.last(), Some(&(999, 1)));
    }

    #[test]
    fn mining_is_flagged_on_the_interval() {
        let config = CorrelationConfig {
            mine_interval: 4,
            ..CorrelationConfig::default()
        };
        let mut engine = CorrelationEngine::with_config(config);
        let mut due_at = Vec::new();
        for i in 0..8u64 {
            if engine.observe(&obs(i * 100, 1)).mine_due {
                due_at.push(i);
            }
        }
        assert_eq!(due_at, vec![3, 4, 5, 6, 7]);
        engine.mine();
        assert!(!engine.observe(&obs(900, 1)).mine_due);
    }

    #[test]
    fn hot_entries_survive_eviction() {
        let config = CorrelationConfig {
            max_assocs: 8,
            ..CorrelationConfig::default()
        };
        let mut engine = CorrelationEngine::with_config(config);
        // One hot pair repeated, then a cold sweep that overflows the cap.
        for _ in 0..16 {
            engine.observe(&obs(100, 1));
            engine.observe(&obs(500, 4));
            engine.mine();
        }
        for i in 0..64u64 {
            engine.observe(&obs(10_000 + i * 3, 1));
        }
        engine.mine();
        assert!(engine.stats().assoc_entries <= 8);
        let decision = engine.observe(&obs(100, 1));
        assert!(
            decision.runs.iter().any(|r| r.start == 500),
            "frequent association must outlive a cold sweep"
        );
    }

    #[test]
    fn waste_feedback_raises_the_support_bar() {
        let mut engine = CorrelationEngine::new();
        drive_chain(&mut engine, 2); // support == 2: exactly at the bar
        assert!(!engine.observe(&obs(100, 1)).runs.is_empty());
        engine.feedback(&QualityFeedback {
            timely: 0,
            late: 0,
            wasted: 1_000,
        });
        assert!(
            engine.observe(&obs(100, 1)).runs.is_empty(),
            "sustained waste must raise the support threshold"
        );
    }

    #[test]
    fn deterministic_across_identical_streams() {
        // Each engine's map hashes with its own random seed; the decisions
        // and the table must not depend on it.
        let run = || {
            let mut engine = CorrelationEngine::new();
            let mut state = 0xDEADBEEFu64;
            let mut fingerprint = Vec::new();
            for i in 0..2000u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let page = (state >> 33) % 256 * 10;
                let d = engine.observe(&obs(page, 1));
                if d.mine_due {
                    engine.mine();
                }
                if i % 37 == 0 {
                    fingerprint.push((page, d.runs.clone()));
                }
            }
            (fingerprint, engine.stats(), table_view(&engine))
        };
        assert_eq!(run(), run());
    }

    /// A table as block-sorted rows of `(block, freq, last_seen,
    /// successors as (block, span, count) in slot order)`.
    type TableView = Vec<(u64, u32, u64, Vec<(u64, u64, u32)>)>;

    fn table_view(engine: &CorrelationEngine) -> TableView {
        let mut view: TableView = engine
            .table
            .iter()
            .map(|(&block, e)| {
                let successors = e
                    .successors()
                    .iter()
                    .map(|s| (s.block, u64::from(s.span), s.count))
                    .collect();
                (block, e.freq, e.last_seen, successors)
            })
            .collect();
        view.sort_unstable_by_key(|row| row.0);
        view
    }

    /// The miner before the eviction heap, kept as the differential
    /// oracle: a `BTreeMap` of growable successor lists, cut back to its
    /// cap after each pass by selecting the `len − cap` smallest
    /// `(score, block)` keys over the whole table. No feedback reaches
    /// it, so its support bar is `min_support`.
    struct ReferenceMiner {
        config: CorrelationConfig,
        ring: Vec<(u64, u64)>,
        table: BTreeMap<u64, ReferenceEntry>,
        observations: u64,
        since_mine: u64,
    }

    #[derive(Default)]
    struct ReferenceEntry {
        /// `(block, span, count)` in the order they were filled.
        successors: Vec<(u64, u64, u32)>,
        freq: u32,
        last_seen: u64,
    }

    impl ReferenceMiner {
        fn new(config: CorrelationConfig) -> Self {
            Self {
                config,
                ring: Vec::new(),
                table: BTreeMap::new(),
                observations: 0,
                since_mine: 0,
            }
        }

        fn observe(&mut self, obs: &AccessObservation) -> PrefetchDecision {
            self.observations += 1;
            self.since_mine += 1;
            if self.ring.len() >= self.config.history {
                self.ring.drain(..self.config.history / 2);
            }
            self.ring.push((obs.page, obs.pages));
            let mut decision = PrefetchDecision {
                mine_due: self.since_mine >= self.config.mine_interval,
                ..PrefetchDecision::default()
            };
            if let Some(entry) = self.table.get_mut(&obs.page) {
                entry.last_seen = self.observations;
                let freq = entry.freq.max(1);
                for &(block, span, count) in &entry.successors {
                    let pages = span
                        .min(self.config.max_span_pages)
                        .min(obs.max_prefetch_pages);
                    if count < self.config.min_support || pages == 0 {
                        continue;
                    }
                    decision.runs.push(PrefetchRun {
                        start: block,
                        pages,
                    });
                    let strength = f64::from(count) / f64::from(freq);
                    if strength > decision.confidence {
                        decision.confidence = strength;
                    }
                }
            }
            decision
        }

        fn note_pair(&mut self, pred: u64, succ: u64, span: u64) {
            let entry = self.table.entry(pred).or_default();
            entry.freq = entry.freq.saturating_add(1);
            entry.last_seen = self.observations;
            if let Some(slot) = entry.successors.iter_mut().find(|s| s.0 == succ) {
                slot.1 = slot.1.max(span);
                slot.2 = slot.2.saturating_add(1);
            } else if entry.successors.len() < SUCCESSOR_SLOTS {
                entry.successors.push((succ, span, 1));
            } else if let Some(weakest) = entry.successors.iter_mut().min_by_key(|s| (s.2, s.0)) {
                if weakest.2 <= 1 {
                    *weakest = (succ, span, 1);
                }
            }
        }

        /// One pass and the cap; returns `(pairs, table length before
        /// eviction, victims)`.
        fn mine(&mut self) -> (u64, usize, usize) {
            let pending = std::mem::take(&mut self.ring);
            let mut pairs = 0;
            for window in pending.windows(2) {
                let ((pred, _), (succ, span)) = (window[0], window[1]);
                if pred != succ {
                    self.note_pair(pred, succ, span);
                    pairs += 1;
                }
            }
            self.ring.extend(pending.last());
            self.since_mine = 0;
            let before = self.table.len();
            let excess = before.saturating_sub(self.config.max_assocs);
            if excess > 0 {
                let mut keys: Vec<(u64, u64)> = self
                    .table
                    .iter()
                    .map(|(&block, e)| {
                        let bonus = u64::from(e.freq) * FREQUENCY_LIFETIME_BONUS;
                        (e.last_seen.saturating_add(bonus), block)
                    })
                    .collect();
                keys.select_nth_unstable(excess - 1);
                for &(_, block) in &keys[..excess] {
                    self.table.remove(&block);
                }
            }
            (pairs, before, excess)
        }

        fn view(&self) -> TableView {
            self.table
                .iter()
                .map(|(&block, e)| (block, e.freq, e.last_seen, e.successors.clone()))
                .collect()
        }
    }

    /// The engine beside the reference miner, fed the same accesses.
    struct Differential {
        subject: CorrelationEngine,
        oracle: ReferenceMiner,
    }

    impl Differential {
        fn new(config: CorrelationConfig) -> Self {
            Self {
                oracle: ReferenceMiner::new(config.clone()),
                subject: CorrelationEngine::with_config(config),
            }
        }

        /// Feeds one access to both; the decisions must agree. Returns
        /// whether a mining pass is due.
        fn observe(&mut self, page: u64, pages: u64) -> bool {
            let got = self.subject.observe(&obs(page, pages));
            let want = self.oracle.observe(&obs(page, pages));
            assert_eq!(
                (&got.runs, got.confidence, got.mine_due),
                (&want.runs, want.confidence, want.mine_due),
                "decisions diverge at page {page}"
            );
            got.mine_due
        }

        /// Mines both; the pair counts, the rings and the whole table
        /// (blocks, successors, `freq`, `last_seen`) must agree. Returns
        /// `(table length before eviction, victims)`.
        fn mine(&mut self) -> (usize, usize) {
            let (pairs, before, victims) = self.oracle.mine();
            assert_eq!(self.subject.mine(), pairs);
            assert_eq!(self.subject.ring, self.oracle.ring);
            assert!(
                table_view(&self.subject) == self.oracle.view(),
                "tables diverge evicting {victims} of {before}"
            );
            (before, victims)
        }
    }

    /// `kv_probe` in miniature: a skewed key pick reads the key's index
    /// page, then its 8-page record. Yields `(page, pages)` observations.
    struct ProbeStream {
        state: u64,
        keys: u64,
        record: Option<(u64, u64)>,
    }

    impl ProbeStream {
        fn new(seed: u64, keys: u64) -> Self {
            Self {
                state: seed,
                keys,
                record: None,
            }
        }

        fn draw(&mut self) -> u64 {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.state >> 33) % self.keys
        }
    }

    impl Iterator for ProbeStream {
        type Item = (u64, u64);

        fn next(&mut self) -> Option<(u64, u64)> {
            if let Some(record) = self.record.take() {
                return Some(record);
            }
            // The product of two uniform draws piles mass on the low keys.
            let key = self.draw() * self.draw() / self.keys;
            let index_pages = self.keys / 64;
            self.record = Some((index_pages + key * 8, 8));
            Some((key / 64, 1))
        }
    }

    #[test]
    fn one_selection_evicts_what_one_scan_per_victim_did() {
        // Passes of 1 .. 1 500 observations, so the same table overflows
        // by one entry, by tens, and by more than it may keep. The wide
        // key space fills it with cold entries that tie on their mining
        // stamp; the narrow one keeps re-reading what the table holds, so
        // victims are picked among scores one lookup apart.
        const PASS_LENGTHS: [usize; 8] = [1, 64, 3, 1_500, 2, 17, 1, 200];
        for cap in [1usize, 8, 256] {
            let (mut by_one, mut by_many, mut by_most) = (0, 0, 0);
            for keys in [16_384, 4 * cap.max(16) as u64] {
                let mut pair = Differential::new(CorrelationConfig {
                    max_assocs: cap,
                    history: 2_048,
                    ..CorrelationConfig::default()
                });
                let mut stream = ProbeStream::new(0xC0FFEE ^ keys, keys);
                for round in 0..96 {
                    let pass = PASS_LENGTHS[round % PASS_LENGTHS.len()];
                    for (page, pages) in stream.by_ref().take(pass) {
                        pair.observe(page, pages);
                    }
                    let (before, victims) = pair.mine();
                    by_one += usize::from(victims == 1);
                    by_many += usize::from(victims > 1);
                    by_most += usize::from(victims > before / 2);
                }
                assert_eq!(pair.subject.stats().assoc_entries, cap);
            }
            assert!(
                by_one > 0 && by_many > 0 && by_most > 0,
                "cap {cap}: overflow by one {by_one}, by many {by_many}, by most {by_most}"
            );
        }
    }

    #[test]
    fn score_ties_fall_to_the_lowest_block_id() {
        let survivors = |pair: &Differential| {
            let mut blocks: Vec<u64> = pair.subject.table.keys().copied().collect();
            blocks.sort_unstable();
            blocks
        };
        let mut pair = Differential::new(CorrelationConfig {
            max_assocs: 2,
            ..CorrelationConfig::default()
        });
        // Pass 1 at stamp 4: 900 seen twice (score 4 + 32), 50 once (20).
        for page in [900, 50, 900, 500] {
            pair.observe(page, 1);
        }
        assert_eq!(pair.mine(), (2, 0));
        // Pass 2 at stamp 20: 500 and 100 seen once each (20 + 16), so
        // three entries tie at 36 through different recency/frequency.
        for _ in 0..14 {
            pair.observe(500, 1);
        }
        pair.observe(100, 1);
        pair.observe(7_000, 1);
        assert_eq!(pair.mine(), (4, 2));
        // 50 goes on score; of the tied three, the lowest block goes.
        assert_eq!(survivors(&pair), vec![500, 900]);

        // One pass of never-seen blocks in descending order: every new
        // entry has the same stamp and frequency, so block id alone
        // decides and the highest ids stay.
        let mut pair = Differential::new(CorrelationConfig {
            max_assocs: 8,
            ..CorrelationConfig::default()
        });
        for page in (1..=40u64).rev() {
            pair.observe(page * 10, 1);
        }
        assert_eq!(pair.mine(), (39, 31));
        assert_eq!(
            survivors(&pair),
            (33..=40).map(|p| p * 10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn default_cap_saturates_and_evicts_identically() {
        // The shipped configuration, mined whenever the engine asks: 64
        // observations a pass against a 4 096-entry table.
        let mut pair = Differential::new(CorrelationConfig::default());
        let mut evicting_passes = 0;
        for (page, pages) in ProbeStream::new(42, 16_384).take(16_000) {
            if pair.observe(page, pages) {
                let (_, victims) = pair.mine();
                evicting_passes += usize::from(victims > 0);
            }
        }
        assert!(
            evicting_passes > 50,
            "only {evicting_passes} passes evicted"
        );
        let max_assocs = CorrelationConfig::default().max_assocs;
        assert_eq!(pair.subject.stats().assoc_entries, max_assocs);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Over random caps, pass lengths and key-space widths, with
        /// lookups of blocks the table holds between passes (each raises
        /// an entry's `last_seen` above its heap key), the heap miner
        /// agrees with the reference miner on every decision, every pair
        /// count and the whole table after every pass.
        #[test]
        fn heap_eviction_matches_the_reference_miner(
            cap in 1usize..=512,
            keys in 16u64..=16_384,
            seed in proptest::any::<u64>(),
            passes in proptest::collection::vec((1usize..=1_500, 0usize..=64), 1..=6),
        ) {
            let mut pair = Differential::new(CorrelationConfig {
                max_assocs: cap,
                history: 2_048,
                ..CorrelationConfig::default()
            });
            let mut stream = ProbeStream::new(seed, keys);
            let mut pick = seed;
            for (pass, lookups) in passes {
                for (page, pages) in stream.by_ref().take(pass) {
                    pair.observe(page, pages);
                }
                pair.mine();
                let held: Vec<u64> = pair.oracle.table.keys().copied().collect();
                for _ in 0..lookups {
                    pick = pick
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let Some(&page) = held.get((pick >> 33) as usize % held.len().max(1)) else {
                        break;
                    };
                    pair.observe(page, 1);
                }
            }
            pair.mine();
        }
    }

    #[test]
    fn eviction_heap_holds_one_key_per_entry() {
        // The heap's memory bound: one key per live entry, so never more
        // than the cap plus one pass of new blocks. The table never grows
        // past the size it was given on the first pass.
        let max_assocs = CorrelationConfig::default().max_assocs;
        let mut engine = CorrelationEngine::new();
        let (mut passes, mut sized) = (0, None);
        for (page, pages) in ProbeStream::new(1729, 16_384).take(50_000) {
            if engine.observe(&obs(page, pages)).mine_due {
                engine.mine();
                passes += 1;
                assert!(engine.table.len() <= max_assocs);
                let capacity = *sized.get_or_insert(engine.table.capacity());
                assert!(
                    engine.table.capacity() <= capacity,
                    "pass {passes} grew the table"
                );
            }
            assert_eq!(engine.evictions.len(), engine.table.len());
        }
        assert_eq!(engine.table.len(), max_assocs, "the table saturated");
        assert!(passes > 700, "{passes} passes");
    }
}
