//! MITHRIL-style correlation prefetching.
//!
//! The strided counter (§4.6) is blind to *recurring but non-sequential*
//! access: a zipfian key-value workload re-reads the same index-page →
//! data-page chains over and over, yet every chain hop looks like a random
//! jump. This engine mines those chains into a bounded block-association
//! table and, on the hot path, does nothing more than one ordered-map
//! lookup to turn a learned association into explicit prefetch runs.
//!
//! Structure (after MITHRIL's mining/filtering split):
//!
//! * a **history ring** of the most recent `(block, span)` observations,
//!   capped at 512 entries — the only state the hot path writes;
//! * an **association table** `block → [successor; 4]` capped at 4096
//!   entries, evicted by combined recency + frequency score — the only
//!   state the hot path reads;
//! * a **mining pass** ([`PredictionEngine::mine`]) that folds the ring
//!   into the table. The runtime schedules it on the worker pool every 64
//!   observations, so table maintenance is charged to background virtual
//!   time, not the read path.
//!
//! The sizes are constants; the crate-private `CorrelationConfig` exists
//! so tests can build small tables, not as a tuning surface.
//!
//! All state lives in ordered containers (`BTreeMap`), so mining and
//! eviction are deterministic and same-seed runs stay byte-identical.

use std::collections::BTreeMap;

use crate::{
    AccessObservation, EngineKind, PredictionEngine, PrefetchDecision, PrefetchRun, QualityFeedback,
};

/// Successor slots kept per association-table entry.
const SUCCESSOR_SLOTS: usize = 4;

/// How many observations a table entry's frequency extends its lifetime
/// by, relative to pure recency, when the table is over capacity.
const FREQUENCY_LIFETIME_BONUS: u64 = 16;

/// The miner's sizes. The defaults — the only values the runtime ever
/// runs — bound the engine to a few tens of KiB per file descriptor;
/// tests substitute small tables through
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

#[derive(Debug, Clone, PartialEq, Eq)]
struct Successor {
    block: u64,
    span: u64,
    count: u32,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct AssocEntry {
    successors: Vec<Successor>,
    /// Total times this block was seen as a predecessor.
    freq: u32,
    /// Observation stamp of the last mining touch or lookup hit.
    last_seen: u64,
}

impl AssocEntry {
    /// Eviction order under table pressure: lowest goes first. Recency,
    /// extended by [`FREQUENCY_LIFETIME_BONUS`] observations per sighting.
    fn eviction_score(&self) -> u64 {
        self.last_seen
            .saturating_add(u64::from(self.freq) * FREQUENCY_LIFETIME_BONUS)
    }
}

/// Size and activity snapshot, used by tests and telemetry to check the
/// memory caps hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrelationStats {
    /// Live association-table entries.
    pub assoc_entries: usize,
    /// Unmined history-ring entries.
    pub pending: usize,
    /// Consecutive-pair associations digested so far.
    pub mined_pairs: u64,
    /// History observations dropped because mining fell behind the ring.
    pub history_dropped: u64,
}

/// The correlation prefetch engine. See the module docs for structure.
#[derive(Debug, Clone)]
pub struct CorrelationEngine {
    config: CorrelationConfig,
    /// Unmined observations, oldest first. Bounded by `config.history`.
    ring: Vec<(u64, u64)>,
    table: BTreeMap<u64, AssocEntry>,
    observations: u64,
    since_mine: u64,
    mined_pairs: u64,
    history_dropped: u64,
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
            table: BTreeMap::new(),
            observations: 0,
            since_mine: 0,
            mined_pairs: 0,
            history_dropped: 0,
            support_boost: 0,
            feedback_timely: 0,
            feedback_wasted: 0,
        }
    }

    /// Current size/activity snapshot.
    pub fn stats(&self) -> CorrelationStats {
        CorrelationStats {
            assoc_entries: self.table.len(),
            pending: self.ring.len(),
            mined_pairs: self.mined_pairs,
            history_dropped: self.history_dropped,
        }
    }

    /// Effective support threshold after feedback adjustment.
    fn effective_support(&self) -> u32 {
        self.config.min_support + self.support_boost
    }

    fn note_pair(&mut self, pred: u64, succ: u64, span: u64) {
        let stamp = self.observations;
        let entry = self.table.entry(pred).or_default();
        entry.freq = entry.freq.saturating_add(1);
        entry.last_seen = stamp;
        if let Some(slot) = entry.successors.iter_mut().find(|s| s.block == succ) {
            slot.count = slot.count.saturating_add(1);
            slot.span = slot.span.max(span);
            return;
        }
        if entry.successors.len() < SUCCESSOR_SLOTS {
            entry.successors.push(Successor {
                block: succ,
                span,
                count: 1,
            });
            return;
        }
        // All slots taken: replace the weakest successor (lowest count,
        // lowest block breaking ties — deterministic).
        if let Some(weakest) = entry
            .successors
            .iter_mut()
            .min_by_key(|s| (s.count, s.block))
        {
            if weakest.count <= 1 {
                *weakest = Successor {
                    block: succ,
                    span,
                    count: 1,
                };
            }
        }
    }

    /// Evicts table entries down to capacity by the lowest
    /// recency+frequency score (`last_seen + freq * bonus`), ties broken
    /// by block id, so the victims are a function of the table alone.
    ///
    /// One selection per pass: removing an entry changes no survivor's
    /// key and the block id makes every key unique, so the `excess`
    /// smallest keys are exactly the victims that evicting one minimum
    /// at a time would pick. Cost is O(table), not O(table × victims).
    fn enforce_cap(&mut self) {
        let excess = self.table.len().saturating_sub(self.config.max_assocs);
        if excess == 0 {
            return;
        }
        let mut keys: Vec<(u64, u64)> = self
            .table
            .iter()
            .map(|(&block, entry)| (entry.eviction_score(), block))
            .collect();
        keys.select_nth_unstable(excess - 1);
        for &(_, block) in &keys[..excess] {
            self.table.remove(&block);
        }
    }

    fn mine_pass(&mut self) -> u64 {
        let pending = std::mem::take(&mut self.ring);
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
        // the pair spanning two mining passes is not lost.
        if let Some(&last) = pending.last() {
            self.ring.push(last);
        }
        self.enforce_cap();
        self.mined_pairs += pairs;
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
            let drop = self.config.history / 2;
            self.ring.drain(..drop);
            self.history_dropped += drop as u64;
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
            for s in &entry.successors {
                if s.count < support {
                    continue;
                }
                let pages = s
                    .span
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
    use super::*;

    fn obs(page: u64, pages: u64) -> AccessObservation {
        AccessObservation {
            page,
            pages,
            aggressive_ok: false,
            max_prefetch_pages: 16_384,
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
        for i in 0..4096u64 {
            engine.observe(&obs(i * 7, 1));
            if i % 8 == 7 {
                engine.mine();
            }
        }
        engine.mine();
        assert!(engine.stats().assoc_entries <= 32);
        assert!(engine.stats().mined_pairs > 0);
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
        let stats = engine.stats();
        assert!(stats.pending <= 64);
        assert!(stats.history_dropped > 0);
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
            (fingerprint, engine.stats())
        };
        assert_eq!(run(), run());
    }

    /// The eviction loop `enforce_cap` replaced — one full-table minimum
    /// scan per victim — kept as the differential oracle.
    fn evict_one_victim_per_scan(engine: &mut CorrelationEngine, cap: usize) {
        while engine.table.len() > cap {
            let victim = engine
                .table
                .iter()
                .min_by_key(|(block, e)| {
                    (
                        e.last_seen
                            .saturating_add(u64::from(e.freq) * FREQUENCY_LIFETIME_BONUS),
                        **block,
                    )
                })
                .map(|(block, _)| *block);
            match victim {
                Some(block) => {
                    engine.table.remove(&block);
                }
                None => break,
            }
        }
    }

    /// The engine beside a twin whose own cap never engages and which the
    /// oracle trims after every pass instead (eviction is the last thing
    /// a pass does to the table, so the two orders are the same).
    struct Differential {
        subject: CorrelationEngine,
        oracle: CorrelationEngine,
        cap: usize,
    }

    impl Differential {
        fn new(config: CorrelationConfig) -> Self {
            Self {
                cap: config.max_assocs,
                oracle: CorrelationEngine::with_config(CorrelationConfig {
                    max_assocs: usize::MAX,
                    ..config.clone()
                }),
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

        /// Mines both; the whole table (blocks, successors, `freq`,
        /// `last_seen`) must agree. Returns `(table length before
        /// eviction, victims)`.
        fn mine(&mut self) -> (usize, usize) {
            assert_eq!(self.subject.mine(), self.oracle.mine());
            let before = self.oracle.table.len();
            evict_one_victim_per_scan(&mut self.oracle, self.cap);
            let victims = before - self.oracle.table.len();
            assert!(
                self.subject.table == self.oracle.table,
                "tables diverge evicting {victims} of {before}"
            );
            assert_eq!(self.subject.stats(), self.oracle.stats());
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
        let survivors: Vec<u64> = pair.subject.table.keys().copied().collect();
        assert_eq!(survivors, vec![500, 900]);

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
        let survivors: Vec<u64> = pair.subject.table.keys().copied().collect();
        assert_eq!(survivors, (33..=40).map(|p| p * 10).collect::<Vec<_>>());
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
}
