//! Byte-faithful sparse block content store.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{fill_synthetic, BLOCK_SIZE};

const SHARD_COUNT: usize = 64;

/// A map keyed by block (or placement-word) number. The keys are numbers
/// the stack computes itself, never outside input, so SipHash's
/// resistance to crafted collisions buys nothing here; one folded
/// multiply ([`block_hash`]) does the hashing instead.
pub(crate) type BlockMap<V> = HashMap<u64, V, BuildHasherDefault<BlockHasher>>;

/// The [`BlockMap`] hasher: [`block_hash`] of the one `u64` key.
#[derive(Debug, Default)]
pub(crate) struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("block maps hash u64 keys only");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = block_hash(key);
    }
}

/// Folded multiply: the two halves of the 128-bit product of `key` and
/// FxHash's odd constant, XORed together, so high key bits reach the low
/// bits a hash table indexes by (blocks 2³² apart do not share a bucket)
/// and low key bits reach the high ones. The golden-ratio constant spreads
/// blocks 2³² apart over only an eighth of the low-bit buckets; the spread
/// test below pins the choice.
pub(crate) fn block_hash(key: u64) -> u64 {
    let product = u128::from(key) * 0x517C_C1B7_2722_0A95;
    product as u64 ^ (product >> 64) as u64
}

/// The shard holding `pblock`: six middle bits of [`block_hash`], clear of
/// the low bits a shard's table indexes by and the top seven it tags with.
fn shard_index(pblock: u64) -> usize {
    (block_hash(pblock) >> 32) as usize % SHARD_COUNT
}

/// Sparse, sharded map from physical block number to block content.
///
/// Blocks that were never written read back as the deterministic
/// [`synthetic_block`](crate::synthetic_block) pattern, so read-only
/// workloads over very large files consume no memory here. Written blocks
/// are stored exactly, so the key-value store and compression workloads see
/// correct round-trip data.
///
/// Each stored block is a reference-counted 4 KiB slice that several
/// stores may share: [`SparseStore::copy_block`] hands the same bytes to
/// another store, and the first write through either side copies them
/// (copy-on-write), so a shared block never changes under its other
/// holder. A block only one store holds is written in place.
#[derive(Debug)]
pub struct SparseStore {
    shards: Vec<Mutex<BlockMap<Arc<[u8]>>>>,
}

impl SparseStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(BlockMap::default()))
                .collect(),
        }
    }

    fn shard(&self, pblock: u64) -> &Mutex<BlockMap<Arc<[u8]>>> {
        &self.shards[shard_index(pblock)]
    }

    /// Hands `read` the content of one block: the stored bytes, under the
    /// shard lock, or the synthetic pattern built on the stack. The byte
    /// path copies straight from here into its destination.
    pub fn with_block<R>(&self, pblock: u64, read: impl FnOnce(&[u8]) -> R) -> R {
        if let Some(data) = self.shard(pblock).lock().get(&pblock) {
            return read(data);
        }
        let mut block = [0u8; BLOCK_SIZE];
        fill_synthetic(pblock, &mut block);
        read(&block)
    }

    /// Reads one block into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly [`BLOCK_SIZE`] bytes.
    pub fn read_block(&self, pblock: u64, out: &mut [u8]) {
        assert_eq!(out.len(), BLOCK_SIZE, "read buffer must be one block");
        self.with_block(pblock, |data| out.copy_from_slice(data));
    }

    /// Reads one block, allocating.
    pub fn read_block_vec(&self, pblock: u64) -> Vec<u8> {
        self.with_block(pblock, <[u8]>::to_vec)
    }

    /// Overwrites one block.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly [`BLOCK_SIZE`] bytes.
    pub fn write_block(&self, pblock: u64, data: &[u8]) {
        assert_eq!(data.len(), BLOCK_SIZE, "write buffer must be one block");
        self.write_partial(pblock, 0, data);
    }

    /// Writes a partial block at `offset` within the block, preserving the
    /// rest of the block's current content. A whole-block write to a block
    /// with no stored content skips building the synthetic pattern it
    /// would overwrite. Stored bytes another store shares are copied
    /// first; bytes this store alone holds are written in place.
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` exceeds the block.
    pub fn write_partial(&self, pblock: u64, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= BLOCK_SIZE,
            "partial write out of block bounds: offset {offset} + len {}",
            data.len()
        );
        let mut shard = self.shard(pblock).lock();
        match shard.get_mut(&pblock) {
            Some(block) => Arc::make_mut(block)[offset..offset + data.len()].copy_from_slice(data),
            None if data.len() == BLOCK_SIZE => {
                shard.insert(pblock, data.into());
            }
            None => {
                let mut fresh = vec![0u8; BLOCK_SIZE];
                fill_synthetic(pblock, &mut fresh);
                fresh[offset..offset + data.len()].copy_from_slice(data);
                shard.insert(pblock, fresh.into());
            }
        }
    }

    /// Discards this store's content for a block (reads revert to
    /// synthetic). Another store sharing the bytes keeps them.
    pub fn discard(&self, pblock: u64) {
        self.shard(pblock).lock().remove(&pblock);
    }

    /// Gives the same block of `to` the stored content of block `pblock`
    /// by sharing it: `to` takes a reference to these bytes, and whichever
    /// side writes the block next copies them first. A block that reads
    /// synthetic moves nothing — the pattern is identical on every device
    /// — so cross-tier moves carry only real data. Returns whether content
    /// moved. The two shard locks are never held together, so moves
    /// running in opposite directions cannot deadlock.
    pub fn copy_block(&self, pblock: u64, to: &SparseStore) -> bool {
        let Some(data) = self.shard(pblock).lock().get(&pblock).map(Arc::clone) else {
            return false;
        };
        to.shard(pblock).lock().insert(pblock, data);
        true
    }

    /// Whether block `pblock` has explicitly stored content — exposed for
    /// tests.
    #[doc(hidden)]
    pub fn holds(&self, pblock: u64) -> bool {
        self.shard(pblock).lock().contains_key(&pblock)
    }

    /// Number of blocks with explicitly stored content. A block shared
    /// with another store counts in each store that holds it.
    pub fn resident_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether this store and `other` hold block `pblock` in one shared
    /// allocation.
    #[cfg(test)]
    pub(crate) fn shares_block(&self, pblock: u64, other: &SparseStore) -> bool {
        let mine = self.shard(pblock).lock().get(&pblock).map(Arc::clone);
        let theirs = other.shard(pblock).lock().get(&pblock).map(Arc::clone);
        matches!((mine, theirs), (Some(a), Some(b)) if Arc::ptr_eq(&a, &b))
    }

    /// How many stores hold this store's bytes of block `pblock` (0 when
    /// it holds none).
    #[cfg(test)]
    pub(crate) fn holders(&self, pblock: u64) -> usize {
        self.shard(pblock)
            .lock()
            .get(&pblock)
            .map_or(0, Arc::strong_count)
    }
}

impl Default for SparseStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic_block;

    #[test]
    fn unwritten_block_reads_synthetic() {
        let store = SparseStore::new();
        assert_eq!(store.read_block_vec(42), synthetic_block(42));
        assert_eq!(store.resident_blocks(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let store = SparseStore::new();
        let data = vec![7u8; BLOCK_SIZE];
        store.write_block(3, &data);
        assert_eq!(store.read_block_vec(3), data);
        assert_eq!(store.resident_blocks(), 1);
    }

    #[test]
    fn partial_write_preserves_rest_of_block() {
        let store = SparseStore::new();
        store.write_partial(9, 100, b"hello");
        let block = store.read_block_vec(9);
        assert_eq!(&block[100..105], b"hello");
        // Rest of the block is still the synthetic pattern.
        let synth = synthetic_block(9);
        assert_eq!(&block[..100], &synth[..100]);
        assert_eq!(&block[105..], &synth[105..]);
    }

    #[test]
    fn whole_block_partial_write_stores_exactly_the_data() {
        let store = SparseStore::new();
        let data: Vec<u8> = (0..BLOCK_SIZE).map(|i| i as u8).collect();
        store.write_partial(4, 0, &data);
        assert_eq!(store.read_block_vec(4), data);
        store.write_partial(4, 10, b"ab");
        assert_eq!(&store.read_block_vec(4)[8..14], &[8, 9, b'a', b'b', 12, 13]);
    }

    #[test]
    fn discard_reverts_to_synthetic() {
        let store = SparseStore::new();
        store.write_block(5, &vec![1u8; BLOCK_SIZE]);
        store.discard(5);
        assert_eq!(store.read_block_vec(5), synthetic_block(5));
    }

    #[test]
    fn copy_block_moves_only_stored_content() {
        let (from, to) = (SparseStore::new(), SparseStore::new());
        let payload = vec![0xA5u8; BLOCK_SIZE];
        from.write_block(11, &payload);
        to.write_block(11, &vec![0u8; BLOCK_SIZE]);
        assert!(from.copy_block(11, &to));
        assert_eq!(to.read_block_vec(11), payload);
        assert!(from.shares_block(11, &to), "the target shares the bytes");
        assert!(
            !from.copy_block(12, &to),
            "a synthetic block copies nothing"
        );
        assert_eq!(to.resident_blocks(), 1);
        assert_eq!(
            from.read_block_vec(11),
            payload,
            "the source keeps its reference"
        );
        assert_eq!(
            from.resident_blocks(),
            1,
            "a shared block counts on both sides"
        );
    }

    #[test]
    fn copy_block_shares_one_allocation() {
        let (from, to) = (SparseStore::new(), SparseStore::new());
        from.write_partial(3, 40, b"shared");
        assert_eq!(from.holders(3), 1);
        assert!(from.copy_block(3, &to));
        assert!(from.shares_block(3, &to) && to.shares_block(3, &from));
        assert_eq!((from.holders(3), to.holders(3)), (2, 2));
        // Sharing onward keeps the one allocation.
        let third = SparseStore::new();
        assert!(to.copy_block(3, &third));
        assert!(third.shares_block(3, &from));
        assert_eq!(from.holders(3), 3);
    }

    #[test]
    fn writes_to_a_shared_block_leave_the_other_side_unchanged() {
        let (from, to) = (SparseStore::new(), SparseStore::new());
        let original = vec![0x11u8; BLOCK_SIZE];
        from.write_block(8, &original);
        from.copy_block(8, &to);

        // A whole-block write on the target.
        let whole = vec![0x22u8; BLOCK_SIZE];
        to.write_block(8, &whole);
        assert_eq!(to.read_block_vec(8), whole);
        assert_eq!(from.read_block_vec(8), original);
        assert!(!from.shares_block(8, &to));
        assert_eq!((from.holders(8), to.holders(8)), (1, 1));

        // A partial write on the source, after sharing again.
        from.copy_block(8, &to);
        assert!(from.shares_block(8, &to));
        from.write_partial(8, 100, b"source");
        assert_eq!(&from.read_block_vec(8)[100..106], b"source");
        assert_eq!(to.read_block_vec(8), original);
        assert_eq!((from.holders(8), to.holders(8)), (1, 1));

        // A whole-block write through `write_partial` on the target.
        from.copy_block(8, &to);
        to.write_partial(8, 0, &whole);
        assert_eq!(to.read_block_vec(8), whole);
        assert_eq!(&from.read_block_vec(8)[100..106], b"source");
    }

    #[test]
    fn discarding_one_side_leaves_the_other_readable() {
        let (from, to) = (SparseStore::new(), SparseStore::new());
        let payload = vec![0x5Au8; BLOCK_SIZE];
        from.write_block(21, &payload);
        from.copy_block(21, &to);
        from.discard(21);
        assert_eq!(from.read_block_vec(21), synthetic_block(21));
        assert_eq!(to.read_block_vec(21), payload);
        assert_eq!(to.holders(21), 1, "the survivor owns the bytes alone");
        // And back: the moved reference is the only one again.
        to.copy_block(21, &from);
        to.discard(21);
        assert_eq!(from.read_block_vec(21), payload);
        assert_eq!((from.holders(21), to.resident_blocks()), (1, 0));
    }

    #[test]
    fn a_synthetic_block_moves_nothing() {
        let (from, to) = (SparseStore::new(), SparseStore::new());
        assert!(!from.copy_block(30, &to));
        assert!(!to.holds(30));
        assert_eq!(to.resident_blocks(), 0);
        assert_eq!(to.read_block_vec(30), synthetic_block(30));
        // A target's own bytes survive a synthetic source.
        to.write_partial(30, 0, b"own");
        assert!(!from.copy_block(30, &to));
        assert_eq!(&to.read_block_vec(30)[..3], b"own");
    }

    #[test]
    #[should_panic(expected = "one block")]
    fn read_rejects_short_buffer() {
        let store = SparseStore::new();
        let mut short = vec![0u8; 16];
        store.read_block(0, &mut short);
    }

    #[test]
    #[should_panic(expected = "out of block bounds")]
    fn partial_write_rejects_overflow() {
        let store = SparseStore::new();
        store.write_partial(0, BLOCK_SIZE - 2, b"xyz");
    }

    /// 64 k sequential block numbers and 64 k numbers 2³² apart: each set
    /// round-trips through a [`BlockMap`], no shard takes more than twice
    /// its share, and the low bits a shard's table buckets by stay spread.
    /// A multiplier that loses high or low key bits fails here instead of
    /// quietly turning lookups linear.
    #[test]
    fn block_hash_spreads_sequential_and_strided_keys() {
        const KEYS: u64 = 1 << 16;
        for stride in [1u64, 1 << 32] {
            let keys: Vec<u64> = (0..KEYS).map(|i| i.wrapping_mul(stride)).collect();
            let map: BlockMap<u64> = keys.iter().map(|&k| (k, !k)).collect();
            assert_eq!(map.len() as u64, KEYS);
            assert!(keys.iter().all(|k| map.get(k) == Some(&!k)));

            let mut per_shard = [0u64; SHARD_COUNT];
            for &k in &keys {
                per_shard[shard_index(k)] += 1;
            }
            let mean = KEYS / SHARD_COUNT as u64;
            let fullest = per_shard.iter().max().copied().unwrap_or(0);
            assert!(
                fullest <= 2 * mean,
                "stride {stride}: a shard holds {fullest} keys, mean {mean}"
            );

            let mut buckets = vec![false; KEYS as usize];
            for &k in &keys {
                buckets[(block_hash(k) % KEYS) as usize] = true;
            }
            let used = buckets.iter().filter(|&&b| b).count() as u64;
            assert!(
                used * 2 >= KEYS,
                "stride {stride}: keys reach only {used} of {KEYS} low-bit buckets"
            );
        }
    }

    /// The same two key sets round-trip through the store itself (a sample
    /// of each, to keep the test's memory small).
    #[test]
    fn strided_blocks_round_trip_through_the_store() {
        let store = SparseStore::new();
        for stride in [1u64, 1 << 32] {
            for i in 0..512u64 {
                store.write_partial(i * stride, 0, &(i * stride).to_le_bytes());
            }
        }
        assert_eq!(store.resident_blocks(), 1023, "block 0 is in both sets");
        for stride in [1u64, 1 << 32] {
            for i in 1..512u64 {
                let key = i * stride;
                assert!(store.with_block(key, |b| b[..8] == key.to_le_bytes()));
            }
        }
    }

    #[test]
    fn concurrent_writers_to_distinct_blocks() {
        use std::sync::Arc;
        let store = Arc::new(SparseStore::new());
        crossbeam::scope(|scope| {
            for thread_id in 0..8u64 {
                let store = Arc::clone(&store);
                scope.spawn(move |_| {
                    for i in 0..64u64 {
                        let block = thread_id * 64 + i;
                        store.write_block(block, &vec![thread_id as u8; BLOCK_SIZE]);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(store.resident_blocks(), 8 * 64);
        for thread_id in 0..8u64 {
            let block = store.read_block_vec(thread_id * 64);
            assert!(block.iter().all(|&b| b == thread_id as u8));
        }
    }
}
