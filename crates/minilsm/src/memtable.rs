//! In-memory write buffer.

use std::collections::BTreeMap;

/// A sorted in-memory buffer of recent writes.
///
/// Entries are `key → Option<value>`; `None` is a tombstone so deletes
/// shadow older SSTable versions during merges.
#[derive(Debug, Default)]
pub struct MemTable {
    entries: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    bytes: usize,
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.upsert(key, Some(value.to_vec()));
    }

    /// Records a delete (tombstone).
    pub fn delete(&mut self, key: &[u8]) {
        self.upsert(key, None);
    }

    fn upsert(&mut self, key: &[u8], value: Option<Vec<u8>>) {
        let add = key.len() + value.as_ref().map_or(0, |v| v.len()) + 16;
        if let Some(prev) = self.entries.insert(key.to_vec(), value) {
            self.bytes -= key.len() + prev.map_or(0, |v| v.len()) + 16;
        }
        self.bytes += add;
    }

    /// Looks up a key. `Some(None)` means "deleted here"; `None` means
    /// "not in this memtable — check older data".
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.entries.get(key).map(|v| v.as_deref())
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entry count (including tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> + '_ {
        self.entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_deref()))
    }

    /// Drains the table into a sorted vector for flushing.
    pub fn into_sorted(self) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        self.entries.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut mt = MemTable::new();
        mt.put(b"a", b"1");
        assert_eq!(mt.get(b"a"), Some(Some(b"1".as_slice())));
        assert_eq!(mt.get(b"b"), None);
    }

    #[test]
    fn overwrite_updates_bytes() {
        let mut mt = MemTable::new();
        mt.put(b"k", b"aaaa");
        let before = mt.bytes();
        mt.put(b"k", b"bb");
        assert_eq!(mt.len(), 1);
        assert!(mt.bytes() < before);
    }

    #[test]
    fn tombstone_shadows() {
        let mut mt = MemTable::new();
        mt.put(b"k", b"v");
        mt.delete(b"k");
        assert_eq!(mt.get(b"k"), Some(None));
    }

    #[test]
    fn into_sorted_preserves_order() {
        let mut mt = MemTable::new();
        mt.put(b"z", b"1");
        mt.put(b"a", b"2");
        let sorted = mt.into_sorted();
        assert_eq!(sorted[0].0, b"a");
        assert_eq!(sorted[1].0, b"z");
    }
}
