//! The ordered in-memory write buffer.
//!
//! A `BTreeMap` from key to `Option<value>` — `None` is a tombstone, so
//! a delete of a key that lives in an older run still shadows it when
//! the memtable is flushed into a newer run. Keys stay sorted, which is
//! exactly what the run writer needs; flushing is a plain iteration.
//!
//! The memtable tracks an approximate byte footprint (key + value + a
//! small per-entry constant) so [`crate::Store`] can decide when to
//! flush without walking the tree.

use std::collections::BTreeMap;

/// Per-entry bookkeeping overhead charged to [`Memtable::approx_bytes`].
const ENTRY_OVERHEAD: usize = 32;

/// The bytes one entry is charged: key, value (none for a tombstone)
/// and the per-entry overhead.
fn charge(key: &[u8], value: Option<&[u8]>) -> usize {
    key.len() + value.map_or(0, <[u8]>::len) + ENTRY_OVERHEAD
}

/// Sorted in-memory buffer of pending mutations.
#[derive(Debug, Default)]
pub struct Memtable {
    entries: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    approx_bytes: usize,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Insert or overwrite a key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.apply(key, Some(value.to_vec()));
    }

    /// Record a deletion (tombstone).
    pub fn delete(&mut self, key: &[u8]) {
        self.apply(key, None);
    }

    fn apply(&mut self, key: &[u8], value: Option<Vec<u8>>) {
        let added = charge(key, value.as_deref());
        // An overwrite keeps the stored key: no copy of it is made.
        match self.entries.get_mut(key) {
            Some(slot) => {
                let old = std::mem::replace(slot, value);
                self.approx_bytes = self
                    .approx_bytes
                    .saturating_sub(charge(key, old.as_deref()));
            }
            None => {
                self.entries.insert(key.to_vec(), value);
            }
        }
        self.approx_bytes += added;
    }

    /// What [`Memtable::approx_bytes`] would read after
    /// `put(key, value)`, computed as the put would: the replaced
    /// value's charge comes off, the new one goes on.
    pub(crate) fn approx_bytes_after_put(&self, key: &[u8], value: &[u8]) -> usize {
        let replaced = self
            .entries
            .get(key)
            .map_or(0, |old| charge(key, old.as_deref()));
        self.approx_bytes.saturating_sub(replaced) + charge(key, Some(value))
    }

    /// Look up a key. `None` — the memtable knows nothing (fall through
    /// to the runs); `Some(None)` — deleted here (stop); `Some(Some(v))`
    /// — live value.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.entries.get(key).map(|v| v.as_deref())
    }

    /// Number of entries, tombstones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Iterate entries in key order (tombstones as `None` values).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> {
        self.entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_deref()))
    }

    /// Discard everything (after a successful flush).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.approx_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut mt = Memtable::new();
        assert!(mt.is_empty());
        mt.put(b"a", b"1");
        mt.put(b"b", b"2");
        assert_eq!(mt.get(b"a"), Some(Some(b"1".as_slice())));
        mt.delete(b"a");
        assert_eq!(mt.get(b"a"), Some(None), "tombstone shadows");
        assert_eq!(mt.get(b"missing"), None);
        assert_eq!(mt.len(), 2);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut mt = Memtable::new();
        for k in ["delta", "alpha", "charlie", "bravo"] {
            mt.put(k.as_bytes(), b"v");
        }
        let keys: Vec<&[u8]> = mt.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![b"alpha".as_slice(), b"bravo", b"charlie", b"delta"]
        );
    }

    #[test]
    fn bytes_after_put_is_what_the_put_leaves() {
        let mut mt = Memtable::new();
        mt.put(b"gone", b"x");
        mt.delete(b"gone");
        let cases: [(&[u8], &[u8]); 5] = [
            (b"new", b"12345"),
            (b"new", b"1"),
            (b"new", b"123456789"),
            (b"gone", b"back"),
            (b"", b""),
        ];
        for (key, value) in cases {
            let predicted = mt.approx_bytes_after_put(key, value);
            mt.put(key, value);
            assert_eq!(mt.approx_bytes(), predicted, "{key:?} = {value:?}");
        }
    }

    #[test]
    fn byte_accounting_tracks_overwrites() {
        let mut mt = Memtable::new();
        mt.put(b"k", &[0u8; 100]);
        let after_first = mt.approx_bytes();
        mt.put(b"k", &[0u8; 10]);
        assert!(mt.approx_bytes() < after_first);
        mt.clear();
        assert_eq!(mt.approx_bytes(), 0);
        assert!(mt.is_empty());
    }
}
