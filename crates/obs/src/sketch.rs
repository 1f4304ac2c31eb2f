//! SpaceSaving heavy-hitter sketch over `u64` keys.
//!
//! Serve needs "which query templates dominated the last window"
//! without keeping a map that grows with every distinct template ever
//! seen. The SpaceSaving algorithm (Metwally, Agrawal, El Abbadi 2005)
//! answers that with a fixed number of slots: while a slot is free, a
//! new key claims it; once full, a new key *evicts the current minimum*
//! and inherits its count as an error bound. Any key whose true
//! frequency exceeds N/capacity is guaranteed to be present, and every
//! reported count overestimates the truth by at most the slot's `err`.
//!
//! All storage is allocated at construction ([`TemplateSketch::new`]);
//! [`TemplateSketch::observe`] is a linear scan over the fixed slot
//! arrays under a short mutex hold — no allocation, as the
//! `no-alloc-in-metric-path` lint rule (which scans `observe*` bodies
//! in this crate) enforces. Capacities are small (64 slots by default
//! in serve), so the scan is a few cache lines.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

struct Slots {
    keys: Vec<u64>,
    counts: Vec<u64>,
    errs: Vec<u64>,
    len: usize,
    /// Total observations, including ones absorbed into evicted slots.
    total: u64,
}

/// A fixed-capacity SpaceSaving sketch keyed by `u64` (query-template
/// ids in serve, but any stable id works).
pub struct TemplateSketch {
    inner: Mutex<Slots>,
}

impl TemplateSketch {
    /// A sketch with `capacity` slots (clamped to at least 1). This is
    /// the only allocation the sketch ever performs.
    pub fn new(capacity: usize) -> TemplateSketch {
        let capacity = capacity.max(1);
        TemplateSketch {
            inner: Mutex::new(Slots {
                keys: vec![0; capacity],
                counts: vec![0; capacity],
                errs: vec![0; capacity],
                len: 0,
                total: 0,
            }),
        }
    }

    /// Count one occurrence of `key`: bump its slot, claim a free slot,
    /// or evict the current minimum and inherit its count as the error
    /// bound. Allocation-free by construction.
    pub fn observe(&self, key: u64) {
        let mut s = self.inner.lock();
        s.total += 1;
        let mut min_idx = 0usize;
        let mut min_count = u64::MAX;
        let mut i = 0usize;
        while i < s.len {
            if s.keys[i] == key {
                s.counts[i] += 1;
                return;
            }
            if s.counts[i] < min_count {
                min_count = s.counts[i];
                min_idx = i;
            }
            i += 1;
        }
        if s.len < s.keys.len() {
            let i = s.len;
            s.keys[i] = key;
            s.counts[i] = 1;
            s.errs[i] = 0;
            s.len += 1;
        } else {
            // SpaceSaving eviction: the newcomer takes over the minimum
            // slot at `min + 1`, remembering `min` as its overcount.
            s.keys[min_idx] = key;
            s.errs[min_idx] = min_count;
            s.counts[min_idx] = min_count + 1;
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.inner.lock().keys.len()
    }

    /// Total observations since construction or the last
    /// [`TemplateSketch::drain`].
    pub fn total(&self) -> u64 {
        self.inner.lock().total
    }

    /// The occupied slots as [`SketchEntry`]s, sorted by count
    /// descending (key ascending on ties, for determinism).
    pub fn entries(&self) -> Vec<SketchEntry> {
        let s = self.inner.lock();
        let mut out: Vec<SketchEntry> = (0..s.len)
            .map(|i| SketchEntry {
                key: s.keys[i],
                count: s.counts[i],
                err: s.errs[i],
            })
            .collect();
        drop(s);
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        out
    }

    /// Snapshot the occupied slots and reset the sketch, so each sealed
    /// window gets its own template distribution. Returns the entries
    /// sorted as in [`TemplateSketch::entries`] plus the drained total.
    pub fn drain(&self) -> (Vec<SketchEntry>, u64) {
        let mut s = self.inner.lock();
        let mut out: Vec<SketchEntry> = (0..s.len)
            .map(|i| SketchEntry {
                key: s.keys[i],
                count: s.counts[i],
                err: s.errs[i],
            })
            .collect();
        let total = s.total;
        s.len = 0;
        s.total = 0;
        drop(s);
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        (out, total)
    }
}

/// One heavy-hitter slot: `count` overestimates the key's true
/// frequency by at most `err`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchEntry {
    /// The tracked key (a query-template id in serve).
    pub key: u64,
    /// Estimated occurrences (true count ≤ `count` ≤ true count + `err`).
    pub count: u64,
    /// Overcount bound inherited from the slot's eviction history.
    pub err: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_while_under_capacity() {
        let s = TemplateSketch::new(8);
        for _ in 0..5 {
            s.observe(1);
        }
        for _ in 0..3 {
            s.observe(2);
        }
        s.observe(3);
        let e = s.entries();
        assert_eq!(e.len(), 3);
        assert_eq!((e[0].key, e[0].count, e[0].err), (1, 5, 0));
        assert_eq!((e[1].key, e[1].count, e[1].err), (2, 3, 0));
        assert_eq!(s.total(), 9);
    }

    #[test]
    fn eviction_keeps_heavy_hitters_and_bounds_error() {
        let s = TemplateSketch::new(8);
        // Two genuinely heavy keys plus a churn of 50 singletons. Total
        // N = 250, so the SpaceSaving guarantee (present if true count
        // > N/capacity ≈ 31) covers both heavy keys.
        for i in 0..50u64 {
            s.observe(1);
            s.observe(1);
            s.observe(2);
            s.observe(2);
            s.observe(1000 + i);
        }
        let e = s.entries();
        assert_eq!(e.len(), 8);
        for heavy in [1u64, 2] {
            let entry = e
                .iter()
                .find(|x| x.key == heavy)
                .unwrap_or_else(|| panic!("heavy hitter {heavy} evicted: {e:?}"));
            // SpaceSaving invariant: count - err ≤ true count ≤ count.
            assert!(entry.count >= 100 && entry.count.saturating_sub(entry.err) <= 100);
        }
        // The two heavy keys outrank every singleton slot.
        assert!(e[0].key <= 2 && e[1].key <= 2, "{e:?}");
    }

    #[test]
    fn drain_resets_for_the_next_window() {
        let s = TemplateSketch::new(4);
        s.observe(7);
        s.observe(7);
        s.observe(8);
        let (entries, total) = s.drain();
        assert_eq!(total, 3);
        assert_eq!(
            entries[0],
            SketchEntry {
                key: 7,
                count: 2,
                err: 0
            }
        );
        assert!(s.entries().is_empty(), "drain must reset the slots");
        assert_eq!(s.total(), 0);
        s.observe(9);
        assert_eq!(s.entries().len(), 1);
    }

    #[test]
    fn entries_round_trip_through_serde() {
        let e = SketchEntry {
            key: 42,
            count: 7,
            err: 1,
        };
        let json = serde_json::to_string(&e).expect("serialize");
        let back: SketchEntry = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, e);
    }
}
