//! LRU recommendation cache.
//!
//! Decoding is by far the most expensive step of serving, and analysts
//! re-issue near-identical queries constantly, so repeated input windows
//! are the common case. The cache maps *(model epoch, normalized input
//! window)* to the full ranked fragment lists; keying on the epoch means
//! a hot-swap ([`crate::registry::ModelRegistry::swap`]) implicitly
//! invalidates every entry of the old model without a flush.
//!
//! The window is already normalized by construction: `qrec-sql` parsing
//! resolves aliases, case-folds keywords, and collapses literals, so the
//! token sequence of a [`SessionContext`](qrec_core::SessionContext)
//! window is canonical. The key writes each token behind its length
//! in bytes (`3:FROM`): no token's text — a string literal may hold any
//! character — can pass for a boundary, so distinct windows never
//! share a key.

use parking_lot::Mutex;
use qrec_core::predict::PerKind;
use qrec_obs::Counter;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::sync::{Arc, OnceLock};

/// Process-wide count of LRU evictions, registered lazily so the `DUMP`
/// exposition can distinguish capacity pressure from epoch turnover.
fn evictions() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| qrec_obs::global().counter("serve.cache.evictions"))
}

/// Cache key: model epoch plus the canonical window text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Registry epoch of the model the entry was computed with.
    pub epoch: u64,
    /// Normalized input window: each parser token as its byte length,
    /// `:`, and its text (`6:SELECT1:a`), an injective encoding.
    pub window: String,
}

impl CacheKey {
    /// Build a key from a model epoch and the window's parser tokens.
    pub fn new(epoch: u64, tokens: &[String]) -> Self {
        CacheKey::from_window(epoch, tokens.iter().map(String::as_str))
    }

    /// [`CacheKey::new`] over borrowed tokens
    /// ([`SessionContext::window_tokens`](qrec_core::SessionContext::window_tokens)):
    /// the key's one string is the only allocation.
    pub fn from_window<'a>(epoch: u64, tokens: impl IntoIterator<Item = &'a str>) -> Self {
        let mut window = String::new();
        for token in tokens {
            // Writing to a `String` cannot fail.
            let _ = write!(window, "{}:", token.len());
            window.push_str(token);
        }
        CacheKey { epoch, window }
    }
}

/// The cached value: every ranked fragment list (callers slice to the
/// requested `n`, so one entry serves all request sizes).
pub type CachedRanking = PerKind<Vec<String>>;

struct Inner {
    map: HashMap<CacheKey, (Arc<CachedRanking>, u64)>,
    /// Recency index: logical tick -> key. The smallest tick is the
    /// least recently used entry.
    order: BTreeMap<u64, CacheKey>,
    tick: u64,
}

/// A bounded LRU cache of ranked recommendations.
///
/// A lookup refreshes recency; `put` evicts the least recently used
/// entry once `capacity` is exceeded. Both are `O(log n)` under a single
/// mutex, and rankings are stored behind an [`Arc`], so a hit copies
/// nothing while the mutex is held — the event loop answers hits from
/// its own thread (DESIGN.md §8) and must never wait on a worker that is
/// deep-cloning a ranking.
pub struct RecCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl RecCache {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RecCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Look up a key, refreshing its recency on hit: a refcount bump
    /// under the mutex, the ranking itself shared.
    pub fn get_shared(&self, key: &CacheKey) -> Option<Arc<CachedRanking>> {
        let mut g = self.inner.lock();
        g.tick += 1;
        let tick = g.tick;
        let (value, entry_tick) = g.map.get_mut(key)?;
        let value = Arc::clone(value);
        let prev = std::mem::replace(entry_tick, tick);
        // Move the recency entry (and its copy of the key) to the new tick.
        if let Some(key) = g.order.remove(&prev) {
            g.order.insert(tick, key);
        }
        Some(value)
    }

    /// [`RecCache::get_shared`] returning a copy of the ranking, made
    /// after the mutex is released.
    pub fn get(&self, key: &CacheKey) -> Option<CachedRanking> {
        self.get_shared(key).map(|shared| (*shared).clone())
    }

    /// Insert or refresh an entry, evicting the LRU entry if full.
    pub fn put(&self, key: CacheKey, value: impl Into<Arc<CachedRanking>>) {
        let value = value.into();
        let mut g = self.inner.lock();
        g.tick += 1;
        let tick = g.tick;
        if let Some((_, prev)) = g.map.insert(key.clone(), (value, tick)) {
            g.order.remove(&prev);
        }
        g.order.insert(tick, key);
        while g.map.len() > self.capacity {
            let Some((_, evicted)) = g.order.pop_first() else {
                break;
            };
            g.map.remove(&evicted);
            evictions().inc();
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranking(tag: &str) -> CachedRanking {
        PerKind {
            table: vec![tag.to_string()],
            column: vec![],
            function: vec![],
            literal: vec![],
        }
    }

    fn key(epoch: u64, s: &str) -> CacheKey {
        CacheKey::new(epoch, &[s.to_string()])
    }

    #[test]
    fn hit_and_miss() {
        let c = RecCache::new(4);
        assert!(c.get(&key(1, "a")).is_none());
        c.put(key(1, "a"), ranking("t"));
        assert_eq!(c.get(&key(1, "a")).unwrap().table, vec!["t"]);
        // A different epoch is a different key: stale models never hit.
        assert!(c.get(&key(2, "a")).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = RecCache::new(2);
        c.put(key(1, "a"), ranking("a"));
        c.put(key(1, "b"), ranking("b"));
        // Touch "a" so "b" is now the LRU entry.
        assert!(c.get(&key(1, "a")).is_some());
        c.put(key(1, "c"), ranking("c"));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(1, "a")).is_some());
        assert!(c.get(&key(1, "b")).is_none());
        assert!(c.get(&key(1, "c")).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let c = RecCache::new(2);
        c.put(key(1, "a"), ranking("a1"));
        c.put(key(1, "a"), ranking("a2"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(1, "a")).unwrap().table, vec!["a2"]);
    }

    #[test]
    fn a_hit_shares_the_stored_ranking() {
        let c = RecCache::new(2);
        let stored = Arc::new(ranking("t"));
        c.put(key(1, "a"), Arc::clone(&stored));
        let hit = c.get_shared(&key(1, "a")).unwrap();
        assert!(Arc::ptr_eq(&stored, &hit), "a hit is a refcount bump");
        assert_eq!(c.get(&key(1, "a")).unwrap(), *stored);
    }

    #[test]
    fn borrowed_window_builds_the_same_key() {
        let tokens: Vec<String> = ["select", "a", "<SEP>", "from", "t"]
            .iter()
            .map(|t| t.to_string())
            .collect();
        let borrowed = CacheKey::from_window(7, tokens.iter().map(String::as_str));
        assert_eq!(borrowed, CacheKey::new(7, &tokens));
        assert_eq!(borrowed.window, "6:select1:a5:<SEP>4:from1:t");
        assert_eq!(CacheKey::from_window(1, []).window, "");
    }

    #[test]
    fn distinct_windows_distinct_keys() {
        let a = CacheKey::new(1, &["x".into(), "y".into()]);
        let b = CacheKey::new(1, &["xy".into()]);
        assert_ne!(a, b, "separator must prevent join collisions");
    }

    #[test]
    fn a_separator_inside_a_literal_does_not_collide() {
        // The literal holds what a separator-joined key put between
        // tokens: joined with U+001F, these two windows read the same.
        let quoted = "SELECT CASE WHEN a = 1 THEN 'x''\u{1f}ELSE\u{1f}''y' END FROM t";
        let plain = "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t";
        let quoted = qrec_sql::prepare(quoted).unwrap().tokens;
        let plain = qrec_sql::prepare(plain).unwrap().tokens;
        assert_ne!(quoted, plain);
        assert_eq!(quoted.join("\u{1f}"), plain.join("\u{1f}"));
        assert_ne!(CacheKey::new(1, &quoted), CacheKey::new(1, &plain));
    }

    #[test]
    fn lengths_are_written_in_decimal() {
        let long = "x".repeat(1234);
        let key = CacheKey::from_window(0, ["", "ab", long.as_str()]);
        assert_eq!(key.window, format!("0:2:ab1234:{long}"));
    }
}
