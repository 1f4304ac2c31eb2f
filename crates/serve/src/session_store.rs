//! Sharded concurrent session store with TTL eviction and an optional
//! durable write-through tier.
//!
//! Live analyst sessions ([`SessionContext`]) are keyed by a client
//! supplied session id. The map is split into `N` shards, each behind
//! its own `parking_lot::RwLock`, so concurrent requests for different
//! sessions rarely contend; a session id is routed to its shard by an
//! FNV-1a hash. [`SessionStore::sweep`] evicts sessions idle longer
//! than the configured TTL — the server's housekeeping thread runs it
//! periodically, since abandoned sessions would otherwise accumulate
//! without bound under real workloads.
//!
//! A push is three steps — parse the statement, write it through to the
//! durable tier, apply it to the in-memory context — and the two kinds
//! of store differ in the middle one only. The parse goes through the
//! store's statement table (`statements.rs`), so a statement the server
//! has seen before is looked up, not parsed again, and the sessions that
//! ran it share its token array:
//!
//! * **Memory only** ([`SessionStore::new`]): there is no second step,
//!   so a push never blocks.
//! * **Durable** ([`SessionStore::with_durable`]): every push is
//!   **write-through** — the session's raw SQL history is persisted to
//!   the [`qrec_store::Store`] *before* the in-memory context is updated,
//!   so a request is acknowledged only once its session update is WAL'd.
//!   TTL eviction then becomes *tiering*: a sweep drops the memory copy
//!   but the disk record remains, and a later request for the same id
//!   rehydrates the context by re-parsing the persisted statements
//!   through the same table (parsing is deterministic, so the rebuilt
//!   window matches the original). A `SIGKILL`ed server therefore comes
//!   back with its sessions intact — the restart integration test pins
//!   this end to end.
//!
//! Two entry points push. [`SessionStore::push_sql`] may wait — for an
//! fsync, a memtable flush, a run read when it rehydrates, a lock — and
//! belongs on a decode worker. [`SessionStore::try_push`] is the event
//! loop's, for either kind of store: it pushes when that takes no wait
//! (always, without a durable tier; with one, when the session is
//! resident and [`Store::try_put`] takes the write), and otherwise
//! hands the push back as a [`PendingPush`] for
//! [`SessionStore::push_pending`] to finish on a worker.
//!
//! Either way a resident session costs its window, not its history: a
//! [`SessionContext`] keeps the tokens of its last `window` queries and
//! a count.

use parking_lot::RwLock;
use qrec_core::SessionContext;
use qrec_obs::{Histogram, Span};
use qrec_store::Store;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::protocol::write_json_array;
use crate::statements::{StatementStats, StatementTable};

/// Cap on persisted statements per session: enough to rebuild any
/// realistic model window (the paper serves window 1–3) while bounding
/// the per-session disk record.
const MAX_PERSISTED_QUERIES: usize = 64;

/// The durable record of a session's statements: a JSON array of
/// strings, the bytes `serde_json::to_vec` makes of the `Vec<String>`
/// ([`SessionStore::load_raws`] reads it back with `serde_json`).
fn session_record<'a>(statements: impl Iterator<Item = &'a str> + Clone) -> Vec<u8> {
    // Sized for the record without escapes: brackets, and per statement
    // its text, quotes and comma. One allocation unless a statement
    // needs escaping.
    let unescaped = 2 + statements.clone().map(|s| s.len() + 3).sum::<usize>();
    let mut out = String::with_capacity(unescaped);
    write_json_array(&mut out, statements);
    out.into_bytes()
}

/// Sweep duration histogram, registered lazily: eviction scans hold
/// every shard's write lock in turn, so their cost is worth watching.
fn sweep_hist() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| qrec_obs::global().histogram_log2("serve.sweep_us"))
}

struct Entry {
    ctx: SessionContext,
    /// The raw statements backing `ctx`, in arrival order — the durable
    /// record (re-parsed on rehydration). Empty when no durable tier is
    /// configured.
    raws: Vec<String>,
    last_seen: Instant,
}

impl Entry {
    /// A session with no statements yet.
    fn empty(window: usize) -> Entry {
        Entry {
            ctx: SessionContext::new(window),
            raws: Vec::new(),
            last_seen: Instant::now(),
        }
    }

    /// Step three of a push: the in-memory apply of the statement's
    /// model tokens.
    fn apply(&mut self, tokens: Arc<[String]>) {
        self.ctx.push_tokens(tokens);
        self.last_seen = Instant::now();
    }

    /// Step two's record: the last [`MAX_PERSISTED_QUERIES`] statements
    /// with `sql`, written straight from the entry's list, which changes
    /// only once the write is acknowledged ([`Entry::acked`]) — and how
    /// many of the list's statements it leaves out.
    fn record_with(&self, sql: &str) -> (usize, Vec<u8>) {
        let dropped = (self.raws.len() + 1).saturating_sub(MAX_PERSISTED_QUERIES);
        let kept = self.raws.iter().skip(dropped).map(String::as_str);
        (dropped, session_record(kept.chain([sql])))
    }

    /// The push once its record (from [`Entry::record_with`]) is
    /// acknowledged: the list follows the record, then step three.
    fn acked(&mut self, dropped: usize, sql: &str, tokens: Arc<[String]>) {
        self.raws.drain(..dropped);
        self.raws.push(sql.to_string());
        self.apply(tokens);
    }
}

/// Concurrent map of live sessions.
pub struct SessionStore {
    shards: Box<[RwLock<HashMap<String, Entry>>]>,
    window: usize,
    ttl: Duration,
    durable: Option<Arc<Store>>,
    rehydrated: AtomicU64,
    /// Every parse goes through it: pushes and rehydration.
    statements: StatementTable,
    /// Observer for the template id of every successfully parsed push
    /// (the telemetry sketch in serve); set once at server start.
    template_sink: OnceLock<Box<dyn Fn(u64) + Send + Sync>>,
}

/// A push [`SessionStore::try_push`] could not finish without waiting,
/// with the statement's model tokens when it parsed them.
/// [`SessionStore::push_pending`] finishes it where waiting is allowed
/// and parses only when the loop did not, so the statement is parsed —
/// and shown to the template sink and counted by the statement table —
/// once. The default carries no parse.
#[derive(Debug, Default)]
pub struct PendingPush(Option<Arc<[String]>>);

/// FNV-1a, stable across runs (unlike `DefaultHasher`'s random keys),
/// so shard routing is deterministic and testable.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SessionStore {
    /// A store with `shards` lock shards (minimum 1), per-session model
    /// input window `window`, and idle eviction after `ttl`.
    pub fn new(shards: usize, window: usize, ttl: Duration) -> Self {
        SessionStore::build(shards, window, ttl, None)
    }

    /// A store with a durable write-through tier: pushes persist before
    /// they are acknowledged, TTL eviction keeps the disk copy, and
    /// misses rehydrate from it.
    pub fn with_durable(shards: usize, window: usize, ttl: Duration, store: Arc<Store>) -> Self {
        SessionStore::build(shards, window, ttl, Some(store))
    }

    fn build(shards: usize, window: usize, ttl: Duration, durable: Option<Arc<Store>>) -> Self {
        let n = shards.max(1);
        let shards = (0..n)
            .map(|_| RwLock::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SessionStore {
            shards,
            window,
            ttl,
            durable,
            rehydrated: AtomicU64::new(0),
            statements: StatementTable::new(),
            template_sink: OnceLock::new(),
        }
    }

    /// Install the template observer called with the template id of
    /// every successfully parsed push. One shot: later calls are
    /// ignored, so a sink cannot be swapped out from under live
    /// request threads.
    pub fn set_template_sink(&self, sink: impl Fn(u64) + Send + Sync + 'static) {
        let _ = self.template_sink.set(Box::new(sink));
    }

    fn shard(&self, id: &str) -> &RwLock<HashMap<String, Entry>> {
        let idx = (fnv1a(id) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// The durable key of a session id.
    fn durable_key(id: &str) -> Vec<u8> {
        let mut key = Vec::with_capacity(8 + id.len());
        key.extend_from_slice(b"session/");
        key.extend_from_slice(id.as_bytes());
        key
    }

    /// True when the session is resident in memory.
    fn resident(&self, id: &str) -> bool {
        self.shard(id).read().contains_key(id)
    }

    /// Load a session's persisted statement list, if any.
    fn load_raws(&self, id: &str) -> Result<Option<Vec<String>>, ServeError> {
        let Some(store) = &self.durable else {
            return Ok(None);
        };
        let Some(bytes) = store
            .get(&SessionStore::durable_key(id))
            .map_err(|e| ServeError::Store(e.to_string()))?
        else {
            return Ok(None);
        };
        let raws: Vec<String> = serde_json::from_slice(&bytes)
            .map_err(|e| ServeError::Store(format!("persisted session record invalid: {e}")))?;
        Ok(Some(raws))
    }

    /// Rebuild a session context from its persisted statements.
    /// Statements are re-parsed through the statement table (without
    /// the template sink: they were shown to it when pushed); parsing is
    /// deterministic, so the rebuilt window matches what the original
    /// process served.
    fn rehydrate(&self, id: &str) -> Result<Option<(SessionContext, Vec<String>)>, ServeError> {
        let Some(raws) = self.load_raws(id)? else {
            return Ok(None);
        };
        let mut ctx = SessionContext::new(self.window);
        let mut kept = Vec::with_capacity(raws.len());
        for sql in raws {
            // Statements were valid when persisted; skip (rather than
            // fail on) any the parser no longer accepts so one stale
            // record cannot brick a session.
            if let Ok(statement) = self.statements.prepare(&sql) {
                ctx.push_tokens(statement.tokens);
                kept.push(sql);
            }
        }
        self.rehydrated.fetch_add(1, Ordering::Relaxed);
        Ok(Some((ctx, kept)))
    }

    /// Step one of a push: the statement's model tokens, from the
    /// statement table or parsed (outside any session lock, so a slow or
    /// invalid statement never blocks other sessions), and its template
    /// id shown to the telemetry sink, hit or miss. The serving parse
    /// ([`qrec_sql::prepare`]) derives those two and nothing else of the
    /// statement.
    fn parse(&self, sql: &str) -> Result<Arc<[String]>, ServeError> {
        let statement = self
            .statements
            .prepare(sql)
            .map_err(|e| ServeError::Sql(e.to_string()))?;
        if let Some(sink) = self.template_sink.get() {
            sink(statement.template_id);
        }
        Ok(statement.tokens)
    }

    /// The size and counters of the statement table pushes parse through.
    pub fn statement_stats(&self) -> StatementStats {
        self.statements.stats()
    }

    /// Append a SQL statement to a session, creating the session on
    /// first use: parse, then — with a durable tier — the durable write,
    /// then the in-memory apply.
    ///
    /// With a durable tier: an absent session is first rehydrated from
    /// disk, and the updated statement list is persisted (and WAL-
    /// acknowledged) *before* the in-memory context changes — a
    /// [`ServeError::Store`] means nothing was applied. The write may
    /// wait for an fsync or a memtable flush, so this entry point
    /// belongs on a decode worker; the event loop pushes through
    /// [`SessionStore::try_push`].
    ///
    /// Returns the session's windowed model-input tokens after the push.
    pub fn push_sql(&self, id: &str, sql: &str) -> Result<Vec<String>, ServeError> {
        self.push_pending(id, sql, PendingPush::default())
    }

    /// Finish a push [`SessionStore::try_push`] left pending, as
    /// [`SessionStore::push_sql`] would — without parsing `sql` again
    /// when the pending push carries its tokens.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sql`] when the statement, parsed here, does not
    /// parse; [`ServeError::Store`] when the durable write (or a
    /// rehydration) fails. Nothing is applied.
    pub fn push_pending(
        &self,
        id: &str,
        sql: &str,
        pending: PendingPush,
    ) -> Result<Vec<String>, ServeError> {
        let tokens = match pending.0 {
            Some(tokens) => tokens,
            None => self.parse(sql)?,
        };
        match &self.durable {
            Some(disk) => self.push_durable(disk, id, sql, tokens),
            None => Ok(self.apply_in_memory(id, tokens, SessionContext::input_tokens)),
        }
    }

    /// False when no push can be taken without waiting, so
    /// [`SessionStore::try_push`] hands every one back unparsed: a
    /// durable tier whose every append syncs
    /// ([`Store::try_put_can_apply`] is false).
    pub fn can_push_without_waiting(&self) -> bool {
        self.durable
            .as_ref()
            .is_none_or(|disk| disk.try_put_can_apply())
    }

    /// The event loop's push: parse `sql`, append it to session `id`
    /// if that takes no wait, and hand the updated context to `read`
    /// under the shard lock — `read` sees the window this push produced
    /// and no later one.
    ///
    /// Without a durable tier the push always happens, creating the
    /// session on first use. With one it happens when the session is
    /// resident, its shard lock is free and [`Store::try_put`] takes the
    /// record: no fsync, no flush, no run read, no lock waited for.
    /// Otherwise nothing is applied, `read` is not called, and the push
    /// comes back as `Ok(Err(pending))` for
    /// [`SessionStore::push_pending`] — with the parsed statement, or,
    /// when [`SessionStore::can_push_without_waiting`] is false,
    /// unparsed: then every push comes back, and the worker parses.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sql`] when the statement does not parse;
    /// [`ServeError::Store`] when the WAL write fails. Nothing is applied
    /// and `read` is not called.
    pub fn try_push<T>(
        &self,
        id: &str,
        sql: &str,
        read: impl FnOnce(&SessionContext) -> T,
    ) -> Result<Result<T, PendingPush>, ServeError> {
        if !self.can_push_without_waiting() {
            return Ok(Err(PendingPush::default()));
        }
        let tokens = self.parse(sql)?;
        let Some(disk) = &self.durable else {
            return Ok(Ok(self.apply_in_memory(id, tokens, read)));
        };
        let Some(mut shard) = self.shard(id).try_write() else {
            return Ok(Err(PendingPush(Some(tokens))));
        };
        // Not resident: creating the session waits for the store's
        // answer on its record, and rehydrating reads a run.
        let Some(entry) = shard.get_mut(id) else {
            return Ok(Err(PendingPush(Some(tokens))));
        };
        let (dropped, bytes) = entry.record_with(sql);
        if !disk
            .try_put(&SessionStore::durable_key(id), &bytes)
            .map_err(|e| ServeError::Store(e.to_string()))?
        {
            return Ok(Err(PendingPush(Some(tokens))));
        }
        entry.acked(dropped, sql, tokens);
        Ok(Ok(read(&entry.ctx)))
    }

    /// The in-memory apply of a store without a durable tier. The id is
    /// copied only when the session is new.
    fn apply_in_memory<T>(
        &self,
        id: &str,
        tokens: Arc<[String]>,
        read: impl FnOnce(&SessionContext) -> T,
    ) -> T {
        let apply = |entry: &mut Entry| {
            entry.apply(tokens);
            read(&entry.ctx)
        };
        let mut shard = self.shard(id).write();
        match shard.get_mut(id) {
            Some(entry) => apply(entry),
            None => apply(
                shard
                    .entry(id.to_string())
                    .or_insert_with(|| Entry::empty(self.window)),
            ),
        }
    }

    /// The durable write of a push, then its in-memory apply.
    fn push_durable(
        &self,
        disk: &Store,
        id: &str,
        sql: &str,
        tokens: Arc<[String]>,
    ) -> Result<Vec<String>, ServeError> {
        // Tiered miss: rebuild the context from disk before taking the
        // shard lock, so reading and re-parsing history never blocks the
        // shard (nor takes the statement table's lock under it).
        let (mut shard, fetched) = loop {
            let fetched = if self.resident(id) {
                None
            } else {
                Some(self.rehydrate(id)?)
            };
            let shard = self.shard(id).write();
            if fetched.is_some() || shard.contains_key(id) {
                break (shard, fetched);
            }
            // Evicted between the residency probe and the lock: the disk
            // copy is authoritative, fetch it and try again.
        };
        let entry = shard
            .entry(id.to_string())
            .or_insert_with(|| match fetched.flatten() {
                Some((ctx, raws)) => Entry {
                    ctx,
                    raws,
                    last_seen: Instant::now(),
                },
                None => Entry::empty(self.window),
            });
        let (dropped, bytes) = entry.record_with(sql);
        disk.put(&SessionStore::durable_key(id), &bytes)
            .map_err(|e| ServeError::Store(e.to_string()))?;
        entry.acked(dropped, sql, tokens);
        Ok(entry.ctx.input_tokens())
    }

    /// The windowed input tokens of a session, refreshing its TTL.
    /// `None` if the session does not exist (in memory or, with a
    /// durable tier, on disk).
    pub fn window_tokens(&self, id: &str) -> Option<Vec<String>> {
        {
            let mut shard = self.shard(id).write();
            if let Some(entry) = shard.get_mut(id) {
                entry.last_seen = Instant::now();
                return Some(entry.ctx.input_tokens());
            }
        }
        // Tiered miss: rehydrate outside the lock, insert, serve.
        let (ctx, raws) = self.rehydrate(id).ok().flatten()?;
        let mut shard = self.shard(id).write();
        let entry = shard.entry(id.to_string()).or_insert_with(|| Entry {
            ctx,
            raws,
            last_seen: Instant::now(),
        });
        entry.last_seen = Instant::now();
        Some(entry.ctx.input_tokens())
    }

    /// Number of queries recorded in a session. Resident sessions
    /// answer from memory (read lock only); with a durable tier, tiered
    /// sessions report their persisted statement count without being
    /// rehydrated.
    pub fn session_len(&self, id: &str) -> Option<usize> {
        let in_memory = { self.shard(id).read().get(id).map(|e| e.ctx.len()) };
        if in_memory.is_some() {
            return in_memory;
        }
        self.load_raws(id).ok().flatten().map(|raws| raws.len())
    }

    /// Sessions rehydrated from the durable tier so far.
    pub fn rehydrated(&self) -> u64 {
        self.rehydrated.load(Ordering::Relaxed)
    }

    /// Total live sessions across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop one session from memory *and* the durable tier; true if it
    /// existed in either.
    pub fn remove(&self, id: &str) -> bool {
        let in_memory = self.shard(id).write().remove(id).is_some();
        let on_disk = self.durable.as_ref().is_some_and(|store| {
            let key = SessionStore::durable_key(id);
            let existed = matches!(store.get(&key), Ok(Some(_)));
            let _ = store.delete(&key);
            existed
        });
        in_memory || on_disk
    }

    /// Evict every session idle longer than the TTL, as of `now`.
    /// Returns the number evicted. Called by the server's housekeeping
    /// thread, public for deterministic tests.
    ///
    /// With a durable tier this is *tiering*, not deletion: only the
    /// memory copy is dropped; the persisted record remains and the next
    /// request for the id rehydrates it.
    pub fn sweep(&self, now: Instant) -> usize {
        let _span = Span::enter_with("sweep", sweep_hist());
        let mut evicted = 0;
        for shard in self.shards.iter() {
            let mut g = shard.write();
            let before = g.len();
            g.retain(|_, e| now.duration_since(e.last_seen) <= self.ttl);
            evicted += before - g.len();
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(ttl_ms: u64) -> SessionStore {
        SessionStore::new(4, 1, Duration::from_millis(ttl_ms))
    }

    #[test]
    fn push_creates_and_windows() {
        let s = store(60_000);
        let toks = s.push_sql("alice", "SELECT a FROM t").unwrap();
        assert!(toks.contains(&"t".to_string()));
        assert_eq!(s.len(), 1);
        assert_eq!(s.session_len("alice"), Some(1));
        // Window 1: only the most recent query's tokens are returned.
        let toks = s.push_sql("alice", "SELECT b FROM u").unwrap();
        assert!(toks.contains(&"u".to_string()));
        assert!(!toks.contains(&"t".to_string()));
        assert_eq!(s.session_len("alice"), Some(2));
    }

    #[test]
    fn invalid_sql_is_typed_and_leaves_store_unchanged() {
        let s = store(60_000);
        let err = s.push_sql("bob", "NOT SQL AT ALL").unwrap_err();
        assert!(matches!(err, ServeError::Sql(_)));
        assert!(s.is_empty());
    }

    #[test]
    fn sweep_evicts_only_idle_sessions() {
        let s = store(0); // everything idle for >0 is evictable
        s.push_sql("old", "SELECT a FROM t").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let now = Instant::now();
        s.push_sql("fresh", "SELECT a FROM t").unwrap();
        // "fresh" was touched after `now`, so its idle time is negative
        // (clamped to zero) and it survives; "old" is past the zero TTL.
        let evicted = s.sweep(now);
        assert_eq!(evicted, 1);
        assert!(s.session_len("old").is_none());
        assert!(s.session_len("fresh").is_some());
    }

    #[test]
    fn sessions_spread_across_shards() {
        let s = store(60_000);
        for i in 0..64 {
            s.push_sql(&format!("user-{i}"), "SELECT a FROM t").unwrap();
        }
        assert_eq!(s.len(), 64);
        let populated = s.shards.iter().filter(|sh| !sh.read().is_empty()).count();
        assert!(populated > 1, "FNV routing should use multiple shards");
    }

    fn durable_store(name: &str) -> (Arc<qrec_store::Store>, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("qrec-serve-sessions-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = qrec_store::StoreConfig {
            fsync: qrec_store::FsyncPolicy::Never, // unit tests skip fsync cost
            ..qrec_store::StoreConfig::default()
        };
        (Arc::new(qrec_store::Store::open(&dir, cfg).unwrap()), dir)
    }

    #[test]
    fn durable_sessions_survive_store_reopen() {
        let (disk, dir) = durable_store("reopen");
        let cfg = disk.config();
        {
            let s = SessionStore::with_durable(4, 2, Duration::from_secs(600), disk);
            s.push_sql("alice", "SELECT a FROM t").unwrap();
            s.push_sql("alice", "SELECT b FROM u").unwrap();
        }
        // A fresh SessionStore over a re-opened Store (as after a
        // restart) sees the same session.
        let disk = Arc::new(qrec_store::Store::open(&dir, cfg).unwrap());
        let s = SessionStore::with_durable(4, 2, Duration::from_secs(600), disk);
        assert_eq!(s.session_len("alice"), Some(2));
        let toks = s.window_tokens("alice").expect("rehydrated");
        assert!(toks.contains(&"u".to_string()) && toks.contains(&"t".to_string()));
        assert_eq!(s.rehydrated(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_tiers_to_disk_instead_of_deleting() {
        let (disk, dir) = durable_store("tier");
        let s = SessionStore::with_durable(4, 1, Duration::from_millis(0), disk);
        s.push_sql("bob", "SELECT a FROM t").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(s.sweep(Instant::now()), 1, "memory copy evicted");
        assert_eq!(s.len(), 0);
        // ... but the session is still there: length from disk, then a
        // push rehydrates and continues the history.
        assert_eq!(s.session_len("bob"), Some(1));
        s.push_sql("bob", "SELECT b FROM u").unwrap();
        assert_eq!(s.session_len("bob"), Some(2));
        assert_eq!(s.rehydrated(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_the_durable_record_too() {
        let (disk, dir) = durable_store("remove");
        let s = SessionStore::with_durable(4, 1, Duration::from_secs(600), disk);
        s.push_sql("carol", "SELECT a FROM t").unwrap();
        assert!(s.remove("carol"));
        assert_eq!(s.session_len("carol"), None);
        assert!(s.window_tokens("carol").is_none(), "disk copy is gone");
        assert!(!s.remove("carol"), "second remove finds nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_persisted_record_is_typed_not_a_panic() {
        let (disk, dir) = durable_store("corrupt");
        disk.put(b"session/eve", b"{{{ not json").unwrap();
        let s = SessionStore::with_durable(4, 1, Duration::from_secs(600), disk);
        let err = s.push_sql("eve", "SELECT a FROM t").unwrap_err();
        assert!(matches!(err, ServeError::Store(_)), "{err}");
        assert_eq!(s.session_len("eve"), None, "unreadable record is absent");
        assert!(s.window_tokens("eve").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_record_bytes_are_serde_jsons() {
        let mut awkward: Vec<String> = (0u32..0x20)
            .filter_map(char::from_u32)
            .map(|c| format!("SELECT '{c}' FROM t"))
            .collect();
        awkward.extend(
            [
                "SELECT \"q\" FROM [b\\s]",
                "SELECT '\u{7f}\u{2028}é∑🦀' FROM t",
                "",
            ]
            .map(String::from),
        );
        for statements in [vec![], awkward.clone(), awkward[..1].to_vec()] {
            let ours = session_record(statements.iter().map(String::as_str));
            assert_eq!(ours, serde_json::to_vec(&statements).unwrap());
            let back: Vec<String> = serde_json::from_slice(&ours).unwrap();
            assert_eq!(back, statements);
        }
    }

    #[test]
    fn durable_record_keeps_the_last_statements_in_order() {
        let (disk, dir) = durable_store("window");
        let s = SessionStore::with_durable(4, 1, Duration::from_secs(600), Arc::clone(&disk));
        let sqls: Vec<String> = (0..MAX_PERSISTED_QUERIES + 3)
            .map(|i| format!("SELECT c{i} FROM t"))
            .collect();
        for sql in &sqls {
            s.push_sql("dan", sql).unwrap();
        }
        let bytes = disk.get(b"session/dan").unwrap().expect("persisted");
        let tail = sqls[3..].to_vec();
        assert_eq!(bytes, serde_json::to_vec(&tail).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The loop's push under a `forbid_waiting` guard, as on the event
    /// loop: a session that is not resident comes back parsed, and the
    /// worker does not parse it again; once resident, its pushes are
    /// taken with no waiting store call. The worker's entry point waits,
    /// and a debug build catches it on such a thread.
    #[test]
    fn the_loops_push_makes_no_waiting_store_call() {
        let (disk, dir) = durable_store("no-wait");
        let s = SessionStore::with_durable(4, 1, Duration::from_secs(600), Arc::clone(&disk));
        let sql = "SELECT a FROM t";
        let pending = {
            let _loop = qrec_store::forbid_waiting();
            s.try_push("eve", sql, |_| ())
                .unwrap()
                .expect_err("eve is new")
        };
        assert!(pending.0.is_some(), "parsed on the loop");
        let parsed = s.statement_stats();
        s.push_pending("eve", sql, pending).unwrap();
        assert_eq!(s.statement_stats(), parsed, "not parsed again");
        {
            let _loop = qrec_store::forbid_waiting();
            let pushed = s.try_push("eve", sql, |ctx| ctx.len()).unwrap();
            assert_eq!(pushed.expect("eve is resident"), 2);
            let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.push_sql("eve", sql).unwrap();
            }));
            assert_eq!(waited.is_err(), cfg!(debug_assertions));
        }
        let appends = if cfg!(debug_assertions) { 2 } else { 3 };
        assert_eq!(disk.stats().wal_appends, appends);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Under `FsyncPolicy::Always` every append syncs, so the loop's push
    /// comes back before the parse: the worker parses it, once.
    #[test]
    fn under_always_the_worker_parses() {
        let dir =
            std::env::temp_dir().join(format!("qrec-serve-sessions-{}-always", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk =
            Arc::new(qrec_store::Store::open(&dir, qrec_store::StoreConfig::default()).unwrap());
        let s = SessionStore::with_durable(4, 1, Duration::from_secs(600), disk);
        let seen = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&seen);
        s.set_template_sink(move |_| {
            sink.fetch_add(1, Ordering::Relaxed);
        });
        for round in 1..=2 {
            let pending = {
                let _loop = qrec_store::forbid_waiting();
                s.try_push("fay", "SELECT a FROM t", |_| ()).unwrap()
            }
            .expect_err("every append syncs");
            assert!(pending.0.is_none(), "nothing parsed on the loop");
            assert_eq!(seen.load(Ordering::Relaxed), round - 1);
            s.push_pending("fay", "SELECT a FROM t", pending).unwrap();
            assert_eq!(seen.load(Ordering::Relaxed), round);
        }
        assert_eq!(s.statement_stats().misses, 2);
        assert_eq!(s.session_len("fay"), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
