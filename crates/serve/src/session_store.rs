//! Sharded concurrent session store with TTL eviction and an optional
//! durable write-through tier.
//!
//! Live analyst sessions ([`SessionContext`]) are keyed by a client
//! supplied session id. The map is split into `N` shards, each behind
//! its own `parking_lot::RwLock`, so concurrent requests for different
//! sessions rarely contend; a session id is routed to its shard by an
//! FNV-1a hash. A background sweeper thread periodically evicts
//! sessions idle longer than the configured TTL — abandoned sessions
//! would otherwise accumulate without bound under real workloads.
//!
//! A push is three steps — parse the statement, write it through to the
//! durable tier, apply it to the in-memory context — and the two kinds
//! of store differ in the middle one only:
//!
//! * **Memory only** ([`SessionStore::new`]): there is no second step,
//!   so a push never blocks. [`SessionStore::memory_only`] hands out the
//!   [`MemoryOnly`] entry point, from which the durable tier is
//!   unreachable; the serve event loop pushes through it on its own
//!   thread and reads the window it needs under the shard lock.
//! * **Durable** ([`SessionStore::with_durable`]): every push is
//!   **write-through** — the session's raw SQL history is persisted to
//!   the [`qrec_store::Store`] *before* the in-memory context is updated,
//!   so a request is acknowledged only once its session update is WAL'd.
//!   That write may fsync, so [`SessionStore::push_sql`] belongs on a
//!   decode worker. TTL eviction then becomes *tiering*: the sweeper
//!   drops the memory copy but the disk record remains, and a later
//!   request for the same id rehydrates the context by re-parsing the
//!   persisted statements (parsing is deterministic, so the rebuilt
//!   window matches the original). A `SIGKILL`ed server therefore comes
//!   back with its sessions intact — the restart integration test pins
//!   this end to end.
//!
//! Either way a resident session costs its window, not its history: a
//! [`SessionContext`] keeps the tokens of its last `window` queries and
//! a count.

use parking_lot::RwLock;
use qrec_core::SessionContext;
use qrec_obs::{Histogram, Span};
use qrec_store::Store;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::protocol::write_json_array;

/// Cap on persisted statements per session: enough to rebuild any
/// realistic model window (the paper serves window 1–3) while bounding
/// the per-session disk record.
const MAX_PERSISTED_QUERIES: usize = 64;

/// The durable record of a session's statements: a JSON array of
/// strings, the bytes `serde_json::to_vec` makes of the `Vec<String>`
/// ([`SessionStore::load_raws`] reads it back with `serde_json`).
fn session_record<'a>(statements: impl IntoIterator<Item = &'a str>) -> Vec<u8> {
    let mut out = String::new();
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
    /// Step three of a push: the in-memory apply of the statement's
    /// model tokens.
    fn apply(&mut self, tokens: Vec<String>) {
        self.ctx.push_tokens(tokens);
        self.last_seen = Instant::now();
    }
}

/// Concurrent map of live sessions.
pub struct SessionStore {
    shards: Box<[RwLock<HashMap<String, Entry>>]>,
    window: usize,
    ttl: Duration,
    evicted: AtomicU64,
    durable: Option<Arc<Store>>,
    rehydrated: AtomicU64,
    /// Observer for the template id of every successfully parsed push
    /// (the telemetry sketch in serve); set once at server start.
    template_sink: OnceLock<Box<dyn Fn(u64) + Send + Sync>>,
}

/// A [`SessionStore`] with no durable tier ([`SessionStore::memory_only`]):
/// the entry point whose pushes never leave memory. Nothing reachable
/// from here calls [`Store::put`], so a thread that must not block on the
/// disk — the event loop — can push through it by construction
/// (qrec-lint R10), not by remembering to check.
pub struct MemoryOnly<'a>(&'a SessionStore);

impl MemoryOnly<'_> {
    /// Parse `sql`, append it to session `id` (created on first use) and
    /// hand the updated context to `read` under the shard lock — `read`
    /// sees the window this push produced and no later one.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sql`] when the statement does not parse; nothing is
    /// applied and `read` is not called.
    pub fn push_sql<T>(
        &self,
        id: &str,
        sql: &str,
        read: impl FnOnce(&SessionContext) -> T,
    ) -> Result<T, ServeError> {
        let tokens = self.0.parse(sql)?;
        Ok(self.0.apply_in_memory(id, tokens, read))
    }
}

/// FNV-1a, stable across runs (unlike `DefaultHasher`'s random keys),
/// so shard routing is deterministic and testable.
fn fnv1a(s: &str) -> u64 {
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
            evicted: AtomicU64::new(0),
            durable,
            rehydrated: AtomicU64::new(0),
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
    /// Statements are re-parsed; parsing is deterministic, so the
    /// rebuilt window matches what the original process served.
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
            if let Ok(prepared) = qrec_sql::prepare(&sql) {
                ctx.push_tokens(prepared.tokens);
                kept.push(sql);
            }
        }
        self.rehydrated.fetch_add(1, Ordering::Relaxed);
        Ok(Some((ctx, kept)))
    }

    /// Step one of a push: parse the statement into its model tokens
    /// (outside any lock, so a slow or invalid statement never blocks
    /// other sessions) and show its template id to the telemetry sink.
    /// The serving parse ([`qrec_sql::prepare`]) derives those two and
    /// nothing else of the statement.
    fn parse(&self, sql: &str) -> Result<Vec<String>, ServeError> {
        let prepared = qrec_sql::prepare(sql).map_err(|e| ServeError::Sql(e.to_string()))?;
        if let Some(sink) = self.template_sink.get() {
            sink(prepared.template_id);
        }
        Ok(prepared.tokens)
    }

    /// Append a SQL statement to a session, creating the session on
    /// first use: parse, then — with a durable tier — the durable write,
    /// then the in-memory apply.
    ///
    /// With a durable tier: an absent session is first rehydrated from
    /// disk, and the updated statement list is persisted (and WAL-
    /// acknowledged) *before* the in-memory context changes — a
    /// [`ServeError::Store`] means nothing was applied. The write may
    /// block on an fsync, so this entry point belongs on a decode worker,
    /// never on the event loop.
    ///
    /// Returns the session's windowed model-input tokens after the push.
    pub fn push_sql(&self, id: &str, sql: &str) -> Result<Vec<String>, ServeError> {
        let tokens = self.parse(sql)?;
        match &self.durable {
            Some(disk) => self.push_durable(disk, id, sql, tokens),
            None => Ok(self.apply_in_memory(id, tokens, SessionContext::input_tokens)),
        }
    }

    /// This store as the event loop may use it: `Some` only without a
    /// durable tier. With one, an acknowledged push must be WAL'd first,
    /// which is [`SessionStore::push_sql`]'s job on a worker.
    pub fn memory_only(&self) -> Option<MemoryOnly<'_>> {
        self.durable.is_none().then_some(MemoryOnly(self))
    }

    /// The in-memory apply of a store without a durable tier. The id is
    /// copied only when the session is new.
    fn apply_in_memory<T>(
        &self,
        id: &str,
        tokens: Vec<String>,
        read: impl FnOnce(&SessionContext) -> T,
    ) -> T {
        let apply = |entry: &mut Entry| {
            entry.apply(tokens);
            read(&entry.ctx)
        };
        let mut shard = self.shard(id).write();
        match shard.get_mut(id) {
            Some(entry) => apply(entry),
            None => apply(shard.entry(id.to_string()).or_insert_with(|| Entry {
                ctx: SessionContext::new(self.window),
                raws: Vec::new(),
                last_seen: Instant::now(),
            })),
        }
    }

    /// The durable write of a push, then its in-memory apply.
    fn push_durable(
        &self,
        disk: &Store,
        id: &str,
        sql: &str,
        tokens: Vec<String>,
    ) -> Result<Vec<String>, ServeError> {
        // Tiered miss: rebuild the context from disk before taking the
        // shard lock, so re-parsing history never blocks the shard.
        let mut resurrected = if self.resident(id) {
            None
        } else {
            self.rehydrate(id)?
        };
        let mut shard = self.shard(id).write();
        let entry = match shard.entry(id.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let (ctx, raws) = match resurrected.take() {
                    Some(pair) => pair,
                    // Evicted between the residency probe and the lock:
                    // the disk copy is authoritative, fetch it now.
                    None => self
                        .rehydrate(id)?
                        .unwrap_or_else(|| (SessionContext::new(self.window), Vec::new())),
                };
                v.insert(Entry {
                    ctx,
                    raws,
                    last_seen: Instant::now(),
                })
            }
        };
        // The record is the last MAX_PERSISTED_QUERIES statements with
        // this one: written straight from the entry's list, which
        // changes only once the write is acknowledged.
        let dropped = (entry.raws.len() + 1).saturating_sub(MAX_PERSISTED_QUERIES);
        let kept = entry.raws.iter().skip(dropped).map(String::as_str);
        let bytes = session_record(kept.chain([sql]));
        disk.put(&SessionStore::durable_key(id), &bytes)
            .map_err(|e| ServeError::Store(e.to_string()))?;
        entry.raws.drain(..dropped);
        entry.raws.push(sql.to_string());
        entry.apply(tokens);
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
    /// Returns the number evicted. Called by the sweeper thread, public
    /// for deterministic tests.
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
        self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Total sessions evicted by [`SessionStore::sweep`] so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Start a background thread sweeping every `interval`. The thread
    /// wakes in short ticks so dropping the returned handle stops it
    /// promptly rather than after a full interval.
    ///
    /// # Errors
    ///
    /// Propagates the OS error when the sweeper thread cannot be
    /// spawned.
    pub fn start_sweeper(self: &Arc<Self>, interval: Duration) -> std::io::Result<SweeperHandle> {
        let stop = Arc::new(AtomicBool::new(false));
        let store = Arc::clone(self);
        let handle = thread::Builder::new()
            .name("qrec-serve-sweeper".into())
            .spawn({
                let stop = Arc::clone(&stop);
                move || {
                    let tick = Duration::from_millis(25).min(interval);
                    let mut last = Instant::now();
                    while !stop.load(Ordering::Acquire) {
                        thread::sleep(tick);
                        if last.elapsed() >= interval {
                            store.sweep(Instant::now());
                            last = Instant::now();
                        }
                    }
                }
            })?;
        Ok(SweeperHandle {
            stop,
            handle: Some(handle),
        })
    }
}

/// Owns the TTL sweeper thread; stops and joins it on drop.
pub struct SweeperHandle {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl SweeperHandle {
    /// Signal the sweeper to stop and wait for it to exit.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SweeperHandle {
    fn drop(&mut self) {
        self.stop_inner();
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
        assert_eq!(s.evicted(), 1);
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
    fn sweeper_thread_runs_and_stops() {
        let s = Arc::new(store(0));
        s.push_sql("x", "SELECT a FROM t").unwrap();
        let h = s.start_sweeper(Duration::from_millis(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while !s.is_empty() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(s.len(), 0, "sweeper should evict the idle session");
        h.stop();
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
}
