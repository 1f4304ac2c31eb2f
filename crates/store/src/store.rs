//! The [`Store`]: WAL + memtable + sorted runs behind one handle.
//!
//! Write path: encode the mutation, append it to the WAL (acknowledged
//! only after the [`crate::FsyncPolicy`] is satisfied), then apply it
//! to the memtable. When the memtable passes its byte budget it is
//! flushed: a new sorted run is built and atomically installed, the
//! manifest is committed (atomic rename), the run list is swapped, and
//! the WAL is reset — in that order, so a crash between any two steps
//! loses nothing (the WAL still holds the memtable's mutations until
//! the manifest referencing their run is durable). [`Store::try_put`]
//! is the same write for a caller that must not wait: it takes the
//! writer lock only if it is free, the append only if the policy would
//! not fsync it, and the put only if it would not flush; otherwise it
//! applies nothing and says so. A thread that must never wait — a
//! server's event loop — holds a [`forbid_waiting`] guard, and in debug
//! builds every call that may wait panics on it.
//!
//! Read path: memtable first (a tombstone stops the search), then runs
//! newest-to-oldest, each consulted only if its bloom filter cannot
//! rule the key out.
//!
//! [`Store::open`] recovers: load the manifest (or start fresh), open
//! the listed runs, replay the WAL into the memtable, and — when the
//! tail is torn or checksum-broken — truncate back to the last complete
//! record rather than failing or loading garbage.

use crate::error::StoreError;
use crate::manifest::{Manifest, RunMeta};
use crate::memtable::Memtable;
use crate::run::Run;
use crate::wal::{self, FsyncPolicy, Wal};
use parking_lot::{Mutex, RwLock};
use qrec_obs::{Counter, Gauge, Histogram};
use std::cell::Cell;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// Mutation opcodes inside WAL payloads.
const OP_PUT: u8 = 0x01;
const OP_DELETE: u8 = 0x02;

/// Tuning knobs for a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// When WAL appends reach stable storage. The default, `Always`,
    /// is what makes "acknowledged ⇒ durable" hold under power loss.
    /// It is also a policy under which [`Store::try_put`] takes
    /// nothing ([`Store::try_put_can_apply`] is false, as under
    /// `EveryN(1)`): every append waits for its fsync, so a server keeps
    /// every durable request on a decode worker. Under `EveryN(n)` the
    /// `n`-th append waits; under `Never` none does.
    pub fsync: FsyncPolicy,
    /// Flush the memtable to a run once it holds this many bytes.
    pub memtable_bytes: usize,
    /// Target uncompressed block size inside run files.
    pub block_bytes: usize,
    /// Bloom filter budget per key in run files.
    pub bloom_bits_per_key: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            fsync: FsyncPolicy::Always,
            memtable_bytes: 1 << 20,
            block_bytes: 4096,
            bloom_bits_per_key: 10,
        }
    }
}

thread_local! {
    /// Set while a [`NoWait`] guard lives on this thread.
    static NO_WAIT: Cell<bool> = const { Cell::new(false) };
}

/// Marks the thread that made it as one that must never wait on a
/// [`Store`], until dropped: see [`forbid_waiting`].
#[derive(Debug)]
#[must_use = "the thread may wait again once the guard is dropped"]
pub struct NoWait {
    outer: bool,
    /// The mark is the thread's: the guard stays on it.
    _thread: PhantomData<*const ()>,
}

/// Forbid the calling thread to wait on any [`Store`] while the
/// returned guard lives. In debug builds a call that may wait — for the
/// writer lock, an fsync, a flush or a run read: [`Store::put`],
/// [`Store::delete`], [`Store::get`], [`Store::flush`], [`Store::sync`]
/// — panics on such a thread; [`Store::try_put`],
/// [`Store::try_put_can_apply`] and [`Store::stats`] never wait and stay
/// allowed. A server's event loop holds one for its whole run, so a
/// path from the loop to a waiting store call fails the first test that
/// takes it.
pub fn forbid_waiting() -> NoWait {
    NoWait {
        outer: NO_WAIT.with(|on| on.replace(true)),
        _thread: PhantomData,
    }
}

impl Drop for NoWait {
    fn drop(&mut self) {
        NO_WAIT.with(|on| on.set(self.outer));
    }
}

/// Entry of a store call that may wait: a debug-build panic on a thread
/// under [`forbid_waiting`].
fn may_wait(call: &str) {
    debug_assert!(
        !NO_WAIT.with(Cell::get),
        "Store::{call} may wait, on a thread under forbid_waiting"
    );
}

/// The store's instruments, registered in the process-wide
/// [`qrec_obs`] registry under `store.*` so `STATS`/`DUMP` see them.
#[derive(Debug)]
struct Instruments {
    wal_append_us: Arc<Histogram>,
    wal_appends: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    flushes: Arc<Counter>,
    run_hits: Arc<Counter>,
    bloom_negatives: Arc<Counter>,
    run_block_reads: Arc<Counter>,
    recovered_records: Arc<Counter>,
    wal_tail_truncations: Arc<Counter>,
    live_runs: Arc<Gauge>,
    memtable_entries: Arc<Gauge>,
    recovery_us: Arc<Gauge>,
}

impl Instruments {
    fn register() -> Instruments {
        let reg = qrec_obs::global();
        Instruments {
            wal_append_us: reg.histogram_log2("store.wal_append_us"),
            wal_appends: reg.counter("store.wal_appends"),
            wal_bytes: reg.counter("store.wal_bytes"),
            flushes: reg.counter("store.flushes"),
            run_hits: reg.counter("store.run_hits"),
            bloom_negatives: reg.counter("store.bloom_negatives"),
            run_block_reads: reg.counter("store.run_block_reads"),
            recovered_records: reg.counter("store.recovered_records"),
            wal_tail_truncations: reg.counter("store.wal_tail_truncations"),
            live_runs: reg.gauge("store.live_runs"),
            memtable_entries: reg.gauge("store.memtable_entries"),
            recovery_us: reg.gauge("store.recovery_us"),
        }
    }
}

/// Point-in-time store statistics (from this store's own instruments,
/// not the global registry, so multiple stores in one process — e.g.
/// tests — don't bleed into each other's counts... shared names do
/// aggregate in `DUMP`, which is intended).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize, Default, PartialEq)]
pub struct StoreStats {
    /// Total WAL records appended (puts + deletes).
    pub wal_appends: u64,
    /// Total WAL bytes written (frames included).
    pub wal_bytes: u64,
    /// WAL-append latency p50, microseconds.
    pub wal_append_p50_us: u64,
    /// WAL-append latency p99, microseconds.
    pub wal_append_p99_us: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Sorted runs currently live.
    pub live_runs: u64,
    /// Entries currently buffered in the memtable.
    pub memtable_entries: u64,
    /// Point reads answered from a run file.
    pub run_hits: u64,
    /// Run probes short-circuited by a bloom filter.
    pub bloom_negatives: u64,
    /// Run blocks fetched and checksum-verified.
    pub run_block_reads: u64,
    /// WAL records replayed at the last open.
    pub recovered_records: u64,
    /// Torn/corrupt WAL tails truncated at open (ever).
    pub wal_tail_truncations: u64,
    /// Wall-clock time of the last recovery, microseconds.
    pub recovery_us: u64,
}

/// State serialised by the store's single writer lock.
struct Inner {
    memtable: Memtable,
    wal: Wal,
    manifest: Manifest,
}

/// An embedded durable key-value store (one directory on disk).
pub struct Store {
    dir: PathBuf,
    cfg: StoreConfig,
    inner: Mutex<Inner>,
    runs: RwLock<Vec<Arc<Run>>>,
    metrics: Instruments,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

/// Encode a put/delete mutation as a WAL payload.
fn encode_op(op: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + key.len() + value.len());
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    out
}

/// Decode a WAL payload back into a mutation.
fn decode_op(payload: &[u8], wal_path: &Path) -> Result<(u8, Vec<u8>, Vec<u8>), StoreError> {
    let bad = || StoreError::corrupt(wal_path, 0, "malformed mutation record");
    let (&op, rest) = payload.split_first().ok_or_else(bad)?;
    if op != OP_PUT && op != OP_DELETE {
        return Err(StoreError::corrupt(
            wal_path,
            0,
            format!("unknown mutation opcode {op:#x}"),
        ));
    }
    let len_bytes = rest.get(..4).ok_or_else(bad)?;
    let mut lb = [0u8; 4];
    lb.copy_from_slice(len_bytes);
    let klen = u32::from_le_bytes(lb) as usize;
    let key = rest.get(4..4 + klen).ok_or_else(bad)?;
    let value = rest.get(4 + klen..).unwrap_or_default();
    Ok((op, key.to_vec(), value.to_vec()))
}

impl Store {
    /// Open (or create) the store at `dir`, recovering all durable
    /// state: manifest → runs → WAL replay, truncating a defective WAL
    /// tail to the last complete record.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the manifest or a run file fails
    /// validation (the WAL tail is *not* an error — it is healed);
    /// [`StoreError::Io`] for filesystem failures.
    pub fn open(dir: &Path, cfg: StoreConfig) -> Result<Store, StoreError> {
        let started = Instant::now();
        std::fs::create_dir_all(dir)?;
        let metrics = Instruments::register();

        let manifest = Manifest::load(dir)?.unwrap_or_default();
        let mut runs = Vec::with_capacity(manifest.runs.len());
        for meta in &manifest.runs {
            runs.push(Arc::new(Run::open(&Manifest::run_path(dir, meta))?));
        }

        let wal_path = dir.join(WAL_FILE);
        let replayed = wal::replay(&wal_path)?;
        if let Some(defect) = replayed.defect {
            wal::truncate_to(&wal_path, replayed.valid_len)?;
            metrics.wal_tail_truncations.inc();
            let _ = defect; // offset/reason already encoded in valid_len
        }
        let mut memtable = Memtable::new();
        for record in &replayed.records {
            let (op, key, value) = decode_op(record, &wal_path)?;
            if op == OP_PUT {
                memtable.put(&key, &value);
            } else {
                memtable.delete(&key);
            }
        }
        metrics.recovered_records.add(replayed.records.len() as u64);

        let wal = Wal::open(&wal_path, cfg.fsync)?;
        metrics.live_runs.set(runs.len() as u64);
        metrics.memtable_entries.set(memtable.len() as u64);
        metrics
            .recovery_us
            .set(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);

        Ok(Store {
            dir: dir.to_path_buf(),
            cfg,
            inner: Mutex::new(Inner {
                memtable,
                wal,
                manifest,
            }),
            runs: RwLock::new(runs),
            metrics,
        })
    }

    /// Durably write `key = value`. Returns only after the mutation is
    /// in the WAL per the configured [`FsyncPolicy`].
    ///
    /// # Errors
    ///
    /// Propagates WAL append/fsync failures; on error the memtable is
    /// unchanged (the mutation is not applied).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.mutate(OP_PUT, key, value)
    }

    /// Durably delete `key` (a tombstone that shadows older runs).
    ///
    /// # Errors
    ///
    /// Propagates WAL append/fsync failures.
    pub fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.mutate(OP_DELETE, key, &[])
    }

    /// Write `key = value` if that can be done without waiting, else
    /// apply nothing and return `Ok(false)`. It waits for nothing: not
    /// for the writer lock (taken with `try_lock`), not for an fsync
    /// (the WAL record goes through `Wal::try_append`, so under
    /// [`FsyncPolicy::Always`] every call returns `Ok(false)`, and under
    /// [`FsyncPolicy::EveryN`] the `n`-th does), and not for a flush (a
    /// put that would bring the memtable to
    /// [`StoreConfig::memtable_bytes`] is left to [`Store::put`]). An
    /// `Ok(true)` put is acknowledged as [`Store::put`]'s is: its record
    /// is in the WAL per the policy, and it counts the same. When
    /// [`Store::try_put_can_apply`] is false, every call is `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Propagates WAL write failures; on error nothing is applied.
    pub fn try_put(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        let started = Instant::now();
        let Some(mut inner) = self.inner.try_lock() else {
            return Ok(false);
        };
        if inner.memtable.approx_bytes_after_put(key, value) >= self.cfg.memtable_bytes {
            return Ok(false);
        }
        let payload = encode_op(OP_PUT, key, value);
        let before = inner.wal.len();
        if inner.wal.try_append(&payload)?.is_none() {
            return Ok(false);
        }
        self.logged(&mut inner, OP_PUT, key, value, before, started);
        Ok(true)
    }

    /// False when [`Store::try_put`] can never apply: the policy
    /// fsyncs every append ([`FsyncPolicy::Always`], or `EveryN(1)`).
    /// A caller that must not wait need not build a put then. True says
    /// only that some appends are taken without a sync; `try_put`
    /// decides each.
    pub fn try_put_can_apply(&self) -> bool {
        !self.cfg.fsync.syncs_at(1)
    }

    fn mutate(&self, op: u8, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        may_wait(if op == OP_PUT { "put" } else { "delete" });
        let payload = encode_op(op, key, value);
        let started = Instant::now();
        let mut inner = self.inner.lock();
        let before = inner.wal.len();
        inner.wal.append(&payload)?;
        self.logged(&mut inner, op, key, value, before, started);
        if inner.memtable.approx_bytes() >= self.cfg.memtable_bytes {
            self.flush_locked(&mut inner)?;
        }
        Ok(())
    }

    /// The rest of a mutation whose record is in the WAL (which was
    /// `before` bytes long without it): count it, and apply it to the
    /// memtable.
    fn logged(
        &self,
        inner: &mut Inner,
        op: u8,
        key: &[u8],
        value: &[u8],
        before: u64,
        started: Instant,
    ) {
        self.metrics
            .wal_append_us
            .record_duration(started.elapsed());
        self.metrics.wal_appends.inc();
        self.metrics.wal_bytes.add(inner.wal.len() - before);
        if op == OP_PUT {
            inner.memtable.put(key, value);
        } else {
            inner.memtable.delete(key);
        }
        self.metrics
            .memtable_entries
            .set(inner.memtable.len() as u64);
    }

    /// Read `key`: memtable, then runs newest-first (bloom-pruned).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if a consulted run block fails its
    /// checksum; [`StoreError::Io`] on read failure.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        may_wait("get");
        {
            let inner = self.inner.lock();
            match inner.memtable.get(key) {
                Some(Some(v)) => return Ok(Some(v.to_vec())),
                Some(None) => return Ok(None), // tombstone
                None => {}
            }
        }
        let runs = self.runs.read().clone();
        for run in &runs {
            if run.definitely_absent(key) {
                self.metrics.bloom_negatives.inc();
                continue;
            }
            self.metrics.run_block_reads.inc();
            match run.get(key)? {
                Some(Some(v)) => {
                    self.metrics.run_hits.inc();
                    return Ok(Some(v));
                }
                Some(None) => return Ok(None), // tombstone in newer run
                None => {}
            }
        }
        Ok(None)
    }

    /// Force the memtable to disk (bench/test hook; the write path
    /// flushes automatically at [`StoreConfig::memtable_bytes`]).
    ///
    /// # Errors
    ///
    /// Propagates run-build, manifest-commit, and WAL-reset failures.
    pub fn flush(&self) -> Result<(), StoreError> {
        may_wait("flush");
        let mut inner = self.inner.lock();
        if inner.memtable.is_empty() {
            return Ok(());
        }
        self.flush_locked(&mut inner)
    }

    /// Flush the memtable into a new run. Ordering is the crash-safety
    /// argument: (1) run file installed by atomic rename, (2) manifest
    /// committed by atomic rename, (3) run list swapped in memory,
    /// (4) WAL reset. A crash after (1) alone leaks an unreferenced
    /// file; after (2) the WAL replays onto the new run set — replay is
    /// idempotent because the memtable image and the run hold the same
    /// mutations.
    fn flush_locked(&self, inner: &mut Inner) -> Result<(), StoreError> {
        let run_id = inner.manifest.next_run_id;
        let file_name = Manifest::run_file_name(run_id);
        let run_path = self.dir.join(&file_name);
        let entries = crate::run::build(
            &run_path,
            inner.memtable.iter(),
            self.cfg.block_bytes,
            self.cfg.bloom_bits_per_key,
        )?;

        let mut manifest = inner.manifest.clone();
        manifest.next_run_id = run_id + 1;
        manifest.runs.insert(
            0,
            RunMeta {
                id: run_id,
                file: file_name,
                entries,
            },
        );
        manifest.commit(&self.dir)?;
        inner.manifest = manifest;

        let run = Arc::new(Run::open(&run_path)?);
        {
            let mut runs = self.runs.write();
            runs.insert(0, run);
            self.metrics.live_runs.set(runs.len() as u64);
        }
        inner.wal.reset()?;
        inner.memtable.clear();
        self.metrics.memtable_entries.set(0);
        self.metrics.flushes.inc();
        Ok(())
    }

    /// Force any buffered WAL bytes to stable storage (useful with
    /// [`FsyncPolicy::EveryN`]/[`FsyncPolicy::Never`]).
    ///
    /// # Errors
    ///
    /// Propagates the fsync failure.
    pub fn sync(&self) -> Result<(), StoreError> {
        may_wait("sync");
        self.inner.lock().wal.sync()
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration the store was opened with.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Point-in-time statistics from this store's instruments.
    pub fn stats(&self) -> StoreStats {
        let lat = self.metrics.wal_append_us.snapshot();
        StoreStats {
            wal_appends: self.metrics.wal_appends.get(),
            wal_bytes: self.metrics.wal_bytes.get(),
            wal_append_p50_us: lat.quantile(0.50),
            wal_append_p99_us: lat.quantile(0.99),
            flushes: self.metrics.flushes.get(),
            live_runs: self.metrics.live_runs.get(),
            memtable_entries: self.metrics.memtable_entries.get(),
            run_hits: self.metrics.run_hits.get(),
            bloom_negatives: self.metrics.bloom_negatives.get(),
            run_block_reads: self.metrics.run_block_reads.get(),
            recovered_records: self.metrics.recovered_records.get(),
            wal_tail_truncations: self.metrics.wal_tail_truncations.get(),
            recovery_us: self.metrics.recovery_us.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrec-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cfg() -> StoreConfig {
        StoreConfig {
            fsync: FsyncPolicy::Never,
            memtable_bytes: 2048, // flush often in tests
            block_bytes: 256,
            bloom_bits_per_key: 10,
        }
    }

    #[test]
    fn put_get_delete_survive_reopen() {
        let dir = temp_dir("reopen");
        {
            let store = Store::open(&dir, tiny_cfg()).unwrap();
            for i in 0..200 {
                store
                    .put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            store.delete(b"k0100").unwrap();
            assert!(store.stats().flushes > 0, "tiny memtable must have flushed");
        }
        let store = Store::open(&dir, tiny_cfg()).unwrap();
        assert_eq!(store.get(b"k0000").unwrap(), Some(b"v0".to_vec()));
        assert_eq!(store.get(b"k0199").unwrap(), Some(b"v199".to_vec()));
        assert_eq!(store.get(b"k0100").unwrap(), None, "delete survives");
        assert_eq!(store.get(b"missing").unwrap(), None);
    }

    #[test]
    fn overwrites_resolve_to_newest_across_runs() {
        let dir = temp_dir("overwrite");
        let store = Store::open(&dir, tiny_cfg()).unwrap();
        for round in 0..5 {
            for i in 0..50 {
                store
                    .put(
                        format!("key{i}").as_bytes(),
                        format!("round{round}").as_bytes(),
                    )
                    .unwrap();
            }
            store.flush().unwrap();
        }
        for i in 0..50 {
            assert_eq!(
                store.get(format!("key{i}").as_bytes()).unwrap(),
                Some(b"round4".to_vec())
            );
        }
        assert!(store.stats().live_runs >= 5);
    }

    #[test]
    fn torn_wal_tail_heals_on_open() {
        let dir = temp_dir("torn");
        {
            let store = Store::open(&dir, tiny_cfg()).unwrap();
            store.put(b"safe", b"yes").unwrap();
            store.sync().unwrap();
        }
        // Append garbage — a torn final record.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(&[0x55; 5]).unwrap();
        drop(f);

        let store = Store::open(&dir, tiny_cfg()).unwrap();
        assert_eq!(store.get(b"safe").unwrap(), Some(b"yes".to_vec()));
        let stats = store.stats();
        assert_eq!(stats.wal_tail_truncations, 1);
        assert!(stats.recovered_records >= 1);
        // The healed WAL accepts new writes.
        store.put(b"after", b"heal").unwrap();
        drop(store);
        let store = Store::open(&dir, tiny_cfg()).unwrap();
        assert_eq!(store.get(b"after").unwrap(), Some(b"heal".to_vec()));
    }

    #[test]
    fn stats_report_traffic() {
        let dir = temp_dir("stats");
        let store = Store::open(&dir, tiny_cfg()).unwrap();
        store.put(b"a", b"1").unwrap();
        store.put(b"b", b"2").unwrap();
        store.flush().unwrap();
        let _ = store.get(b"a").unwrap();
        let _ = store.get(b"definitely-not-there").unwrap();
        let s = store.stats();
        assert_eq!(s.wal_appends, 2);
        assert!(s.wal_bytes > 0);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.live_runs, 1);
        assert!(s.run_hits >= 1);
        assert!(s.bloom_negatives + s.run_block_reads >= 1);
    }

    /// A memtable's entries, tombstones as `None`.
    type Entries = Vec<(Vec<u8>, Option<Vec<u8>>)>;

    /// What a refused `try_put` must leave as it found: the WAL's
    /// length, the memtable's entries and bytes, and the counters.
    fn footprint(store: &Store) -> (u64, Entries, usize, StoreStats) {
        let inner = store.inner.lock();
        let entries = inner
            .memtable
            .iter()
            .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
            .collect();
        let bytes = inner.memtable.approx_bytes();
        let len = inner.wal.len();
        drop(inner);
        (len, entries, bytes, store.stats())
    }

    fn cfg_with(fsync: FsyncPolicy) -> StoreConfig {
        StoreConfig {
            fsync,
            ..tiny_cfg()
        }
    }

    #[test]
    fn try_put_waits_for_no_lock() {
        let dir = temp_dir("try-locked");
        let store = Store::open(&dir, tiny_cfg()).unwrap();
        store.put(b"a", b"1").unwrap();
        let before = footprint(&store);
        let (held, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let refused = std::thread::scope(|s| {
            s.spawn(|| {
                let _inner = store.inner.lock();
                held.wait();
                release.wait();
            });
            held.wait();
            let refused = store.try_put(b"a", b"2");
            release.wait();
            refused
        });
        assert!(!refused.unwrap(), "the lock is held");
        assert_eq!(footprint(&store), before);
        assert!(store.try_put(b"a", b"2").unwrap(), "the lock is free");
    }

    #[test]
    fn try_put_takes_no_append_the_policy_syncs() {
        let dir = temp_dir("try-always");
        let store = Store::open(&dir, cfg_with(FsyncPolicy::Always)).unwrap();
        let before = footprint(&store);
        assert!(
            !store.try_put(b"k", b"v").unwrap(),
            "Always syncs every append"
        );
        assert_eq!(footprint(&store), before);

        let dir = temp_dir("try-every-n");
        let store = Store::open(&dir, cfg_with(FsyncPolicy::EveryN(3))).unwrap();
        assert!(store.try_put(b"k1", b"v").unwrap());
        assert!(store.try_put(b"k2", b"v").unwrap());
        let before = footprint(&store);
        assert!(!store.try_put(b"k3", b"v").unwrap(), "the 3rd append syncs");
        assert_eq!(footprint(&store), before);
        // The waiting put takes it and syncs; the count starts over.
        store.put(b"k3", b"v").unwrap();
        assert!(store.try_put(b"k4", b"v").unwrap());
        assert!(store.try_put(b"k5", b"v").unwrap());
        assert!(!store.try_put(b"k6", b"v").unwrap());
        assert_eq!(store.stats().wal_appends, 5);
    }

    #[test]
    fn try_put_leaves_the_flushing_put_to_put() {
        let dir = temp_dir("try-flush");
        let store = Store::open(&dir, tiny_cfg()).unwrap();
        let value = [7u8; 100];
        let mut i = 0;
        while store
            .try_put(format!("k{i:03}").as_bytes(), &value)
            .unwrap()
        {
            i += 1;
        }
        let key = format!("k{i:03}");
        let before = footprint(&store);
        assert!(
            before.2 < tiny_cfg().memtable_bytes
                && before.2 + key.len() + value.len() + 32 >= tiny_cfg().memtable_bytes,
            "refused exactly at the budget: {} bytes",
            before.2
        );
        assert!(!store.try_put(key.as_bytes(), &value).unwrap());
        assert_eq!(footprint(&store), before);
        assert_eq!(store.stats().flushes, 0);
        store.put(key.as_bytes(), &value).unwrap();
        assert_eq!(store.stats().flushes, 1, "the put flushed");
    }

    #[test]
    fn an_applied_try_put_is_recovered() {
        let dir = temp_dir("try-recover");
        {
            let store = Store::open(&dir, tiny_cfg()).unwrap();
            assert!(store.try_put(b"alpha", b"one").unwrap());
            assert!(store.try_put(b"alpha", b"two").unwrap());
            assert!(store.try_put(b"beta", b"three").unwrap());
            let s = store.stats();
            assert_eq!(s.wal_appends, 3);
            assert_eq!(s.memtable_entries, 2);
        }
        let store = Store::open(&dir, tiny_cfg()).unwrap();
        assert_eq!(store.stats().recovered_records, 3);
        assert_eq!(store.get(b"alpha").unwrap(), Some(b"two".to_vec()));
        assert_eq!(store.get(b"beta").unwrap(), Some(b"three".to_vec()));
    }

    #[test]
    fn try_put_can_apply_follows_the_policy() {
        for (fsync, can) in [
            (FsyncPolicy::Always, false),
            (FsyncPolicy::EveryN(0), false),
            (FsyncPolicy::EveryN(1), false),
            (FsyncPolicy::EveryN(2), true),
            (FsyncPolicy::Never, true),
        ] {
            let dir = temp_dir("try-can-apply");
            let store = Store::open(&dir, cfg_with(fsync)).unwrap();
            assert_eq!(store.try_put_can_apply(), can, "{fsync:?}");
            assert_eq!(store.try_put(b"k", b"v").unwrap(), can, "{fsync:?}");
        }
    }

    #[test]
    fn waiting_calls_panic_under_forbid_waiting_in_debug_builds() {
        let dir = temp_dir("no-wait");
        let store = Store::open(&dir, tiny_cfg()).unwrap();
        store.put(b"k", b"v").unwrap();
        let panics =
            |call: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).is_err();
        let waiting: [(&str, &dyn Fn()); 5] = [
            ("put", &|| store.put(b"k", b"w").unwrap()),
            ("delete", &|| store.delete(b"k").unwrap()),
            ("get", &|| drop(store.get(b"k").unwrap())),
            ("flush", &|| store.flush().unwrap()),
            ("sync", &|| store.sync().unwrap()),
        ];
        {
            let _outer = forbid_waiting();
            {
                let _nested = forbid_waiting();
            }
            for (name, call) in &waiting {
                assert_eq!(panics(call), cfg!(debug_assertions), "{name}");
            }
            assert!(store.try_put(b"k", b"x").unwrap());
            assert!(store.try_put_can_apply());
            let _ = store.stats();
        }
        // The guard is gone: every call may wait again.
        for (name, call) in &waiting {
            assert!(!panics(call), "{name}");
        }
        // The first put, the try_put and the last put and delete; in a
        // release build the guarded put and delete too.
        let appends = if cfg!(debug_assertions) { 4 } else { 6 };
        assert_eq!(store.stats().wal_appends, appends);
    }
}
