//! Allocation counts of a warm session push, as the event loop makes it
//! (`SessionStore::try_push`).
//!
//! A statement the server has seen twice is in the session store's
//! statement table: pushing it again looks the text up, clones one
//! shared token array into the session's window and shows the stored
//! template id to the sink — no parse, no token copies. Without a
//! durable tier that is the whole push, and it allocates nothing. With
//! one, the push also writes the session's record through the store's
//! WAL into its memtable; each allocation that costs is pinned with its
//! derivation. This binary installs a counting global allocator (which
//! is why it is a test binary of its own) and holds both pushes to that.

use qrec_serve::{ServeError, SessionStore};
use qrec_store::{FsyncPolicy, Store, StoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Allocations made by this thread while `COUNTING` is set. Per
    /// thread, so the harness's own threads cannot disturb the count.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-locals of `Cell<usize>`/`Cell<bool>`, which
// have no destructor and never allocate, so the allocator cannot recurse
// into itself, and `try_with` tolerates a thread that is tearing down.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, who
        // guarantees `ptr` came from this allocator (i.e. from `System`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (i.e. from `System`)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note_allocation() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (incl. reallocations) made by `f` on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCATIONS.with(Cell::get), out)
}

thread_local! {
    /// The template id the sink saw last on this thread (the sink runs
    /// on the pushing thread), so the two tests cannot see each other's.
    static SEEN: Cell<u64> = const { Cell::new(0) };
}

const SQL: &str = "SELECT p.objid, p.ra, s.z FROM PhotoObj AS p JOIN SpecObj s \
                   ON s.bestobjid = p.objid WHERE p.ra BETWEEN 180.5 AND 181 \
                   AND s.class = 'GALAXY' ORDER BY s.z DESC";

/// The loop's push, which must have been taken there: the number of
/// queries the session holds after it.
fn pushed_now(store: &SessionStore, id: &str, sql: &str) -> Result<usize, ServeError> {
    let pushed = store.try_push(id, sql, |ctx| ctx.len())?;
    Ok(pushed.unwrap_or_else(|_| panic!("the push was left to a worker")))
}

/// Push `SQL` `warm` times (as a worker does: the first creates the
/// session, which a durable store's loop leaves to a worker), then count
/// the allocations of one more push, the loop's, and check that it was
/// applied and parsed by nobody.
fn warm_push_allocations(store: &SessionStore, warm: usize) -> usize {
    store.set_template_sink(|id| SEEN.with(|seen| seen.set(id)));
    for _ in 0..warm {
        store.push_sql("alice", SQL).unwrap();
    }
    assert_eq!(store.statement_stats().entries, 1);
    SEEN.with(|seen| seen.set(0));

    let (count, pushed) = allocations_in(|| pushed_now(store, "alice", SQL));

    assert_eq!(pushed.unwrap(), warm + 1, "the push was applied");
    let prepared = qrec_sql::prepare(SQL).unwrap();
    assert_eq!(SEEN.with(Cell::get), prepared.template_id);
    let window = store.window_tokens("alice").unwrap();
    assert_eq!(window, prepared.tokens);
    count
}

#[test]
fn pushing_an_admitted_statement_allocates_nothing() {
    let store = SessionStore::new(4, 1, Duration::from_secs(600));
    // The first push parses and creates the session, the second admits
    // the statement, the third is a table hit: the session exists, its
    // window is full, and every lock this thread takes has been taken.
    let count = warm_push_allocations(&store, 3);
    assert_eq!(count, 0, "a warm push allocated {count} times");
}

#[test]
fn a_durable_push_of_a_resident_session_allocates_five_times() {
    let dir = std::env::temp_dir().join(format!("qrec-push-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::default()
    };
    let disk = Arc::new(Store::open(&dir, cfg).unwrap());
    let store = SessionStore::with_durable(4, 1, Duration::from_secs(600), Arc::clone(&disk));
    // 70 pushes: past the 64 statements a record keeps, so the record
    // and the WAL frame stop growing and the WAL's frame buffer, the
    // session's statement list and its window are at their sizes; the
    // session's key is in the memtable, far from its 1 MiB flush.
    let count = warm_push_allocations(&store, 70);
    assert_eq!(disk.stats().wal_appends, 71, "every push was WAL'd");
    assert_eq!(disk.stats().flushes, 0);
    // 1. the session's store key, `session/alice`;
    // 2. the record, the JSON array of its last 64 statements, sized
    //    once (nothing in it needs escaping);
    // 3. the WAL payload: opcode, key length, key and record;
    // 4. the memtable's copy of the record (the key it already holds);
    // 5. the statement list's copy of the statement text.
    assert_eq!(count, 5, "a warm durable push allocated {count} times");
    drop(store);
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}
