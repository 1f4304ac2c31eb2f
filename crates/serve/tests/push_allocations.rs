//! Allocation count of a warm session push.
//!
//! A statement the server has seen twice is in the session store's
//! statement table: pushing it again looks the text up, clones one
//! shared token array into the session's window and shows the stored
//! template id to the sink — no parse, no token copies, no allocation at
//! all. This binary installs a counting global allocator (which is why
//! it is a test binary of its own) and holds the push to that.

use qrec_serve::SessionStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The template id the sink saw last.
static SEEN: AtomicU64 = AtomicU64::new(0);

#[test]
fn pushing_an_admitted_statement_allocates_nothing() {
    let sql = "SELECT p.objid, p.ra, s.z FROM PhotoObj AS p JOIN SpecObj s \
               ON s.bestobjid = p.objid WHERE p.ra BETWEEN 180.5 AND 181 \
               AND s.class = 'GALAXY' ORDER BY s.z DESC";
    let store = SessionStore::new(4, 1, Duration::from_secs(600));
    store.set_template_sink(|id| SEEN.store(id, Ordering::Relaxed));
    let memory = store.memory_only().expect("no durable tier");
    // The first push parses and creates the session, the second admits
    // the statement, the third is a table hit: the session exists, its
    // window is full, and every lock this thread takes has been taken.
    for _ in 0..3 {
        memory.push_sql("alice", sql, |ctx| ctx.len()).unwrap();
    }
    assert_eq!(store.statement_stats().entries, 1);
    SEEN.store(0, Ordering::Relaxed);

    let (count, pushed) = allocations_in(|| memory.push_sql("alice", sql, |ctx| ctx.len()));

    assert_eq!(pushed.unwrap(), 4, "the push was applied");
    let prepared = qrec_sql::prepare(sql).unwrap();
    assert_eq!(SEEN.load(Ordering::Relaxed), prepared.template_id);
    let window = store.window_tokens("alice").unwrap();
    assert_eq!(window, prepared.tokens);
    assert_eq!(count, 0, "a warm push allocated {count} times");
}
