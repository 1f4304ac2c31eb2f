//! Trace boxes of decoded requests are reused, not reallocated.
//!
//! A RECOMMEND's trace starts on the event loop and rides to a decode
//! worker, which records its stages. The finished trace comes back with
//! the completion and the loop records it into the flight ring, so the
//! box the ring displaces becomes the loop's spare for the next trace it
//! starts. Once the ring is full, a decoded request allocates no trace
//! box at all. This binary installs a counting global allocator (which
//! is why it is a test binary of its own) that counts allocations with
//! exactly `TraceContext`'s layout, on every thread.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_obs::TraceContext;
use qrec_serve::{Client, EngineConfig, Server, ServerConfig};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Allocations with `TraceContext`'s layout while `COUNTING` is set.
static TRACE_BOXES: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping is two
// atomics, which never allocate, so the allocator cannot recurse into
// itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if let Ok(grown) = Layout::from_size_align(new_size, layout.align()) {
            note_allocation(grown);
        }
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

fn note_allocation(layout: Layout) {
    if COUNTING.load(Ordering::Relaxed) && layout == Layout::new::<TraceContext>() {
        TRACE_BOXES.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn train_tiny(seed: u64) -> Recommender {
    let (workload, _catalog) = generate(&WorkloadProfile::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = Split::paper(workload.pairs(), &mut rng);
    let mut cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = 2;
    let (model, _report) = Recommender::try_train(&split, &workload, cfg).expect("train");
    model
}

/// One cold RECOMMEND: a fresh session and an identifier no earlier
/// request used, so its window is new to the cache and a worker decodes.
fn cold_request(client: &mut Client, i: usize) {
    let reply = client
        .recommend(&format!("s{i}"), &format!("SELECT zzq_{i} FROM t"), 5)
        .expect("recommend");
    assert_eq!(reply.cached, Some(false), "request {i} must be decoded");
}

#[test]
fn decoded_requests_reuse_trace_boxes_once_the_ring_is_full() {
    qrec_obs::set_enabled(true);
    let cfg = ServerConfig {
        engine: EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        session_ttl: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let mut server = Server::start(train_tiny(1), "127.0.0.1:0", cfg).expect("start");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Fill the flight ring, plus a margin: from here on every record
    // displaces a box.
    let warm = qrec_obs::flight::RING_CAPACITY + 8;
    for i in 0..warm {
        cold_request(&mut client, i);
    }
    let misses_before = client.stats().expect("stats").metrics.cache_misses;

    const N: usize = 32;
    COUNTING.store(true, Ordering::Relaxed);
    for i in warm..warm + N {
        cold_request(&mut client, i);
    }
    COUNTING.store(false, Ordering::Relaxed);
    let boxes = TRACE_BOXES.load(Ordering::Relaxed);

    let misses = client.stats().expect("stats").metrics.cache_misses - misses_before;
    assert_eq!(misses, N as u64, "every counted request was decoded");
    assert_eq!(
        boxes, 0,
        "{N} decoded requests allocated {boxes} blocks of a TraceContext's layout"
    );
    drop(client);
    server.shutdown();
}
