//! Opt-in sampling wall-clock profiler over the span stacks.
//!
//! Spans already tell each thread what stage it is in right now; this
//! module makes that observable from outside. Worker and loop threads
//! **register** a fixed mirror slot ([`register_thread`]); every span
//! push/pop updates the registered slot with the current stack (a
//! handful of relaxed atomic stores — nothing when no slot is
//! registered or the profiler is off). A dedicated sampler thread wakes
//! ~97 times a second (a prime rate, so it cannot phase-lock with the
//! serve housekeeping sweep or the telemetry window seals), reads every
//! slot, and folds the observed stacks into a fixed-capacity
//! flamegraph-style table that the serve `PROF` verb reports.
//!
//! ## Safety and accuracy notes
//!
//! The sampler never stops, signals, or otherwise touches the sampled
//! threads — it only reads their atomic mirror slots, so it cannot
//! block or crash them (and the crate stays `forbid(unsafe_code)`).
//! The price is that a sampled stack is *not* a consistent snapshot:
//! a thread mid-push can show a stale leaf for one sample, and samples
//! land between pushes, not at them. Both effects are standard
//! sampling-profiler noise — bounded by one sample each — and wash out
//! at any realistic sample count. Sampling is wall-clock: a thread
//! blocked in a span is attributed to that span, which is exactly what
//! a "where did the latency go" investigation wants.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Mirror-slot depth cap; matches the trace span-stack cap.
const MAX_DEPTH: usize = 16;

/// Fixed capacity of the fold table; distinct stacks beyond this are
/// counted in `dropped` rather than grown into.
const FOLD_CAP: usize = 256;

/// Sampling rate. Prime on purpose: 97 Hz cannot alias against the
/// serve housekeeping sweep, the telemetry window seals or any other
/// whole-millisecond periodic work.
pub const SAMPLE_HZ: u64 = 97;

/// Whether the sampler is running (and slots should be maintained).
static PROF_ON: AtomicBool = AtomicBool::new(false);

/// One registered thread's mirror of its span stack. Frames hold
/// interned name ids offset by one (0 = empty slot).
struct ThreadSlot {
    label: String,
    frames: [AtomicU32; MAX_DEPTH],
    depth: AtomicUsize,
    samples: AtomicUsize,
}

impl ThreadSlot {
    fn new(label: String) -> ThreadSlot {
        ThreadSlot {
            label,
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            depth: AtomicUsize::new(0),
            samples: AtomicUsize::new(0),
        }
    }
}

fn slots() -> &'static Mutex<Vec<Arc<ThreadSlot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Arc<ThreadSlot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Interned span names: id = index. Names are `&'static str` from span
/// call sites, so the table is tiny and append-only.
fn names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::with_capacity(32)))
}

fn intern(name: &'static str) -> u32 {
    // Fast path: a per-thread cache keyed by the `&'static str` data
    // pointer, so steady-state interning takes no lock. Distinct call
    // sites with equal text still resolve to one id via the global
    // by-content scan below.
    thread_local! {
        static CACHE: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
    }
    let ptr = name.as_ptr() as usize;
    let cached = CACHE.with(|c| {
        c.borrow()
            .iter()
            .find(|(p, _)| *p == ptr)
            .map(|(_, id)| *id)
    });
    if let Some(id) = cached {
        return id;
    }
    let mut table = names().lock();
    let id = match table.iter().position(|n| *n == name) {
        Some(i) => i as u32,
        None => {
            table.push(name);
            (table.len() - 1) as u32
        }
    };
    drop(table);
    CACHE.with(|c| c.borrow_mut().push((ptr, id)));
    id
}

/// Drops the thread's slot out of the global list when the thread
/// exits, so long-lived processes that start and stop many servers do
/// not accumulate dead slots.
struct SlotGuard(Arc<ThreadSlot>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        slots().lock().retain(|s| !Arc::ptr_eq(s, &self.0));
    }
}

thread_local! {
    static MY_SLOT: RefCell<Option<SlotGuard>> = const { RefCell::new(None) };
}

/// Register the calling thread for profiling under `label`. Idempotent
/// per thread (re-registering replaces the label). Worker and loop
/// threads call this once at startup; unregistration is automatic at
/// thread exit.
pub fn register_thread(label: &str) {
    let slot = Arc::new(ThreadSlot::new(label.to_string()));
    slots().lock().push(Arc::clone(&slot));
    MY_SLOT.with(|s| *s.borrow_mut() = Some(SlotGuard(slot)));
}

/// Span-push hook: mirror `name` at `depth` in this thread's slot.
/// Called by `trace::stack_push`; free when the profiler is off or the
/// thread never registered.
pub(crate) fn on_push(name: &'static str, depth: u8) {
    if !PROF_ON.load(Ordering::Acquire) {
        return;
    }
    MY_SLOT.with(|s| {
        if let Some(guard) = s.borrow().as_ref() {
            let slot = &guard.0;
            let d = usize::from(depth);
            if let Some(frame) = slot.frames.get(d) {
                let id = intern(name);
                // qrec-lint: allow(atomics) -- sampler tolerates torn stacks by design (see module docs); Release here would not make the sample consistent anyway
                frame.store(id + 1, Ordering::Relaxed);
                // qrec-lint: allow(atomics) -- sampler tolerates torn stacks by design (see module docs); Release here would not make the sample consistent anyway
                slot.depth.store(d + 1, Ordering::Relaxed);
            }
        }
    });
}

/// Span-pop hook: `depth` is the absolute stack depth after the pop,
/// so one pop fully resynchronises the mirror even if earlier updates
/// were skipped while the profiler was off.
pub(crate) fn on_pop(depth: u8) {
    if !PROF_ON.load(Ordering::Acquire) {
        return;
    }
    MY_SLOT.with(|s| {
        if let Some(guard) = s.borrow().as_ref() {
            // qrec-lint: allow(atomics) -- same torn-sample tolerance as on_push
            guard.0.depth.store(usize::from(depth), Ordering::Relaxed);
        }
    });
}

/// One folded stack in the sample table.
#[derive(Clone, Copy)]
struct FoldEntry {
    frames: [u32; MAX_DEPTH],
    depth: u8,
    count: u64,
}

#[derive(Default)]
struct Fold {
    entries: Vec<FoldEntry>,
    samples: u64,
    dropped: u64,
}

fn fold() -> &'static Mutex<Fold> {
    static FOLD: OnceLock<Mutex<Fold>> = OnceLock::new();
    FOLD.get_or_init(|| {
        Mutex::new(Fold {
            entries: Vec::with_capacity(FOLD_CAP),
            samples: 0,
            dropped: 0,
        })
    })
}

struct Sampler {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

#[derive(Default)]
struct Control {
    refs: usize,
    sampler: Option<Sampler>,
}

fn control() -> &'static Mutex<Control> {
    static CONTROL: OnceLock<Mutex<Control>> = OnceLock::new();
    CONTROL.get_or_init(|| Mutex::new(Control::default()))
}

/// Take one sample of every registered slot into the fold table.
fn sample_once() {
    let slot_list: Vec<Arc<ThreadSlot>> = slots().lock().clone();
    let mut f = fold().lock();
    for slot in &slot_list {
        let depth = slot.depth.load(Ordering::Relaxed).min(MAX_DEPTH);
        let mut frames = [0u32; MAX_DEPTH];
        for (i, frame) in frames.iter_mut().enumerate().take(depth) {
            if let Some(v) = slot.frames.get(i) {
                *frame = v.load(Ordering::Relaxed);
            }
        }
        slot.samples.fetch_add(1, Ordering::Relaxed);
        f.samples += 1;
        let found = f
            .entries
            .iter()
            .position(|e| usize::from(e.depth) == depth && e.frames == frames);
        match found {
            Some(i) => {
                if let Some(e) = f.entries.get_mut(i) {
                    e.count += 1;
                }
            }
            None if f.entries.len() < FOLD_CAP => f.entries.push(FoldEntry {
                frames,
                depth: depth as u8,
                count: 1,
            }),
            None => f.dropped += 1,
        }
    }
}

/// Start the sampler (refcounted: the first caller spawns the thread,
/// later callers just pin it). Returns `true` when this call actually
/// started sampling.
pub fn start() -> bool {
    let mut ctl = control().lock();
    ctl.refs += 1;
    if ctl.sampler.is_some() {
        return false;
    }
    PROF_ON.store(true, Ordering::Release);
    let stop_flag = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&stop_flag);
    let period = Duration::from_micros(1_000_000 / SAMPLE_HZ);
    let join = std::thread::Builder::new()
        .name("qrec-obs-prof".into())
        .spawn(move || {
            while !stop.load(Ordering::Acquire) {
                sample_once();
                std::thread::sleep(period);
            }
        })
        .ok();
    if join.is_none() {
        // Spawn failed (fd/thread exhaustion): leave the profiler off
        // rather than pretending to sample.
        PROF_ON.store(false, Ordering::Release);
        ctl.refs -= 1;
        return false;
    }
    ctl.sampler = Some(Sampler {
        stop: stop_flag,
        join,
    });
    true
}

/// Release one [`start`] reference; the last release stops and joins
/// the sampler thread. Fold data is kept for post-mortem reads until
/// [`reset`] or the next [`start`].
pub fn stop() {
    let sampler = {
        let mut ctl = control().lock();
        ctl.refs = ctl.refs.saturating_sub(1);
        if ctl.refs > 0 {
            return;
        }
        PROF_ON.store(false, Ordering::Release);
        ctl.sampler.take()
    };
    if let Some(mut s) = sampler {
        s.stop.store(true, Ordering::Release);
        if let Some(join) = s.join.take() {
            let _ = join.join();
        }
    }
}

/// Whether the sampler thread is currently running.
pub fn running() -> bool {
    control().lock().sampler.is_some()
}

/// Clear the fold table and per-thread sample counts.
pub fn reset() {
    let mut f = fold().lock();
    f.entries.clear();
    f.samples = 0;
    f.dropped = 0;
    drop(f);
    for slot in slots().lock().iter() {
        // qrec-lint: allow(atomics) -- per-thread sample counts are best-effort accounting; readers tolerate stale values
        slot.samples.store(0, Ordering::Relaxed);
    }
}

/// Build the report: the top `top` folded stacks by sample count, with
/// interned ids resolved back to span names. Runs entirely on the read
/// path; the sampler keeps folding while a report is built.
pub fn report(top: usize) -> ProfReport {
    // Read the control lock first (and release it) so no other
    // profiler lock is ever held while `control` is acquired.
    let is_running = running();
    let name_table = names().lock().clone();
    let resolve = |id: u32| -> String {
        if id == 0 {
            return "?".to_string();
        }
        name_table
            .get((id - 1) as usize)
            .map(|n| (*n).to_string())
            .unwrap_or_else(|| "?".to_string())
    };
    let f = fold().lock();
    let mut frames: Vec<ProfFrame> = f
        .entries
        .iter()
        .map(|e| ProfFrame {
            stack: e.frames[..usize::from(e.depth)]
                .iter()
                .map(|&id| resolve(id))
                .collect(),
            count: e.count,
        })
        .collect();
    let (samples, dropped) = (f.samples, f.dropped);
    drop(f);
    frames.sort_by(|a, b| b.count.cmp(&a.count).then(a.stack.cmp(&b.stack)));
    frames.truncate(top);
    let threads = slots()
        .lock()
        .iter()
        .map(|s| ProfThread {
            label: s.label.clone(),
            samples: s.samples.load(Ordering::Relaxed) as u64,
        })
        .collect();
    ProfReport {
        running: is_running,
        hz: SAMPLE_HZ,
        samples,
        dropped,
        threads,
        frames,
    }
}

/// One folded stack: outermost span first, and how many samples saw it.
/// An empty stack means the thread was sampled outside any span (idle
/// or un-instrumented work).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfFrame {
    /// Span names, outermost first.
    pub stack: Vec<String>,
    /// Samples that observed exactly this stack.
    pub count: u64,
}

/// Per-registered-thread sample accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfThread {
    /// Label given to [`register_thread`].
    pub label: String,
    /// Samples taken of this thread.
    pub samples: u64,
}

/// The profiler's wire-format report, served by the `PROF` verb.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfReport {
    /// Whether the sampler thread was running when the report was built.
    pub running: bool,
    /// Sampling rate in Hz.
    pub hz: u64,
    /// Total samples folded (one per registered thread per tick).
    pub samples: u64,
    /// Samples dropped because the fold table was full.
    pub dropped: u64,
    /// Per-thread sample counts.
    pub threads: Vec<ProfThread>,
    /// Folded stacks, heaviest first.
    pub frames: Vec<ProfFrame>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    /// The whole lifecycle in one test: the profiler is process-global
    /// state, so splitting into several `#[test]`s would race.
    #[test]
    fn sampler_folds_registered_thread_stacks() {
        let _on = crate::tests::spine_on();
        reset();
        assert!(!running());
        assert!(start(), "first start spawns the sampler");
        assert!(!start(), "second start only pins it");
        assert!(running());

        let worker = std::thread::spawn(|| {
            register_thread("prof-test-worker");
            let deadline = std::time::Instant::now() + Duration::from_millis(400);
            while std::time::Instant::now() < deadline {
                Span::in_span("prof_outer", || {
                    Span::in_span("prof_inner", || {
                        std::thread::sleep(Duration::from_millis(2));
                    });
                });
            }
        });
        worker.join().expect("worker");

        let rep = report(16);
        assert!(rep.running);
        assert_eq!(rep.hz, SAMPLE_HZ);
        assert!(rep.samples > 0, "sampler must have sampled: {rep:?}");
        let nested = rep
            .frames
            .iter()
            .find(|f| f.stack == ["prof_outer", "prof_inner"]);
        assert!(
            nested.is_some_and(|f| f.count > 0),
            "the nested stack must dominate the worker's samples: {rep:?}"
        );

        stop(); // releases the pin from the second start()
        assert!(running(), "still one reference holding the sampler");
        stop();
        assert!(!running(), "last stop joins the sampler");
        // Post-mortem reads still work.
        assert!(report(4).samples > 0);
        reset();
        assert_eq!(report(4).samples, 0);
    }

    #[test]
    fn interning_is_stable_by_content() {
        let a = intern("prof-intern-x");
        let b = intern("prof-intern-x");
        let c = intern("prof-intern-y");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let rep = ProfReport {
            running: true,
            hz: 97,
            samples: 10,
            dropped: 1,
            threads: vec![ProfThread {
                label: "w0".into(),
                samples: 10,
            }],
            frames: vec![ProfFrame {
                stack: vec!["a".into(), "b".into()],
                count: 9,
            }],
        };
        let json = serde_json::to_string(&rep).expect("serialize");
        let back: ProfReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, rep);
    }
}
