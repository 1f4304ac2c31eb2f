//! Per-request trace contexts and the thread-local span stack.
//!
//! A [`TraceContext`] is created at the protocol front end, travels with
//! the request through the batcher hand-off (it is plain data, `Send`),
//! and is installed into thread-local storage on whichever thread is
//! currently working on the request. Spans entered while a context is
//! installed append [`StageRec`]s with their nesting depth, so the
//! finished context reconstructs the stage tree (request → batch wait →
//! encode → per-step decode → rank). A finished context is what the
//! flight recorder stores: the live record is the stored record, and the
//! wire form is built from it only on the read path
//! ([`TraceContext::to_record`]). Annotation helpers (`note_*`) are
//! cheap no-ops when no context is installed, which keeps call sites in
//! nn/serve unconditional.

use crate::flight::{FlightRecord, StageSpan};
use std::cell::{Cell, RefCell};
use std::ops::Deref;
use std::time::{Duration, Instant};

/// Hard cap on stages kept per trace; later stages are dropped rather
/// than growing mid-request. The full serving chain (session →
/// batch_wait → cache → encode → decode → rank) is ~8 deep, and the
/// list is copied inline through every thread hand-off, so the cap is
/// kept tight.
pub const MAX_STAGES: usize = 16;

/// Hard cap on span-stack depth tracked per thread.
const MAX_DEPTH: usize = 16;

/// One completed stage inside a trace: name, nesting depth, and timing
/// relative to the trace origin. Plain copyable data — no allocation on
/// the recording path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRec {
    /// Static stage name (e.g. `"decode"`).
    pub name: &'static str,
    /// Nesting depth at the time the span was entered (0 = top level).
    pub depth: u8,
    /// Offset of the stage start from the trace origin, microseconds.
    pub start_us: u64,
    /// Stage duration, microseconds.
    pub dur_us: u64,
}

/// Inline fixed-capacity list of completed stages. The storage lives in
/// the struct itself (not behind a heap `Vec`), so starting a trace and
/// recording a stage are allocation-free — the trace is plain copyable
/// data from birth to flight-recorder slot.
#[derive(Clone, Copy)]
pub struct StageList {
    recs: [StageRec; MAX_STAGES],
    len: u8,
}

impl StageList {
    const EMPTY: StageRec = StageRec {
        name: "",
        depth: 0,
        start_us: 0,
        dur_us: 0,
    };

    /// An empty list (all capacity inline, nothing heap-allocated).
    pub const fn new() -> StageList {
        StageList {
            recs: [StageList::EMPTY; MAX_STAGES],
            len: 0,
        }
    }

    /// Append a stage; silently dropped once [`MAX_STAGES`] is reached.
    pub fn push(&mut self, rec: StageRec) {
        if let Some(slot) = self.recs.get_mut(self.len as usize) {
            *slot = rec;
            self.len += 1;
        }
    }

    /// The recorded stages, in completion order.
    pub fn as_slice(&self) -> &[StageRec] {
        &self.recs[..self.len as usize]
    }
}

impl Default for StageList {
    fn default() -> StageList {
        StageList::new()
    }
}

impl Deref for StageList {
    type Target = [StageRec];
    fn deref(&self) -> &[StageRec] {
        self.as_slice()
    }
}

impl std::fmt::Debug for StageList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for StageList {
    fn eq(&self, other: &StageList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Everything recorded about one request.
///
/// Fields are filled in as the request moves through the pipeline;
/// [`crate::FlightRecorder::record`] sets [`TraceContext::total_us`] and
/// stores the box itself, so the whole request path stays
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceContext {
    /// Process-unique id from [`crate::next_request_id`].
    pub request_id: u64,
    /// Monotonic origin all stage offsets are measured from.
    pub origin: Instant,
    /// Completed stages, capped at [`MAX_STAGES`].
    pub stages: StageList,
    /// Batcher queue depth observed at enqueue time.
    pub queue_depth: u64,
    /// Size of the batch this request was decoded in.
    pub batch_size: u64,
    /// Whether the recommendation cache answered the request.
    pub cache_hit: bool,
    /// Model epoch that served the request.
    pub epoch: u64,
    /// Decode strategy name (`"greedy"`, `"beam"`, `"sample"`).
    pub strategy: &'static str,
    /// Beam width when the strategy is beam search, else 0.
    pub beam_width: u64,
    /// Decoder steps executed for this request.
    pub decode_steps: u64,
    /// Encoder-cache hits attributed to this request.
    pub enc_cache_hits: u64,
    /// Encoder-cache misses attributed to this request.
    pub enc_cache_misses: u64,
    /// End-to-end request duration, microseconds; set when recorded.
    pub total_us: u64,
}

impl TraceContext {
    /// A blank context for `request_id` counting from `origin`.
    pub(crate) fn blank(request_id: u64, origin: Instant) -> TraceContext {
        TraceContext {
            request_id,
            origin,
            stages: StageList::new(),
            queue_depth: 0,
            batch_size: 0,
            cache_hit: false,
            epoch: 0,
            strategy: "",
            beam_width: 0,
            decode_steps: 0,
            enc_cache_hits: 0,
            enc_cache_misses: 0,
            total_us: 0,
        }
    }

    /// Start a trace for `request_id` whose stage offsets count from
    /// `origin` (the instant the caller already read when the request
    /// arrived), or `None` when the spine is disabled (callers thread the
    /// `Option` through untouched).
    ///
    /// Boxed on purpose: the context is ~760 B, mostly inline stage
    /// storage, and crosses two thread-local installs and two channel
    /// hand-offs per request, so it moves as a pointer everywhere. The
    /// box is the one a trace recorded on this thread displaced from the
    /// flight recorder's ring ([`crate::FlightRecorder::record`] keeps
    /// it) when there is one, so once the ring is full a request started
    /// and recorded on one thread allocates nothing and clears only the
    /// stage count, not the stage storage.
    pub fn start(request_id: u64, origin: Instant) -> Option<Box<TraceContext>> {
        if !crate::enabled() {
            return None;
        }
        let Some(mut spare) = SPARE.with(Cell::take) else {
            return Some(Box::new(TraceContext::blank(request_id, origin)));
        };
        // Field by field, so the stage storage is not copied; the
        // pattern names every field, so a new one cannot be missed.
        let TraceContext {
            request_id: id,
            origin: at,
            stages,
            queue_depth,
            batch_size,
            cache_hit,
            epoch,
            strategy,
            beam_width,
            decode_steps,
            enc_cache_hits,
            enc_cache_misses,
            total_us,
        } = &mut *spare;
        *id = request_id;
        *at = origin;
        stages.len = 0;
        *queue_depth = 0;
        *batch_size = 0;
        *cache_hit = false;
        *epoch = 0;
        *strategy = "";
        *beam_width = 0;
        *decode_steps = 0;
        *enc_cache_hits = 0;
        *enc_cache_misses = 0;
        *total_us = 0;
        Some(spare)
    }

    /// Append a completed stage (dropped silently past [`MAX_STAGES`]).
    pub fn push_stage(&mut self, rec: StageRec) {
        self.stages.push(rec);
    }

    /// Build the wire-format record. This is where trace data finally
    /// allocates, and it runs on the `TRACE`/`DUMP` read path — never on
    /// the per-request record path.
    pub fn to_record(&self) -> FlightRecord {
        FlightRecord {
            request_id: self.request_id,
            total_us: self.total_us,
            queue_depth: self.queue_depth,
            batch_size: self.batch_size,
            cache_hit: self.cache_hit,
            epoch: self.epoch,
            strategy: self.strategy.to_string(),
            beam_width: self.beam_width,
            decode_steps: self.decode_steps,
            enc_cache_hits: self.enc_cache_hits,
            enc_cache_misses: self.enc_cache_misses,
            stages: self
                .stages
                .iter()
                .map(|s| StageSpan {
                    name: s.name.to_string(),
                    depth: u64::from(s.depth),
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                })
                .collect(),
        }
    }
}

/// Whole microseconds of `d`, saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

struct Active {
    trace: Option<Box<TraceContext>>,
    stack: Vec<&'static str>,
}

thread_local! {
    /// The box the last trace recorded on this thread displaced from the
    /// flight recorder's ring, for the next [`TraceContext::start`] here
    /// to reuse.
    static SPARE: Cell<Option<Box<TraceContext>>> = const { Cell::new(None) };
}

/// Keep a displaced trace's box for this thread's next
/// [`TraceContext::start`]. Used by [`crate::FlightRecorder::record`].
pub(crate) fn keep_spare(ctx: Box<TraceContext>) {
    SPARE.with(|s| s.set(Some(ctx)));
}

thread_local! {
    // `const`-initialised: every access is a plain TLS offset load with
    // no lazy-init or destructor-registration check, which matters
    // because the note_* helpers run on every decoder step.
    static ACTIVE: RefCell<Active> = const {
        RefCell::new(Active {
            trace: None,
            stack: Vec::new(),
        })
    };
}

/// Install `ctx` as this thread's active trace; spans entered until
/// [`uninstall`] append their timings to it. The context stays boxed so
/// install/uninstall move a pointer, not the inline stage storage.
pub fn install(ctx: Box<TraceContext>) {
    ACTIVE.with(|a| a.borrow_mut().trace = Some(ctx));
}

/// Remove and return this thread's active trace, if any.
pub fn uninstall() -> Option<Box<TraceContext>> {
    ACTIVE.with(|a| a.borrow_mut().trace.take())
}

/// Record a stage measured externally (e.g. the batch-wait interval the
/// worker measures from the job's enqueue instant) into the active
/// trace. No-op without an active trace.
pub fn record_stage(name: &'static str, start: Instant, dur: Duration) {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let depth = a.stack.len().min(u8::MAX as usize) as u8;
        if let Some(t) = a.trace.as_mut() {
            t.push_stage(StageRec {
                name,
                depth,
                start_us: micros(start.saturating_duration_since(t.origin)),
                dur_us: micros(dur),
            });
        }
    });
}

/// Note the batch the active request was decoded in.
pub fn note_batch(size: u64, epoch: u64) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().trace.as_mut() {
            t.batch_size = size;
            t.epoch = epoch;
        }
    });
}

/// Note whether the recommendation cache answered the active request.
pub fn note_cache_hit(hit: bool) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().trace.as_mut() {
            t.cache_hit = hit;
        }
    });
}

/// Note the decode strategy (and beam width, 0 when not beam search).
pub fn note_strategy(name: &'static str, beam_width: u64) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().trace.as_mut() {
            t.strategy = name;
            t.beam_width = beam_width;
        }
    });
}

/// Attribute one decoder step to the active request.
pub fn note_decode_step() {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().trace.as_mut() {
            t.decode_steps += 1;
        }
    });
}

/// Attribute one encoder-cache lookup to the active request.
pub fn note_enc_cache(hit: bool) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().trace.as_mut() {
            if hit {
                t.enc_cache_hits += 1;
            } else {
                t.enc_cache_misses += 1;
            }
        }
    });
}

/// Push `name` onto this thread's span stack; returns the depth the
/// span was entered at. Used by [`crate::span::SpanGuard`].
pub(crate) fn stack_push(name: &'static str) -> u8 {
    let depth = ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let depth = a.stack.len().min(u8::MAX as usize) as u8;
        if a.stack.len() < MAX_DEPTH {
            a.stack.push(name);
        }
        depth
    });
    crate::prof::on_push(name, depth);
    depth
}

/// Pop `name` off the span stack and append the completed stage to the
/// active trace. Used by [`crate::span::SpanGuard`] on drop.
pub(crate) fn stack_pop_record(name: &'static str, depth: u8, start: Instant, dur: Duration) {
    crate::prof::on_pop(depth);
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        if a.stack.last() == Some(&name) {
            a.stack.pop();
        }
        if let Some(t) = a.trace.as_mut() {
            t.push_stage(StageRec {
                name,
                depth,
                start_us: micros(start.saturating_duration_since(t.origin)),
                dur_us: micros(dur),
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotations_require_an_installed_trace() {
        let _on = crate::tests::spine_on();
        assert!(uninstall().is_none());
        note_decode_step(); // must not panic without a trace
        let ctx = TraceContext::start(7, Instant::now()).expect("enabled");
        install(ctx);
        note_batch(4, 2);
        note_cache_hit(true);
        note_strategy("beam", 8);
        note_decode_step();
        note_enc_cache(true);
        note_enc_cache(false);
        let t = uninstall().expect("installed");
        assert_eq!(t.request_id, 7);
        assert_eq!((t.batch_size, t.epoch), (4, 2));
        assert!(t.cache_hit);
        assert_eq!((t.strategy, t.beam_width), ("beam", 8));
        assert_eq!(t.decode_steps, 1);
        assert_eq!((t.enc_cache_hits, t.enc_cache_misses), (1, 1));
    }

    #[test]
    fn start_returns_none_when_disabled() {
        let _switch = crate::tests::spine_exclusive();
        crate::set_enabled(false);
        assert!(TraceContext::start(1, Instant::now()).is_none());
        crate::set_enabled(true);
    }

    #[test]
    fn to_record_converts_to_wire_format() {
        let _on = crate::tests::spine_on();
        let mut ctx = TraceContext::start(11, Instant::now()).expect("enabled");
        ctx.push_stage(StageRec {
            name: "session",
            depth: 0,
            start_us: 1,
            dur_us: 5,
        });
        ctx.total_us = 42;
        let rec = ctx.to_record();
        assert_eq!(rec.request_id, 11);
        assert_eq!(rec.total_us, 42);
        assert_eq!(rec.stages.len(), 1);
        assert_eq!(rec.stages[0].name, "session");
        assert_eq!(rec.stages[0].dur_us, 5);
    }

    #[test]
    fn a_reused_box_starts_blank() {
        let _on = crate::tests::spine_on();
        // A box is reused once the ring displaces it: fill the ring, then
        // record one more over its oldest slot.
        let ring = crate::FlightRecorder::default();
        let mut first = None;
        for id in 0..=crate::flight::RING_CAPACITY as u64 {
            let mut ctx = TraceContext::start(id, Instant::now()).expect("enabled");
            ctx.push_stage(StageRec {
                name: "decode",
                depth: 1,
                start_us: 3,
                dur_us: 9,
            });
            ctx.queue_depth = 5;
            ctx.batch_size = 2;
            ctx.cache_hit = true;
            ctx.epoch = 4;
            ctx.strategy = "beam";
            ctx.beam_width = 8;
            ctx.decode_steps = 12;
            ctx.enc_cache_hits = 1;
            ctx.enc_cache_misses = 1;
            first.get_or_insert(&*ctx as *const TraceContext);
            ring.record(ctx, Duration::from_micros(30 + id));
        }

        // Hold a box of the same size first: had the displaced box been
        // freed, the allocator would hand its address to this one, not
        // to the next start.
        let _decoy = Box::new(TraceContext::blank(0, Instant::now()));
        let origin = Instant::now();
        let again = TraceContext::start(999, origin).expect("enabled");
        assert_eq!(
            Some(&*again as *const TraceContext),
            first,
            "the box is reused"
        );
        assert_eq!(*again, TraceContext::blank(999, origin));
    }

    #[test]
    fn stage_cap_drops_excess() {
        let _on = crate::tests::spine_on();
        let mut ctx = TraceContext::start(1, Instant::now()).expect("enabled");
        for i in 0..(MAX_STAGES + 10) {
            ctx.push_stage(StageRec {
                name: "s",
                depth: 0,
                start_us: i as u64,
                dur_us: 1,
            });
        }
        assert_eq!(ctx.stages.len(), MAX_STAGES);
        // The last pushes past the cap were dropped, not wrapped.
        assert_eq!(ctx.stages[MAX_STAGES - 1].start_us, (MAX_STAGES - 1) as u64);
    }
}
