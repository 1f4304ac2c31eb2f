//! # qrec-obs — the workspace observability spine
//!
//! Serving-grade performance work needs per-stage evidence, not endpoint
//! totals: when a RECOMMEND request is slow, the question is whether the
//! time went to session lookup, batcher queueing, an encoder-cache miss,
//! or the per-step decode loop. This crate is the shared substrate every
//! runtime crate (serve, nn, tensor) records into:
//!
//! * [`metric`] — allocation-free [`Counter`]s, [`Gauge`]s, and bucketed
//!   [`Histogram`]s (log2 by default). Recording is relaxed atomic
//!   fetch-adds; snapshots derive `count`/`sum` from one pass over the
//!   copied bucket arrays so they are internally consistent.
//! * [`registry`] — a process-wide [`Registry`] of named metrics behind
//!   [`global()`]. Registration allocates; recording never does (a
//!   dedicated qrec-lint rule, `no-alloc-in-metric-path`, enforces it).
//! * [`span`] — scoped monotonic-clock timing with a thread-local span
//!   stack, so nested stages (request → batch wait → encode → per-step
//!   decode → rank) aggregate into a stage-time breakdown.
//! * [`trace`] / [`flight`] — per-request [`TraceContext`]s that travel
//!   with a request across thread hand-offs; the finished context itself
//!   lands in a ring-buffer [`FlightRecorder`] (last N completed requests
//!   plus an always-kept slowest-K reservoir).
//! * [`expo`] — Prometheus-style text exposition of the registry, served
//!   by qrec-serve's `DUMP` verb.
//! * [`window`] — per-window deltas over registered metrics: each seal
//!   turns lifetime aggregates into one epoch bucket ("how many in the
//!   last minute") without touching the recording hot path; the caller
//!   keeps the sealed buckets.
//! * [`sketch`] — fixed-capacity SpaceSaving heavy-hitter sketches, so
//!   serve tracks the top query templates per window with bounded
//!   memory.
//! * [`drift`] — Jensen–Shannon / chi-square / rate-z drift scores
//!   between window pairs, exported as gauges.
//! * [`prof`] — an opt-in sampling wall-clock profiler that walks
//!   registered threads' span stacks from a dedicated sampler thread.
//!
//! The whole spine can be switched off with `QREC_OBS=off` (or at
//! runtime with [`set_enabled`]): spans and flight recording become
//! no-ops while plain counters and histograms — which STATS accounting
//! depends on — keep recording.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drift;
pub mod expo;
pub mod flight;
pub mod metric;
pub mod prof;
pub mod registry;
pub mod sketch;
pub mod span;
pub mod trace;
pub mod window;

pub use drift::{DriftDetector, DriftScore};
pub use flight::{FlightRecord, FlightRecorder, StageSpan};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use prof::ProfReport;
pub use registry::{global, Registry, RegistrySnapshot};
pub use sketch::{SketchEntry, TemplateSketch};
pub use span::{Span, SpanGuard};
pub use trace::{StageList, TraceContext};
pub use window::{WindowBucket, WindowSet};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// Runtime override of the `QREC_OBS` environment default:
/// 0 = follow the environment, 1 = forced on, 2 = forced off.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Whether span timing and flight recording are active.
///
/// Resolution order: a [`set_enabled`] override wins; otherwise the
/// `QREC_OBS` environment variable, read once per process (`off`, `0`,
/// or `false` disable; anything else — including unset — enables).
#[inline]
pub fn enabled() -> bool {
    match FORCED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_default(),
    }
}

/// Force the spine on or off at runtime, overriding `QREC_OBS`.
///
/// Exists so one process can measure its own instrumentation overhead
/// (the CI obs-overhead smoke stage toggles this between rounds).
pub fn set_enabled(on: bool) {
    // qrec-lint: allow(atomics) -- standalone on/off flag: readers only branch on the value itself, no memory is published behind it
    FORCED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

fn env_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        !std::env::var("QREC_OBS").is_ok_and(|v| {
            v.eq_ignore_ascii_case("off") || v == "0" || v.eq_ignore_ascii_case("false")
        })
    })
}

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique request id for flight recording. Ids are
/// assigned once at the protocol front end and travel with the request
/// through every thread hand-off, so a flight record's stages all carry
/// the id of the request that produced them.
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// Serialises tests against the process-wide switch, which the test
    /// harness's parallel threads share: a test that needs the spine on
    /// holds it for reading, one that turns the spine off for writing.
    static SWITCH: RwLock<()> = RwLock::new(());

    /// Turn the spine on and keep it on until the guard drops.
    pub(crate) fn spine_on() -> RwLockReadGuard<'static, ()> {
        let held = SWITCH.read().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        held
    }

    /// Hold the switch alone, to turn the spine off; the holder turns it
    /// back on before the guard drops.
    pub(crate) fn spine_exclusive() -> RwLockWriteGuard<'static, ()> {
        SWITCH.write().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn request_ids_are_unique_and_monotonic() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(b > a);
    }

    #[test]
    fn set_enabled_overrides_default() {
        let _switch = spine_exclusive();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
