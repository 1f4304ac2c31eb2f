//! Serve-side telemetry engine: windows, sketch, drift, history.
//!
//! This module ties the qrec-obs time-series primitives to the serving
//! layer (DESIGN.md §17). One [`Telemetry`] instance per server:
//!
//! * a [`qrec_obs::WindowSet`] tracks the hot request counters and
//!   latency histograms and converts their lifetime aggregates into
//!   per-window deltas when a window seals;
//! * a [`qrec_obs::TemplateSketch`] counts query-template ids observed
//!   on the request path ([`Telemetry::note_template`] is wired into
//!   the session store);
//! * a [`qrec_obs::DriftDetector`] scores each sealed window against
//!   its predecessor and publishes the scores as gauges.
//!
//! Sealing produces a [`WindowFrame`] — the single wire shape used by
//! the `HISTORY` verb, the `WATCH` stream, and the durable telemetry
//! log (one JSON frame per sealed window). The recording hot path never
//! touches any of this beyond the sketch's fixed-slot scan: windowing
//! is delta-sampling at seal time, not per-event bookkeeping.
//!
//! Time is injected: the ticker thread calls [`Telemetry::tick`] with
//! `Instant::now()`, while tests drive [`Telemetry::seal_at`] directly
//! with a fake clock — no sleeps needed to test drift detection.

use crate::metrics::{Metrics, WindowSummary};
use parking_lot::Mutex;
use qrec_obs::{DriftDetector, DriftScore, SketchEntry, TemplateSketch, WindowBucket, WindowSet};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Heavy-hitter slots per window; templates beyond the top ~64 per
/// window are absorbed into eviction error bounds.
pub const SKETCH_SLOTS: usize = 64;

/// One sealed telemetry window: metric deltas, the template heavy
/// hitters, and the drift scores versus the previous window. This is
/// the `HISTORY` item, the `WATCH` stream payload, and the on-disk
/// telemetry-log frame.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowFrame {
    /// Per-window counter and histogram deltas.
    pub window: WindowBucket,
    /// Template heavy hitters observed inside the window, count
    /// descending.
    pub templates: Vec<SketchEntry>,
    /// Total template observations in the window, including ones
    /// absorbed into evicted sketch slots (absent in frames from
    /// servers that predate the field).
    #[serde(default)]
    pub template_total: u64,
    /// Drift scores of this window versus its predecessor.
    #[serde(default)]
    pub drift: DriftScore,
}

/// Mutable tail state: drift detector, history ring, and the ticker
/// deadline — everything the seal path updates under one lock.
struct Scored {
    drift: DriftDetector,
    history: VecDeque<WindowFrame>,
    next_due: Instant,
}

/// The per-server telemetry engine. Cheap to share (`Arc`); all methods
/// take `&self`.
pub struct Telemetry {
    windows: WindowSet,
    sketch: TemplateSketch,
    width: Duration,
    capacity: usize,
    scored: Mutex<Scored>,
}

impl Telemetry {
    /// Build the engine over `metrics`, tracking the request-path
    /// counters and latency histograms. `width` is clamped to at least
    /// one millisecond and `buckets` to at least one window.
    pub fn new(metrics: &Metrics, width: Duration, buckets: usize) -> Telemetry {
        let width = width.max(Duration::from_millis(1));
        let capacity = buckets.max(1);
        let windows = WindowSet::new(capacity);
        for counter in [
            &metrics.requests,
            &metrics.recommends,
            &metrics.cache_hits,
            &metrics.cache_misses,
            &metrics.overloaded,
            &metrics.errors,
        ] {
            windows.track_counter(Arc::clone(counter));
        }
        windows.track_histogram(metrics.latency.handle());
        windows.track_histogram(Arc::clone(&metrics.stage_decode));
        Telemetry {
            windows,
            sketch: TemplateSketch::new(SKETCH_SLOTS),
            width,
            capacity,
            scored: Mutex::new(Scored {
                drift: DriftDetector::new(qrec_obs::global()),
                history: VecDeque::with_capacity(capacity),
                next_due: Instant::now() + width,
            }),
        }
    }

    /// Count one query-template occurrence on the request path. A
    /// fixed-slot sketch scan under a short mutex — no allocation — and
    /// a no-op when observability is globally disabled.
    pub fn note_template(&self, id: u64) {
        if qrec_obs::enabled() {
            self.sketch.observe(id);
        }
    }

    /// Seal the current window if its deadline has passed, returning
    /// the new frame. Called by the ticker thread; the deadline check
    /// keeps it idempotent at any call frequency.
    pub fn tick(&self, now: Instant) -> Option<WindowFrame> {
        {
            let mut scored = self.scored.lock();
            if now < scored.next_due {
                return None;
            }
            scored.next_due = now + self.width;
        }
        Some(self.seal_at(unix_ms_now()))
    }

    /// Seal a window at the given wall-clock stamp unconditionally:
    /// drain the sketch, convert counter aggregates to deltas, score
    /// drift, and push the frame onto the history ring. Public so tests
    /// can drive window boundaries with a fake clock.
    pub fn seal_at(&self, unix_ms: u64) -> WindowFrame {
        let (templates, template_total) = self.sketch.drain();
        let window = self.windows.seal(unix_ms);
        let deltas: Vec<(String, u64)> = window
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.delta))
            .collect();
        let mut scored = self.scored.lock();
        let drift = scored.drift.advance(templates.clone(), &deltas);
        let frame = WindowFrame {
            window,
            templates,
            template_total,
            drift,
        };
        if scored.history.len() >= self.capacity {
            scored.history.pop_front();
        }
        scored.history.push_back(frame.clone());
        frame
    }

    /// The newest `n` sealed frames, oldest first.
    pub fn history(&self, n: usize) -> Vec<WindowFrame> {
        let scored = self.scored.lock();
        let skip = scored.history.len().saturating_sub(n);
        scored.history.iter().skip(skip).cloned().collect()
    }

    /// Every sealed frame with a window sequence strictly greater than
    /// `after` (`None` means all), oldest first. The event loop's
    /// `WATCH` broadcast cursors through history with this.
    pub fn frames_after(&self, after: Option<u64>) -> Vec<WindowFrame> {
        let scored = self.scored.lock();
        scored
            .history
            .iter()
            .filter(|f| after.is_none_or(|seq| f.window.seq > seq))
            .cloned()
            .collect()
    }

    /// Sequence number of the newest sealed window, if any.
    pub fn latest_seq(&self) -> Option<u64> {
        self.scored.lock().history.back().map(|f| f.window.seq)
    }

    /// Drift scores of the most recently sealed window.
    pub fn latest_drift(&self) -> DriftScore {
        self.scored.lock().drift.latest()
    }

    /// Rebuild the history ring from frames replayed out of the durable
    /// telemetry log (oldest first); undecodable frames are skipped —
    /// telemetry must never block a boot. Returns how many frames were
    /// restored.
    pub fn restore(&self, raw: &[Vec<u8>]) -> usize {
        let frames: Vec<WindowFrame> = raw
            .iter()
            .filter_map(|bytes| serde_json::from_slice(bytes).ok())
            .collect();
        if frames.is_empty() {
            return 0;
        }
        self.windows
            .restore(frames.iter().map(|f| f.window.clone()).collect());
        let mut scored = self.scored.lock();
        let restored = frames.len();
        for frame in frames {
            if scored.history.len() >= self.capacity {
                scored.history.pop_front();
            }
            scored.history.push_back(frame);
        }
        restored
    }

    /// Configured window width.
    pub fn width(&self) -> Duration {
        self.width
    }

    /// The `STATS` summary: configuration plus the newest window's
    /// identity and request delta.
    pub fn summary(&self) -> WindowSummary {
        let scored = self.scored.lock();
        let last = scored.history.back();
        WindowSummary {
            width_ms: self.width.as_millis() as u64,
            capacity: self.capacity as u64,
            sealed: scored.history.len() as u64,
            last_seq: last.map(|f| f.window.seq).unwrap_or(0),
            last_unix_ms: last.map(|f| f.window.unix_ms).unwrap_or(0),
            last_requests: last
                .and_then(|f| f.window.delta("serve.requests"))
                .unwrap_or(0),
        }
    }
}

/// Milliseconds since the Unix epoch, saturating at zero on a
/// pre-epoch clock.
fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> (Metrics, Telemetry) {
        let metrics = Metrics::new();
        let telemetry = Telemetry::new(&metrics, Duration::from_secs(10), 4);
        (metrics, telemetry)
    }

    #[test]
    fn seal_captures_deltas_and_templates() {
        let (metrics, t) = engine();
        Metrics::bump(&metrics.requests);
        Metrics::bump(&metrics.requests);
        t.note_template(7);
        t.note_template(7);
        t.note_template(9);
        let frame = t.seal_at(1_000);
        assert_eq!(frame.window.delta("serve.requests"), Some(2));
        assert_eq!(frame.template_total, 3);
        assert_eq!(frame.templates[0].key, 7);
        // The next window starts from a clean slate.
        let frame2 = t.seal_at(2_000);
        assert_eq!(frame2.window.delta("serve.requests"), Some(0));
        assert!(frame2.templates.is_empty());
        assert!(frame2.window.seq > frame.window.seq);
    }

    #[test]
    fn history_ring_is_capped_and_ordered() {
        let (_metrics, t) = engine();
        for i in 0..6u64 {
            t.seal_at(i * 1_000);
        }
        let all = t.history(usize::MAX);
        assert_eq!(all.len(), 4, "ring capped at the configured buckets");
        assert!(all.windows(2).all(|w| w[0].window.seq < w[1].window.seq));
        assert_eq!(t.history(2).len(), 2);
        assert_eq!(t.latest_seq(), Some(all[3].window.seq));
    }

    #[test]
    fn frames_after_cursors_through_history() {
        let (_metrics, t) = engine();
        let a = t.seal_at(1_000);
        let b = t.seal_at(2_000);
        assert_eq!(t.frames_after(None).len(), 2);
        let after_a = t.frames_after(Some(a.window.seq));
        assert_eq!(after_a.len(), 1);
        assert_eq!(after_a[0].window.seq, b.window.seq);
        assert!(t.frames_after(Some(b.window.seq)).is_empty());
    }

    #[test]
    fn tick_respects_the_window_deadline() {
        let metrics = Metrics::new();
        let t = Telemetry::new(&metrics, Duration::from_secs(3600), 4);
        assert!(t.tick(Instant::now()).is_none(), "deadline far away");
        let t = Telemetry::new(&metrics, Duration::from_millis(1), 4);
        let later = Instant::now() + Duration::from_millis(50);
        assert!(t.tick(later).is_some(), "past-deadline tick seals");
        assert!(t.tick(later).is_none(), "deadline advances after a seal");
    }

    #[test]
    fn restore_rebuilds_history_and_sequence() {
        let (_metrics, t) = engine();
        t.note_template(5);
        t.seal_at(1_000);
        t.seal_at(2_000);
        let raw: Vec<Vec<u8>> = t
            .history(usize::MAX)
            .iter()
            .map(|f| serde_json::to_vec(f).expect("serialise"))
            .collect();

        let (_m2, fresh) = engine();
        assert_eq!(fresh.restore(&raw), 2);
        assert_eq!(fresh.history(usize::MAX).len(), 2);
        // New windows continue after the restored sequence.
        let restored_seq = fresh.latest_seq().expect("restored");
        let next = fresh.seal_at(3_000);
        assert!(next.window.seq > restored_seq);
        // Garbage frames are skipped, not fatal.
        let (_m3, dirty) = engine();
        assert_eq!(dirty.restore(&[b"not json".to_vec()]), 0);
    }

    #[test]
    fn summary_reports_the_newest_window() {
        let (metrics, t) = engine();
        let empty = t.summary();
        assert_eq!(empty.sealed, 0);
        assert_eq!(empty.width_ms, 10_000);
        assert_eq!(empty.capacity, 4);
        Metrics::bump(&metrics.requests);
        let frame = t.seal_at(5_000);
        let s = t.summary();
        assert_eq!(s.sealed, 1);
        assert_eq!(s.last_seq, frame.window.seq);
        assert_eq!(s.last_unix_ms, 5_000);
        assert_eq!(s.last_requests, 1);
    }

    #[test]
    fn frame_round_trips_through_serde_and_tolerates_old_shapes() {
        let (_metrics, t) = engine();
        t.note_template(3);
        let frame = t.seal_at(1_234);
        let json = serde_json::to_string(&frame).expect("serialise");
        let back: WindowFrame = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, frame);
        // Frames without the newer fields still parse.
        let old =
            r#"{"window":{"seq":1,"unix_ms":9,"counters":[],"histograms":[]},"templates":[]}"#;
        let back: WindowFrame = serde_json::from_str(old).expect("old frame parses");
        assert_eq!(back.template_total, 0);
        assert_eq!(back.drift, DriftScore::default());
    }
}
