//! Sliding-window aggregation: sealed epoch deltas over any registered
//! counter or histogram.
//!
//! The lifetime aggregates of [`crate::metric`] answer "how many, ever";
//! workload analytics needs "how many, in the last minute". This module
//! adds that without touching the recording hot path at all: a
//! [`WindowSet`] holds `Arc` handles to already-registered metrics and,
//! each time a window is **sealed**, subtracts the previous cumulative
//! reading from the current one to produce that window's delta. The
//! per-call path therefore stays the exact PR-5 contract — one relaxed
//! `fetch_add` on pre-registered storage, no locks, no allocation (the
//! `no-alloc-in-metric-path` lint rule keeps covering it) — while the
//! seal path, which runs once per window tick on a cold thread, may
//! allocate freely.
//!
//! A [`WindowSet`] keeps only the baselines and the next sequence
//! number; each sealed [`WindowBucket`] is handed to the caller, which
//! keeps the history (serve's telemetry ring, e.g. 60 buckets × 10 s ≈
//! ten minutes). The clock is the caller's: [`WindowSet::seal`] takes the
//! wall-clock timestamp to stamp the bucket with, so tests drive the
//! windows with a fake clock and zero sleeps.

use crate::metric::{Counter, Histogram};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A tracked counter: the shared handle plus the cumulative value at the
/// last seal, so the next seal can emit the delta.
struct TrackedCounter {
    handle: Arc<Counter>,
    last: u64,
}

/// A tracked histogram: deltas are taken on the derived `count`/`sum`
/// pair (per-bucket deltas would multiply the snapshot size by the
/// bucket count for little analytic value).
struct TrackedHistogram {
    handle: Arc<Histogram>,
    last_count: u64,
    last_sum: u64,
}

#[derive(Default)]
struct Inner {
    counters: Vec<TrackedCounter>,
    histograms: Vec<TrackedHistogram>,
    seq: u64,
}

/// Per-window deltas over a set of tracked metrics.
///
/// Thread-safe: registration and sealing go through one mutex. Neither
/// is on a metric recording path — recording keeps writing the
/// underlying [`Counter`]/[`Histogram`] directly.
pub struct WindowSet {
    inner: Mutex<Inner>,
}

impl Default for WindowSet {
    fn default() -> WindowSet {
        WindowSet::new()
    }
}

impl WindowSet {
    /// A window set tracking nothing yet, whose first seal is `seq` 0.
    pub fn new() -> WindowSet {
        WindowSet {
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Track `counter`: every future seal reports its per-window delta.
    ///
    /// The baseline is the counter's value *now*, so the first sealed
    /// window after tracking covers only activity since this call.
    pub fn track_counter(&self, counter: Arc<Counter>) {
        let last = counter.get();
        self.inner.lock().counters.push(TrackedCounter {
            handle: counter,
            last,
        });
    }

    /// Track `histogram`: every future seal reports its per-window
    /// observation count and value-sum deltas.
    pub fn track_histogram(&self, histogram: Arc<Histogram>) {
        let snap = histogram.snapshot();
        self.inner.lock().histograms.push(TrackedHistogram {
            handle: histogram,
            last_count: snap.count,
            last_sum: snap.sum,
        });
    }

    /// Seal the current window: read every tracked metric and return
    /// the delta since the previous seal as a new [`WindowBucket`]
    /// stamped `unix_ms`, for the caller (the serve telemetry tick) to
    /// keep, stream and persist.
    pub fn seal(&self, unix_ms: u64) -> WindowBucket {
        let mut inner = self.inner.lock();
        let seq = inner.seq;
        inner.seq += 1;
        let counters = inner
            .counters
            .iter_mut()
            .map(|t| {
                let cur = t.handle.get();
                let delta = cur.saturating_sub(t.last);
                t.last = cur;
                MetricDelta {
                    name: t.handle.name().to_string(),
                    delta,
                }
            })
            .collect();
        let histograms = inner
            .histograms
            .iter_mut()
            .map(|t| {
                let snap = t.handle.snapshot();
                let count = snap.count.saturating_sub(t.last_count);
                let sum = snap.sum.saturating_sub(t.last_sum);
                t.last_count = snap.count;
                t.last_sum = snap.sum;
                HistogramDelta {
                    name: snap.name,
                    count,
                    sum,
                }
            })
            .collect();
        WindowBucket {
            seq,
            unix_ms,
            counters,
            histograms,
        }
    }

    /// Continue the sequence after `seq`, the newest window sealed
    /// before a restart (replayed from the durable telemetry log), so
    /// the next seal is `seq + 1`.
    pub fn resume_after(&self, seq: u64) {
        let mut inner = self.inner.lock();
        inner.seq = inner.seq.max(seq + 1);
    }
}

/// One tracked counter's activity inside a sealed window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Increment over the window.
    pub delta: u64,
}

/// One tracked histogram's activity inside a sealed window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramDelta {
    /// Metric name.
    pub name: String,
    /// Observations recorded during the window.
    pub count: u64,
    /// Sum of values recorded during the window.
    pub sum: u64,
}

/// One sealed window: deltas of every tracked metric over one epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowBucket {
    /// Monotonic window sequence number (continues across restarts).
    pub seq: u64,
    /// Wall-clock seal time, milliseconds since the Unix epoch (caller
    /// supplied, so tests can use a fake clock).
    pub unix_ms: u64,
    /// Counter deltas, in registration order.
    pub counters: Vec<MetricDelta>,
    /// Histogram count/sum deltas, in registration order.
    pub histograms: Vec<HistogramDelta>,
}

impl WindowBucket {
    /// The delta recorded for `name` in this bucket: a counter delta,
    /// or a histogram's observation-count delta.
    pub fn delta(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.delta)
            .or_else(|| {
                self.histograms
                    .iter()
                    .find(|h| h.name == name)
                    .map(|h| h.count)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seals_emit_deltas_not_cumulative_values() {
        let c = Arc::new(Counter::new("reqs"));
        c.add(5);
        let w = WindowSet::new();
        w.track_counter(Arc::clone(&c));
        c.add(3);
        let b1 = w.seal(1_000);
        c.add(10);
        let b2 = w.seal(2_000);
        // The pre-tracking 5 never shows up; each window sees its own.
        assert_eq!(b1.delta("reqs"), Some(3));
        assert_eq!(b2.delta("reqs"), Some(10));
        assert_eq!((b1.seq, b2.seq), (0, 1));
    }

    #[test]
    fn histogram_windows_carry_count_and_sum() {
        let h = Arc::new(Histogram::log2("lat_us"));
        let w = WindowSet::new();
        w.track_histogram(Arc::clone(&h));
        h.record(100);
        h.record(200);
        let b = w.seal(1_000);
        assert_eq!(b.histograms.len(), 1);
        assert_eq!(b.histograms[0].count, 2);
        assert_eq!(b.histograms[0].sum, 300);
        let empty = w.seal(2_000);
        assert_eq!(empty.histograms[0].count, 0);
    }

    #[test]
    fn resume_after_continues_the_sequence() {
        let c = Arc::new(Counter::new("x"));
        let w = WindowSet::new();
        w.track_counter(Arc::clone(&c));
        w.resume_after(8);
        c.inc();
        let sealed = w.seal(3_000);
        assert_eq!(sealed.seq, 9, "sequence continues after the replayed max");
        assert_eq!(sealed.delta("x"), Some(1));
        assert_eq!(w.seal(4_000).seq, 10);
    }

    #[test]
    fn bucket_round_trips_through_serde() {
        let c = Arc::new(Counter::new("a"));
        let h = Arc::new(Histogram::log2("b"));
        let w = WindowSet::new();
        w.track_counter(Arc::clone(&c));
        w.track_histogram(Arc::clone(&h));
        c.add(2);
        h.record(9);
        let bucket = w.seal(5_000);
        let json = serde_json::to_string(&bucket).expect("serialize");
        let back: WindowBucket = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, bucket);
    }
}
