//! The flight recorder: last-N completed request traces plus a
//! slowest-K reservoir.
//!
//! The ring is a fixed array of slots addressed by a monotonically
//! increasing cursor (`fetch_add % capacity`), so writers claim distinct
//! slots without coordinating. A slot holds the finished request's own
//! boxed [`TraceContext`] behind a mutex held only for the swap: the
//! box goes in, and the one it displaces becomes the recording thread's
//! spare for its next [`TraceContext::start`]. Recording never
//! allocates, and once the ring is full neither does starting a trace
//! on a thread that records them. The wire-format [`FlightRecord`] (strings, `Vec`s) is only built on the
//! `TRACE`/`DUMP` read path. Memory is bounded: `(RING_CAPACITY +
//! SLOWEST_CAPACITY) × size_of::<TraceContext>()` plus one spare box
//! per recording thread, each trace capped at
//! [`crate::trace::MAX_STAGES`] inline stages.

use crate::trace::{micros, TraceContext};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// How many recent request traces the ring keeps.
pub const RING_CAPACITY: usize = 64;

/// How many slowest-ever request traces the reservoir keeps.
pub const SLOWEST_CAPACITY: usize = 8;

/// One completed stage in wire format.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageSpan {
    /// Stage name (e.g. `"decode"`).
    pub name: String,
    /// Nesting depth (0 = top level).
    pub depth: u64,
    /// Offset from request start, microseconds.
    pub start_us: u64,
    /// Stage duration, microseconds.
    pub dur_us: u64,
}

/// One completed request trace in wire format — what `TRACE` returns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Process-unique request id.
    pub request_id: u64,
    /// End-to-end request duration, microseconds.
    pub total_us: u64,
    /// Batcher queue depth observed at enqueue time.
    pub queue_depth: u64,
    /// Size of the decode batch the request rode in.
    pub batch_size: u64,
    /// Whether the recommendation cache answered the request.
    pub cache_hit: bool,
    /// Model epoch that served the request.
    pub epoch: u64,
    /// Decode strategy (`"greedy"`, `"beam"`, `"sample"`, or empty).
    pub strategy: String,
    /// Beam width when beam search, else 0.
    pub beam_width: u64,
    /// Decoder steps executed.
    pub decode_steps: u64,
    /// Encoder-cache hits attributed to the request.
    pub enc_cache_hits: u64,
    /// Encoder-cache misses attributed to the request.
    pub enc_cache_misses: u64,
    /// Per-stage breakdown, in completion order.
    pub stages: Vec<StageSpan>,
}

/// Bounded store of completed request traces.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Box<TraceContext>>>>,
    cursor: AtomicU64,
    slowest_cap: usize,
    /// Sorted descending by `total_us`.
    slowest: Mutex<Vec<TraceContext>>,
    /// Admission floor for the reservoir: once it is full, records at or
    /// below this `total_us` are rejected with a relaxed load — fast
    /// requests never touch the `slowest` lock. Zero until full.
    slow_floor: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping `ring` recent traces and `slowest` slow ones.
    pub fn with_capacity(ring: usize, slowest: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..ring.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            slowest_cap: slowest,
            slowest: Mutex::new(Vec::with_capacity(slowest)),
            slow_floor: AtomicU64::new(0),
        }
    }

    /// Stamp `ctx` with its total duration and store it. No-op when the
    /// spine is disabled. The box itself goes into the next ring slot
    /// (the reservoir takes a copy only past its floor), and the box it
    /// displaces is kept for the next trace this thread starts.
    pub fn record(&self, mut ctx: Box<TraceContext>, total: Duration) {
        if !crate::enabled() {
            return;
        }
        ctx.total_us = micros(total);
        if self.may_be_slowest(ctx.total_us) {
            self.offer_slowest(*ctx);
        }
        let idx = (self.cursor.fetch_add(1, Ordering::Relaxed) as usize) % self.slots.len();
        let displaced = self
            .slots
            .get(idx)
            .and_then(|slot| slot.lock().replace(ctx));
        if let Some(spare) = displaced {
            crate::trace::keep_spare(spare);
        }
    }

    /// Lock-free rejection: the floor is the slowest entry's cutoff
    /// once the reservoir is full (zero before that), so steady-state
    /// fast requests bail on one relaxed load.
    fn may_be_slowest(&self, total_us: u64) -> bool {
        let floor = self.slow_floor.load(Ordering::Relaxed);
        self.slowest_cap > 0 && (floor == 0 || total_us > floor)
    }

    fn offer_slowest(&self, rec: TraceContext) {
        let mut slow = self.slowest.lock();
        let full = slow.len() >= self.slowest_cap;
        if full
            && slow
                .last()
                .is_some_and(|last| rec.total_us <= last.total_us)
        {
            return;
        }
        let pos = slow.partition_point(|r| r.total_us > rec.total_us);
        slow.insert(pos, rec);
        slow.truncate(self.slowest_cap);
        if slow.len() >= self.slowest_cap {
            if let Some(last) = slow.last() {
                // qrec-lint: allow(atomics) -- the floor is an approximate admission hint; a stale read only costs one wasted reservoir comparison, no data rides behind it
                self.slow_floor.store(last.total_us, Ordering::Relaxed);
            }
        }
    }

    /// Up to `n` most recent traces in wire format, newest first. The
    /// stored-to-wire conversion allocates here, on the read path.
    pub fn recent(&self, n: usize) -> Vec<FlightRecord> {
        let end = self.cursor.load(Ordering::Relaxed) as usize;
        let mut out = Vec::with_capacity(n.min(self.slots.len()));
        for back in 1..=self.slots.len().min(end) {
            if out.len() >= n {
                break;
            }
            let idx = (end - back) % self.slots.len();
            if let Some(rec) = self
                .slots
                .get(idx)
                .and_then(|s| s.lock().as_deref().copied())
            {
                out.push(rec.to_record());
            }
        }
        out
    }

    /// The slowest traces seen so far in wire format, slowest first.
    pub fn slowest(&self) -> Vec<FlightRecord> {
        let slow: Vec<TraceContext> = self.slowest.lock().clone();
        slow.iter().map(TraceContext::to_record).collect()
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::with_capacity(RING_CAPACITY, SLOWEST_CAPACITY)
    }
}

/// The process-wide recorder that the `TRACE` verb reads from.
pub fn global() -> &'static FlightRecorder {
    static G: OnceLock<FlightRecorder> = OnceLock::new();
    G.get_or_init(FlightRecorder::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    fn record(fr: &FlightRecorder, id: u64, total_us: u64) {
        let ctx = Box::new(TraceContext::blank(id, Instant::now()));
        fr.record(ctx, Duration::from_micros(total_us));
    }

    #[test]
    fn ring_keeps_the_most_recent_records_newest_first() {
        let _on = crate::tests::spine_on();
        let fr = FlightRecorder::with_capacity(4, 2);
        for id in 1..=6 {
            record(&fr, id, id * 10);
        }
        let ids: Vec<u64> = fr.recent(10).iter().map(|r| r.request_id).collect();
        assert_eq!(ids, vec![6, 5, 4, 3]);
        let two: Vec<u64> = fr.recent(2).iter().map(|r| r.request_id).collect();
        assert_eq!(two, vec![6, 5]);
    }

    #[test]
    fn slowest_reservoir_survives_ring_eviction() {
        let _on = crate::tests::spine_on();
        let fr = FlightRecorder::with_capacity(2, 2);
        record(&fr, 1, 900);
        for id in 2..=8 {
            record(&fr, id, 10);
        }
        record(&fr, 9, 500);
        let slow: Vec<u64> = fr.slowest().iter().map(|r| r.request_id).collect();
        assert_eq!(slow, vec![1, 9], "slowest first, kept past eviction");
        let recent: Vec<u64> = fr.recent(10).iter().map(|r| r.request_id).collect();
        assert_eq!(recent, vec![9, 8]);
    }

    #[test]
    fn record_is_gated_by_enabled() {
        let _switch = crate::tests::spine_exclusive();
        crate::set_enabled(true);
        let fr = FlightRecorder::with_capacity(4, 2);
        let ctx = TraceContext::start(3, Instant::now()).expect("enabled");
        fr.record(ctx, Duration::from_micros(50));
        assert_eq!(fr.recent(10).len(), 1);

        // A context started while enabled, finished after disabling.
        let fr2 = FlightRecorder::with_capacity(4, 2);
        let ctx = TraceContext::start(4, Instant::now()).expect("enabled");
        crate::set_enabled(false);
        fr2.record(ctx, Duration::from_micros(50));
        assert!(fr2.recent(10).is_empty());
        crate::set_enabled(true);
    }

    #[test]
    fn a_slot_recorded_over_keeps_nothing_of_its_last_trace() {
        use crate::trace::StageRec;
        let _on = crate::tests::spine_on();
        let fr = FlightRecorder::with_capacity(1, 0);
        let stage = |name| StageRec {
            name,
            depth: 0,
            start_us: 1,
            dur_us: 2,
        };
        let mut long = TraceContext::start(1, Instant::now()).expect("enabled");
        for name in ["session", "cache", "rank"] {
            long.push_stage(stage(name));
        }
        long.cache_hit = true;
        fr.record(long, Duration::from_micros(90));
        let mut short = TraceContext::start(2, Instant::now()).expect("enabled");
        short.push_stage(stage("decode"));
        fr.record(short, Duration::from_micros(40));
        let recent = fr.recent(2);
        assert_eq!(recent.len(), 1);
        let names: Vec<&str> = recent[0].stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["decode"]);
        assert_eq!((recent[0].request_id, recent[0].total_us), (2, 40));
        assert!(!recent[0].cache_hit);
    }

    #[test]
    fn concurrent_records_never_lose_the_ring_invariants() {
        let _on = crate::tests::spine_on();
        let fr = Arc::new(FlightRecorder::with_capacity(8, 4));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let fr = Arc::clone(&fr);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        record(&fr, w * 1000 + i, i);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(fr.recent(100).len(), 8);
        let slow = fr.slowest();
        assert_eq!(slow.len(), 4);
        assert!(slow.windows(2).all(|w| w[0].total_us >= w[1].total_us));
        assert!(
            slow.iter().all(|r| r.total_us == 499),
            "4 writers each hit 499"
        );
    }

    #[test]
    fn flight_record_round_trips_through_serde() {
        let mut r = FlightRecord {
            request_id: 42,
            total_us: 1234,
            strategy: "beam".to_string(),
            beam_width: 8,
            cache_hit: true,
            ..FlightRecord::default()
        };
        r.stages.push(StageSpan {
            name: "decode".to_string(),
            depth: 1,
            start_us: 10,
            dur_us: 900,
        });
        let json = serde_json::to_string(&r).expect("serialize");
        let back: FlightRecord = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, r);
    }
}
