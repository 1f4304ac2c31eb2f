//! Serving metrics on the `qrec-obs` registry.
//!
//! Workers and the event loop record into shared `qrec-obs`
//! counters and histograms registered under `serve.*` names in the
//! process-wide registry, so the same storage feeds the `STATS` JSON
//! snapshot, the `DUMP` exposition, and per-stage latency breakdowns.
//! Recording stays a relaxed fetch-add with no allocation on the hot
//! path, and the [`MetricsSnapshot`] wire shape is unchanged — snapshots
//! from older servers still parse.

use qrec_obs::{Counter, Gauge, Histogram};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Upper bounds (inclusive, in microseconds) of the latency buckets; a
/// final implicit overflow bucket catches everything slower.
pub const LATENCY_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
];

/// A fixed-bucket histogram of request latencies, backed by a
/// registered [`qrec_obs::Histogram`].
///
/// Snapshots derive `count`/`sum_us` from the summed per-bucket copies
/// (the obs histogram keeps a per-bucket sum array), so a snapshot taken
/// during concurrent [`record`](LatencyHistogram::record) calls is
/// internally consistent — the old separate count/sum atomics could
/// disagree with the bucket totals.
#[derive(Debug)]
pub struct LatencyHistogram {
    inner: Arc<Histogram>,
}

impl LatencyHistogram {
    /// A fresh histogram registered in the global obs registry.
    pub fn new() -> Self {
        LatencyHistogram {
            inner: qrec_obs::global().histogram("serve.latency_us", &LATENCY_BOUNDS_US),
        }
    }

    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        self.inner.record_duration(latency);
    }

    /// The underlying registered histogram, for window tracking
    /// ([`qrec_obs::WindowSet::track_histogram`] wants the `Arc`).
    pub fn handle(&self) -> Arc<Histogram> {
        Arc::clone(&self.inner)
    }

    /// Internally consistent copy of the histogram state: `count` and
    /// `sum_us` are derived from the same pass over the bucket copies.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let s = self.inner.snapshot();
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        HistogramSnapshot {
            bounds_us: s.bounds,
            buckets: s.counts,
            count: s.count,
            sum_us: s.sum,
            p50_us: p50,
            p99_us: p99,
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Serialisable view of a [`LatencyHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds in microseconds (parallel to `buckets`).
    pub bounds_us: Vec<u64>,
    /// Observation counts per bucket, plus one overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed latencies in microseconds.
    pub sum_us: u64,
    /// Median estimate (bucket upper bound).
    pub p50_us: u64,
    /// 99th percentile estimate (bucket upper bound).
    pub p99_us: u64,
}

/// All serving counters, shared across threads behind an `Arc`.
///
/// Every instrument is also registered in [`qrec_obs::global`], so the
/// `DUMP` exposition sees the same storage `STATS` reports. Snapshots
/// read this instance's own `Arc`s directly — multiple servers in one
/// process (as in tests) keep isolated `STATS` while `DUMP` aggregates.
#[derive(Debug)]
pub struct Metrics {
    /// Protocol requests of any verb.
    pub requests: Arc<Counter>,
    /// RECOMMEND requests accepted: answered on the event loop or queued
    /// for a decode worker (not those refused as malformed, overloaded
    /// or during shutdown).
    pub recommends: Arc<Counter>,
    /// Recommendations answered from the LRU cache.
    pub cache_hits: Arc<Counter>,
    /// Recommendations that required a model decode.
    pub cache_misses: Arc<Counter>,
    /// Requests rejected with [`crate::ServeError::Overloaded`].
    pub overloaded: Arc<Counter>,
    /// Requests that failed for any other reason.
    pub errors: Arc<Counter>,
    /// Worker hand-offs served by decode workers.
    pub batches: Arc<Counter>,
    /// Jobs served by decode workers; a worker takes one job per
    /// hand-off, so this equals [`Metrics::batches`] (both stay for the
    /// STATS wire shape).
    pub batched_jobs: Arc<Counter>,
    /// Model hot-swaps performed.
    pub swaps: Arc<Counter>,
    /// Sessions evicted by the TTL sweeper.
    pub sessions_evicted: Arc<Counter>,
    /// End-to-end RECOMMEND latency, from arrival on the loop (a request
    /// answered there) or from enqueue (queue wait + decode).
    pub latency: LatencyHistogram,
    /// Session lookup + push time per RECOMMEND (`"session"` span).
    pub stage_session: Arc<Histogram>,
    /// Time jobs spend queued before a worker drains them
    /// (`"batch_wait"` span).
    pub stage_batch_wait: Arc<Histogram>,
    /// Recommendation-cache lookup time (`"cache"` span).
    pub stage_cache: Arc<Histogram>,
    /// Model decode time per job (`"decode"` span).
    pub stage_decode: Arc<Histogram>,
    /// Ranked-fragment truncation time (`"rank"` span).
    pub stage_rank: Arc<Histogram>,
    /// TCP front-end instruments.
    pub frontend: FrontendMetrics,
}

/// Instruments for the TCP front end, registered under `serve.front.*`.
///
/// The event loop owns most of them single-threadedly; `conns_open` and
/// `outbox_high_water` are gauges the loop re-publishes each tick.
#[derive(Debug)]
pub struct FrontendMetrics {
    /// Connections currently open (accepted, not yet closed).
    pub conns_open: Arc<Gauge>,
    /// Connections accepted since start.
    pub accepted: Arc<Counter>,
    /// Connections refused because the connection cap was reached.
    pub rejected_cap: Arc<Counter>,
    /// Times the poller returned with at least one event.
    pub poll_wakeups: Arc<Counter>,
    /// Largest per-connection outbox observed, in bytes.
    pub outbox_high_water: Arc<Gauge>,
    /// Connections dropped by the idle timeout.
    pub idle_disconnects: Arc<Counter>,
    /// Connections dropped for not draining their responses
    /// ([`crate::ServeError::SlowConsumer`]).
    pub slow_disconnects: Arc<Counter>,
    /// Accept backoffs taken after transient accept errors
    /// (EMFILE/ENFILE/ECONNABORTED).
    pub accept_backoffs: Arc<Counter>,
}

impl FrontendMetrics {
    /// Fresh zeroed instruments, registered in the global obs registry.
    pub fn new() -> Self {
        let reg = qrec_obs::global();
        FrontendMetrics {
            conns_open: reg.gauge("serve.front.conns_open"),
            accepted: reg.counter("serve.front.accepted"),
            rejected_cap: reg.counter("serve.front.rejected_cap"),
            poll_wakeups: reg.counter("serve.front.poll_wakeups"),
            outbox_high_water: reg.gauge("serve.front.outbox_high_water_bytes"),
            idle_disconnects: reg.counter("serve.front.idle_disconnects"),
            slow_disconnects: reg.counter("serve.front.slow_disconnects"),
            accept_backoffs: reg.counter("serve.front.accept_backoffs"),
        }
    }

    /// Copy every instrument into a serialisable snapshot.
    pub fn snapshot(&self) -> FrontendSnapshot {
        FrontendSnapshot {
            conns_open: self.conns_open.get(),
            accepted: self.accepted.get(),
            rejected_cap: self.rejected_cap.get(),
            poll_wakeups: self.poll_wakeups.get(),
            outbox_high_water: self.outbox_high_water.get(),
            idle_disconnects: self.idle_disconnects.get(),
            slow_disconnects: self.slow_disconnects.get(),
            accept_backoffs: self.accept_backoffs.get(),
        }
    }
}

impl Default for FrontendMetrics {
    fn default() -> Self {
        FrontendMetrics::new()
    }
}

/// Serialisable view of [`FrontendMetrics`], nested in
/// [`MetricsSnapshot::frontend`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FrontendSnapshot {
    /// See [`FrontendMetrics::conns_open`].
    pub conns_open: u64,
    /// See [`FrontendMetrics::accepted`].
    pub accepted: u64,
    /// See [`FrontendMetrics::rejected_cap`].
    pub rejected_cap: u64,
    /// See [`FrontendMetrics::poll_wakeups`].
    pub poll_wakeups: u64,
    /// See [`FrontendMetrics::outbox_high_water`].
    pub outbox_high_water: u64,
    /// See [`FrontendMetrics::idle_disconnects`].
    pub idle_disconnects: u64,
    /// See [`FrontendMetrics::slow_disconnects`].
    pub slow_disconnects: u64,
    /// See [`FrontendMetrics::accept_backoffs`].
    pub accept_backoffs: u64,
}

impl Metrics {
    /// Fresh zeroed metrics, registered in the global obs registry.
    pub fn new() -> Self {
        let reg = qrec_obs::global();
        Metrics {
            requests: reg.counter("serve.requests"),
            recommends: reg.counter("serve.recommends"),
            cache_hits: reg.counter("serve.cache_hits"),
            cache_misses: reg.counter("serve.cache_misses"),
            overloaded: reg.counter("serve.overloaded"),
            errors: reg.counter("serve.errors"),
            batches: reg.counter("serve.batches"),
            batched_jobs: reg.counter("serve.batched_jobs"),
            swaps: reg.counter("serve.swaps"),
            sessions_evicted: reg.counter("serve.sessions_evicted"),
            latency: LatencyHistogram::new(),
            stage_session: reg.histogram_log2("serve.stage.session_us"),
            stage_batch_wait: reg.histogram_log2("serve.stage.batch_wait_us"),
            stage_cache: reg.histogram_log2("serve.stage.cache_us"),
            stage_decode: reg.histogram_log2("serve.stage.decode_us"),
            stage_rank: reg.histogram_log2("serve.stage.rank_us"),
            frontend: FrontendMetrics::new(),
        }
    }

    /// Increment a counter by one (relaxed).
    pub fn bump(counter: &Counter) {
        counter.inc();
    }

    /// Copy every counter into a serialisable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.get(),
            recommends: self.recommends.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            overloaded: self.overloaded.get(),
            errors: self.errors.get(),
            batches: self.batches.get(),
            batched_jobs: self.batched_jobs.get(),
            swaps: self.swaps.get(),
            sessions_evicted: self.sessions_evicted.get(),
            latency: self.latency.snapshot(),
            compute: ComputeSnapshot::current(),
            decode: DecodeSnapshot::current(),
            store: qrec_store::StoreStats::default(),
            quant: QuantSnapshot::current(),
            frontend: self.frontend.snapshot(),
            window: WindowSummary::default(),
            drift: qrec_obs::DriftScore::default(),
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Snapshot of the tensor compute pool: how many workers `QREC_THREADS`
/// (or the machine) configured, and how many GEMM dispatches took the
/// serial versus the pool-parallel path since process start.
///
/// [`ComputeSnapshot::current`] never spawns the pool — it reports the
/// configured size even when every request so far stayed serial.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ComputeSnapshot {
    /// Effective compute-pool size (`QREC_THREADS`, else the machine's
    /// available parallelism).
    pub pool_threads: u64,
    /// GEMM calls dispatched to a serial kernel (naive or blocked).
    pub gemm_serial: u64,
    /// GEMM calls fanned out across the compute pool.
    pub gemm_parallel: u64,
}

impl ComputeSnapshot {
    /// Read the current pool configuration and kernel dispatch counters.
    pub fn current() -> Self {
        let counters = qrec_tensor::kernel::counters();
        ComputeSnapshot {
            pool_threads: qrec_tensor::pool::configured_threads() as u64,
            gemm_serial: counters.serial,
            gemm_parallel: counters.parallel,
        }
    }
}

/// Snapshot of the incremental decode engine: batched step forwards and
/// encoder-output cache traffic since process start (see
/// `qrec_nn::decode::counters`). A healthy interleaved workload shows
/// `enc_cache_hits` climbing with repeat sources, and `steps` growing
/// linearly — not quadratically — with emitted tokens.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DecodeSnapshot {
    /// Batched decode-step forwards (one per step across all live
    /// hypotheses).
    pub steps: u64,
    /// Encoder-output cache hits across all decode workers.
    pub enc_cache_hits: u64,
    /// Encoder-output cache misses (each paid a full encoder pass).
    pub enc_cache_misses: u64,
}

impl DecodeSnapshot {
    /// Read the current process-wide decode counters.
    pub fn current() -> Self {
        let c = qrec_nn::decode::counters();
        DecodeSnapshot {
            steps: c.steps,
            enc_cache_hits: c.enc_cache_hits,
            enc_cache_misses: c.enc_cache_misses,
        }
    }
}

/// Snapshot of the int8-weight GEMM call counters: how many projection
/// products over int8 weights ran with fewer than four activation rows
/// (`serial`: greedy decode vectors) versus four or more (`blocked`:
/// beam tiles, encoder passes) since process start (see
/// `qrec_tensor::qi8::counters` — one kernel serves both; the names are
/// size classes). Both zero when the serving model carries no int8
/// sidecar — the f32 path never touches them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuantSnapshot {
    /// Int8-weight products of fewer than four activation rows.
    pub qi8_serial: u64,
    /// Int8-weight products of four or more activation rows.
    pub qi8_blocked: u64,
}

impl QuantSnapshot {
    /// Read the current process-wide quantized dispatch counters.
    pub fn current() -> Self {
        let c = qrec_tensor::qi8::counters();
        QuantSnapshot {
            qi8_serial: c.serial,
            qi8_blocked: c.blocked,
        }
    }
}

/// Serialisable view of [`Metrics`], returned by the `STATS` verb.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// See [`Metrics::requests`].
    pub requests: u64,
    /// See [`Metrics::recommends`].
    pub recommends: u64,
    /// See [`Metrics::cache_hits`].
    pub cache_hits: u64,
    /// See [`Metrics::cache_misses`].
    pub cache_misses: u64,
    /// See [`Metrics::overloaded`].
    pub overloaded: u64,
    /// See [`Metrics::errors`].
    pub errors: u64,
    /// See [`Metrics::batches`].
    pub batches: u64,
    /// See [`Metrics::batched_jobs`].
    pub batched_jobs: u64,
    /// See [`Metrics::swaps`].
    pub swaps: u64,
    /// See [`Metrics::sessions_evicted`].
    pub sessions_evicted: u64,
    /// See [`Metrics::latency`].
    pub latency: HistogramSnapshot,
    /// Compute-pool configuration and GEMM kernel dispatch counters
    /// (absent in snapshots from older servers).
    #[serde(default)]
    pub compute: ComputeSnapshot,
    /// Incremental-decode step and encoder-cache counters (absent in
    /// snapshots from older servers).
    #[serde(default)]
    pub decode: DecodeSnapshot,
    /// Durable-store traffic: WAL appends and latency percentiles,
    /// flush/run/bloom counters, and the last recovery time. All-zero
    /// when the server runs without a data directory; absent in
    /// snapshots from older servers (the serde default fills it in).
    #[serde(default)]
    pub store: qrec_store::StoreStats,
    /// Int8 quantized-GEMM dispatch counters (absent in snapshots from
    /// servers that predate weight quantization).
    #[serde(default)]
    pub quant: QuantSnapshot,
    /// TCP front-end counters and gauges (absent in snapshots from
    /// servers that predate the event-loop front end).
    #[serde(default)]
    pub frontend: FrontendSnapshot,
    /// Sliding-window telemetry summary (absent in snapshots from
    /// servers that predate windowed metrics).
    #[serde(default)]
    pub window: WindowSummary,
    /// Workload-drift scores for the most recently sealed window
    /// (absent in snapshots from servers that predate drift detection).
    #[serde(default)]
    pub drift: qrec_obs::DriftScore,
}

/// Summary of the telemetry window ring nested in
/// [`MetricsSnapshot::window`]: configuration plus the newest sealed
/// bucket's identity and request delta. The full per-window series is
/// behind the `HISTORY` verb; `STATS` only carries enough to see the
/// engine is alive and ticking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowSummary {
    /// Configured window width in milliseconds.
    pub width_ms: u64,
    /// Ring capacity (how many sealed windows are retained).
    pub capacity: u64,
    /// Sealed windows currently held in the ring.
    pub sealed: u64,
    /// Monotonic sequence number of the newest sealed window.
    pub last_seq: u64,
    /// Wall-clock seal time of the newest window (ms since the epoch).
    pub last_unix_ms: u64,
    /// `serve.requests` delta inside the newest window.
    pub last_requests: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = LatencyHistogram::new();
        for us in [40u64, 60, 300, 2_000, 900_000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets.len(), LATENCY_BOUNDS_US.len() + 1);
        assert_eq!(s.buckets[0], 1); // 40us <= 50us
        assert_eq!(s.buckets[1], 1); // 60us <= 100us
        assert_eq!(*s.buckets.last().unwrap(), 1); // overflow
        assert!(s.p50_us <= s.p99_us);
        assert_eq!(s.sum_us, 40 + 60 + 300 + 2_000 + 900_000);
    }

    /// The torn-read fix: a snapshot taken during concurrent recording
    /// must have `count` equal to its own bucket totals and a `sum_us`
    /// that accounts for every counted observation.
    #[test]
    fn concurrent_snapshots_are_internally_consistent() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        h.record(Duration::from_micros(100));
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let s = h.snapshot();
            assert_eq!(
                s.count,
                s.buckets.iter().sum::<u64>(),
                "count must equal the summed buckets of the same snapshot"
            );
            assert_eq!(s.sum_us % 100, 0, "every observation is exactly 100us");
            assert!(
                s.sum_us >= s.count * 100,
                "sum may run ahead of count, never behind"
            );
        }
        for w in writers {
            w.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.sum_us, 40_000 * 100);
    }

    #[test]
    fn snapshot_copies_counters() {
        let m = Metrics::new();
        Metrics::bump(&m.requests);
        Metrics::bump(&m.requests);
        Metrics::bump(&m.cache_hits);
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.overloaded, 0);
    }

    #[test]
    fn separate_metrics_instances_stay_isolated() {
        let a = Metrics::new();
        let b = Metrics::new();
        Metrics::bump(&a.requests);
        assert_eq!(a.snapshot().requests, 1);
        assert_eq!(b.snapshot().requests, 0);
        // ... while the shared registry aggregates both instances.
        let agg = qrec_obs::global().snapshot();
        assert!(agg.counter("serve.requests").is_some_and(|v| v >= 1));
    }

    #[test]
    fn compute_snapshot_reports_pool_and_dispatch_counters() {
        let before = Metrics::new().snapshot().compute;
        assert!(before.pool_threads >= 1);
        // A small matmul stays on the serial path and bumps the counter.
        let a = qrec_tensor::Tensor::from_vec(1, 4, vec![1.0; 4]);
        let b = qrec_tensor::Tensor::from_vec(4, 2, vec![1.0; 8]);
        let _ = a.matmul(&b);
        let after = ComputeSnapshot::current();
        assert!(after.gemm_serial > before.gemm_serial);
        assert_eq!(after.pool_threads, before.pool_threads);
    }

    #[test]
    fn snapshot_without_a_later_section_deserialises_with_default() {
        // Each of these sections arrived after the first STATS shape
        // shipped; a snapshot from a server that predates one must stay
        // parseable, the serde default filling it in.
        let full = MetricsSnapshot::default();
        let v = full.to_value();
        for field in [
            "compute", "decode", "store", "quant", "frontend", "window", "drift",
        ] {
            let obj = v.as_object().unwrap();
            assert!(obj.get(field).is_some(), "{field} is a snapshot section");
            let stripped = serde::Value::Object(
                obj.iter()
                    .filter(|(k, _)| k.as_str() != field)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            );
            let back = MetricsSnapshot::from_value(&stripped)
                .unwrap_or_else(|e| panic!("snapshot without `{field}`: {e}"));
            assert_eq!(back, full, "`{field}` must default");
        }
    }

    #[test]
    fn frontend_metrics_snapshot_copies_instruments() {
        let f = FrontendMetrics::new();
        f.conns_open.set(12);
        f.accepted.inc();
        f.accepted.inc();
        f.rejected_cap.inc();
        f.outbox_high_water.set(4096);
        let s = f.snapshot();
        assert_eq!(s.conns_open, 12);
        assert_eq!(s.accepted, 2);
        assert_eq!(s.rejected_cap, 1);
        assert_eq!(s.outbox_high_water, 4096);
        assert_eq!(s.idle_disconnects, 0);
    }

    #[test]
    fn quant_snapshot_tracks_qi8_dispatch() {
        let before = QuantSnapshot::current();
        // A 1-row product over int8 weights counts in the serial class.
        let qb = qrec_tensor::qi8::QPackedB::from_f32(&[0.5f32; 8], 4, 2);
        let _ = qrec_tensor::qi8::qgemm(&[1.0, 2.0, 3.0, 4.0], &qb, 1);
        let after = QuantSnapshot::current();
        assert!(after.qi8_serial > before.qi8_serial);
    }

    #[test]
    fn decode_snapshot_tracks_enc_cache_traffic() {
        let before = DecodeSnapshot::current();
        let mut cache = qrec_nn::decode::EncCache::new(2);
        assert!(cache.lookup(&[3, 1, 4]).is_none());
        let after = DecodeSnapshot::current();
        assert!(after.enc_cache_misses > before.enc_cache_misses);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.count, 0);
    }
}
