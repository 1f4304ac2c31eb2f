//! Decode engine: a bounded queue in front of a pool of decode workers.
//!
//! Decode jobs flow through one bounded MPMC channel into a pool of
//! worker threads. A worker takes one job per `recv`, reads the
//! registry once for it — one `(epoch, model)` snapshot, so the job is
//! internally consistent across a concurrent hot-swap — and serves it;
//! whichever worker is idle takes the next job.
//!
//! Backpressure is typed: submission uses `try_send`, and a full queue
//! surfaces as [`ServeError::Overloaded`] immediately instead of
//! blocking the event loop — the client decides whether to retry.
//!
//! Not every RECOMMEND gets this far. The event loop resolves the
//! session window of a memory-only store itself and answers a cache hit
//! on its own thread through `answer_cached` — the same lookup → count
//! → rank sequence a worker runs, so both feed one set of counters,
//! stage histograms and flight records. What reaches the queue is what
//! needs a worker: a window to decode, or — with a durable session tier
//! — any request, because its WAL write may block ([`PrepareFn`]).

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use qrec_core::predict::PerKind;
use qrec_nn::decode::EncCache;
use qrec_nn::Strategy;
use qrec_obs::{trace, Span, TraceContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use crate::cache::{CacheKey, CachedRanking, RecCache};
use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::registry::ModelRegistry;

/// One decode request: the session's windowed input tokens and how many
/// fragments per kind the client wants.
#[derive(Debug, Clone)]
pub struct DecodeRequest {
    /// Model input tokens (the session window).
    pub tokens: Vec<String>,
    /// Fragments to return per kind.
    pub n: usize,
    /// Flight-recorder trace riding with the request across the worker
    /// hand-off (`None` when the obs spine is disabled).
    pub trace: Option<Box<TraceContext>>,
}

/// A served recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Top-`n` fragments per kind, ranked by aggregated probability.
    pub fragments: PerKind<Vec<String>>,
    /// Epoch of the model that produced (or cached) the ranking.
    pub epoch: u64,
    /// True when the ranking came from the LRU cache.
    pub cached: bool,
    /// The request's trace, carried back so the submitter can
    /// finish it with the end-to-end duration.
    pub trace: Option<Box<TraceContext>>,
}

/// Session-preparation step run on the worker just before decoding:
/// returns the model input tokens (typically from a durable
/// [`SessionStore::push_sql`](crate::session_store::SessionStore::push_sql),
/// which may block on a WAL fsync — exactly why it runs here and not on
/// the event-loop thread).
pub type PrepareFn = Box<dyn FnOnce() -> Result<Vec<String>, ServeError> + Send>;

/// Completion callback for [`DecodeEngine::submit_callback`]: invoked
/// once on a worker thread with the job's result.
pub type ReplyFn = Box<dyn FnOnce(Result<Recommendation, ServeError>) + Send>;

struct Job {
    req: DecodeRequest,
    /// Deferred session step; `None` when the submitter already
    /// resolved the tokens.
    prepare: Option<PrepareFn>,
    reply: ReplyFn,
    enqueued: Instant,
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Decode worker threads. `0` is allowed (jobs queue but never
    /// drain) and exists for deterministic backpressure tests.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Decoding strategy used for ranking.
    pub strategy: Strategy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_cap: 64,
            strategy: Strategy::Beam { width: 5 },
        }
    }
}

/// The decode engine. Dropping it (or calling
/// [`DecodeEngine::shutdown`]) disconnects the queue and joins the
/// workers after they finish jobs already accepted.
pub struct DecodeEngine {
    tx: Option<Sender<Job>>,
    /// Kept so the queue stays connected even with zero workers;
    /// workers clone their receivers from this one.
    rx: Receiver<Job>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl DecodeEngine {
    /// Start the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the OS error when a worker thread cannot be spawned;
    /// workers already started are joined by the returned engine's drop.
    pub fn start(
        cfg: EngineConfig,
        registry: Arc<ModelRegistry>,
        cache: Arc<RecCache>,
        metrics: Arc<Metrics>,
    ) -> std::io::Result<Self> {
        let (tx, rx) = bounded::<Job>(cfg.queue_cap.max(1));
        let workers = (0..cfg.workers)
            .map(|i| {
                let rx = rx.clone();
                let registry = Arc::clone(&registry);
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                let strategy = cfg.strategy;
                thread::Builder::new()
                    .name(format!("qrec-serve-decode-{i}"))
                    .spawn(move || {
                        qrec_obs::prof::register_thread(&format!("decode-{i}"));
                        // Each worker owns its RNG and encoder cache;
                        // decodes share the model immutably via the
                        // `*_cached` entry points.
                        let mut rng = StdRng::seed_from_u64(0x5eed ^ (i as u64));
                        let mut enc_cache = EncCache::new(8);
                        worker_loop(
                            &rx,
                            strategy,
                            &registry,
                            &cache,
                            &metrics,
                            &mut rng,
                            &mut enc_cache,
                        );
                    })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(DecodeEngine {
            tx: Some(tx),
            rx,
            workers,
        })
    }

    /// Submit a job without blocking and without waiting: `reply` runs
    /// on a worker thread with the result. When `prepare` is given, it
    /// resolves the input tokens on the worker first (and its error, if
    /// any, is what `reply` receives) — the event loop uses this to keep
    /// durable session writes off the poll thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is full;
    /// [`ServeError::ShuttingDown`] when the engine has shut down. On
    /// error `reply` is *not* invoked — the submitter still owns the
    /// failure.
    pub fn submit_callback(
        &self,
        req: DecodeRequest,
        prepare: Option<PrepareFn>,
        reply: ReplyFn,
    ) -> Result<(), ServeError> {
        let tx = self.tx.as_ref().ok_or(ServeError::ShuttingDown)?;
        let job = Job {
            req,
            prepare,
            reply,
            enqueued: Instant::now(),
        };
        match tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(ServeError::Overloaded),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Submit and wait for the result.
    pub fn recommend(&self, req: DecodeRequest) -> Result<Recommendation, ServeError> {
        let (tx, rx) = bounded(1);
        // A dropped receiver (caller gone) is fine; ignore the error.
        let reply = Box::new(move |result| drop(tx.send(result)));
        self.submit_callback(req, None, reply)?;
        rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// Queue depth right now (approximate under concurrency).
    pub fn queued(&self) -> usize {
        self.rx.len()
    }

    /// Disconnect the queue and join the workers. Jobs already accepted
    /// are served; new submissions fail with
    /// [`ServeError::ShuttingDown`].
    pub fn shutdown(&mut self) {
        self.tx = None; // drop the sender: workers drain, then exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for DecodeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Static strategy label recorded into flight traces.
fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Greedy => "greedy",
        Strategy::Beam { .. } => "beam",
        Strategy::DiverseBeam { .. } => "diverse_beam",
        Strategy::Sampling { .. } => "sampling",
    }
}

/// Beam width recorded into flight traces (0 for non-beam strategies).
fn beam_width(s: Strategy) -> u64 {
    match s {
        Strategy::Beam { width } | Strategy::DiverseBeam { width, .. } => width as u64,
        Strategy::Greedy | Strategy::Sampling { .. } => 0,
    }
}

fn worker_loop(
    rx: &Receiver<Job>,
    strategy: Strategy,
    registry: &ModelRegistry,
    cache: &RecCache,
    metrics: &Metrics,
    rng: &mut StdRng,
    enc_cache: &mut EncCache,
) {
    while let Ok(mut job) = rx.recv() {
        // One job per hand-off: the two counters move together, and the
        // STATS/TRACE wire shape keeps both.
        Metrics::bump(&metrics.batches);
        Metrics::bump(&metrics.batched_jobs);

        // One registry read per job: it is served by one model at one
        // epoch. Tagging the encoder cache with the epoch drops stale
        // entries after a hot-swap.
        let (epoch, model) = registry.current();
        enc_cache.set_generation(epoch);
        // Re-install the request's trace on this worker thread so the
        // spans below (and the per-step attribution inside the model)
        // land in the right flight record.
        if let Some(ctx) = job.req.trace.take() {
            trace::install(ctx);
        }
        // Deferred session step: resolve the input tokens here, where
        // blocking on a WAL fsync is allowed.
        if let Some(prepare) = job.prepare.take() {
            match Span::in_span_with("session", &metrics.stage_session, prepare) {
                Ok(tokens) => job.req.tokens = tokens,
                Err(e) => {
                    trace::uninstall();
                    (job.reply)(Err(e));
                    continue;
                }
            }
        }
        let wait = job.enqueued.elapsed();
        metrics.stage_batch_wait.record_duration(wait);
        trace::record_stage("batch_wait", job.enqueued, wait);
        trace::note_batch(1, epoch);
        trace::note_strategy(strategy_name(strategy), beam_width(strategy));
        // The worker looks the window up itself even when the loop's
        // probe missed a moment ago: a window another job filled while
        // this one queued is still a hit.
        let key = CacheKey::new(epoch, &job.req.tokens);
        let decode =
            || model.ranked_fragments_for_tokens_cached(&job.req.tokens, strategy, rng, enc_cache);
        let (fragments, cached) =
            serve_window(cache, metrics, key, job.req.n, job.enqueued, decode);
        (job.reply)(Ok(Recommendation {
            fragments,
            epoch,
            cached,
            trace: trace::uninstall(),
        }));
    }
}

/// Cut the top `n` of every kind out of a ranking (the `"rank"` span)
/// and close the request's latency sample, measured from `since`.
fn rank_top_n(
    metrics: &Metrics,
    ranked: &CachedRanking,
    n: usize,
    since: Instant,
) -> PerKind<Vec<String>> {
    let fragments = Span::in_span_with("rank", &metrics.stage_rank, || {
        ranked.map(|_, r| r.iter().take(n).cloned().collect())
    });
    metrics.latency.record(since.elapsed());
    fragments
}

/// The cache-hit answer to a resolved window, wherever it is computed —
/// a decode worker or the event-loop thread: look the key up (the
/// `"cache"` span) and, on a hit, count it and rank. `None` on a miss,
/// with **no counter moved**: whoever goes on to decode the window
/// ([`serve_window`]) counts it, so `cache_hits + cache_misses` moves
/// exactly once per request however many threads probed.
pub(crate) fn answer_cached(
    cache: &RecCache,
    metrics: &Metrics,
    key: &CacheKey,
    n: usize,
    since: Instant,
) -> Option<PerKind<Vec<String>>> {
    let hit = Span::in_span_with("cache", &metrics.stage_cache, || cache.get_shared(key))?;
    Metrics::bump(&metrics.cache_hits);
    trace::note_cache_hit(true);
    Some(rank_top_n(metrics, &hit, n, since))
}

/// Serve a resolved window on a thread that can decode: the cached
/// answer if there is one, else `decode` (the `"decode"` span), whose
/// ranking is cached and ranked the same way. Returns the top-`n`
/// fragments and whether the cache supplied them.
fn serve_window(
    cache: &RecCache,
    metrics: &Metrics,
    key: CacheKey,
    n: usize,
    since: Instant,
    decode: impl FnOnce() -> CachedRanking,
) -> (PerKind<Vec<String>>, bool) {
    if let Some(fragments) = answer_cached(cache, metrics, &key, n, since) {
        return (fragments, true);
    }
    Metrics::bump(&metrics.cache_misses);
    let ranked = Arc::new(Span::in_span_with("decode", &metrics.stage_decode, decode));
    cache.put(key, Arc::clone(&ranked));
    (rank_top_n(metrics, &ranked, n, since), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine with no workers (and so no model): jobs queue but are
    /// never served.
    fn idle_engine(queue_cap: usize) -> DecodeEngine {
        let (tx, rx) = bounded::<Job>(queue_cap);
        DecodeEngine {
            tx: Some(tx),
            rx,
            workers: Vec::new(),
        }
    }

    fn request() -> DecodeRequest {
        DecodeRequest {
            tokens: vec!["select".into()],
            n: 3,
            trace: None,
        }
    }

    fn never_called() -> ReplyFn {
        Box::new(|_| panic!("a rejected or unserved job must not be replied to"))
    }

    /// With zero workers the queue never drains, so capacity + 1
    /// submissions deterministically trip the typed backpressure error.
    #[test]
    fn full_queue_is_typed_overloaded() {
        let engine = idle_engine(2);
        assert!(engine
            .submit_callback(request(), None, never_called())
            .is_ok());
        assert!(engine
            .submit_callback(request(), None, never_called())
            .is_ok());
        assert_eq!(engine.queued(), 2);
        match engine.submit_callback(request(), None, never_called()) {
            Err(ServeError::Overloaded) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The blocking wrapper reports the same rejection instead of
        // waiting on a reply that will never come.
        match engine.recommend(request()) {
            Err(ServeError::Overloaded) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let mut engine = idle_engine(2);
        engine.shutdown();
        match engine.submit_callback(request(), None, never_called()) {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }
}
