//! Decode engine: a bounded queue in front of a pool of decode workers.
//!
//! Decode jobs wait in one `JobQueue` — a FIFO and a closed flag under
//! one mutex, plus one condvar idle workers sleep on — shared by the
//! engine and its workers. A worker pops one job at a time, reads the
//! registry once for it — one `(epoch, model)` snapshot, so the job is
//! internally consistent across a concurrent hot-swap — and serves it
//! with no lock held; whichever worker is idle takes the next job.
//!
//! Backpressure is typed: submission never waits, and a full queue
//! surfaces as [`ServeError::Overloaded`] immediately instead of
//! blocking the event loop — the client decides whether to retry.
//! Shutdown closes the queue: submissions fail from then on, and the
//! workers exit once they have served every job already accepted.
//!
//! Not every RECOMMEND gets this far. The event loop resolves the
//! session window itself whenever the push takes no wait, and answers a
//! cache hit on its own thread through `answer_cached` — the same
//! lookup → count → rank sequence a worker runs, so both feed one set
//! of counters, stage histograms and flight records. What reaches the
//! queue is what needs a worker: a window to decode, or a session push
//! that would wait — for an fsync, a flush, a run read or a lock
//! ([`PrepareFn`]).

use qrec_core::predict::PerKind;
use qrec_nn::decode::EncCache;
use qrec_nn::Strategy;
use qrec_obs::{trace, Span, SpanGuard, TraceContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

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
/// returns the model input tokens (typically from
/// [`SessionStore::push_pending`](crate::session_store::SessionStore::push_pending),
/// a push that may wait for a WAL fsync, a memtable flush or a run
/// read — exactly why it runs here and not on the event-loop thread).
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

/// The jobs a [`JobQueue`] holds, and whether it still accepts more.
struct Backlog {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The queue's lock. The rest of the crate standardizes on
/// `parking_lot`, but the shim has no `Condvar` to wait on it with.
// qrec-lint: allow(shim-surface-drift) -- parking_lot shim has no Condvar; std Mutex+Condvar is the only wait/notify pair available offline
type BacklogMutex = std::sync::Mutex<Backlog>;

/// The engine's bounded job queue, shared with its workers. The engine
/// pushes and closes it; no lock is held while a job runs: a worker
/// pops, unlocks, then serves.
struct JobQueue {
    backlog: BacklogMutex,
    /// Signalled when a job arrives (one waiter) or the queue closes
    /// (every waiter).
    ready: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> Self {
        JobQueue {
            backlog: BacklogMutex::new(Backlog {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Backlog> {
        // Nothing panics under this lock, so a poisoned one still
        // holds a consistent backlog.
        self.backlog.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next job, waiting for one while the queue is open; `None`
    /// once it is closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut backlog = self.lock();
        loop {
            if let Some(job) = backlog.jobs.pop_front() {
                return Some(job);
            }
            if backlog.closed {
                return None;
            }
            backlog = self
                .ready
                .wait(backlog)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
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
/// [`DecodeEngine::shutdown`]) closes the queue and joins the workers
/// after they finish jobs already accepted.
pub struct DecodeEngine {
    queue: Arc<JobQueue>,
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
        let queue = Arc::new(JobQueue::new(cfg.queue_cap.max(1)));
        let workers = (0..cfg.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
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
                            &queue,
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
        Ok(DecodeEngine { queue, workers })
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
        let job = Job {
            req,
            prepare,
            reply,
            enqueued: Instant::now(),
        };
        let mut backlog = self.queue.lock();
        if backlog.closed {
            return Err(ServeError::ShuttingDown);
        }
        if backlog.jobs.len() >= self.queue.cap {
            return Err(ServeError::Overloaded);
        }
        backlog.jobs.push_back(job);
        drop(backlog);
        self.queue.ready.notify_one();
        Ok(())
    }

    /// Submit and wait for the result.
    pub fn recommend(&self, req: DecodeRequest) -> Result<Recommendation, ServeError> {
        let (tx, rx) = mpsc::sync_channel(1);
        // A dropped receiver (caller gone) is fine; ignore the error.
        let reply = Box::new(move |result| drop(tx.send(result)));
        self.submit_callback(req, None, reply)?;
        rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// Queue depth right now (approximate under concurrency).
    pub fn queued(&self) -> usize {
        self.queue.lock().jobs.len()
    }

    /// Close the queue and join the workers. Jobs already accepted
    /// are served; new submissions fail with
    /// [`ServeError::ShuttingDown`].
    pub fn shutdown(&mut self) {
        // Wake every idle worker: each drains what is left, then exits.
        self.queue.lock().closed = true;
        self.queue.ready.notify_all();
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
    queue: &JobQueue,
    strategy: Strategy,
    registry: &ModelRegistry,
    cache: &RecCache,
    metrics: &Metrics,
    rng: &mut StdRng,
    enc_cache: &mut EncCache,
) {
    while let Some(mut job) = queue.pop() {
        // One job per hand-off: the two counters move together, and the
        // STATS/TRACE wire shape keeps both.
        metrics.batches.inc();
        metrics.batched_jobs.inc();

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

/// Cut the top `n` of every kind out of a ranking inside `stage` (the
/// `"rank"` span) and close the request's latency sample, measured from
/// `since` to the instant the stage ended. Returns that latency too.
fn rank_top_n(
    metrics: &Metrics,
    ranked: &CachedRanking,
    n: usize,
    since: Instant,
    stage: SpanGuard<'_>,
) -> (PerKind<Vec<String>>, Duration) {
    let fragments = ranked.map(|_, r| r.iter().take(n).cloned().collect());
    let latency = stage
        .end()
        .unwrap_or_else(Instant::now)
        .saturating_duration_since(since);
    metrics.latency.record(latency);
    (fragments, latency)
}

/// The cache-hit answer to a resolved window, wherever it is computed —
/// a decode worker or the event-loop thread: look the key up inside
/// `stage` (the `"cache"` span, already begun) and, on a hit, count it
/// and rank, the rank stage beginning where the cache stage ends. `None`
/// on a miss, with **no counter moved**: whoever goes on to decode the
/// window ([`serve_window`]) counts it, so `cache_hits + cache_misses`
/// moves exactly once per request however many threads probed. A hit
/// comes with its latency, for the caller's flight record.
pub(crate) fn answer_cached(
    cache: &RecCache,
    metrics: &Metrics,
    key: &CacheKey,
    n: usize,
    since: Instant,
    stage: SpanGuard<'_>,
) -> Option<(PerKind<Vec<String>>, Duration)> {
    let hit = cache.get_shared(key)?;
    let rank = stage.then("rank", &metrics.stage_rank);
    metrics.cache_hits.inc();
    trace::note_cache_hit(true);
    Some(rank_top_n(metrics, &hit, n, since, rank))
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
    let probe = Span::enter_with("cache", &metrics.stage_cache);
    if let Some((fragments, _)) = answer_cached(cache, metrics, &key, n, since, probe) {
        return (fragments, true);
    }
    metrics.cache_misses.inc();
    let ranked = Arc::new(Span::in_span_with("decode", &metrics.stage_decode, decode));
    cache.put(key, Arc::clone(&ranked));
    let rank = Span::enter_with("rank", &metrics.stage_rank);
    (rank_top_n(metrics, &ranked, n, since, rank).0, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine with no workers (and so no model): jobs queue but are
    /// never served.
    fn idle_engine(queue_cap: usize) -> DecodeEngine {
        DecodeEngine {
            queue: Arc::new(JobQueue::new(queue_cap)),
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
