//! Server lifecycle, configuration, and request dispatch.
//!
//! One thread multiplexes every connection over readiness polling (see
//! `eventloop`); it speaks the JSON-lines protocol of
//! [`crate::protocol`], answers control verbs inline through
//! `dispatch_parsed`, answers a RECOMMEND that hits the cache itself,
//! and hands the rest to the decode engine.
//!
//! Shutdown is graceful and race-free: the flag stops accepting, every
//! request accepted before the flag flipped still gets its response,
//! and only then is the decode engine's queue closed.

use qrec_core::Recommender;
use qrec_obs::{flight, Counter};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::batcher::{DecodeEngine, EngineConfig};
use crate::cache::RecCache;
use crate::error::ServeError;
use crate::eventloop::{EventLoop, LoopLimits};
use crate::metrics::Metrics;
use crate::protocol::{Request, Response, StatsReply, DEFAULT_PROF_N, DEFAULT_TRACE_N};
use crate::registry::ModelRegistry;
use crate::session_store::SessionStore;
use crate::telemetry::Telemetry;
use crate::zoo::ModelZoo;
use qrec_store::{Store, TelemetryLog};

/// Numeric mode for the serving model's decode hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QuantMode {
    /// Full-precision weights and KV caches: the bitwise-deterministic
    /// reference path.
    #[default]
    F32,
    /// Weight-only int8 (DESIGN.md §15): projection weights, embedding
    /// tables and KV rows are stored int8 (~4× smaller) and read by f32
    /// activations through the f32 kernel, so decode speed is the f32
    /// path's within a few percent; top-5 agreement ≥ 0.99 against
    /// [`QuantMode::F32`].
    Int8,
}

impl QuantMode {
    /// Parse a CLI value (`"f32"` or `"int8"`).
    ///
    /// # Errors
    ///
    /// A descriptive message for any other spelling.
    pub fn parse(s: &str) -> Result<QuantMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Ok(QuantMode::F32),
            "int8" => Ok(QuantMode::Int8),
            other => Err(format!("unknown quant mode {other:?} (use f32 or int8)")),
        }
    }
}

/// Queries of context the model sees per session: 1, the paper's
/// configuration (only the latest query).
const SESSION_WINDOW: usize = 1;

/// Lock shards in the session store.
const SESSION_SHARDS: usize = 8;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Open-connection cap. Connections beyond it get a best-effort
    /// `overloaded` line and are dropped.
    pub max_connections: usize,
    /// Longest accepted request line in bytes; longer lines get a typed
    /// `bad_request` and a disconnect.
    pub max_line_bytes: usize,
    /// Outbox size above which the loop stops reading from a
    /// connection: backpressure rung 1.
    pub outbox_soft_bytes: usize,
    /// Outbox size at which a client is disconnected with
    /// [`ServeError::SlowConsumer`]: backpressure rung 2.
    pub outbox_hard_bytes: usize,
    /// Idle time after which a connection is closed.
    pub idle_timeout: Duration,
    /// How long shutdown waits for in-flight requests to finish and
    /// flush.
    pub drain_timeout: Duration,
    /// Decode engine settings.
    pub engine: EngineConfig,
    /// Idle time after which a session is evicted. The housekeeping
    /// thread sweeps every sixtieth of it (at least every millisecond),
    /// so a session leaves within `session_ttl * 61 / 60` of its last
    /// use.
    pub session_ttl: Duration,
    /// Capacity of the recommendation LRU cache.
    pub cache_capacity: usize,
    /// Durable data directory. `Some(dir)` turns on persistence:
    /// sessions are write-through to a WAL-backed store under
    /// `dir/sessions`, models persist to a zoo under `dir/zoo`, and
    /// startup recovers both (preferring the zoo's model over the one
    /// passed to [`Server::start`]). `None` (the default) serves
    /// entirely in memory, as before.
    pub data_dir: Option<std::path::PathBuf>,
    /// Tuning for the durable store (fsync policy, memtable budget).
    /// Ignored without `data_dir`.
    pub store: qrec_store::StoreConfig,
    /// Numeric mode for decoding. [`QuantMode::Int8`] quantizes the
    /// boot model and every hot-swapped model at install time. The zoo
    /// persists f32 weights only; a restart quantizes the recovered
    /// model again, to the same int8 bytes.
    pub quant: QuantMode,
    /// Width of one telemetry window (DESIGN.md §17). Clamped to at
    /// least one millisecond.
    pub window_width: Duration,
    /// Sealed telemetry windows retained in memory (the `HISTORY` ring).
    pub window_buckets: usize,
    /// Start the sampling wall-clock profiler with the server (the
    /// `PROF` verb reports whatever has been collected; the profiler
    /// can also be toggled per-process via `qrec_obs::prof`).
    pub profiler: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 8192,
            max_line_bytes: 256 * 1024,
            outbox_soft_bytes: 64 * 1024,
            outbox_hard_bytes: 1024 * 1024,
            idle_timeout: Duration::from_secs(15 * 60),
            drain_timeout: Duration::from_secs(5),
            engine: EngineConfig::default(),
            session_ttl: Duration::from_secs(30 * 60),
            cache_capacity: 1024,
            data_dir: None,
            store: qrec_store::StoreConfig::default(),
            quant: QuantMode::F32,
            window_width: Duration::from_secs(10),
            window_buckets: 60,
            profiler: false,
        }
    }
}

/// Mutex pairing with [`std::sync::Condvar`] for shutdown signalling.
/// The rest of the crate standardizes on `parking_lot`, but the shim
/// has no `Condvar`, so two locks stay on std's primitives: this flag
/// and the decode engine's job queue.
// qrec-lint: allow(shim-surface-drift) -- parking_lot shim has no Condvar; std Mutex+Condvar is the only wait/notify pair available offline
type ShutdownMutex = std::sync::Mutex<bool>;

/// State the event loop shares with the owning [`Server`].
pub(crate) struct Shared {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) store: Arc<SessionStore>,
    pub(crate) cache: Arc<RecCache>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) engine: Arc<DecodeEngine>,
    /// Windowed telemetry engine (windows + sketch + drift + history).
    pub(crate) telemetry: Arc<Telemetry>,
    /// Durable tier behind the session store, when configured.
    durable: Option<Arc<Store>>,
    /// Persistent model zoo, when configured.
    zoo: Option<ModelZoo>,
    /// Numeric mode applied to every installed model.
    quant: QuantMode,
    pub(crate) shutdown: AtomicBool,
    /// Signalled when a client issues the SHUTDOWN verb; see
    /// [`ShutdownMutex`].
    shutdown_requested: ShutdownMutex,
    shutdown_cv: std::sync::Condvar,
}

impl Shared {
    fn lock_requested(&self) -> std::sync::MutexGuard<'_, bool> {
        self.shutdown_requested
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn request_shutdown(&self) {
        let mut g = self.lock_requested();
        *g = true;
        self.shutdown_cv.notify_all();
    }
}

/// A running recommendation server.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The event-loop thread and its wakeup handle.
    loop_handle: Option<thread::JoinHandle<()>>,
    loop_waker: Arc<polling::Waker>,
    /// The housekeeping thread ([`housekeeping`]) and its stop flag.
    housekeeping_stop: Arc<AtomicBool>,
    housekeeping: Option<thread::JoinHandle<()>>,
    /// True when this server started the sampling profiler (and so owns
    /// stopping it).
    profiler_started: bool,
}

impl Server {
    /// Train-free start: serve an already trained model on `addr`
    /// (use port 0 for an ephemeral port; read it back with
    /// [`Server::local_addr`]).
    ///
    /// With [`ServerConfig::data_dir`] set, startup first recovers the
    /// durable state: the session store replays its WAL (healing a torn
    /// tail), and the model zoo's `CURRENT` model — when one was
    /// persisted — replaces `model`, with the registry resuming at the
    /// persisted epoch. A corrupt zoo blob or manifest is a hard boot
    /// error: the server refuses to serve garbage weights.
    pub fn start(
        model: Recommender,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        let store_err = |e: qrec_store::StoreError| std::io::Error::other(e.to_string());
        let mut durable: Option<Arc<Store>> = None;
        let mut zoo: Option<ModelZoo> = None;
        let mut boot_model = model;
        let mut boot_epoch = 1u64;
        if let Some(dir) = &cfg.data_dir {
            let sessions = Store::open(&dir.join("sessions"), cfg.store).map_err(store_err)?;
            durable = Some(Arc::new(sessions));
            let z = ModelZoo::open(&dir.join("zoo")).map_err(store_err)?;
            match z.load_current().map_err(store_err)? {
                Some((epoch, recovered)) => {
                    // The zoo's model is the newest the previous process
                    // served; it outranks the caller's boot model.
                    boot_model = recovered;
                    boot_epoch = epoch;
                }
                None => {
                    // First boot with persistence: seed the zoo so a
                    // crash before the first swap still recovers.
                    z.save(boot_epoch, &boot_model).map_err(store_err)?;
                }
            }
            zoo = Some(z);
        }
        // The config's quant mode is authoritative over whatever state
        // the model that will serve arrives in: Int8 builds the sidecar
        // from its f32 weights, F32 strips it so the bitwise reference
        // path serves.
        apply_quant_mode(&mut boot_model, cfg.quant);

        let registry = Arc::new(ModelRegistry::with_epoch(boot_model, boot_epoch));
        let store = Arc::new(match &durable {
            Some(d) => SessionStore::with_durable(
                SESSION_SHARDS,
                SESSION_WINDOW,
                cfg.session_ttl,
                Arc::clone(d),
            ),
            None => SessionStore::new(SESSION_SHARDS, SESSION_WINDOW, cfg.session_ttl),
        });
        let cache = Arc::new(RecCache::new(cfg.cache_capacity));
        let metrics = Arc::new(Metrics::new());
        let engine = Arc::new(DecodeEngine::start(
            cfg.engine.clone(),
            Arc::clone(&registry),
            Arc::clone(&cache),
            Arc::clone(&metrics),
        )?);

        // Telemetry: windowed deltas + template sketch + drift, with an
        // optional durable frame log rebuilt before serving starts.
        let telemetry = Arc::new(Telemetry::new(
            &metrics,
            cfg.window_width,
            cfg.window_buckets,
        ));
        let mut tlog: Option<TelemetryLog> = None;
        if let Some(dir) = &cfg.data_dir {
            let (log, frames) = TelemetryLog::open(
                &dir.join("telemetry.log"),
                qrec_store::tlog::DEFAULT_MAX_BYTES,
                qrec_store::FsyncPolicy::Never,
            )
            .map_err(store_err)?;
            telemetry.restore(&frames);
            tlog = Some(log);
        }
        {
            // Every parsed query feeds the template sketch.
            let telemetry = Arc::clone(&telemetry);
            store.set_template_sink(move |id| telemetry.note_template(id));
        }
        let shared = Arc::new(Shared {
            registry,
            store,
            cache,
            metrics,
            engine,
            telemetry,
            durable,
            zoo,
            quant: cfg.quant,
            shutdown: AtomicBool::new(false),
            shutdown_requested: ShutdownMutex::new(false),
            shutdown_cv: std::sync::Condvar::new(),
        });

        let limits = LoopLimits {
            max_connections: cfg.max_connections.max(1),
            max_line_bytes: cfg.max_line_bytes.max(1024),
            outbox_soft_bytes: cfg.outbox_soft_bytes.max(1024),
            outbox_hard_bytes: cfg.outbox_hard_bytes.max(cfg.outbox_soft_bytes.max(1024)),
            idle_timeout: cfg.idle_timeout,
            drain_timeout: cfg.drain_timeout,
        };
        let (mut lp, loop_waker) = EventLoop::new(listener, Arc::clone(&shared), limits)?;

        // From here on a failed spawn drops `server`, whose shutdown
        // stops and joins whatever thread already started.
        let mut server = Server {
            addr: local,
            shared,
            loop_handle: None,
            loop_waker,
            housekeeping_stop: Arc::new(AtomicBool::new(false)),
            housekeeping: None,
            profiler_started: cfg.profiler && qrec_obs::prof::start(),
        };
        server.housekeeping = {
            let store = Arc::clone(&server.shared.store);
            let telemetry = Arc::clone(&server.shared.telemetry);
            let evicted = Arc::clone(&server.shared.metrics.sessions_evicted);
            let stop = Arc::clone(&server.housekeeping_stop);
            let sweep_every = (cfg.session_ttl / 60).max(Duration::from_millis(1));
            Some(
                thread::Builder::new()
                    .name("qrec-serve-housekeeping".into())
                    .spawn(move || {
                        housekeeping(&store, &evicted, &telemetry, tlog, &stop, sweep_every)
                    })?,
            )
        };
        server.loop_handle = Some(
            thread::Builder::new()
                .name("qrec-serve-loop".into())
                .spawn(move || lp.run())?,
        );
        Ok(server)
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model registry, for hot-swapping from the owning process.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Serving metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// The session store.
    pub fn sessions(&self) -> &Arc<SessionStore> {
        &self.shared.store
    }

    /// The telemetry engine (windows, sketch, drift, history). Tests
    /// drive window boundaries through it with a fake clock.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// The current model epoch (continues across restarts when a model
    /// zoo is configured).
    pub fn model_epoch(&self) -> u64 {
        self.shared.registry.epoch()
    }

    /// Hot-swap the serving model; returns the new epoch. In-flight
    /// requests finish on the old model. With persistence configured, a
    /// failed zoo save is recorded in the error counter but the
    /// in-memory swap stands — use [`Server::try_swap_model`] when the
    /// caller must know the new model is durable.
    pub fn swap_model(&self, model: Recommender) -> u64 {
        match self.try_swap_model(model) {
            Ok(epoch) => epoch,
            Err(_) => {
                self.shared.metrics.errors.inc();
                self.shared.registry.epoch()
            }
        }
    }

    /// Hot-swap the serving model and, when persistence is configured,
    /// persist it to the model zoo before returning. On
    /// [`ServeError::Store`] the swap has already taken effect in
    /// memory but is *not* durable — a restart would recover the
    /// previously persisted model.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the zoo write fails.
    pub fn try_swap_model(&self, mut model: Recommender) -> Result<u64, ServeError> {
        apply_quant_mode(&mut model, self.shared.quant);
        let epoch = self.shared.registry.swap(model);
        self.shared.metrics.swaps.inc();
        if let Some(zoo) = &self.shared.zoo {
            // Persist whatever is current *now*: if another swap raced
            // in between, saving the newer model is still correct.
            let (cur_epoch, cur_model) = self.shared.registry.current();
            zoo.save(cur_epoch, &cur_model)
                .map_err(|e| ServeError::Store(e.to_string()))?;
        }
        Ok(epoch)
    }

    /// Block until a client sends the `SHUTDOWN` verb (or the timeout
    /// elapses). Returns true when shutdown was requested.
    pub fn wait_for_shutdown_request(&self, timeout: Option<Duration>) -> bool {
        let mut g = self.shared.lock_requested();
        match timeout {
            None => {
                while !*g {
                    g = self
                        .shared
                        .shutdown_cv
                        .wait(g)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                true
            }
            Some(t) => {
                let deadline = std::time::Instant::now() + t;
                while !*g {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    g = self
                        .shared
                        .shutdown_cv
                        .wait_timeout(g, deadline.saturating_duration_since(now))
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0;
                }
                true
            }
        }
    }

    /// Gracefully stop: finish accepted work, join every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.request_shutdown();
        // The waker interrupts the poll so the loop sees the flag now
        // rather than on its next timeout; it then drains in-flight
        // requests and exits.
        let _ = self.loop_waker.wake();
        if let Some(h) = self.loop_handle.take() {
            let _ = h.join();
        }
        // Housekeeping: stop sweeping and sealing, flush the durable log.
        self.housekeeping_stop.store(true, Ordering::Release);
        if let Some(h) = self.housekeeping.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        if self.profiler_started {
            self.profiler_started = false;
            qrec_obs::prof::stop();
        }
        // Disconnect the decode queue and join the workers. The loop has
        // exited and dropped its handle on the shared state, so this one
        // holds the engine alone.
        if let Some(engine) =
            Arc::get_mut(&mut self.shared).and_then(|shared| Arc::get_mut(&mut shared.engine))
        {
            engine.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The server's one background thread beside the loop and the decode
/// workers: it evicts idle sessions every `sweep_every` (counting them
/// in `evicted`, the one eviction count STATS and DUMP read), seals each
/// telemetry window at its deadline (appending the frame to the durable
/// log, when there is one), and parks until the nearer of the two
/// deadlines or until [`Server::shutdown`] unparks it.
fn housekeeping(
    store: &SessionStore,
    evicted: &Counter,
    telemetry: &Telemetry,
    mut tlog: Option<TelemetryLog>,
    housekeeping_stop: &AtomicBool,
    sweep_every: Duration,
) {
    qrec_obs::prof::register_thread("housekeeping");
    let mut next_sweep = Instant::now() + sweep_every;
    while !housekeeping_stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now >= next_sweep {
            evicted.add(store.sweep(now) as u64);
            next_sweep = now + sweep_every;
        }
        if let Some(frame) = telemetry.tick(now) {
            if let Some(log) = tlog.as_mut() {
                if let Ok(bytes) = serde_json::to_vec(&frame) {
                    // Telemetry persistence is best effort: a full disk
                    // must not take serving down.
                    let _ = log.append_frame(&bytes);
                }
            }
        }
        let wake = next_sweep.min(telemetry.next_due());
        thread::park_timeout(wake.saturating_duration_since(Instant::now()));
    }
    if let Some(log) = tlog.as_mut() {
        let _ = log.sync();
    }
}

/// Make a model match the server's configured numeric mode.
fn apply_quant_mode(model: &mut Recommender, mode: QuantMode) {
    match mode {
        QuantMode::Int8 => model.quantize(),
        QuantMode::F32 => model.dequantize(),
    }
}

/// Where a parsed request line goes next.
///
/// Control verbs resolve inline (they only read atomics, registries,
/// and snapshots), so the loop answers them on the spot. RECOMMEND is
/// the one verb that may run a model: the loop answers it from the cache
/// when it can, else hands it to the decode engine and keeps polling.
pub(crate) enum Dispatch {
    /// The response is ready (boxed: a STATS snapshot dwarfs a
    /// `Request`); the bool asks the caller to close the connection
    /// after flushing it (SHUTDOWN acknowledgement).
    Done(Box<Response>, bool),
    /// A RECOMMEND for the loop to validate and serve or submit.
    Recommend(Request),
    /// A `WATCH` subscription: the loop marks the connection as a
    /// watcher and streams one line per sealed window.
    Watch,
}

/// Parse and route one request line. Every verb but RECOMMEND is fully
/// handled here.
pub(crate) fn dispatch_parsed(line: &str, shared: &Shared) -> Dispatch {
    shared.metrics.requests.inc();
    let req: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.errors.inc();
            return Dispatch::Done(
                Box::new(Response::err(&ServeError::BadRequest(format!(
                    "invalid JSON: {e}"
                )))),
                false,
            );
        }
    };
    match req.verb.to_ascii_uppercase().as_str() {
        "PING" => Dispatch::Done(Box::new(Response::ok()), false),
        "RECOMMEND" => Dispatch::Recommend(req),
        "STATS" => Dispatch::Done(Box::new(stats(shared)), false),
        "TRACE" => Dispatch::Done(Box::new(traces(&req)), false),
        "DUMP" => Dispatch::Done(Box::new(dump()), false),
        "HISTORY" => Dispatch::Done(Box::new(history(&req, shared)), false),
        "WATCH" => Dispatch::Watch,
        "PROF" => Dispatch::Done(Box::new(prof(&req)), false),
        "SHUTDOWN" => {
            shared.request_shutdown();
            Dispatch::Done(Box::new(Response::ok()), true)
        }
        other => {
            shared.metrics.errors.inc();
            Dispatch::Done(
                Box::new(Response::err(&ServeError::BadRequest(format!(
                    "unknown verb {other:?}"
                )))),
                false,
            )
        }
    }
}

/// `TRACE`: recent flight records (client-bounded by `n`) plus the
/// slowest-seen reservoir.
fn traces(req: &Request) -> Response {
    let n = req.n.map(|n| n as usize).unwrap_or(DEFAULT_TRACE_N);
    let recorder = flight::global();
    Response::traces(recorder.recent(n), recorder.slowest())
}

/// `HISTORY`: the newest `n` sealed telemetry windows (all of the ring
/// when `n` is omitted), oldest first.
fn history(req: &Request, shared: &Shared) -> Response {
    let n = req.n.map(|n| n as usize).unwrap_or(usize::MAX);
    Response::history(shared.telemetry.history(n))
}

/// `PROF`: the sampling profiler's folded-stack report, top `n` stacks.
fn prof(req: &Request) -> Response {
    let n = req.n.map(|n| n as usize).unwrap_or(DEFAULT_PROF_N);
    Response::prof(qrec_obs::prof::report(n))
}

/// `DUMP`: Prometheus-style exposition of the global registry — every
/// family once, the nn decode and tensor dispatch counters included.
fn dump() -> Response {
    Response::dump(qrec_obs::expo::render(qrec_obs::global()))
}

fn stats(shared: &Shared) -> Response {
    let mut snapshot = shared.metrics.snapshot();
    // The durable tier's stats live on the Store handle.
    if let Some(durable) = &shared.durable {
        snapshot.store = durable.stats();
    }
    // And for the telemetry engine: windows seal outside Metrics.
    snapshot.window = shared.telemetry.summary();
    snapshot.drift = shared.telemetry.latest_drift();
    Response {
        ok: true,
        stats: Some(StatsReply {
            metrics: snapshot,
            sessions: shared.store.len() as u64,
            cache_entries: shared.cache.len() as u64,
            model_epoch: shared.registry.epoch(),
            model_quantized: shared.registry.current().1.is_quantized(),
        }),
        ..Response::default()
    }
}
