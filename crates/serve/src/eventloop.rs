//! The readiness-based TCP front end (DESIGN.md §16).
//!
//! One thread owns a [`polling::Poller`] and every connection. Sockets
//! are non-blocking; each connection is a small state machine holding a
//! [`FrameBuf`] for incremental JSONL reassembly, a bounded outbox for
//! buffered writes, and an ordering queue so pipelined requests answer
//! in arrival order.
//!
//! The loop executes what it can finish in microseconds without ever
//! blocking, and nothing else. Control verbs answer inline. A RECOMMEND
//! is answered inline when it hits the recommendation cache: with a
//! memory-only session store the loop parses the statement (at most
//! `LOOP_PARSE_MAX_BYTES` of it), pushes it, probes the cache on the
//! session's window and ranks the reply on the spot
//! (`EventLoop::try_on_loop`) — the most common request of a warm server
//! never leaves this thread. Everything else goes to the decode worker
//! pool via [`crate::batcher::DecodeEngine::submit_callback`]: a window
//! the cache does not hold (the model runs there), any statement longer
//! than the cap, and — when a data directory is configured — every
//! request, with the session push deferred to the worker, because the
//! WAL write that must precede the acknowledgement may fsync and a
//! blocked loop stalls every connection. Completions come back through a
//! channel plus a [`polling::Waker`] that interrupts the poll.
//!
//! The backpressure ladder, outside-in:
//!
//! 1. outbox over the soft watermark (or too many queued pipelined
//!    frames) → stop reading from that client; its TCP window closes
//!    and backpressure propagates to the sender.
//! 2. outbox over the hard cap → typed [`ServeError::SlowConsumer`]
//!    disconnect; the server never buffers a client without bound.
//! 3. decode queue full → typed `Overloaded` response.
//!
//! Idle connections cost one slab slot and one timer-wheel entry; the
//! idle timeout reclaims them. Transient accept errors (EMFILE/ENFILE)
//! park the listener's interest and re-enable it after a backoff — a
//! level-triggered listener with pending connections would otherwise
//! spin the loop at 100% CPU.

use crossbeam::channel::{unbounded, Receiver, Sender};
use polling::{Events, Interest, Poller, Token, Waker};
use qrec_obs::{flight, trace, Span, TraceContext};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::batcher::{answer_cached, DecodeRequest, PrepareFn, Recommendation};
use crate::cache::CacheKey;
use crate::error::ServeError;
use crate::framing::{FrameBuf, FrameError};
use crate::metrics::Metrics;
use crate::protocol::{Request, Response, DEFAULT_N};
use crate::server::{Dispatch, Shared};
use crate::timer::TimerWheel;

const TOKEN_LISTENER: Token = Token(0);
const TOKEN_WAKER: Token = Token(1);
/// Connection slab slot `i` registers as token `i + TOKEN_CONN_BASE`.
const TOKEN_CONN_BASE: usize = 2;

/// Pipelined frames a connection may queue behind an in-flight request;
/// beyond this the loop stops reading from it (ladder rung 1).
const PENDING_MAX: usize = 64;

/// Longest statement the loop parses itself. Parsing is linear in the
/// statement, and a typical one (a few hundred bytes) costs ~10 µs; a
/// 256 KiB line — the frame limit — would hold every other connection
/// for milliseconds. This is a property of the input the loop can see,
/// not a setting: longer statements ride to a worker as all statements
/// once did.
pub const LOOP_PARSE_MAX_BYTES: usize = 8 * 1024;

/// How long a transient accept error parks the listener.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Timer-wheel granularity. Idle timeouts are second-scale; 100ms slots
/// keep the worst-case overshoot invisible.
const WHEEL_TICK: Duration = Duration::from_millis(100);
const WHEEL_SLOTS: usize = 256;

/// Per-connection limits, copied out of `ServerConfig`.
#[derive(Debug, Clone)]
pub(crate) struct LoopLimits {
    pub max_connections: usize,
    pub max_line_bytes: usize,
    pub outbox_soft_bytes: usize,
    pub outbox_hard_bytes: usize,
    pub idle_timeout: Duration,
    pub drain_timeout: Duration,
}

/// A finished request coming back from a decode worker.
pub(crate) struct Completion {
    slot: usize,
    /// Generation of the connection that submitted the request; a
    /// mismatch means the slot was reused and the result is dropped.
    gen: u64,
    /// Serialised response line (newline included), built on the worker
    /// so the loop only copies bytes.
    payload: Vec<u8>,
}

/// What the loop's own attempt at a RECOMMEND came to
/// ([`EventLoop::try_on_loop`]).
enum LoopSide {
    /// The reply line is ready: a cache hit, or a statement that does
    /// not parse.
    Done(Vec<u8>),
    /// The window is resolved and the cache has no ranking for it: a
    /// worker decodes these tokens.
    Decode(Vec<String>),
    /// Not the loop's to touch — a durable session tier, or a statement
    /// over [`LOOP_PARSE_MAX_BYTES`]: a worker runs the push too.
    Defer,
}

/// What to do after a failed `accept(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptAction {
    /// The failed connection is consumed; keep accepting this tick.
    Retry,
    /// Resource pressure (or an unknown error): park the listener and
    /// re-enable after [`ACCEPT_BACKOFF`]. Never spin.
    Backoff,
}

/// Classify an `accept(2)` error. `WouldBlock` never reaches here (the
/// caller treats it as "accept queue drained").
fn accept_error_action(e: &std::io::Error) -> AcceptAction {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ECONNABORTED: i32 = 103;
    match e.raw_os_error() {
        // The connection aborted before we accepted it; nothing is
        // wrong with the listener. Keep draining the queue.
        Some(ECONNABORTED) => AcceptAction::Retry,
        // Fd exhaustion: accepting cannot succeed until something
        // closes, and a level-triggered listener with a pending backlog
        // reports readable forever. Park it; closed fds free capacity.
        Some(ENFILE) | Some(EMFILE) => AcceptAction::Backoff,
        _ if e.kind() == ErrorKind::Interrupted => AcceptAction::Retry,
        // Unknown errors: backing off is always safe; retrying might
        // spin on a persistent failure.
        _ => AcceptAction::Backoff,
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Monotonic id guarding against slab-slot reuse: completions and
    /// timers carry it and are dropped on mismatch.
    gen: u64,
    frame: FrameBuf,
    /// Buffered outgoing bytes; `out_pos` marks how much is written.
    outbox: Vec<u8>,
    out_pos: usize,
    /// Interest currently registered with the poller (cached so
    /// unchanged ticks skip the `epoll_ctl` syscall).
    interest: Interest,
    /// A request is executing on the worker pool.
    inflight: bool,
    /// Complete frames waiting their turn behind the in-flight request.
    pending: VecDeque<Vec<u8>>,
    /// Close once the outbox drains (SHUTDOWN ack, typed rejection).
    close_after_flush: bool,
    /// Peer sent EOF; finish in-flight work, flush, then close.
    peer_closed: bool,
    /// Subscribed to the telemetry stream (`WATCH`): every sealed
    /// window is enqueued as one response line. The regular outbox
    /// backpressure ladder applies, so a watcher that stops reading is
    /// disconnected as a slow consumer like anyone else.
    watching: bool,
    last_activity: Instant,
}

impl Conn {
    fn outbox_len(&self) -> usize {
        self.outbox.len() - self.out_pos
    }

    /// The interest this connection's state wants right now.
    fn desired_interest(&self, soft: usize) -> Interest {
        let throttled =
            self.outbox_len() > soft || self.pending.len() >= PENDING_MAX || self.peer_closed;
        match (!throttled, self.outbox_len() > 0) {
            (true, true) => Interest::BOTH,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            (false, false) => Interest::NONE,
        }
    }
}

/// The event loop itself; owned and driven by one thread.
pub(crate) struct EventLoop {
    poller: Poller,
    waker: Arc<Waker>,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots freed during the current tick; merged into `free` only at
    /// tick end so events already harvested can't hit a reused slot.
    freed_this_tick: Vec<usize>,
    open: usize,
    next_gen: u64,
    wheel: TimerWheel,
    completion_tx: Sender<Completion>,
    completions: Receiver<Completion>,
    shared: Arc<Shared>,
    limits: LoopLimits,
    /// Shared read buffer (one read per readiness event).
    scratch: Vec<u8>,
    /// Listener parked until this instant after a transient accept
    /// error.
    unpark_at: Option<Instant>,
    /// Set when shutdown begins: the drain deadline.
    drain_deadline: Option<Instant>,
    /// Loop-local outbox high-water mark, republished to the gauge.
    outbox_high_water: usize,
    /// Newest telemetry window already broadcast to watchers; `None`
    /// until the first broadcast considers the ring.
    watch_cursor: Option<u64>,
}

impl EventLoop {
    /// Build the loop around an already bound listener. The waker is
    /// created here (it must register with this poller) and handed back
    /// via the `Arc` for the server's shutdown path.
    pub(crate) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        limits: LoopLimits,
    ) -> std::io::Result<(EventLoop, Arc<Waker>)> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(&listener, TOKEN_LISTENER, Interest::READABLE)?;
        let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER)?);
        let (completion_tx, completions) = unbounded();
        // Windows sealed before the loop starts (restored history) are
        // the `HISTORY` verb's business; WATCH streams only what seals
        // from now on.
        let watch_cursor = shared.telemetry.latest_seq();
        let lp = EventLoop {
            poller,
            waker: Arc::clone(&waker),
            listener: Some(listener),
            conns: Vec::new(),
            free: Vec::new(),
            freed_this_tick: Vec::new(),
            open: 0,
            next_gen: 1,
            wheel: TimerWheel::new(WHEEL_TICK, WHEEL_SLOTS, Instant::now()),
            completion_tx,
            completions,
            shared,
            limits,
            scratch: vec![0; 64 * 1024],
            unpark_at: None,
            drain_deadline: None,
            outbox_high_water: 0,
            watch_cursor,
        };
        Ok((lp, waker))
    }

    /// Run until shutdown completes its drain.
    pub(crate) fn run(&mut self) {
        qrec_obs::prof::register_thread("event-loop");
        let mut events = Events::new();
        loop {
            if !self.tick_event_loop(&mut events) {
                return;
            }
        }
    }

    /// One loop iteration: poll, then handle readiness, completions,
    /// timers, and shutdown. Returns false when the loop is done.
    ///
    /// Everything reachable from here must be non-blocking — qrec-lint's
    /// R10 treats `tick*` functions as hot entries for exactly this
    /// invariant.
    fn tick_event_loop(&mut self, events: &mut Events) -> bool {
        let now = Instant::now();
        self.tick_unpark(now);
        let timeout = self.poll_timeout(now);
        match self.poller.wait(events, Some(timeout)) {
            Ok(n) => {
                if n > 0 {
                    Metrics::bump(&self.shared.metrics.frontend.poll_wakeups);
                }
            }
            Err(_) => return true, // transient poll failure: next tick
        }

        for ev in events.iter() {
            match ev.token {
                TOKEN_LISTENER => self.tick_accept(),
                TOKEN_WAKER => self.waker.drain(),
                Token(t) => {
                    let slot = t - TOKEN_CONN_BASE;
                    if ev.readable || ev.hangup {
                        self.tick_read(slot);
                    }
                    if ev.writable {
                        self.tick_flush(slot);
                    }
                }
            }
        }

        // Completions can arrive with or without a waker event (the
        // waker coalesces); always drain the channel.
        self.tick_completions();

        let now = Instant::now();
        self.tick_timers(now);
        self.tick_watch();

        let done = self.tick_shutdown(now);

        // Safe to reuse slots freed this tick: the event batch is spent.
        self.free.append(&mut self.freed_this_tick);
        self.shared
            .metrics
            .frontend
            .conns_open
            .set(self.open as u64);
        !done
    }

    /// How long the poller may sleep: bounded by the nearest timer, the
    /// listener unpark, and a coarse heartbeat.
    fn poll_timeout(&self, now: Instant) -> Duration {
        let mut t = Duration::from_millis(500);
        if let Some(w) = self.wheel.next_wakeup(now) {
            t = t.min(w);
        }
        if let Some(u) = self.unpark_at {
            t = t.min(u.saturating_duration_since(now));
        }
        if self.drain_deadline.is_some() {
            t = t.min(Duration::from_millis(10));
        }
        t.max(Duration::from_millis(1))
    }

    /// Re-enable a parked listener once its backoff has elapsed.
    fn tick_unpark(&mut self, now: Instant) {
        if let (Some(at), Some(listener)) = (self.unpark_at, &self.listener) {
            if now >= at {
                let _ = self
                    .poller
                    .reregister(listener, TOKEN_LISTENER, Interest::READABLE);
                self.unpark_at = None;
            }
        }
    }

    /// Drain the accept queue: admit up to the connection cap, send a
    /// typed rejection beyond it, and back off on transient errors.
    fn tick_accept(&mut self) {
        loop {
            let accepted = {
                let Some(listener) = &self.listener else {
                    return;
                };
                listener.accept()
            };
            match accepted {
                Ok((stream, _peer)) => {
                    if self.open >= self.limits.max_connections {
                        self.reject_over_cap(stream);
                    } else {
                        self.admit(stream);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) => match accept_error_action(&e) {
                    AcceptAction::Retry => continue,
                    AcceptAction::Backoff => {
                        Metrics::bump(&self.shared.metrics.frontend.accept_backoffs);
                        if let Some(listener) = &self.listener {
                            let _ =
                                self.poller
                                    .reregister(listener, TOKEN_LISTENER, Interest::NONE);
                        }
                        self.unpark_at = Some(Instant::now() + ACCEPT_BACKOFF);
                        return;
                    }
                },
            }
        }
    }

    /// Over the cap: one best-effort typed error line, then drop. The
    /// write is non-blocking; a full socket buffer just loses the
    /// courtesy message, never stalls the loop.
    fn reject_over_cap(&mut self, stream: TcpStream) {
        Metrics::bump(&self.shared.metrics.frontend.rejected_cap);
        let _ = stream.set_nonblocking(true);
        let mut payload = Response::err(&ServeError::Overloaded)
            .to_json_line()
            .into_bytes();
        payload.push(b'\n');
        let mut s = stream;
        let _ = s.write(&payload);
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        // Clamp the kernel send buffer to the soft watermark. Left to
        // auto-tune, Linux grows it toward wmem_max (megabytes), which
        // would let a slow reader park that much memory in the kernel
        // before the outbox ladder ever engages; with the clamp, total
        // per-connection buffering stays on the order of the configured
        // caps. Best-effort: a refused option just means default tuning.
        let _ = polling::set_send_buffer_size(&stream, self.limits.outbox_soft_bytes);
        let gen = self.next_gen;
        self.next_gen += 1;
        let now = Instant::now();
        let conn = Conn {
            stream,
            gen,
            frame: FrameBuf::new(self.limits.max_line_bytes),
            outbox: Vec::new(),
            out_pos: 0,
            interest: Interest::READABLE,
            inflight: false,
            pending: VecDeque::new(),
            close_after_flush: false,
            peer_closed: false,
            watching: false,
            last_activity: now,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.conns[s] = Some(conn);
                s
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let registered = match self.conns[slot].as_ref() {
            Some(c) => self
                .poller
                .register(&c.stream, Token(slot + TOKEN_CONN_BASE), Interest::READABLE)
                .is_ok(),
            None => false,
        };
        if !registered {
            self.conns[slot] = None;
            self.free.push(slot);
            return;
        }
        self.open += 1;
        Metrics::bump(&self.shared.metrics.frontend.accepted);
        self.wheel
            .schedule(now + self.limits.idle_timeout, timer_key(slot, gen));
    }

    /// Drop a connection. The stream's fd closes with it, which
    /// deregisters it from epoll implicitly.
    fn close(&mut self, slot: usize) {
        if let Some(entry) = self.conns.get_mut(slot) {
            if entry.take().is_some() {
                self.open -= 1;
                self.freed_this_tick.push(slot);
            }
        }
    }

    /// Readable (or hangup) readiness on a connection: read once, feed
    /// the framer, dispatch what completed. Level triggering re-reports
    /// any input the single read left behind.
    fn tick_read(&mut self, slot: usize) {
        enum ReadOutcome {
            Close,
            Got,
            Eof,
            Nothing,
        }
        let outcome = {
            let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) else {
                return;
            };
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.peer_closed = true;
                    if !conn.inflight && conn.pending.is_empty() && conn.outbox_len() == 0 {
                        ReadOutcome::Close
                    } else {
                        ReadOutcome::Eof
                    }
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.frame.feed(&self.scratch[..n]);
                    ReadOutcome::Got
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted =>
                {
                    ReadOutcome::Nothing
                }
                Err(_) => ReadOutcome::Close,
            }
        };
        match outcome {
            ReadOutcome::Close => self.close(slot),
            ReadOutcome::Got => {
                self.tick_frames(slot);
                self.refresh_interest(slot);
            }
            ReadOutcome::Eof | ReadOutcome::Nothing => self.refresh_interest(slot),
        }
    }

    /// Pop completed frames and run them, preserving arrival order:
    /// while a request is in flight, later frames queue in `pending`.
    fn tick_frames(&mut self, slot: usize) {
        loop {
            enum FrameStep {
                Run(Vec<u8>),
                Queued,
                Paused,
                Dry,
                Oversized(usize),
                Closing,
            }
            let step = {
                let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) else {
                    return;
                };
                if conn.close_after_flush {
                    FrameStep::Closing
                } else {
                    match conn.frame.pop_frame() {
                        Ok(Some(frame)) => {
                            if conn.inflight || !conn.pending.is_empty() {
                                if conn.pending.len() >= PENDING_MAX {
                                    // Interest math already paused reads;
                                    // the frame stays in the FrameBuf.
                                    FrameStep::Paused
                                } else {
                                    conn.pending.push_back(frame);
                                    FrameStep::Queued
                                }
                            } else {
                                FrameStep::Run(frame)
                            }
                        }
                        Ok(None) => FrameStep::Dry,
                        Err(FrameError::Oversized(cap)) => FrameStep::Oversized(cap),
                    }
                }
            };
            match step {
                FrameStep::Run(frame) => self.run_frame(slot, frame),
                FrameStep::Queued => {}
                FrameStep::Paused | FrameStep::Dry | FrameStep::Closing => return,
                FrameStep::Oversized(cap) => {
                    // The stream offset is unrecoverable after an
                    // oversized line: typed rejection, then close.
                    Metrics::bump(&self.shared.metrics.requests);
                    Metrics::bump(&self.shared.metrics.errors);
                    let resp = Response::err(&ServeError::BadRequest(format!(
                        "request line exceeds the {cap}-byte limit"
                    )));
                    self.enqueue_response(slot, &resp, true);
                    return;
                }
            }
        }
    }

    /// Execute one frame: control verbs answer inline (they only read
    /// atomics and registries); RECOMMEND goes to the worker pool.
    fn run_frame(&mut self, slot: usize, frame: Vec<u8>) {
        let line = match std::str::from_utf8(&frame) {
            Ok(l) => l.trim(),
            Err(_) => {
                Metrics::bump(&self.shared.metrics.requests);
                Metrics::bump(&self.shared.metrics.errors);
                let resp =
                    Response::err(&ServeError::BadRequest("request line is not UTF-8".into()));
                self.enqueue_response(slot, &resp, false);
                return;
            }
        };
        if line.is_empty() {
            return; // blank lines are ignored
        }
        let shared = Arc::clone(&self.shared);
        match crate::server::dispatch_parsed(line, &shared) {
            Dispatch::Done(resp, close_after) => {
                self.enqueue_response(slot, &resp, close_after);
            }
            Dispatch::Recommend(req) => self.start_recommend(slot, req),
            Dispatch::Watch => {
                if let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) {
                    conn.watching = true;
                }
                self.enqueue_response(slot, &Response::ok(), false);
            }
        }
    }

    /// Stream freshly sealed telemetry windows to every watcher: one
    /// JSON response line per window, serialised once and fanned out
    /// through the normal outbox (so the backpressure ladder and the
    /// slow-consumer disconnect apply unchanged). The poll heartbeat
    /// bounds broadcast latency at ~500ms — far inside any practical
    /// window width.
    fn tick_watch(&mut self) {
        let frames = self.shared.telemetry.frames_after(self.watch_cursor);
        let Some(last) = frames.last() else {
            return;
        };
        self.watch_cursor = Some(last.window.seq);
        let watchers: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter(|(_, s)| s.as_ref().is_some_and(|c| c.watching))
            .map(|(i, _)| i)
            .collect();
        if watchers.is_empty() {
            return;
        }
        for frame in frames {
            let mut line = Response::watch(frame).to_json_line().into_bytes();
            line.push(b'\n');
            for &slot in &watchers {
                self.enqueue_bytes(slot, &line, false);
            }
        }
    }

    /// Serve a RECOMMEND: answer it here when the loop can
    /// ([`EventLoop::try_on_loop`]: a cache hit, or a statement that does
    /// not parse), else hand it to the decode engine — the worker decodes
    /// (and, when the loop could not, runs the session push as
    /// `prepare`), serialises the response, and posts a [`Completion`]
    /// through the waker.
    fn start_recommend(&mut self, slot: usize, req: Request) {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            let resp = Response::err(&ServeError::ShuttingDown);
            self.enqueue_response(slot, &resp, false);
            return;
        }
        let (Some(session), Some(sql)) = (req.session, req.sql) else {
            Metrics::bump(&self.shared.metrics.errors);
            let resp = Response::err(&ServeError::BadRequest(
                "RECOMMEND needs `session` and `sql`".into(),
            ));
            self.enqueue_response(slot, &resp, false);
            return;
        };
        let Some(gen) = self.conns.get(slot).and_then(|s| s.as_ref()).map(|c| c.gen) else {
            return;
        };
        let n = req.n.map(|n| n as usize).unwrap_or(DEFAULT_N);

        // Start the flight trace on the loop thread (stable request id,
        // queue depth at submission). A request answered here finishes it
        // here; otherwise it rides the DecodeRequest to the worker, which
        // records the remaining stages.
        let t0 = Instant::now();
        if let Some(ctx) = TraceContext::start(qrec_obs::next_request_id()) {
            trace::install(ctx);
        }
        trace::note_queue_depth(self.shared.engine.queued() as u64);

        let (tokens, prepare): (Vec<String>, Option<PrepareFn>) =
            match self.try_on_loop(&session, &sql, n, t0) {
                LoopSide::Done(line) => {
                    Metrics::bump(&self.shared.metrics.recommends);
                    // `inflight` stays false: `tick_frames` goes straight
                    // on to the connection's next pipelined frame.
                    self.enqueue_bytes(slot, &line, false);
                    return;
                }
                LoopSide::Decode(tokens) => (tokens, None),
                LoopSide::Defer => {
                    let store = Arc::clone(&self.shared.store);
                    let prepare = Box::new(move || store.push_sql(&session, &sql));
                    (Vec::new(), Some(prepare))
                }
            };

        let metrics = Arc::clone(&self.shared.metrics);
        let completion_tx = self.completion_tx.clone();
        let waker = Arc::clone(&self.waker);
        let reply = Box::new(move |result: Result<Recommendation, ServeError>| {
            let response = match result {
                Ok(rec) => {
                    if let Some(ctx) = rec.trace {
                        flight::global().record(ctx, t0.elapsed());
                    }
                    Response::recommendation(rec.fragments, rec.epoch, rec.cached)
                }
                Err(e) => {
                    Metrics::bump(&metrics.errors);
                    Response::err(&e)
                }
            };
            let payload = response_line(&response);
            // A send after loop teardown just drops the completion; the
            // connection is gone with the loop anyway.
            let _ = completion_tx.send(Completion { slot, gen, payload });
            let _ = waker.wake();
        });

        let dreq = DecodeRequest {
            tokens,
            n,
            trace: trace::uninstall(),
        };
        match self.shared.engine.submit_callback(dreq, prepare, reply) {
            Ok(()) => {
                Metrics::bump(&self.shared.metrics.recommends);
                if let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) {
                    conn.inflight = true;
                }
            }
            Err(e) => {
                match e {
                    ServeError::Overloaded => Metrics::bump(&self.shared.metrics.overloaded),
                    _ => Metrics::bump(&self.shared.metrics.errors),
                }
                let resp = Response::err(&e);
                self.enqueue_response(slot, &resp, false);
            }
        }
    }

    /// The part of a RECOMMEND the loop does itself, with the trace
    /// started by [`EventLoop::start_recommend`] installed: push the
    /// statement into a memory-only session store (the `"session"`
    /// stage), key the recommendation cache on the borrowed window, and
    /// on a hit rank the reply right here — no job, no boxed closures, no
    /// channel, no waker write, no second poll iteration. The flight
    /// record of such a request has `cache_hit` set, batch size 0, and no
    /// `batch_wait` or `decode` stage.
    ///
    /// Everything reachable from here must be non-blocking: the push is
    /// [`MemoryOnly`](crate::session_store::MemoryOnly)'s, which cannot
    /// reach the durable store, and statement length is capped by
    /// [`LOOP_PARSE_MAX_BYTES`].
    fn try_on_loop(&self, session: &str, sql: &str, n: usize, t0: Instant) -> LoopSide {
        let shared = &self.shared;
        let Some(sessions) = shared
            .store
            .memory_only()
            .filter(|_| sql.len() <= LOOP_PARSE_MAX_BYTES)
        else {
            return LoopSide::Defer;
        };
        let epoch = shared.registry.epoch();
        let session_stage = Span::enter_with("session", &shared.metrics.stage_session);
        let pushed = sessions.push_sql(session, sql, |ctx| {
            // The push is applied; what follows under the shard lock —
            // so that a miss takes the tokens of this very window — is
            // the cache and rank stages.
            drop(session_stage);
            let key = CacheKey::from_window(epoch, ctx.window_tokens());
            answer_cached(&shared.cache, &shared.metrics, &key, n, t0)
                .ok_or_else(|| ctx.input_tokens())
        });
        match pushed {
            Ok(Ok(fragments)) => {
                trace::note_batch(0, epoch);
                if let Some(ctx) = trace::uninstall() {
                    flight::global().record(ctx, t0.elapsed());
                }
                LoopSide::Done(response_line(&Response::recommendation(
                    fragments, epoch, true,
                )))
            }
            Ok(Err(tokens)) => LoopSide::Decode(tokens),
            Err(e) => {
                trace::uninstall();
                Metrics::bump(&shared.metrics.errors);
                LoopSide::Done(response_line(&Response::err(&e)))
            }
        }
    }

    /// Deliver worker results: match generation, enqueue the payload,
    /// and let the connection's queued frames proceed.
    fn tick_completions(&mut self) {
        while let Ok(c) = self.completions.try_recv() {
            {
                let Some(conn) = self.conns.get_mut(c.slot).and_then(|s| s.as_mut()) else {
                    continue; // connection closed mid-request
                };
                if conn.gen != c.gen {
                    continue; // slot reused; stale completion
                }
                conn.inflight = false;
            }
            self.enqueue_bytes(c.slot, &c.payload, false);
            self.tick_pending(c.slot);
        }
    }

    /// Run queued frames until one goes in flight (or the queue dries
    /// up), then resume popping frames the throttle left buffered.
    fn tick_pending(&mut self, slot: usize) {
        loop {
            let frame = {
                let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) else {
                    return;
                };
                if conn.inflight || conn.close_after_flush {
                    break;
                }
                match conn.pending.pop_front() {
                    Some(f) => f,
                    None => break,
                }
            };
            self.run_frame(slot, frame);
        }
        // The pending queue drained below its cap: frames still sitting
        // in the FrameBuf (while reads were paused) can be popped now.
        self.tick_frames(slot);
        enum EofStep {
            CloseNow,
            FlushThenClose,
            Keep,
        }
        let eof = match self.conns.get(slot).and_then(|s| s.as_ref()) {
            Some(conn) if conn.peer_closed && !conn.inflight && conn.pending.is_empty() => {
                if conn.outbox_len() == 0 {
                    EofStep::CloseNow
                } else {
                    EofStep::FlushThenClose
                }
            }
            Some(_) => EofStep::Keep,
            None => return,
        };
        match eof {
            EofStep::CloseNow => {
                self.close(slot);
                return;
            }
            EofStep::FlushThenClose => {
                if let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) {
                    conn.close_after_flush = true;
                }
            }
            EofStep::Keep => {}
        }
        self.refresh_interest(slot);
    }

    /// Serialise and enqueue a response line.
    fn enqueue_response(&mut self, slot: usize, resp: &Response, close_after: bool) {
        self.enqueue_bytes(slot, &response_line(resp), close_after);
    }

    /// Append bytes to a connection's outbox, enforce the hard cap, and
    /// flush opportunistically (most responses leave in this call
    /// without ever arming write interest).
    fn enqueue_bytes(&mut self, slot: usize, payload: &[u8], close_after: bool) {
        let hard = self.limits.outbox_hard_bytes;
        let depth = {
            let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) else {
                return;
            };
            if conn.close_after_flush {
                // A terminal line (shutdown ack, slow-consumer error)
                // is already queued; anything appended after it would
                // trail the connection's final response.
                return;
            }
            if conn.outbox_len() + payload.len() > hard {
                // Ladder rung 2: the client is not draining. One typed
                // error instead of the backlog, then disconnect.
                Metrics::bump(&self.shared.metrics.frontend.slow_disconnects);
                // Bytes up to `out_pos` are already on the wire and may
                // end mid-line; terminate the partial line so the typed
                // error stays parseable as its own JSONL line.
                let mid_line =
                    conn.out_pos > 0 && conn.outbox.get(conn.out_pos - 1) != Some(&b'\n');
                conn.outbox.clear();
                conn.out_pos = 0;
                if mid_line {
                    conn.outbox.push(b'\n');
                }
                let mut line = Response::err(&ServeError::SlowConsumer)
                    .to_json_line()
                    .into_bytes();
                line.push(b'\n');
                conn.outbox.extend_from_slice(&line);
                conn.close_after_flush = true;
            } else {
                // Compact the written prefix before growing further.
                if conn.out_pos > 0 && conn.out_pos == conn.outbox.len() {
                    conn.outbox.clear();
                    conn.out_pos = 0;
                } else if conn.out_pos > 8192 {
                    conn.outbox.drain(..conn.out_pos);
                    conn.out_pos = 0;
                }
                conn.outbox.extend_from_slice(payload);
                if close_after {
                    conn.close_after_flush = true;
                }
            }
            conn.outbox_len()
        };
        if depth > self.outbox_high_water {
            self.outbox_high_water = depth;
            self.shared
                .metrics
                .frontend
                .outbox_high_water
                .set(depth as u64);
        }
        self.tick_flush(slot);
    }

    /// Write as much of the outbox as the socket takes right now.
    fn tick_flush(&mut self, slot: usize) {
        let mut should_close = false;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) else {
                return;
            };
            while conn.out_pos < conn.outbox.len() {
                match conn.stream.write(&conn.outbox[conn.out_pos..]) {
                    Ok(0) => break,
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock
                            || e.kind() == ErrorKind::Interrupted =>
                    {
                        break;
                    }
                    Err(_) => {
                        should_close = true;
                        break;
                    }
                }
            }
            if !should_close && conn.out_pos == conn.outbox.len() {
                conn.outbox.clear();
                conn.out_pos = 0;
                if conn.close_after_flush {
                    should_close = true;
                }
            }
        }
        if should_close {
            self.close(slot);
        } else {
            self.refresh_interest(slot);
        }
    }

    /// Reconcile the connection's registered interest with what its
    /// state wants; a no-op when unchanged.
    fn refresh_interest(&mut self, slot: usize) {
        let soft = self.limits.outbox_soft_bytes;
        let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) else {
            return;
        };
        let want = conn.desired_interest(soft);
        if want != conn.interest {
            if self
                .poller
                .reregister(&conn.stream, Token(slot + TOKEN_CONN_BASE), want)
                .is_ok()
            {
                conn.interest = want;
            } else {
                self.close(slot);
            }
        }
    }

    /// Fire idle-timeout candidates. Expiry is lazily revalidated: a
    /// connection that saw traffic since scheduling is rescheduled for
    /// its remaining window instead of dropped.
    fn tick_timers(&mut self, now: Instant) {
        let mut fired = Vec::new();
        self.wheel.advance(now, &mut fired);
        for key in fired {
            let (slot, gen_low) = split_timer_key(key);
            enum TimerStep {
                Drop,
                Close,
                Reschedule(Instant, u64),
            }
            let step = match self.conns.get(slot).and_then(|s| s.as_ref()) {
                None => TimerStep::Drop,
                Some(conn) if conn.gen as u32 != gen_low => TimerStep::Drop,
                Some(conn) => {
                    let idle_for = now.saturating_duration_since(conn.last_activity);
                    if idle_for >= self.limits.idle_timeout && !conn.inflight {
                        TimerStep::Close
                    } else {
                        let base = if conn.inflight {
                            now
                        } else {
                            conn.last_activity
                        };
                        TimerStep::Reschedule(base + self.limits.idle_timeout, conn.gen)
                    }
                }
            };
            match step {
                TimerStep::Drop => {}
                TimerStep::Close => {
                    Metrics::bump(&self.shared.metrics.frontend.idle_disconnects);
                    self.close(slot);
                }
                TimerStep::Reschedule(at, gen) => {
                    self.wheel.schedule(at, timer_key(slot, gen));
                }
            }
        }
    }

    /// Shutdown state machine: stop accepting, let in-flight requests
    /// finish and flush, close the rest.
    /// Returns true when the loop should exit.
    fn tick_shutdown(&mut self, now: Instant) -> bool {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if self.drain_deadline.is_none() {
            // Closing the listener both refuses new connections and
            // frees the port before the loop finishes draining.
            self.listener = None;
            self.unpark_at = None;
            self.drain_deadline = Some(now + self.limits.drain_timeout);
        }
        for slot in 0..self.conns.len() {
            let keep = match self.conns.get(slot).and_then(|s| s.as_ref()) {
                // In-flight requests were accepted: they get their
                // reply. Everything else closes now.
                Some(conn) => conn.inflight || conn.outbox_len() > 0,
                None => true,
            };
            if !keep {
                self.close(slot);
            }
        }
        let deadline_passed = self.drain_deadline.is_some_and(|d| now >= d);
        self.open == 0 || deadline_passed
    }
}

/// A response as it goes on the wire: one JSON line, newline included.
fn response_line(resp: &Response) -> Vec<u8> {
    let mut line = resp.to_json_line().into_bytes();
    line.push(b'\n');
    line
}

/// Pack a slab slot and the low generation bits into a timer key.
fn timer_key(slot: usize, gen: u64) -> u64 {
    ((slot as u64) << 32) | u64::from(gen as u32)
}

fn split_timer_key(key: u64) -> (usize, u32) {
    ((key >> 32) as usize, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_errors_classify_transient_vs_backoff() {
        // ECONNABORTED: the one connection is gone, keep accepting.
        let aborted = std::io::Error::from_raw_os_error(103);
        assert_eq!(accept_error_action(&aborted), AcceptAction::Retry);
        // EMFILE / ENFILE: fd exhaustion must park, not spin.
        for code in [23, 24] {
            let e = std::io::Error::from_raw_os_error(code);
            assert_eq!(
                accept_error_action(&e),
                AcceptAction::Backoff,
                "errno {code} must back off"
            );
        }
        let eintr = std::io::Error::from(ErrorKind::Interrupted);
        assert_eq!(accept_error_action(&eintr), AcceptAction::Retry);
        // Anything unrecognised backs off — never a hot retry loop.
        let weird = std::io::Error::other("unexpected");
        assert_eq!(accept_error_action(&weird), AcceptAction::Backoff);
    }

    #[test]
    fn timer_keys_round_trip() {
        for (slot, gen) in [
            (0usize, 1u64),
            (17, 0xdead_beef),
            (usize::MAX >> 33, u64::MAX),
        ] {
            let (s, g) = split_timer_key(timer_key(slot, gen));
            assert_eq!(s, slot);
            assert_eq!(g, gen as u32);
        }
    }
}
