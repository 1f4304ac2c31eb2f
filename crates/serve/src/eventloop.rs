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
//! is answered inline when it hits the recommendation cache: the loop
//! parses the statement (at most `LOOP_PARSE_MAX_BYTES` of it), pushes
//! it through [`SessionStore::try_push`](crate::SessionStore::try_push),
//! probes the cache on the session's window and ranks the reply on the
//! spot (`EventLoop::try_on_loop`) — the most common request of a warm
//! server never leaves this thread, whichever kind of session store it
//! runs. With a data directory the push is a WAL append that must
//! precede the acknowledgement, and the loop takes it only when it
//! cannot wait: the loop never fsyncs, flushes a memtable, reads a run
//! or waits for a lock a worker can hold through one of those (the
//! store's writer lock, a durable session's shard lock). So under
//! `FsyncPolicy::Never` a push rides to a worker only when the session
//! is not resident (new, or evicted and due a rehydration), the
//! memtable is due a flush or a lock is busy; under `EveryN(n)` every
//! `n`-th append does too (it syncs); and under `Always`, the default,
//! every request does, unparsed. The loop holds a
//! [`qrec_store::forbid_waiting`] guard for its whole run, so in a debug
//! build a store call that may wait panics on it.
//! Everything else goes into the decode engine's bounded job queue via
//! [`crate::batcher::DecodeEngine::submit_callback`]: a window the cache
//! does not hold (the model runs there), any statement longer than the
//! cap, and a push that would wait — the worker finishes it from the
//! tokens the loop parsed, or parses it when the loop did not.
//! Completions come back through a [`std::sync::mpsc`] channel, whose
//! `Sender` each reply closure holds a clone of, plus a
//! [`polling::Waker`] that interrupts the poll.
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
//! Idle connections cost one slab slot; the idle timeout reclaims them
//! in slab passes at least `IDLE_CHECK_GAP` apart. Transient accept
//! errors (EMFILE/ENFILE) park the listener's interest and re-enable it
//! after a backoff — a level-triggered listener with pending
//! connections would otherwise spin the loop at 100% CPU.

use polling::{Events, Interest, Poller, Token, Waker};
use qrec_obs::{flight, trace, Span, TraceContext};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::batcher::{answer_cached, DecodeRequest, PrepareFn, Recommendation};
use crate::cache::CacheKey;
use crate::error::ServeError;
use crate::framing::{FrameBuf, FrameError};
use crate::protocol::{Request, Response, DEFAULT_N};
use crate::server::{Dispatch, Shared};
use crate::session_store::PendingPush;

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
/// The shortest gap between two idle checks. Connections whose
/// deadlines fall within it close in one slab pass, so a herd opened
/// over a few seconds costs at most one pass per gap, not one per
/// connection; a connection may outlive its timeout by up to this much.
const IDLE_CHECK_GAP: Duration = Duration::from_millis(100);

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
    /// The request's trace and its total, measured on the worker. The
    /// loop records it, so the box the flight ring displaces becomes the
    /// loop's spare for its next [`TraceContext::start`].
    trace: Option<(Box<TraceContext>, Duration)>,
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
    /// The push would wait, or the statement is over
    /// [`LOOP_PARSE_MAX_BYTES`]: a worker runs the push too, from the
    /// loop's parse when there was one.
    Defer(PendingPush),
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
    /// Monotonic id guarding against slab-slot reuse: completions carry
    /// it and are dropped on mismatch.
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
    /// The next idle check: no open connection can have been idle for
    /// `idle_timeout` before it. `None` until a connection is admitted,
    /// and after a check that finds none left open.
    idle_check_at: Option<Instant>,
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
        let (completion_tx, completions) = mpsc::channel();
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
            idle_check_at: None,
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
        // A store call that may wait panics here in debug builds.
        let _no_wait = qrec_store::forbid_waiting();
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
                    self.shared.metrics.frontend.poll_wakeups.inc();
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
        self.tick_idle(now);
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

    /// How long the poller may sleep: bounded by the idle check, the
    /// listener unpark, and a coarse heartbeat.
    fn poll_timeout(&self, now: Instant) -> Duration {
        let mut t = Duration::from_millis(500);
        for at in [self.idle_check_at, self.unpark_at].into_iter().flatten() {
            t = t.min(at.saturating_duration_since(now));
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
                        self.shared.metrics.frontend.accept_backoffs.inc();
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
        self.shared.metrics.frontend.rejected_cap.inc();
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
        self.shared.metrics.frontend.accepted.inc();
        self.idle_check_at
            .get_or_insert(now + self.limits.idle_timeout);
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
                    self.shared.metrics.requests.inc();
                    self.shared.metrics.errors.inc();
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
                self.shared.metrics.requests.inc();
                self.shared.metrics.errors.inc();
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
            self.shared.metrics.errors.inc();
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
        if let Some(mut ctx) = TraceContext::start(qrec_obs::next_request_id(), t0) {
            ctx.queue_depth = self.shared.engine.queued() as u64;
            trace::install(ctx);
        }

        let (tokens, prepare): (Vec<String>, Option<PrepareFn>) =
            match self.try_on_loop(&session, &sql, n, t0) {
                LoopSide::Done(line) => {
                    self.shared.metrics.recommends.inc();
                    // `inflight` stays false: `tick_frames` goes straight
                    // on to the connection's next pipelined frame.
                    self.enqueue_bytes(slot, &line, false);
                    return;
                }
                LoopSide::Decode(tokens) => (tokens, None),
                LoopSide::Defer(pending) => {
                    let store = Arc::clone(&self.shared.store);
                    let prepare = Box::new(move || store.push_pending(&session, &sql, pending));
                    (Vec::new(), Some(prepare))
                }
            };

        let metrics = Arc::clone(&self.shared.metrics);
        let completion_tx = self.completion_tx.clone();
        let waker = Arc::clone(&self.waker);
        let reply = Box::new(move |result: Result<Recommendation, ServeError>| {
            let (response, trace) = match result {
                Ok(rec) => (
                    Response::recommendation(rec.fragments, rec.epoch, rec.cached),
                    rec.trace.map(|ctx| (ctx, t0.elapsed())),
                ),
                Err(e) => {
                    metrics.errors.inc();
                    (Response::err(&e), None)
                }
            };
            let payload = response_line(&response);
            // A send after loop teardown just drops the completion; the
            // connection is gone with the loop anyway.
            let _ = completion_tx.send(Completion {
                slot,
                gen,
                payload,
                trace,
            });
            let _ = waker.wake();
        });

        let dreq = DecodeRequest {
            tokens,
            n,
            trace: trace::uninstall(),
        };
        match self.shared.engine.submit_callback(dreq, prepare, reply) {
            Ok(()) => {
                self.shared.metrics.recommends.inc();
                if let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) {
                    conn.inflight = true;
                }
            }
            Err(e) => {
                match e {
                    ServeError::Overloaded => self.shared.metrics.overloaded.inc(),
                    _ => self.shared.metrics.errors.inc(),
                }
                let resp = Response::err(&e);
                self.enqueue_response(slot, &resp, false);
            }
        }
    }

    /// The part of a RECOMMEND the loop does itself, with the trace
    /// started by [`EventLoop::start_recommend`] installed: push the
    /// statement into the session store (the `"session"` stage), key the
    /// recommendation cache on the borrowed window, and on a hit rank the
    /// reply right here — no job, no boxed closures, no channel, no waker
    /// write, no second poll iteration. The flight record of such a
    /// request has `cache_hit` set, batch size 0, and no `batch_wait` or
    /// `decode` stage.
    ///
    /// Everything reachable from here must be non-blocking: the push is
    /// [`SessionStore::try_push`](crate::SessionStore::try_push)'s, which
    /// hands back a push that would fsync, flush, read a run or wait for
    /// a lock instead of making it, and statement length is capped by
    /// [`LOOP_PARSE_MAX_BYTES`].
    fn try_on_loop(&self, session: &str, sql: &str, n: usize, t0: Instant) -> LoopSide {
        let shared = &self.shared;
        // Every push waits (a durable tier whose every append syncs), or
        // the statement is too long to parse in passing: the worker
        // runs the push, and the loop records no stage of it.
        if sql.len() > LOOP_PARSE_MAX_BYTES || !shared.store.can_push_without_waiting() {
            return LoopSide::Defer(PendingPush::default());
        }
        let epoch = shared.registry.epoch();
        // The session stage begins at the request's arrival (`t0`, read
        // already), so it also covers starting the trace: a clock read
        // saved, where every read is a share of the spine's budget.
        let session_stage = Span::enter_at("session", &shared.metrics.stage_session, t0);
        let pushed = shared.store.try_push(session, sql, |ctx| {
            // The push is applied; what follows under the shard lock —
            // so that a miss takes the tokens of this very window — is
            // the cache and rank stages.
            let cache_stage = session_stage.then("cache", &shared.metrics.stage_cache);
            let key = CacheKey::from_window(epoch, ctx.window_tokens());
            answer_cached(&shared.cache, &shared.metrics, &key, n, t0, cache_stage)
                .ok_or_else(|| ctx.input_tokens())
        });
        match pushed {
            Ok(Ok(Ok((fragments, latency)))) => {
                trace::note_batch(0, epoch);
                // The request's total is its latency sample: the loop
                // has nothing left to do but encode the reply.
                if let Some(ctx) = trace::uninstall() {
                    flight::global().record(ctx, latency);
                }
                LoopSide::Done(response_line(&Response::recommendation(
                    fragments, epoch, true,
                )))
            }
            Ok(Ok(Err(tokens))) => LoopSide::Decode(tokens),
            Ok(Err(pending)) => LoopSide::Defer(pending),
            Err(e) => {
                trace::uninstall();
                shared.metrics.errors.inc();
                LoopSide::Done(response_line(&Response::err(&e)))
            }
        }
    }

    /// Deliver worker results: record the trace, match generation,
    /// enqueue the payload, and let the connection's queued frames
    /// proceed.
    fn tick_completions(&mut self) {
        while let Ok(c) = self.completions.try_recv() {
            // Recorded before the reply is queued, so a `TRACE` the client
            // sends after reading it sees the record.
            if let Some((ctx, total)) = c.trace {
                flight::global().record(ctx, total);
            }
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
                self.shared.metrics.frontend.slow_disconnects.inc();
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

    /// Close idle connections once the earliest idle deadline passes:
    /// one pass over the slab closes every connection that is not in
    /// flight and has been idle for the whole timeout, then moves the
    /// check to the earliest remaining deadline, but no sooner than
    /// `IDLE_CHECK_GAP` from now. An in-flight request counts as
    /// activity up to `now`.
    fn tick_idle(&mut self, now: Instant) {
        if self.idle_check_at.is_none_or(|at| now < at) {
            return;
        }
        let timeout = self.limits.idle_timeout;
        let mut next: Option<Instant> = None;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            let base = if conn.inflight {
                now
            } else {
                conn.last_activity
            };
            if !conn.inflight && now.saturating_duration_since(base) >= timeout {
                self.shared.metrics.frontend.idle_disconnects.inc();
                self.close(slot);
            } else {
                let at = base + timeout;
                next = Some(next.map_or(at, |n| n.min(at)));
            }
        }
        self.idle_check_at = next.map(|at| at.max(now + IDLE_CHECK_GAP));
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
}
