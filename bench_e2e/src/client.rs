//! The load generator: a closed loop over `CONNS` connections driven by
//! one thread on the `polling` shim, the reply checks, and the client
//! spans of the traced run.
//!
//! Closed loop because that is what an analyst's client does: `Q_{i+1}`
//! is issued only after the answer to `Q_i`, and the protocol allows one
//! in-flight `RECOMMEND` per connection. A segment is a fixed number of
//! requests per connection; it ends when every connection has its last
//! reply, so the server is idle at every segment boundary and the
//! counters read there are exact.

use crate::layers::Sampled;
use crate::stats::F1Scorer;
use crate::workloads::{Plan, Slot, CONNS, TOP_N};
use polling::{Events, Interest, Poller, Token};
use qrec_core::predict::PerKind;
use qrec_serve::{FrameBuf, Response};
use qrec_sql::FragmentKind;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A request with no reply after this long counts as failed and ends
/// the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Which plan positions a segment replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The set-up traffic of `durable_churn` (old sessions' prefixes).
    Populate,
    /// The timed plan, continuing where the previous segment stopped.
    Timed,
}

/// What one segment measured.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    pub requests: usize,
    pub failed: usize,
    pub wall_s: f64,
    /// Client send → full reply line, one per answered request.
    pub latencies_ms: Vec<f64>,
    /// The same latencies split by the reply's `cached` flag.
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
}

/// The five instants of one request the client can see, in nanoseconds
/// since the client connected.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpans {
    pub conn: u8,
    pub seq: u64,
    pub send_start: u64,
    pub send_end: u64,
    pub first_byte: u64,
    pub reply: u64,
    pub checked: u64,
}

/// The first answer seen for a canonical window, and every byte form it
/// has arrived in (a hit and a miss differ in the `cached` flag).
struct Answer {
    fragments: PerKind<Vec<String>>,
    forms: Vec<(Vec<u8>, bool)>,
}

/// Reply verification, shared by all segments of a run.
#[derive(Default)]
pub struct Checker {
    pub epoch: u64,
    answers: HashMap<u32, Answer>,
    /// Failure counts by cause; any non-zero makes the run incorrect.
    pub not_ok: usize,
    pub too_many_fragments: usize,
    pub wrong_epoch: usize,
    pub inconsistent: usize,
    pub unparsable: usize,
    pub scorer: F1Scorer,
    pub scoring: bool,
}

impl Checker {
    /// Verify one reply line; returns its `cached` flag, or `None` when
    /// the reply is a failure.
    fn check(&mut self, line: &[u8], slot: &Slot<'_>) -> Option<bool> {
        // A reply identical, byte for byte, to one already verified for
        // this window needs no second parse: on the warm workloads that
        // is nearly every reply, and full parsing there would make the
        // load generator the bottleneck.
        let known = self.answers.get(&slot.window).and_then(|a| {
            a.forms
                .iter()
                .find(|(bytes, _)| bytes == line)
                .map(|&(_, c)| c)
        });
        let cached = match known {
            Some(c) => c,
            None => self.check_parsed(line, slot)?,
        };
        if self.scoring {
            if let (Some(next), Some(a)) = (slot.next, self.answers.get(&slot.window)) {
                self.scorer.record(&a.fragments, &next.fragments);
            }
        }
        Some(cached)
    }

    fn check_parsed(&mut self, line: &[u8], slot: &Slot<'_>) -> Option<bool> {
        let resp: Response = match serde_json::from_slice(line) {
            Ok(r) => r,
            Err(_) => {
                self.unparsable += 1;
                return None;
            }
        };
        let (true, Some(fragments), Some(cached)) = (resp.ok, resp.fragments, resp.cached) else {
            self.not_ok += 1;
            return None;
        };
        if FragmentKind::ALL
            .iter()
            .any(|&k| fragments.get(k).len() > TOP_N)
        {
            self.too_many_fragments += 1;
            return None;
        }
        if resp.epoch != Some(self.epoch) {
            self.wrong_epoch += 1;
            return None;
        }
        match self.answers.get_mut(&slot.window) {
            Some(a) if a.fragments != fragments => {
                self.inconsistent += 1;
                None
            }
            Some(a) => {
                a.forms.push((line.to_vec(), cached));
                Some(cached)
            }
            None => {
                self.answers.insert(
                    slot.window,
                    Answer {
                        fragments,
                        forms: vec![(line.to_vec(), cached)],
                    },
                );
                Some(cached)
            }
        }
    }

    /// The verified answer for a window, if one has been seen.
    pub fn answer(&self, window: u32) -> Option<&PerKind<Vec<String>>> {
        self.answers.get(&window).map(|a| &a.fragments)
    }

    pub fn violations(&self) -> usize {
        self.not_ok
            + self.too_many_fragments
            + self.wrong_epoch
            + self.inconsistent
            + self.unparsable
    }
}

struct InFlight {
    pos: usize,
    sent: Instant,
    send_end: Option<Instant>,
    first_byte: Option<Instant>,
}

struct Conn {
    stream: TcpStream,
    frame: FrameBuf,
    out: Vec<u8>,
    out_pos: usize,
    /// Next position of the timed plan this connection will send.
    timed_pos: usize,
    /// Position within the segment's source and requests left in it.
    cursor: usize,
    left: usize,
    inflight: Option<InFlight>,
}

/// The closed-loop client.
pub struct Client<'p> {
    plan: &'p Plan,
    poller: Poller,
    conns: Vec<Conn>,
    epoch0: Instant,
    pub checker: Checker,
    /// Client spans of traced segments, held in memory until the end.
    pub spans: Vec<RequestSpans>,
    seq: u64,
    /// Answered timed requests kept for the per-layer replay, and how
    /// many more to keep.
    pub sample: Vec<Sampled>,
    pub sample_wanted: usize,
}

impl<'p> Client<'p> {
    pub fn connect(addr: &str, plan: &'p Plan, epoch: u64) -> Result<Client<'p>, String> {
        let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
        let mut conns = Vec::with_capacity(CONNS);
        for i in 0..CONNS {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {i}: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("TCP_NODELAY: {e}"))?;
            stream
                .set_nonblocking(true)
                .map_err(|e| format!("nonblocking: {e}"))?;
            poller
                .register(&stream, Token(i), Interest::READABLE)
                .map_err(|e| format!("register: {e}"))?;
            conns.push(Conn {
                stream,
                frame: FrameBuf::new(1 << 20),
                out: Vec::new(),
                out_pos: 0,
                timed_pos: 0,
                cursor: 0,
                left: 0,
                inflight: None,
            });
        }
        Ok(Client {
            plan,
            poller,
            conns,
            epoch0: Instant::now(),
            checker: Checker {
                epoch,
                ..Checker::default()
            },
            spans: Vec::new(),
            seq: 0,
            sample: Vec::new(),
            sample_wanted: 0,
        })
    }

    /// Timed-plan positions each connection has consumed so far.
    pub fn timed_positions(&self) -> usize {
        self.conns[0].timed_pos
    }

    fn slot(&self, source: Source, conn: usize, pos: usize) -> Option<Slot<'p>> {
        match source {
            Source::Populate => self.plan.populate_slot(conn, pos),
            Source::Timed => Some(self.plan.slot(conn, pos)),
        }
    }

    /// Queue and start writing the connection's next request; false when
    /// its share of the segment is exhausted.
    fn send_next(&mut self, i: usize, source: Source, traced: bool) -> Result<bool, String> {
        loop {
            if self.conns[i].left == 0 {
                return Ok(false);
            }
            let pos = match source {
                Source::Populate => self.conns[i].cursor,
                Source::Timed => self.conns[i].timed_pos,
            };
            self.conns[i].cursor += 1;
            self.conns[i].left -= 1;
            if source == Source::Timed {
                self.conns[i].timed_pos += 1;
            }
            // The populate plan may be a session short on one connection.
            let Some(slot) = self.slot(source, i, pos) else {
                continue;
            };
            let c = &mut self.conns[i];
            c.out = slot.wire();
            c.out_pos = 0;
            c.inflight = Some(InFlight {
                pos,
                sent: Instant::now(),
                send_end: None,
                first_byte: None,
            });
            self.flush(i, traced)?;
            return Ok(true);
        }
    }

    fn flush(&mut self, i: usize, traced: bool) -> Result<(), String> {
        let c = &mut self.conns[i];
        while c.out_pos < c.out.len() {
            match c.stream.write(&c.out[c.out_pos..]) {
                Ok(0) => return Err(format!("connection {i} closed while sending")),
                Ok(n) => c.out_pos += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return self
                        .poller
                        .reregister(&c.stream, Token(i), Interest::BOTH)
                        .map_err(|e| format!("reregister: {e}"));
                }
                Err(e) => return Err(format!("connection {i} send: {e}")),
            }
        }
        if traced {
            if let Some(f) = c.inflight.as_mut() {
                f.send_end.get_or_insert_with(Instant::now);
            }
        }
        Ok(())
    }

    /// Replay `per_conn` positions of `source` on every connection and
    /// wait for every reply.
    pub fn run_segment(
        &mut self,
        source: Source,
        per_conn: usize,
        traced: bool,
    ) -> Result<Segment, String> {
        let mut seg = Segment::default();
        for c in &mut self.conns {
            c.left = per_conn;
            c.cursor = 0;
        }
        let started = Instant::now();
        let mut active = 0;
        for i in 0..self.conns.len() {
            if self.send_next(i, source, traced)? {
                active += 1;
            }
        }
        let mut events = Events::new();
        let mut scratch = vec![0u8; 64 * 1024];
        while active > 0 {
            self.poller
                .wait(&mut events, Some(Duration::from_millis(250)))
                .map_err(|e| format!("poll: {e}"))?;
            let woke = traced.then(Instant::now);
            for ev in events.iter() {
                let i = ev.token.0;
                if ev.writable && self.conns[i].out_pos < self.conns[i].out.len() {
                    self.flush(i, traced)?;
                    if self.conns[i].out_pos == self.conns[i].out.len() {
                        self.poller
                            .reregister(&self.conns[i].stream, Token(i), Interest::READABLE)
                            .map_err(|e| format!("reregister: {e}"))?;
                    }
                }
                if !(ev.readable || ev.hangup) {
                    continue;
                }
                if let (Some(t), Some(f)) = (woke, self.conns[i].inflight.as_mut()) {
                    f.first_byte.get_or_insert(t);
                }
                loop {
                    match self.conns[i].stream.read(&mut scratch) {
                        Ok(0) => {
                            seg.failed += 1;
                            return Err(format!("connection {i} closed by the server"));
                        }
                        Ok(n) => self.conns[i].frame.feed(&scratch[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("connection {i} read: {e}")),
                    }
                }
                while let Some(line) = self.conns[i]
                    .frame
                    .pop_frame()
                    .map_err(|e| format!("reply frame: {e}"))?
                {
                    let got = Instant::now();
                    let Some(f) = self.conns[i].inflight.take() else {
                        return Err(format!("connection {i}: a reply nobody asked for"));
                    };
                    let slot = self
                        .slot(source, i, f.pos)
                        .expect("an in-flight request came from a slot");
                    seg.requests += 1;
                    let ms = got.duration_since(f.sent).as_secs_f64() * 1e3;
                    match self.checker.check(&line, &slot) {
                        Some(cached) => {
                            if source == Source::Timed && self.sample.len() < self.sample_wanted {
                                self.sample.push(Sampled {
                                    conn: i,
                                    pos: f.pos,
                                    cached,
                                });
                            }
                            seg.latencies_ms.push(ms);
                            if cached {
                                seg.hit_ms.push(ms);
                            } else {
                                seg.miss_ms.push(ms);
                            }
                        }
                        None => seg.failed += 1,
                    }
                    if traced {
                        let epoch0 = self.epoch0;
                        let ns = |t: Instant| t.duration_since(epoch0).as_nanos() as u64;
                        self.spans.push(RequestSpans {
                            conn: i as u8,
                            seq: self.seq,
                            send_start: ns(f.sent),
                            send_end: ns(f.send_end.unwrap_or(f.sent)),
                            first_byte: ns(f.first_byte.unwrap_or(got)),
                            reply: ns(got),
                            checked: ns(Instant::now()),
                        });
                    }
                    self.seq += 1;
                    if !self.send_next(i, source, traced)? {
                        active -= 1;
                    }
                }
            }
            let now = Instant::now();
            for (i, c) in self.conns.iter().enumerate() {
                if let Some(f) = &c.inflight {
                    if now.duration_since(f.sent) > REPLY_TIMEOUT {
                        return Err(format!("connection {i}: no reply within {REPLY_TIMEOUT:?}"));
                    }
                }
            }
        }
        seg.wall_s = started.elapsed().as_secs_f64();
        Ok(seg)
    }
}

/// Write client spans as JSON lines: per request one `request` span and
/// its four children (`write`, `wait`, `read`, `check`), each with the
/// request id, a name, start and end in nanoseconds, and its parent.
pub fn write_spans(path: &std::path::Path, spans: &[RequestSpans]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let id = s.seq;
        let mut put = |name: &str, start: u64, end: u64, parent: &str| {
            writeln!(
                out,
                "{{\"request\":{id},\"conn\":{},\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end},\"parent\":{parent}}}",
                s.conn
            )
        };
        put("request", s.send_start, s.checked, "null")?;
        put("write", s.send_start, s.send_end, "\"request\"")?;
        put("wait", s.send_end, s.first_byte, "\"request\"")?;
        put("read", s.first_byte, s.reply, "\"request\"")?;
        put("check", s.reply, s.checked, "\"request\"")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{bench_catalog, Scale, Workload};

    fn reply(table: &[&str], epoch: u64, cached: bool) -> Vec<u8> {
        let fragments = PerKind {
            table: table.iter().map(|s| s.to_string()).collect(),
            column: vec![],
            function: vec![],
            literal: vec![],
        };
        Response::recommendation(fragments, epoch, cached)
            .to_json_line()
            .into_bytes()
    }

    #[test]
    fn checker_accepts_hit_and_miss_forms_and_flags_the_rest() {
        let scale = Scale::smoke();
        let plan = Plan::build(Workload::ScriptedWarm, 1, 2, &scale, &bench_catalog(&scale));
        let slot = plan.slot(0, 0);
        let mut c = Checker {
            epoch: 1,
            ..Checker::default()
        };
        assert_eq!(c.check(&reply(&["t"], 1, false), &slot), Some(false));
        assert_eq!(c.check(&reply(&["t"], 1, true), &slot), Some(true));
        // Byte-identical repeats take the fast path and stay accepted.
        assert_eq!(c.check(&reply(&["t"], 1, true), &slot), Some(true));
        assert_eq!(c.violations(), 0);
        // Same window, another ranking.
        assert_eq!(c.check(&reply(&["u"], 1, true), &slot), None);
        assert_eq!(c.inconsistent, 1);
        // Wrong epoch, too many fragments, an error reply, garbage.
        assert_eq!(c.check(&reply(&["t"], 2, true), &slot), None);
        assert_eq!(c.wrong_epoch, 1);
        let six = ["a", "b", "c", "d", "e", "f"];
        assert_eq!(c.check(&reply(&six, 1, true), &slot), None);
        assert_eq!(c.too_many_fragments, 1);
        let err = Response::err(&qrec_serve::ServeError::Overloaded).to_json_line();
        assert_eq!(c.check(err.as_bytes(), &slot), None);
        assert_eq!(c.not_ok, 1);
        assert_eq!(c.check(b"{nonsense", &slot), None);
        assert_eq!(c.unparsable, 1);
        assert_eq!(c.violations(), 5);
    }
}
