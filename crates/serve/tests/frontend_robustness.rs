//! Event-loop front-end robustness: partial frames, pipelining,
//! oversized lines, connection caps, idle timeouts, slow consumers, and
//! the slowloris scenario (thousands of idle connections on a bounded
//! thread count).
//!
//! Every test drives the real TCP server through raw sockets — no
//! `Client` conveniences — because the failure modes under test live
//! below the request/response layer.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{EngineConfig, Response, Server, ServerConfig};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Two training epochs: these tests exercise the socket layer, not
/// model quality.
fn train_tiny(seed: u64) -> Recommender {
    let (workload, _catalog) = generate(&WorkloadProfile::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = Split::paper(workload.pairs(), &mut rng);
    let mut cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = 2;
    let (model, _report) = Recommender::try_train(&split, &workload, cfg).expect("train");
    model
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: 1,
            queue_cap: 32,
            ..EngineConfig::default()
        },
        session_ttl: Duration::from_secs(600),
        sweep_interval: Duration::from_secs(600),
        cache_capacity: 64,
        ..ServerConfig::default()
    }
}

fn read_response(stream: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    stream.read_line(&mut line).expect("read response line");
    serde_json::from_str(line.trim()).expect("parse response")
}

/// Threads of this process, from /proc/self/status. The slowloris test
/// runs the server in-process, so this covers its threads too.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// A request split across many tiny writes must reassemble into exactly
/// one request, answered once the final newline lands.
#[test]
fn partial_writes_reassemble_into_one_request() {
    let server = Server::start(train_tiny(11), "127.0.0.1:0", quiet_config()).expect("start");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let line = br#"{"verb":"RECOMMEND","session":"drip","sql":"SELECT a FROM t1","n":3}"#;
    // Byte-by-byte: every possible split boundary of this line crosses
    // a separate read() on the server.
    for b in line.iter() {
        stream
            .write_all(std::slice::from_ref(b))
            .expect("write byte");
        stream.flush().expect("flush");
    }
    stream.write_all(b"\n").expect("write newline");

    let mut reader = BufReader::new(stream);
    let resp = read_response(&mut reader);
    assert!(resp.ok, "dripped request must succeed: {resp:?}");
    assert!(resp.fragments.is_some());

    // Exactly one response: a follow-up PING answers next, proving no
    // phantom second response was queued.
    let mut stream = reader.into_inner();
    stream.write_all(b"{\"verb\":\"PING\"}\n").expect("ping");
    let resp = read_response(&mut BufReader::new(stream));
    assert!(resp.ok);
}

/// Many requests arriving in a single read must each get a response, in
/// order.
#[test]
fn pipelined_requests_in_one_write_answer_in_order() {
    let server = Server::start(train_tiny(12), "127.0.0.1:0", quiet_config()).expect("start");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let mut batch = Vec::new();
    for i in 0..8 {
        batch.extend_from_slice(
            format!(
                r#"{{"verb":"RECOMMEND","session":"pipe","sql":"SELECT a FROM t{}","n":2}}"#,
                i % 3 + 1
            )
            .as_bytes(),
        );
        batch.push(b'\n');
    }
    batch.extend_from_slice(b"{\"verb\":\"STATS\"}\n");
    stream.write_all(&batch).expect("write pipeline");

    let mut reader = BufReader::new(stream);
    for i in 0..8 {
        let resp = read_response(&mut reader);
        assert!(resp.ok, "pipelined request {i} failed: {resp:?}");
        assert!(resp.fragments.is_some(), "request {i} is a RECOMMEND");
    }
    // The STATS trailer answers last — ordering held across the
    // recommend/inline-verb boundary.
    let resp = read_response(&mut reader);
    let stats = resp.stats.expect("stats reply last");
    assert!(stats.metrics.recommends >= 8);
    drop(server);
}

/// A line over the cap gets a typed `bad_request` naming the limit, and
/// the connection closes (the stream offset is unrecoverable).
#[test]
fn oversized_line_rejected_with_typed_error() {
    let cfg = ServerConfig {
        max_line_bytes: 4 * 1024,
        ..quiet_config()
    };
    let server = Server::start(train_tiny(13), "127.0.0.1:0", cfg).expect("start");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let mut big = Vec::with_capacity(8 * 1024 + 1);
    big.extend_from_slice(br#"{"verb":"RECOMMEND","sql":""#);
    big.resize(8 * 1024, b'x');
    big.push(b'\n');
    stream.write_all(&big).expect("write oversized");

    let mut reader = BufReader::new(stream);
    let resp = read_response(&mut reader);
    assert!(!resp.ok);
    assert_eq!(resp.code.as_deref(), Some("bad_request"));
    assert!(
        resp.error.as_deref().unwrap_or("").contains("4096"),
        "error names the limit: {:?}",
        resp.error
    );
    // Typed rejection, then EOF.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "nothing after the rejection: {rest:?}");
    assert!(server.metrics().snapshot().errors >= 1);
}

/// The slowloris scenario: hundreds of connections that send nothing
/// must not consume threads — the whole point of the event loop. The
/// thread-per-connection design would need one thread each.
#[test]
fn slowloris_idle_connections_hold_on_bounded_threads() {
    let server = Server::start(train_tiny(14), "127.0.0.1:0", quiet_config()).expect("start");
    let addr = server.local_addr();

    let threads_before = process_threads();
    let mut herd = Vec::new();
    for i in 0..400 {
        match TcpStream::connect(addr) {
            Ok(s) => herd.push(s),
            Err(e) => panic!("connect {i} failed: {e}"),
        }
    }
    // Accepts run on the loop thread; give it a beat to drain the
    // backlog, then confirm every connection was admitted.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = server.metrics().snapshot().frontend.conns_open;
        if open >= 400 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {open}/400 connections admitted before timeout"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let threads_after = process_threads();
    assert!(
        threads_after <= threads_before + 2,
        "400 idle connections must not grow the thread count: \
         {threads_before} -> {threads_after}"
    );

    // Every idle connection still works: the last one accepted answers.
    let mut last = herd.pop().expect("herd nonempty");
    last.write_all(b"{\"verb\":\"PING\"}\n").expect("ping");
    let resp = read_response(&mut BufReader::new(last));
    assert!(resp.ok, "idle connection still serves: {resp:?}");
    drop(server);
}

/// Connections beyond the cap are counted and dropped; the ones under
/// the cap keep working.
#[test]
fn connections_over_the_cap_are_rejected() {
    let cfg = ServerConfig {
        max_connections: 4,
        ..quiet_config()
    };
    let server = Server::start(train_tiny(15), "127.0.0.1:0", cfg).expect("start");
    let addr = server.local_addr();

    let keepers: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let extras: Vec<TcpStream> = (0..6)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();

    // Rejected connections see EOF (after a best-effort overloaded
    // line); admitted ones stay silent until spoken to.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = server.metrics().snapshot().frontend;
        if s.rejected_cap >= 6 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {}/6 over-cap connections rejected before timeout",
            s.rejected_cap
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    for extra in extras {
        let mut buf = String::new();
        let mut r = BufReader::new(extra);
        // Either a typed overloaded line or an immediate EOF.
        let _ = r.read_line(&mut buf);
        if !buf.trim().is_empty() {
            let resp: Response = serde_json::from_str(buf.trim()).expect("parse");
            assert_eq!(resp.code.as_deref(), Some("overloaded"));
        }
    }
    // An admitted connection still answers.
    let mut keeper = keepers.into_iter().next().expect("keeper");
    keeper.write_all(b"{\"verb\":\"PING\"}\n").expect("ping");
    let resp = read_response(&mut BufReader::new(keeper));
    assert!(resp.ok);
}

/// Idle connections are reclaimed by the timeout and counted.
#[test]
fn idle_connections_time_out() {
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..quiet_config()
    };
    let server = Server::start(train_tiny(16), "127.0.0.1:0", cfg).expect("start");
    let idle = TcpStream::connect(server.local_addr()).expect("connect");

    let mut reader = BufReader::new(idle);
    let mut buf = String::new();
    // The server closes us: read returns 0 (EOF) once the timeout
    // fires. Generous client-side timeout so a slow CI box passes.
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let n = reader.read_line(&mut buf).expect("EOF, not an error");
    assert_eq!(n, 0, "idle connection must be closed by the server");
    assert!(server.metrics().snapshot().frontend.idle_disconnects >= 1);
}

/// A client that never drains its responses is disconnected with the
/// typed `slow_consumer` error instead of buffering without bound.
#[test]
fn slow_consumers_get_typed_disconnect() {
    let cfg = ServerConfig {
        outbox_soft_bytes: 1024,
        outbox_hard_bytes: 2048,
        ..quiet_config()
    };
    let server = Server::start(train_tiny(17), "127.0.0.1:0", cfg).expect("start");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // DUMP responses are multi-KiB; a few of them pipelined with the
    // client not reading overflow a 2 KiB outbox immediately.
    let burst = b"{\"verb\":\"DUMP\"}\n".repeat(16);
    stream.write_all(&burst).expect("write burst");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.metrics().snapshot().frontend.slow_disconnects >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slow consumer was never disconnected"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Drain what the server buffered: the stream ends with the typed
    // error line, then EOF.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut all = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_to_string(&mut all).expect("read to EOF");
    let last = all.lines().last().expect("at least the error line");
    let resp: Response = serde_json::from_str(last).expect("parse last line");
    assert_eq!(resp.code.as_deref(), Some("slow_consumer"));
}
