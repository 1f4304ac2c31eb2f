//! `bench_serve` — connection scaling of the event-loop front end
//! (README "Serving", DESIGN.md §16).
//!
//! ```text
//! bench_serve [--smoke] [--out PATH]
//! bench_serve --server-child --max-conns N            (internal)
//! bench_serve --client-child --addr A --conns N ...   (internal)
//! ```
//!
//! The orchestrator spawns the server and the load as *separate
//! processes* — client fd budgets, allocator arenas, and scheduler
//! pressure stay off the server's books, like a real deployment:
//!
//! - **Connection scaling** (closed loop): N client processes × M
//!   connections, one outstanding `RECOMMEND` per connection, warmed
//!   cache. Rows report throughput and p50/p95/p99 latency per
//!   connection count, plus the server's thread count under load — the
//!   number the event loop exists to bound.
//! - **Open loop**: each connection fires at a fixed interval,
//!   regardless of responses (pipelined up to the protocol's cap), so
//!   queueing delay shows up as latency instead of reduced offered
//!   load.
//! - **Idle herd** (slowloris shape): thousands of connections that
//!   never send a byte, held open while the loop serves a probe —
//!   checks admission, bounded threads, and per-connection memory.
//! - **Slow client**: a reader that stops draining mid-burst must be
//!   disconnected with the typed `slow_consumer` error, not buffered
//!   without bound.
//!
//! The client side is itself a small readiness loop on the same
//! `polling` shim the server uses — one thread drives all M
//! connections, so a 1024-connection row needs 3 processes, not 1024
//! threads.
//!
//! Full runs write `BENCH_serve.json` at the repo root; `--smoke` uses
//! small counts and writes `target/BENCH_serve_smoke.json`.

use polling::{Events, Interest, Poller, Token};
use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{EngineConfig, FrameBuf, Server, ServerConfig};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The statements every load connection cycles through. Three distinct
/// windows keep the server's LRU cache hot after the first lap, so rows
/// measure front-end overhead rather than decode throughput.
const SQLS: [&str; 3] = [
    "SELECT a FROM t1",
    "SELECT b FROM t2",
    "SELECT a, b FROM t3",
];

/// Walk `path` through nested JSON objects (the vendored serde shim's
/// `Value` has no `Index` impl).
fn field<'a>(v: &'a serde_json::Value, path: &[&str]) -> Option<&'a serde_json::Value> {
    let mut cur = v;
    for k in path {
        cur = cur.as_object()?.get(k)?;
    }
    Some(cur)
}

fn field_u64(v: &serde_json::Value, path: &[&str]) -> u64 {
    field(v, path).and_then(|x| x.as_i128()).unwrap_or(0) as u64
}

fn field_f64(v: &serde_json::Value, path: &[&str]) -> f64 {
    field(v, path).and_then(|x| x.as_f64()).unwrap_or(0.0)
}

fn json_line(v: &serde_json::Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "{}".into())
}

fn train_tiny(seed: u64) -> Recommender {
    let (workload, _catalog) = generate(&WorkloadProfile::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = Split::paper(workload.pairs(), &mut rng);
    let mut cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = 2;
    let (model, _report) = Recommender::try_train(&split, &workload, cfg).expect("train");
    model
}

// ---------------------------------------------------------------- server

/// Child process hosting the server: prints `READY <addr>` once bound,
/// serves until a client sends SHUTDOWN.
fn run_server_child(max_conns: usize) -> ExitCode {
    let cfg = ServerConfig {
        max_connections: max_conns,
        engine: EngineConfig {
            workers: 1,
            queue_cap: 4096,
            ..EngineConfig::default()
        },
        session_ttl: Duration::from_secs(600),
        cache_capacity: 256,
        ..ServerConfig::default()
    };
    let mut server = match Server::start(train_tiny(1), "127.0.0.1:0", cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_serve server: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("READY {}", server.local_addr());
    server.wait_for_shutdown_request(None);
    server.shutdown();
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------- client

struct LoadConn {
    stream: TcpStream,
    frame: FrameBuf,
    outbox: Vec<u8>,
    out_pos: usize,
    /// Send instants of requests whose responses are still due, oldest
    /// first (closed loop keeps this at ≤ 1).
    sent_at: std::collections::VecDeque<Instant>,
    /// Open loop: when this connection owes its next send.
    next_send: Instant,
    sql_idx: usize,
    id: usize,
}

impl LoadConn {
    fn push_request(&mut self, now: Instant) {
        let sql = SQLS[self.sql_idx % SQLS.len()];
        self.sql_idx += 1;
        self.outbox.extend_from_slice(
            format!(
                r#"{{"verb":"RECOMMEND","session":"load-{}","sql":"{}","n":3}}"#,
                self.id, sql
            )
            .as_bytes(),
        );
        self.outbox.push(b'\n');
        self.sent_at.push_back(now);
    }
}

struct LoadResult {
    sent: u64,
    received: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

/// Drive `conns` connections for `duration` from one thread on a
/// readiness loop. `interval` None = closed loop (send on receive);
/// Some(i) = open loop (send every `i` regardless of responses).
fn run_load(
    addr: &str,
    conns: usize,
    duration: Duration,
    warmup: Duration,
    interval: Option<Duration>,
) -> Result<LoadResult, String> {
    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut pool = Vec::with_capacity(conns);
    let t0 = Instant::now();
    for i in 0..conns {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {i}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        poller
            .register(&stream, Token(i), Interest::BOTH)
            .map_err(|e| format!("register: {e}"))?;
        let mut conn = LoadConn {
            stream,
            frame: FrameBuf::new(1 << 20),
            outbox: Vec::new(),
            out_pos: 0,
            sent_at: std::collections::VecDeque::new(),
            next_send: t0,
            sql_idx: i, // desynchronise the sql cycle across conns
            id: i,
        };
        conn.push_request(Instant::now());
        pool.push(Some(conn));
    }

    let started = Instant::now();
    let measure_from = started + warmup;
    let deadline = started + duration;
    let mut result = LoadResult {
        sent: conns as u64,
        received: 0,
        errors: 0,
        latencies_us: Vec::new(),
    };
    let mut events = Events::new();
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let mut timeout = deadline - now;
        if let Some(iv) = interval {
            timeout = timeout.min(iv / 2).max(Duration::from_millis(1));
        }
        poller
            .wait(&mut events, Some(timeout))
            .map_err(|e| format!("wait: {e}"))?;
        for ev in events.iter() {
            let Token(idx) = ev.token;
            let Some(conn) = pool.get_mut(idx).and_then(|c| c.as_mut()) else {
                continue;
            };
            let mut dead = false;
            if ev.readable || ev.hangup {
                loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => {
                            conn.frame.feed(&scratch[..n]);
                            while let Ok(Some(line)) = conn.frame.pop_frame() {
                                let t_recv = Instant::now();
                                if let Some(sent) = conn.sent_at.pop_front() {
                                    result.received += 1;
                                    // Cheap error check: full parsing at
                                    // 100k+ responses would become the
                                    // client's own bottleneck.
                                    if line.starts_with(br#"{"ok":false"#) {
                                        result.errors += 1;
                                    }
                                    if t_recv >= measure_from {
                                        result
                                            .latencies_us
                                            .push(t_recv.duration_since(sent).as_micros() as u64);
                                    }
                                }
                                if interval.is_none() {
                                    conn.push_request(t_recv);
                                    result.sent += 1;
                                }
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
            }
            if !dead && ev.writable && conn.out_pos < conn.outbox.len() {
                loop {
                    match conn.stream.write(&conn.outbox[conn.out_pos..]) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => {
                            conn.out_pos += n;
                            if conn.out_pos == conn.outbox.len() {
                                conn.outbox.clear();
                                conn.out_pos = 0;
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
            }
            if dead {
                pool[idx] = None;
            }
        }
        // Open loop: owed sends fire on schedule whether or not any
        // response came back — queueing shows up as latency, not as
        // reduced offered load. The protocol's pipelining cap bounds
        // how far a connection may run ahead.
        if let Some(iv) = interval {
            let now = Instant::now();
            for conn in pool.iter_mut().flatten() {
                while now >= conn.next_send && conn.sent_at.len() < 48 {
                    conn.push_request(now);
                    result.sent += 1;
                    conn.next_send += iv;
                }
            }
        }
    }
    Ok(result)
}

/// Child process driving load; prints one JSON summary line on exit.
#[allow(clippy::too_many_arguments)]
fn run_client_child(
    addr: &str,
    conns: usize,
    duration_ms: u64,
    warmup_ms: u64,
    mode: &str,
    interval_us: u64,
) -> ExitCode {
    let interval = match mode {
        "closed" => None,
        "open" => Some(Duration::from_micros(interval_us.max(1))),
        "idle" => {
            // Connect, send nothing, hold until the deadline.
            let mut herd = Vec::with_capacity(conns);
            for i in 0..conns {
                match TcpStream::connect(addr) {
                    Ok(s) => herd.push(s),
                    Err(e) => {
                        eprintln!("bench_serve client: idle connect {i}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(duration_ms));
            println!(
                "{}",
                json_line(&json!({
                    "sent": 0, "received": 0, "errors": 0,
                    "held": herd.len(), "latencies_us": [],
                }))
            );
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("bench_serve client: unknown mode {other:?}");
            return ExitCode::FAILURE;
        }
    };
    match run_load(
        addr,
        conns,
        Duration::from_millis(duration_ms),
        Duration::from_millis(warmup_ms),
        interval,
    ) {
        Ok(r) => {
            println!(
                "{}",
                json_line(&json!({
                    "sent": r.sent,
                    "received": r.received,
                    "errors": r.errors,
                    "held": 0,
                    "latencies_us": r.latencies_us,
                }))
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_serve client: {e}");
            ExitCode::FAILURE
        }
    }
}

// ----------------------------------------------------------- orchestrator

struct ServerHandle {
    child: Child,
    addr: String,
}

fn spawn_server(max_conns: usize) -> Result<ServerHandle, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--server-child", "--max-conns", &max_conns.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn server: {e}"))?;
    let stdout = child.stdout.take().ok_or("server stdout")?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("server READY: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("READY ")
        .ok_or_else(|| format!("unexpected server banner: {line:?}"))?
        .to_string();
    Ok(ServerHandle { child, addr })
}

impl ServerHandle {
    /// Threads of the server process right now (from /proc).
    fn threads(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Threads:"))
                    .and_then(|v| v.trim().parse().ok())
            })
            .unwrap_or(0)
    }

    fn stats(&self) -> Result<serde_json::Value, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| format!("stats connect: {e}"))?;
        s.write_all(b"{\"verb\":\"STATS\"}\n")
            .map_err(|e| format!("stats send: {e}"))?;
        let mut line = String::new();
        BufReader::new(s)
            .read_line(&mut line)
            .map_err(|e| format!("stats read: {e}"))?;
        serde_json::from_str(line.trim()).map_err(|e| format!("stats parse: {e}"))
    }

    fn shutdown(mut self) {
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = s.write_all(b"{\"verb\":\"SHUTDOWN\"}\n");
            let mut ack = String::new();
            let _ = BufReader::new(s).read_line(&mut ack);
        }
        let _ = self.child.wait();
    }
}

struct ClientSummary {
    sent: u64,
    received: u64,
    errors: u64,
    held: u64,
    latencies_us: Vec<u64>,
}

fn spawn_clients(
    addr: &str,
    processes: usize,
    conns_each: usize,
    duration_ms: u64,
    warmup_ms: u64,
    mode: &str,
    interval_us: u64,
) -> Result<Vec<Child>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..processes)
        .map(|_| {
            Command::new(&exe)
                .args([
                    "--client-child",
                    "--addr",
                    addr,
                    "--conns",
                    &conns_each.to_string(),
                    "--duration-ms",
                    &duration_ms.to_string(),
                    "--warmup-ms",
                    &warmup_ms.to_string(),
                    "--mode",
                    mode,
                    "--interval-us",
                    &interval_us.to_string(),
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn client: {e}"))
        })
        .collect()
}

fn join_clients(children: Vec<Child>) -> Result<ClientSummary, String> {
    let mut total = ClientSummary {
        sent: 0,
        received: 0,
        errors: 0,
        held: 0,
        latencies_us: Vec::new(),
    };
    for mut child in children {
        let mut out = String::new();
        if let Some(mut stdout) = child.stdout.take() {
            let _ = stdout.read_to_string(&mut out);
        }
        let status = child.wait().map_err(|e| format!("client wait: {e}"))?;
        if !status.success() {
            return Err(format!("client exited with {status}"));
        }
        let v: serde_json::Value =
            serde_json::from_str(out.trim()).map_err(|e| format!("client summary: {e}"))?;
        total.sent += field_u64(&v, &["sent"]);
        total.received += field_u64(&v, &["received"]);
        total.errors += field_u64(&v, &["errors"]);
        total.held += field_u64(&v, &["held"]);
        if let Some(lat) = field(&v, &["latencies_us"]).and_then(|x| x.as_array()) {
            total
                .latencies_us
                .extend(lat.iter().filter_map(|x| x.as_i128()).map(|x| x as u64));
        }
    }
    Ok(total)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One closed- or open-loop scaling row against a fresh server.
fn bench_row(
    conns: usize,
    duration_ms: u64,
    mode: &str,
    interval_us: u64,
) -> Result<serde_json::Value, String> {
    let server = spawn_server(32 * 1024)?;
    let processes = if conns >= 64 { 2 } else { 1 };
    let conns_each = conns / processes;
    let warmup_ms = duration_ms / 4;
    let clients = spawn_clients(
        &server.addr,
        processes,
        conns_each,
        duration_ms,
        warmup_ms,
        mode,
        interval_us,
    )?;
    // Sample the thread count mid-run, while every connection is live.
    std::thread::sleep(Duration::from_millis(duration_ms / 2));
    let threads = server.threads();
    let summary = join_clients(clients)?;
    server.shutdown();

    let mut lat = summary.latencies_us;
    lat.sort_unstable();
    let measured_s = (duration_ms - warmup_ms) as f64 / 1e3;
    Ok(json!({
        "mode": mode,
        "conns": conns,
        "client_processes": processes,
        "duration_ms": duration_ms,
        "sent": summary.sent,
        "received": summary.received,
        "errors": summary.errors,
        "throughput_rps": lat.len() as f64 / measured_s,
        "p50_us": quantile(&lat, 0.50),
        "p95_us": quantile(&lat, 0.95),
        "p99_us": quantile(&lat, 0.99),
        "server_threads": threads,
    }))
}

/// The idle herd: `conns` silent connections held open while a probe
/// keeps getting answers.
fn bench_idle(conns: usize, hold_ms: u64) -> Result<serde_json::Value, String> {
    let server = spawn_server(conns + 64)?;
    let threads_before = server.threads();
    let clients = spawn_clients(&server.addr, 1, conns, hold_ms, 0, "idle", 0)?;

    // Wait until the herd is admitted (or fail loudly).
    let deadline = Instant::now() + Duration::from_millis(hold_ms.saturating_sub(500).max(1000));
    let mut open = 0u64;
    while Instant::now() < deadline {
        let stats = server.stats()?;
        open = field_u64(&stats, &["stats", "metrics", "frontend", "conns_open"]);
        if open >= conns as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let threads_held = server.threads();
    let probe = {
        let t0 = Instant::now();
        let mut s = TcpStream::connect(&server.addr).map_err(|e| format!("probe: {e}"))?;
        s.write_all(b"{\"verb\":\"PING\"}\n")
            .map_err(|e| format!("probe send: {e}"))?;
        let mut line = String::new();
        BufReader::new(s)
            .read_line(&mut line)
            .map_err(|e| format!("probe read: {e}"))?;
        if !line.contains("\"ok\":true") {
            return Err(format!("probe got {line:?} under idle herd"));
        }
        t0.elapsed().as_micros() as u64
    };
    let summary = join_clients(clients)?;
    server.shutdown();
    if summary.held < conns as u64 {
        return Err(format!("idle client held {}/{conns}", summary.held));
    }
    Ok(json!({
        "frontend": "eventloop",
        "conns": conns,
        "held": summary.held,
        "conns_open_observed": open,
        "server_threads_before": threads_before,
        "server_threads_held": threads_held,
        "probe_rtt_us": probe,
    }))
}

/// The slow client: burst DUMPs, never read, expect the typed
/// disconnect.
fn bench_slow_client() -> Result<serde_json::Value, String> {
    let server = spawn_server(1024)?;
    let mut stream = TcpStream::connect(&server.addr).map_err(|e| format!("slow connect: {e}"))?;
    // Enough multi-KiB DUMP responses to overflow the kernel socket
    // buffer plus the server's 1 MiB outbox hard cap several times
    // over.
    let burst = b"{\"verb\":\"DUMP\"}\n".repeat(2048);
    stream
        .write_all(&burst)
        .map_err(|e| format!("slow burst: {e}"))?;
    // Never read. The server must cut us loose rather than buffer the
    // whole burst of multi-KiB responses.
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut disconnects = 0u64;
    while Instant::now() < deadline {
        let stats = server.stats()?;
        disconnects = field_u64(
            &stats,
            &["stats", "metrics", "frontend", "slow_disconnects"],
        );
        if disconnects >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    if disconnects == 0 {
        return Err("slow client was never disconnected".into());
    }
    Ok(json!({"slow_disconnects": disconnects, "disconnected": true}))
}

// ------------------------------------------------------------------ main

struct Args {
    smoke: bool,
    out: Option<PathBuf>,
}

fn run(args: &Args) -> Result<(), String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = args.out.clone().unwrap_or_else(|| {
        if args.smoke {
            root.join("target/BENCH_serve_smoke.json")
        } else {
            root.join("BENCH_serve.json")
        }
    });

    let (closed_conns, duration_ms): (&[usize], u64) = if args.smoke {
        (&[4], 1_000)
    } else {
        (&[16, 64, 256, 1024], 4_000)
    };

    let mut rows = Vec::new();
    for &conns in closed_conns {
        eprintln!("bench_serve: {conns} conns, closed loop ...");
        rows.push(bench_row(conns, duration_ms, "closed", 0)?);
    }
    // One open-loop row at a moderate per-connection rate:
    // ~200 req/s × 64 conns ≈ 12.8k offered rps.
    let open_conns = if args.smoke { 4 } else { 64 };
    eprintln!("bench_serve: {open_conns} conns, open loop ...");
    rows.push(bench_row(open_conns, duration_ms, "open", 5_000)?);
    for row in &rows {
        println!(
            "{:>5} conns [{}]  {:>9.0} rps  p50 {:>7}us  p95 {:>7}us  p99 {:>7}us  {:>4} threads",
            field_u64(row, &["conns"]),
            field(row, &["mode"])
                .and_then(|v| v.as_str())
                .unwrap_or("?"),
            field_f64(row, &["throughput_rps"]),
            field_u64(row, &["p50_us"]),
            field_u64(row, &["p95_us"]),
            field_u64(row, &["p99_us"]),
            field_u64(row, &["server_threads"]),
        );
    }

    let idle_conns = if args.smoke { 64 } else { 10_000 };
    let hold_ms = if args.smoke { 2_000 } else { 8_000 };
    eprintln!("bench_serve: idle herd of {idle_conns} connections ...");
    let idle = bench_idle(idle_conns, hold_ms)?;
    println!(
        "idle herd  {:>6} conns held  server threads {} -> {}  probe rtt {}us",
        field_u64(&idle, &["held"]),
        field_u64(&idle, &["server_threads_before"]),
        field_u64(&idle, &["server_threads_held"]),
        field_u64(&idle, &["probe_rtt_us"]),
    );

    eprintln!("bench_serve: slow-client disconnect ...");
    let slow = bench_slow_client()?;
    println!(
        "slow client disconnected (typed) after {} disconnect(s)",
        field_u64(&slow, &["slow_disconnects"])
    );

    let report = json!({
        "benchmark": "qrec-serve event-loop front-end connection scaling",
        "smoke": args.smoke,
        "cpus": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "rows": rows,
        "idle": idle,
        "slow_client": slow,
    });
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("bench_serve: wrote {}", out.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    if argv.iter().any(|a| a == "--server-child") {
        let max_conns = get("--max-conns")
            .and_then(|v| v.parse().ok())
            .unwrap_or(8192);
        return run_server_child(max_conns);
    }
    if argv.iter().any(|a| a == "--client-child") {
        let addr = get("--addr").unwrap_or_default();
        let conns = get("--conns").and_then(|v| v.parse().ok()).unwrap_or(1);
        let duration_ms = get("--duration-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1000);
        let warmup_ms = get("--warmup-ms").and_then(|v| v.parse().ok()).unwrap_or(0);
        let mode = get("--mode").unwrap_or_else(|| "closed".into());
        let interval_us = get("--interval-us")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        return run_client_child(&addr, conns, duration_ms, warmup_ms, &mode, interval_us);
    }
    let args = Args {
        smoke: argv.iter().any(|a| a == "--smoke"),
        out: get("--out").map(PathBuf::from),
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_serve: {e}");
            ExitCode::FAILURE
        }
    }
}
