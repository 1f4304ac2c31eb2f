//! Telemetry-engine integration tests: the `WATCH` stream, `HISTORY`
//! durability across SIGKILL, slow-watcher disconnects, the polling
//! verbs (`HISTORY`, `PROF`), and deterministic drift detection.
//!
//! The restart test reuses the child-process pattern from
//! `restart_recovery.rs`: the child is this binary re-executed with the
//! `#[ignore]`d server test selected, the data directory passed through
//! an env var, and `READY <addr>` printed once serving.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::telemetry::Telemetry;
use qrec_serve::{Client, EngineConfig, Metrics, Response, Server, ServerConfig};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const DIR_ENV: &str = "QREC_SERVE_TLOG_DIR";

/// Two training epochs: these tests exercise telemetry, not model
/// quality.
fn train_tiny(seed: u64) -> Recommender {
    let (workload, _catalog) = generate(&WorkloadProfile::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = Split::paper(workload.pairs(), &mut rng);
    let mut cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = 2;
    let (model, _report) = Recommender::try_train(&split, &workload, cfg).expect("train");
    model
}

/// Fast windows so tests observe several seals in well under a second.
fn windowed_config() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: 1,
            queue_cap: 32,
            ..EngineConfig::default()
        },
        session_ttl: Duration::from_secs(600),
        sweep_interval: Duration::from_secs(600),
        cache_capacity: 64,
        window_width: Duration::from_millis(100),
        window_buckets: 32,
        ..ServerConfig::default()
    }
}

/// `WATCH` acks, then streams one line per sealed window — with the
/// template sketch and request deltas populated by traffic — while the
/// loop keeps answering other connections; `HISTORY` accumulates the
/// same windows.
#[test]
fn watch_streams_sealed_windows_without_blocking_the_loop() {
    let server = Server::start(train_tiny(31), "127.0.0.1:0", windowed_config()).expect("start");

    let mut watcher = Client::connect(server.local_addr()).expect("connect watcher");
    watcher.watch().expect("WATCH acked");

    // Traffic on a second connection: the loop must keep serving it
    // while the watcher is subscribed.
    let mut c = Client::connect(server.local_addr()).expect("connect");
    for i in 0..6 {
        let resp = c
            .recommend("walt", &format!("SELECT a FROM t{}", i % 3 + 1), 3)
            .expect("recommend while watching");
        assert!(resp.fragments.is_some());
    }

    // Streamed frames arrive until one shows the traffic (the first
    // frame may have sealed before the requests landed).
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut streamed = 0usize;
    loop {
        let frame = watcher.next_watch_frame().expect("streamed window");
        streamed += 1;
        let requests = frame.window.delta("serve.requests").expect("tracked");
        if requests >= 6 && !frame.templates.is_empty() {
            assert!(frame.template_total >= 6, "every parsed push is sketched");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no streamed window carried the traffic after {streamed} frames"
        );
    }
    // The loop stayed responsive throughout.
    c.ping().expect("ping while watching");

    // HISTORY returns the same ring, oldest first, seq strictly rising.
    let history = c.history(1000).expect("history");
    assert!(
        history.windows.len() >= 2,
        "several windows sealed: {}",
        history.windows.len()
    );
    assert!(history
        .windows
        .windows(2)
        .all(|w| w[0].window.seq < w[1].window.seq));
    // STATS carries the summary of the same engine.
    let stats = c.stats().expect("stats");
    assert!(stats.metrics.window.sealed >= 2);
    assert_eq!(stats.metrics.window.width_ms, 100);
}

/// Shrink a socket's kernel receive buffer to the OS minimum so the
/// peer's writes hit backpressure after a few KB instead of after the
/// default ~128 KB of kernel buffering (which would stretch this test
/// from about a second to about a minute). The build has no `libc`
/// crate; declare the one call directly, as `shims/polling` does.
fn shrink_recv_buffer(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};
    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    let val: c_int = 1; // kernel clamps to its per-socket minimum
                        // SAFETY: fd is a live socket owned by `stream`, and the value
                        // pointer/length describe a valid c_int for the whole call.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&val as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
}

/// A watcher that never reads is disconnected with the typed
/// `slow_consumer` error once streamed windows overflow its outbox —
/// the same ladder every connection gets. Kernel buffering on both
/// sides is pinned small (`SO_SNDBUF` via the server's soft watermark,
/// `SO_RCVBUF` here) so the ladder engages in well under a second.
#[test]
fn slow_watcher_gets_typed_disconnect() {
    let cfg = ServerConfig {
        outbox_soft_bytes: 1024,
        outbox_hard_bytes: 2048,
        window_width: Duration::from_millis(10),
        ..windowed_config()
    };
    let server = Server::start(train_tiny(32), "127.0.0.1:0", cfg).expect("start");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    shrink_recv_buffer(&stream);
    let mut stream = stream;
    stream
        .write_all(b"{\"verb\":\"WATCH\"}\n")
        .expect("subscribe");
    // Never read: sealed windows stream every 10ms, the tiny receive
    // buffer fills, the server's outbox backs up past the hard cap, and
    // the ladder disconnects the watcher.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if server.metrics().snapshot().frontend.slow_disconnects >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slow watcher was never disconnected"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
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

/// The polling verbs over the wire: `HISTORY` fills as windows seal,
/// and `PROF` reports an idle profiler unless the config turned it on.
#[test]
fn history_and_prof_serve_over_the_wire() {
    let server = Server::start(train_tiny(33), "127.0.0.1:0", windowed_config()).expect("start");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.recommend("hp", "SELECT a FROM t1", 3).expect("recommend");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let h = c.history(10).expect("history");
        if !h.windows.is_empty() {
            break;
        }
        assert!(Instant::now() < deadline, "no window sealed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let report = c.prof(8).expect("prof");
    assert!(!report.running, "profiler off unless configured on");
}

/// The doomed child server: durable dir from the env, fast windows,
/// announce readiness, serve until SIGKILLed.
#[test]
#[ignore = "child half of history_survives_sigkill_restart"]
fn telemetry_server_child() {
    let Some(dir) = std::env::var_os(DIR_ENV) else {
        return; // invoked directly (e.g. --ignored sweep): nothing to do
    };
    let dir = PathBuf::from(dir);
    let cfg = ServerConfig {
        data_dir: Some(dir),
        ..windowed_config()
    };
    let server = Server::start(train_tiny(34), "127.0.0.1:0", cfg).expect("child server start");
    // Raw stdout: libtest's capture buffer only flushes when a test
    // ends, and this one never does.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "READY {}", server.local_addr()).expect("announce");
    out.flush().expect("flush announce");
    drop(out);
    loop {
        std::thread::sleep(Duration::from_secs(60));
    }
}

/// Acceptance: sealed windows survive a SIGKILL via the telemetry log.
/// A child server seals windows under traffic, the parent records what
/// `HISTORY` reported, SIGKILLs the child, restarts over the same
/// directory, and finds the pre-kill windows in `HISTORY` again — with
/// new sequence numbers continuing after the restored ones.
#[test]
fn history_survives_sigkill_restart() {
    let dir = std::env::temp_dir().join(format!("qrec-serve-tlog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(&exe)
        .args([
            "telemetry_server_child",
            "--exact",
            "--ignored",
            "--nocapture",
        ])
        .env(DIR_ENV, &dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server child");

    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    // libtest prints its `test ... ` prefix without a newline, so READY
    // arrives glued to it — search within the line, don't anchor.
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read child stdout");
        assert!(n > 0, "child exited before READY");
        if let Some(pos) = line.find("READY ") {
            break line[pos + "READY ".len()..].trim().to_string();
        }
    };

    // Drive traffic until at least three windows sealed, one carrying
    // requests.
    let mut c = Client::connect(addr.as_str()).expect("connect to child");
    let deadline = Instant::now() + Duration::from_secs(30);
    let pre_kill = loop {
        for i in 0..3 {
            c.recommend("hist", &format!("SELECT a FROM t{}", i + 1), 3)
                .expect("child recommend");
        }
        let h = c.history(1000).expect("child history");
        let carried: u64 = h
            .windows
            .iter()
            .filter_map(|w| w.window.delta("serve.requests"))
            .sum();
        if h.windows.len() >= 3 && carried >= 3 {
            break h.windows;
        }
        assert!(Instant::now() < deadline, "child never sealed 3 windows");
        std::thread::sleep(Duration::from_millis(30));
    };
    drop(c);

    // SIGKILL: no drain, no flush hooks, no destructors. The telemetry
    // log's acknowledged frames live in the OS page cache.
    child.kill().expect("kill child");
    let _ = child.wait();

    let cfg = ServerConfig {
        data_dir: Some(dir.clone()),
        ..windowed_config()
    };
    let server = Server::start(train_tiny(34), "127.0.0.1:0", cfg).expect("restart over dir");
    let mut c = Client::connect(server.local_addr()).expect("connect after restart");
    let restored = c.history(1000).expect("history after restart").windows;
    assert!(
        !restored.is_empty(),
        "restored HISTORY must carry pre-kill windows"
    );
    // Every pre-kill window except possibly the newest (sealed but not
    // yet appended when the kill landed) must be back, byte-identical
    // in the fields that matter.
    let restored_seqs: Vec<u64> = restored.iter().map(|w| w.window.seq).collect();
    for w in &pre_kill[..pre_kill.len() - 1] {
        assert!(
            restored_seqs.contains(&w.window.seq),
            "pre-kill window seq {} missing after restart (have {:?})",
            w.window.seq,
            restored_seqs
        );
        let again = restored
            .iter()
            .find(|r| r.window.seq == w.window.seq)
            .expect("present");
        assert_eq!(again.window.unix_ms, w.window.unix_ms);
        assert_eq!(
            again.window.delta("serve.requests"),
            w.window.delta("serve.requests")
        );
    }
    // New windows continue after the restored sequence, never reusing
    // seqs.
    let max_restored = restored_seqs.iter().copied().max().expect("non-empty");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let h = c.history(1000).expect("history keeps growing");
        if let Some(max_now) = h.windows.iter().map(|w| w.window.seq).max() {
            if max_now > max_restored {
                break;
            }
        }
        assert!(Instant::now() < deadline, "no new window after restart");
        std::thread::sleep(Duration::from_millis(30));
    }

    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic drift detection, fake clock, no sleeps: a scripted
/// template-popularity flip between two windows pushes the JS
/// divergence gauge across the alert threshold within the second
/// window.
#[test]
fn template_flip_raises_js_divergence_within_two_windows() {
    let metrics = Metrics::new();
    let telemetry = Telemetry::new(&metrics, Duration::from_secs(10), 8);

    // Window 1: template 1 dominates. First window has no predecessor,
    // so drift is zero by construction.
    for _ in 0..100 {
        telemetry.note_template(1);
    }
    for _ in 0..5 {
        telemetry.note_template(2);
    }
    let w1 = telemetry.seal_at(10_000);
    assert_eq!(w1.drift.js_divergence, 0.0, "no predecessor, no drift");

    // Window 2: the popularity flips. JS divergence of the flipped
    // distributions is large (ln-based JS is bounded by ln 2 ≈ 0.693).
    for _ in 0..100 {
        telemetry.note_template(2);
    }
    for _ in 0..5 {
        telemetry.note_template(1);
    }
    let w2 = telemetry.seal_at(20_000);
    const ALERT: f64 = 0.2;
    assert!(
        w2.drift.js_divergence > ALERT,
        "flip must cross the threshold within two windows: {}",
        w2.drift.js_divergence
    );
    assert!(w2.drift.js_divergence <= std::f64::consts::LN_2 + 1e-9);
    assert!(w2.drift.chi_square > 0.0, "chi-square flags the flip too");

    // The score is exported through the registry gauges, which is what
    // `latest_drift` (and so STATS) reads back.
    let published = telemetry.latest_drift();
    assert!(
        published.js_divergence > ALERT,
        "gauge-backed readback crossed the threshold: {}",
        published.js_divergence
    );

    // A steady window afterwards drops back under the threshold.
    for _ in 0..100 {
        telemetry.note_template(2);
    }
    for _ in 0..5 {
        telemetry.note_template(1);
    }
    let w3 = telemetry.seal_at(30_000);
    assert!(
        w3.drift.js_divergence < ALERT / 2.0,
        "steady workload must not alert: {}",
        w3.drift.js_divergence
    );
}
