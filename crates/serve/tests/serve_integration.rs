//! End-to-end serving test: train a tiny model, run the real TCP
//! server on an ephemeral port, and drive it with real clients.
//!
//! Covers the full story in one pass (training is the expensive part,
//! so the scenario reuses one server): parallel clients, cache hits on
//! repeated windows, STATS accounting, typed backpressure from a
//! saturated queue, two workers serving two queued jobs concurrently,
//! model hot-swap mid-serve, and graceful shutdown. A second, smaller
//! scenario checks over the wire that a rejected RECOMMEND is not
//! counted as accepted; two more pin where a request is served — a
//! cache hit on the event-loop thread (no decode worker involved, replies
//! still in request order), anything durable or oversized on a worker.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{
    Client, DecodeEngine, DecodeRequest, EngineConfig, Metrics, MetricsSnapshot, RecCache,
    Response, ServeError, Server, ServerConfig, LOOP_PARSE_MAX_BYTES,
};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Train a small-but-real recommender; two epochs is plenty for a
/// serving test (we exercise plumbing, not model quality).
fn train_tiny(seed: u64) -> Recommender {
    let (workload, _catalog) = generate(&WorkloadProfile::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = Split::paper(workload.pairs(), &mut rng);
    let mut cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = 2;
    let (model, _report) = Recommender::try_train(&split, &workload, cfg).expect("train");
    model
}

fn server_config() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: 2,
            queue_cap: 32,
            ..EngineConfig::default()
        },
        session_ttl: Duration::from_secs(600),
        sweep_interval: Duration::from_secs(600),
        cache_capacity: 256,
        ..ServerConfig::default()
    }
}

#[test]
fn serve_end_to_end() {
    let mut server =
        Server::start(train_tiny(1), "127.0.0.1:0", server_config()).expect("bind ephemeral port");
    let addr = server.local_addr();

    // Liveness.
    let mut probe = Client::connect(addr).expect("connect");
    probe.ping().expect("ping");

    // --- parallel clients, distinct sessions --------------------------
    let sqls = [
        "SELECT a FROM t",
        "SELECT b FROM t WHERE a > 1",
        "SELECT a, b FROM t ORDER BY a",
    ];
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let session = format!("user-{i}");
                for sql in sqls {
                    let resp = c.recommend(&session, sql, 5).expect("recommend");
                    assert_eq!(resp.epoch, Some(1), "all pre-swap replies are epoch 1");
                    let frags = resp.fragments.expect("fragments present");
                    assert!(
                        frags.table.len() <= 5
                            && frags.column.len() <= 5
                            && frags.function.len() <= 5
                            && frags.literal.len() <= 5,
                        "n caps every kind"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // --- cache hit on a repeated input window -------------------------
    // Window size is 1, so re-issuing the same statement reproduces the
    // same normalized window; the second answer must come from the LRU.
    let mut c = Client::connect(addr).expect("connect");
    let first = c
        .recommend("cache-user", "SELECT a FROM t WHERE b < 2", 5)
        .expect("first");
    let second = c
        .recommend("cache-user", "SELECT a FROM t WHERE b < 2", 5)
        .expect("second");
    assert_eq!(
        second.cached,
        Some(true),
        "repeat window must hit the cache"
    );
    assert_eq!(
        first.fragments, second.fragments,
        "cached ranking equals the computed one"
    );

    // --- STATS accounting ---------------------------------------------
    let stats = probe.stats().expect("stats");
    assert!(stats.metrics.requests > 0);
    assert!(stats.metrics.recommends >= 14, "4 clients x 3 + 2 = 14");
    assert!(stats.metrics.cache_hits >= 1);
    assert!(stats.metrics.cache_misses >= 1);
    assert!(stats.metrics.batches >= 1);
    assert!(stats.metrics.batched_jobs >= stats.metrics.batches);
    assert!(stats.metrics.latency.count > 0);
    assert_eq!(stats.model_epoch, 1);
    assert!(stats.sessions >= 5, "4 parallel sessions + cache-user");
    assert!(stats.cache_entries >= 1);

    // --- typed backpressure from a saturated queue --------------------
    // A zero-worker engine against the same registry: the queue never
    // drains, so capacity + 1 submissions deterministically overflow.
    {
        let idle = DecodeEngine::start(
            EngineConfig {
                workers: 0,
                queue_cap: 2,
                ..EngineConfig::default()
            },
            Arc::clone(server.registry()),
            Arc::new(RecCache::new(4)),
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let req = DecodeRequest {
            tokens: vec!["select".into(), "a".into()],
            n: 3,
            trace: None,
        };
        let unserved = || Box::new(|_| panic!("an idle engine never replies"));
        assert!(idle.submit_callback(req.clone(), None, unserved()).is_ok());
        assert!(idle.submit_callback(req.clone(), None, unserved()).is_ok());
        match idle.submit_callback(req, None, unserved()) {
            Err(ServeError::Overloaded) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    // --- two workers serve two queued jobs concurrently ---------------
    // Each job's `prepare` waits (2 s at most) for the other's to have
    // started. A worker that took both jobs off the queue and served
    // them in turn would time the first one out.
    {
        let engine = DecodeEngine::start(
            EngineConfig {
                workers: 2,
                queue_cap: 4,
                ..EngineConfig::default()
            },
            Arc::clone(server.registry()),
            Arc::new(RecCache::new(4)),
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let (a_started, a_seen) = mpsc::channel::<()>();
        let (b_started, b_seen) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        for (name, started, other) in [("a", a_started, b_seen), ("b", b_started, a_seen)] {
            let prepare = Box::new(move || {
                let _ = started.send(());
                other
                    .recv_timeout(Duration::from_secs(2))
                    .map(|()| vec!["select".into(), "a".into()])
                    .map_err(|_| ServeError::BadRequest(format!("job {name} ran alone")))
            });
            let done = done_tx.clone();
            let reply = Box::new(move |result| drop(done.send((name, result))));
            let req = DecodeRequest {
                tokens: Vec::new(),
                n: 3,
                trace: None,
            };
            engine
                .submit_callback(req, Some(prepare), reply)
                .expect("queue has room");
        }
        for _ in 0..2 {
            let (name, result) = done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("both jobs reply");
            assert!(result.is_ok(), "job {name}: {result:?}");
        }
    }

    // --- hot-swap: in-flight service continues, epoch advances --------
    let new_epoch = server.swap_model(train_tiny(2));
    assert_eq!(new_epoch, 2);
    let resp = c
        .recommend("cache-user", "SELECT a FROM t WHERE b < 2", 5)
        .expect("post-swap recommend");
    assert_eq!(resp.epoch, Some(2), "new model serves after the swap");
    assert_eq!(
        resp.cached,
        Some(false),
        "epoch-keyed cache cannot serve the old model's entry"
    );
    probe.ping().expect("server alive across swap");
    assert_eq!(probe.stats().expect("stats").metrics.swaps, 1);

    // --- graceful shutdown --------------------------------------------
    probe.shutdown_server().expect("SHUTDOWN acknowledged");
    assert!(
        server.wait_for_shutdown_request(Some(Duration::from_secs(5))),
        "SHUTDOWN verb signals the owner"
    );
    drop(c);
    drop(probe);
    server.shutdown();
    // The listener is gone: a fresh connection must fail (either the
    // connect itself or the first round-trip).
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut late) => late.ping().is_err(),
    };
    assert!(refused, "server must stop accepting after shutdown");
}

/// `recommends` counts RECOMMENDs *accepted* — answered on the loop or
/// queued for a worker: one the full queue turned away is `overloaded`,
/// not both.
#[test]
fn rejected_recommend_is_counted_overloaded_not_accepted() {
    // No workers, room for one job: the first RECOMMEND is accepted and
    // never served, the second finds the queue full.
    let cfg = ServerConfig {
        engine: EngineConfig {
            workers: 0,
            queue_cap: 1,
            ..EngineConfig::default()
        },
        drain_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let server = Server::start(train_tiny(3), "127.0.0.1:0", cfg).expect("start");

    // Raw socket: the reply to this request never comes.
    let mut parked = TcpStream::connect(server.local_addr()).expect("connect");
    parked
        .write_all(b"{\"verb\":\"RECOMMEND\",\"session\":\"p\",\"sql\":\"SELECT a FROM t\"}\n")
        .expect("send");

    let mut c = Client::connect(server.local_addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    while c.stats().expect("stats").metrics.recommends < 1 {
        assert!(Instant::now() < deadline, "first RECOMMEND never queued");
        std::thread::sleep(Duration::from_millis(5));
    }
    match c.recommend("q", "SELECT b FROM t", 3) {
        Err(ServeError::Overloaded) => {}
        other => panic!("expected overloaded, got {other:?}"),
    }
    let m = c.stats().expect("stats").metrics;
    assert_eq!(m.recommends, 1, "only the queued request was accepted");
    assert_eq!(m.overloaded, 1);
    assert_eq!(m.errors, 0);
}

fn metrics(c: &mut Client) -> MetricsSnapshot {
    c.stats().expect("stats").metrics
}

/// A RECOMMEND that hits the cache is answered by the event loop: no
/// job reaches a decode worker (`batches` is the count of worker
/// hand-offs), yet the request is counted, and pipelined replies keep
/// their order when hits (answered at once) and misses (answered when a
/// worker is done) alternate. A statement over `LOOP_PARSE_MAX_BYTES` is
/// the loop's one exception: it rides to a worker even for a hit.
#[test]
fn cache_hits_are_answered_on_the_loop() {
    let server = Server::start(train_tiny(4), "127.0.0.1:0", server_config()).expect("start");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    // --- (a) a repeated window ----------------------------------------
    let first = c.recommend("u", "SELECT a FROM t", 5).expect("first");
    assert_eq!(first.cached, Some(false));
    let before = metrics(&mut c);
    let repeat = c.recommend("u", "SELECT a FROM t", 5).expect("repeat");
    let after = metrics(&mut c);
    assert_eq!(repeat.cached, Some(true));
    assert_eq!(repeat.fragments, first.fragments);
    assert_eq!(repeat.epoch, Some(1));
    assert_eq!(after.batches, before.batches, "no worker hand-off");
    assert_eq!(after.batched_jobs, before.batched_jobs);
    assert_eq!(after.cache_hits, before.cache_hits + 1);
    assert_eq!(after.cache_misses, before.cache_misses);
    assert_eq!(after.recommends, before.recommends + 1);
    assert_eq!(after.latency.count, before.latency.count + 1);

    // A statement that does not parse is answered from the loop too.
    match c.recommend("u", "NOT SQL AT ALL", 5) {
        Err(ServeError::Sql(_)) => {}
        other => panic!("expected a typed SQL error, got {other:?}"),
    }
    let rejected = metrics(&mut c);
    assert_eq!(rejected.batches, after.batches);
    assert_eq!(rejected.errors, after.errors + 1);
    assert_eq!(rejected.recommends, after.recommends + 1);

    // --- (b) eight pipelined frames, new and repeated alternating ------
    let new_sql = |i: usize| format!("SELECT b FROM t WHERE a > {i} ORDER BY c{i}");
    let mut batch = String::new();
    for i in 0..8 {
        let sql = if i % 2 == 0 {
            new_sql(i)
        } else {
            "SELECT a FROM t".to_string()
        };
        let line = format!(r#"{{"verb":"RECOMMEND","session":"pipe","sql":"{sql}","n":5}}"#);
        batch.push_str(&line);
        batch.push('\n');
    }
    let before = metrics(&mut c);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(batch.as_bytes()).expect("write pipeline");
    let mut reader = BufReader::new(stream);
    let replies: Vec<Response> = (0..8)
        .map(|i| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read reply");
            let resp: Response = serde_json::from_str(&line).expect("reply parses");
            assert!(resp.ok, "pipelined request {i} failed: {resp:?}");
            resp
        })
        .collect();
    for (i, resp) in replies.iter().enumerate() {
        // A hit that overtook the miss in front of it would show here.
        assert_eq!(resp.cached, Some(i % 2 == 1), "reply {i} out of order");
        if i % 2 == 1 {
            assert_eq!(resp.fragments, first.fragments, "reply {i}");
        } else {
            let again = c.recommend("check", &new_sql(i), 5).expect("re-ask");
            assert_eq!(again.cached, Some(true));
            assert_eq!(resp.fragments, again.fragments, "reply {i}");
        }
    }
    let after = metrics(&mut c);
    assert_eq!(after.batches, before.batches + 4, "the four new windows");
    assert_eq!(after.cache_misses, before.cache_misses + 4);
    assert_eq!(
        after.cache_hits,
        before.cache_hits + 4 + 4,
        "four piped, four re-asked"
    );

    // --- (c) the statement-length rule --------------------------------
    // Trailing blanks change a statement's length, not its window.
    let padded = |len: usize| format!("{:<len$}", "SELECT a FROM t");
    let before = metrics(&mut c);
    let at_cap = c
        .recommend("long", &padded(LOOP_PARSE_MAX_BYTES), 5)
        .expect("statement at the cap");
    let on_loop = metrics(&mut c);
    assert_eq!(at_cap.cached, Some(true));
    assert_eq!(on_loop.batches, before.batches, "at the cap: the loop's");
    let over_cap = c
        .recommend("long", &padded(LOOP_PARSE_MAX_BYTES + 1), 5)
        .expect("statement over the cap");
    let on_worker = metrics(&mut c);
    assert_eq!(over_cap.cached, Some(true));
    assert_eq!(over_cap.fragments, first.fragments);
    assert_eq!(
        on_worker.batches,
        on_loop.batches + 1,
        "over it: a worker's"
    );
    assert_eq!(on_worker.cache_hits, on_loop.cache_hits + 1);
    assert_eq!(on_worker.recommends, before.recommends + 2);
    assert_eq!(server.sessions().session_len("long"), Some(2));
}

/// With a data directory the WAL write must precede the acknowledgement,
/// and it may block: every request — a cache hit included — still rides
/// to a worker.
#[test]
fn durable_hits_still_ride_to_a_worker() {
    let dir = std::env::temp_dir().join(format!("qrec-serve-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        data_dir: Some(dir.clone()),
        ..server_config()
    };
    let server = Server::start(train_tiny(5), "127.0.0.1:0", cfg).expect("start");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.recommend("u", "SELECT a FROM t", 5).expect("first");
    let before = metrics(&mut c);
    let repeat = c.recommend("u", "SELECT a FROM t", 5).expect("repeat");
    let after = metrics(&mut c);
    assert_eq!(repeat.cached, Some(true));
    assert_eq!(after.batches, before.batches + 1, "served by a worker");
    assert_eq!(after.store.wal_appends, before.store.wal_appends + 1);
    assert_eq!(after.cache_hits, before.cache_hits + 1);
    assert_eq!(after.recommends, before.recommends + 1);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two statements whose token windows differ only in where a string
/// literal ends have different cache keys, even when the literal holds
/// the U+001F a separator-joined key put between tokens: the second is
/// decoded, not served the first one's ranking.
#[test]
fn a_literal_cannot_pose_as_a_token_boundary() {
    let server = Server::start(train_tiny(6), "127.0.0.1:0", server_config()).expect("start");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let plain = "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t";
    let posing = "SELECT CASE WHEN a = 1 THEN 'x''\u{1f}ELSE\u{1f}''y' END FROM t";
    let first = c.recommend("plain", plain, 5).expect("plain");
    assert_eq!(first.cached, Some(false));
    let second = c.recommend("posing", posing, 5).expect("posing");
    assert_eq!(second.cached, Some(false), "a different window misses");
    let again = c.recommend("again", plain, 5).expect("plain again");
    assert_eq!(again.cached, Some(true), "the same window still hits");
}
