//! End-to-end serving test: train a tiny model, run the real TCP
//! server on an ephemeral port, and drive it with real clients.
//!
//! Covers the full story in one pass (training is the expensive part,
//! so the scenario reuses one server): parallel clients, cache hits on
//! repeated windows, STATS accounting, typed backpressure from a
//! saturated queue, two workers serving two queued jobs concurrently,
//! model hot-swap mid-serve, and graceful shutdown. A second, smaller
//! scenario checks over the wire that a rejected RECOMMEND is not
//! counted as accepted; another that the decode engine's shutdown
//! serves every job it accepted exactly once; two more pin where a
//! request is served — a
//! cache hit on the event-loop thread (no decode worker involved, replies
//! still in request order), anything durable or oversized on a worker;
//! one more checks that the running server evicts idle sessions, and
//! one pins the `STATS` fields the end-to-end benchmark reads.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{
    Client, DecodeEngine, DecodeRequest, EngineConfig, Metrics, MetricsSnapshot, ModelRegistry,
    QuantMode, RecCache, Response, ServeError, Server, ServerConfig, LOOP_PARSE_MAX_BYTES,
};
use qrec_store::{FsyncPolicy, StoreConfig};
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

/// `shutdown` drains: every job the engine accepted is served exactly
/// once before it returns, the ones still queued when it closed the
/// queue included.
#[test]
fn shutdown_serves_every_accepted_job_once() {
    const JOBS: usize = 8;
    let mut engine = DecodeEngine::start(
        EngineConfig {
            workers: 2,
            queue_cap: JOBS,
            ..EngineConfig::default()
        },
        Arc::new(ModelRegistry::new(train_tiny(5))),
        Arc::new(RecCache::new(2 * JOBS)),
        Arc::new(Metrics::new()),
    )
    .expect("start");
    // The first two jobs hold both workers in `prepare` for a moment, so
    // the other six are still queued when `shutdown` closes the queue.
    // `shutdown` closes and joins in one blocking call, so nothing
    // outside it can order the close before the release; the hold makes
    // that order all but certain, and the assertions hold in any order.
    let (started_tx, started) = mpsc::channel();
    let (done_tx, done) = mpsc::channel();
    for i in 0..JOBS {
        let started_tx = started_tx.clone();
        let prepare = Box::new(move || {
            if i < 2 {
                let _ = started_tx.send(());
                std::thread::sleep(Duration::from_millis(200));
            }
            Ok(vec!["select".to_string(), format!("c{i}")])
        });
        let done_tx = done_tx.clone();
        let reply = Box::new(move |result| drop(done_tx.send((i, result))));
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
        started
            .recv_timeout(Duration::from_secs(30))
            .expect("both workers took a job");
    }
    assert_eq!(engine.queued(), JOBS - 2, "both workers are held");
    engine.shutdown();

    let mut served: Vec<usize> = done
        .try_iter()
        .map(|(i, result)| {
            assert!(result.is_ok(), "job {i}: {result:?}");
            i
        })
        .collect();
    served.sort_unstable();
    assert_eq!(served, (0..JOBS).collect::<Vec<_>>(), "one reply per job");
    assert_eq!(engine.queued(), 0);
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

/// A server over a fresh data directory whose store runs `fsync` and
/// `memtable_bytes`; the directory goes with the returned guard.
fn durable_server(name: &str, fsync: FsyncPolicy, memtable_bytes: usize) -> (Server, TempDir) {
    let dir =
        TempDir(std::env::temp_dir().join(format!("qrec-serve-{name}-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let cfg = ServerConfig {
        data_dir: Some(dir.0.clone()),
        store: StoreConfig {
            fsync,
            memtable_bytes,
            ..StoreConfig::default()
        },
        ..server_config()
    };
    let server = Server::start(train_tiny(5), "127.0.0.1:0", cfg).expect("start");
    (server, dir)
}

/// A directory removed when dropped.
struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Under `FsyncPolicy::Never` a WAL append never waits, so a resident
/// session's cache hit is answered on the loop, its push WAL'd there.
#[test]
fn durable_hits_under_never_are_answered_on_the_loop() {
    let (server, _dir) = durable_server("loop-never", FsyncPolicy::Never, 1 << 20);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let before = metrics(&mut c);
    let first = c.recommend("u", "SELECT a FROM t", 5).expect("first");
    let decoded = metrics(&mut c);
    assert_eq!(first.cached, Some(false));
    assert_eq!(decoded.batches, before.batches + 1, "the miss decodes");
    assert_eq!(decoded.store.wal_appends, before.store.wal_appends + 1);
    let repeat = c.recommend("u", "SELECT a FROM t", 5).expect("repeat");
    let after = metrics(&mut c);
    assert_eq!(repeat.cached, Some(true));
    assert_eq!(repeat.fragments, first.fragments);
    assert_eq!(after.batches, decoded.batches, "answered on the loop");
    assert_eq!(after.store.wal_appends, decoded.store.wal_appends + 1);
    assert_eq!(after.cache_hits, decoded.cache_hits + 1);
    assert_eq!(after.recommends, decoded.recommends + 1);
    assert_eq!(server.sessions().session_len("u"), Some(2));
}

/// Under `EveryN(3)` every third append syncs: those pushes, and only
/// those, ride to a worker.
#[test]
fn under_every_n_exactly_the_syncing_appends_ride_to_a_worker() {
    let (server, _dir) = durable_server("loop-every-n", FsyncPolicy::EveryN(3), 1 << 20);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    // Append 1 rides to a worker with its decode (the session is new);
    // append 2 is the loop's.
    for _ in 0..2 {
        c.recommend("u", "SELECT a FROM t", 5).expect("warm");
    }
    let before = metrics(&mut c);
    assert_eq!(before.store.wal_appends, 2);
    for _ in 0..9 {
        let hit = c.recommend("u", "SELECT a FROM t", 5).expect("repeat");
        assert_eq!(hit.cached, Some(true));
    }
    let after = metrics(&mut c);
    assert_eq!(after.store.wal_appends, 11);
    assert_eq!(after.cache_hits, before.cache_hits + 9);
    // Appends 3, 6 and 9 sync.
    assert_eq!(after.batches, before.batches + 3, "the syncing appends");
    assert_eq!(server.sessions().session_len("u"), Some(11));
}

/// A push that would bring the memtable to its budget is the flushing
/// put's, and that waits: it rides to a worker. Every other push of a
/// resident session stays on the loop, and every reply is the one the
/// window's decode gave.
#[test]
fn flushing_pushes_ride_to_a_worker_and_every_reply_is_correct() {
    let (server, _dir) = durable_server("loop-flush", FsyncPolicy::Never, 1024);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let sqls = ["SELECT a FROM t", "SELECT b FROM t WHERE a > 1"];
    let mut first: Vec<Option<Response>> = vec![None, None];
    // A new session's first push rides to a worker: make all six
    // resident (and the first window cached) before counting.
    for s in 0..6 {
        c.recommend(&format!("s{s}"), sqls[0], 5).expect("create");
    }
    let before = metrics(&mut c);
    let rounds: u64 = 40;
    for i in 0..rounds {
        for (j, sql) in sqls.iter().enumerate() {
            let session = format!("s{}", (i as usize + j) % 6);
            let reply = c.recommend(&session, sql, 5).expect("recommend");
            let want = first[j].get_or_insert_with(|| reply.clone());
            assert_eq!(reply.fragments, want.fragments, "round {i}, {sql}");
            assert_eq!(reply.epoch, want.epoch);
        }
    }
    let after = metrics(&mut c);
    let flushes = after.store.flushes - before.store.flushes;
    let misses = after.cache_misses - before.cache_misses;
    assert!(flushes >= 3, "a 1 KiB memtable flushed {flushes} times");
    assert_eq!(misses, 1);
    assert_eq!(
        after.store.wal_appends - before.store.wal_appends,
        2 * rounds
    );
    assert_eq!(
        after.batches - before.batches,
        misses + flushes,
        "a worker for each decode and each flush, and nothing else"
    );
    let pushes: usize = (0..6)
        .map(|s| server.sessions().session_len(&format!("s{s}")).unwrap())
        .sum();
    assert_eq!(pushes as u64, 6 + 2 * rounds, "every push was applied");
}

/// A push left to a worker is parsed once: the statement table and
/// the telemetry sketch count it once. Under `FsyncPolicy::Never` a new
/// session's push is parsed on the loop and finished on a worker from
/// those tokens; under the default `FsyncPolicy::Always` every push is
/// left to a worker before the loop parses it.
#[test]
fn a_deferred_push_is_parsed_once() {
    for (name, fsync) in [
        ("loop-parse-once-never", FsyncPolicy::Never),
        ("loop-parse-once-always", FsyncPolicy::Always),
    ] {
        let (server, _dir) = durable_server(name, fsync, 1 << 20);
        let mut c = Client::connect(server.local_addr()).expect("connect");
        c.recommend("warm", "SELECT a FROM t", 5).expect("warm");
        let before = metrics(&mut c);
        let table = server.sessions().statement_stats();
        server.telemetry().seal_at(1);
        let sql = "SELECT b FROM t WHERE a > 1 ORDER BY b";
        for i in 0..3 {
            c.recommend(&format!("p{i}"), sql, 5).expect("recommend");
        }
        let sketch = server.telemetry().seal_at(2);
        let after = metrics(&mut c);
        let now = server.sessions().statement_stats();
        assert_eq!(
            after.batches,
            before.batches + 3,
            "{name}: every push deferred"
        );
        assert_eq!(after.store.wal_appends, before.store.wal_appends + 3);
        assert_eq!(
            sketch.template_total, 3,
            "{name}: one template sighting each"
        );
        // First sighting parses, second parses and admits, third hits.
        assert_eq!(now.misses, table.misses + 2, "{name}");
        assert_eq!(now.admitted, table.admitted + 1, "{name}");
        assert_eq!(now.hits, table.hits + 1, "{name}");
        for i in 0..3 {
            assert_eq!(server.sessions().session_len(&format!("p{i}")), Some(1));
        }
    }
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

/// A session idle past its TTL leaves without being asked: the server's
/// housekeeping thread sweeps every sixtieth of the TTL. Shutdown wakes
/// and joins that thread at once rather than after its next deadline.
#[test]
fn idle_sessions_are_swept_by_the_running_server() {
    let cfg = ServerConfig {
        session_ttl: Duration::from_millis(120),
        ..server_config()
    };
    let mut server = Server::start(train_tiny(7), "127.0.0.1:0", cfg).expect("start");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.recommend("brief", "SELECT a FROM t", 5)
        .expect("recommend");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = c.stats().expect("stats");
        if stats.sessions == 0 {
            assert!(stats.metrics.sessions_evicted >= 1, "{stats:?}");
            break;
        }
        assert!(Instant::now() < deadline, "idle session never swept");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(c);
    let t0 = Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        t0.elapsed()
    );
}

/// The `STATS` fields the end-to-end benchmark (`bench_e2e`, a package
/// of its own that clippy and the workspace tests never compile) reads,
/// and nothing else: this test is their owner in the workspace. An
/// int8 server with a data directory, so the store and quant fields
/// carry values, takes one decoded request and one cache hit.
#[test]
fn stats_carries_the_surface_the_end_to_end_benchmark_reads() {
    let dir = std::env::temp_dir().join(format!("qrec-serve-surface-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        data_dir: Some(dir.clone()),
        quant: QuantMode::Int8,
        ..server_config()
    };
    let mut server = Server::start(train_tiny(5), "127.0.0.1:0", cfg).expect("start");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let before = c.stats().expect("stats");
    let sql = "SELECT a FROM t WHERE b < 2";
    let miss = c.recommend("surface-a", sql, 5).expect("decoded");
    assert_eq!(miss.cached, Some(false));
    let hit = c.recommend("surface-b", sql, 5).expect("cached");
    assert_eq!(hit.cached, Some(true));
    let after = c.stats().expect("stats");

    let (m0, m1) = (&before.metrics, &after.metrics);
    assert_eq!(m1.cache_misses - m0.cache_misses, 1);
    assert_eq!(m1.cache_hits - m0.cache_hits, 1);
    // With a data directory both requests ride to a worker, one job per
    // hand-off.
    assert_eq!(m1.batches - m0.batches, 2);
    assert_eq!(m1.batched_jobs - m0.batched_jobs, 2);
    assert_eq!((m1.errors, m1.overloaded), (0, 0));
    // Process-wide counters: other tests in this binary may move them too.
    assert!(m1.decode.steps > m0.decode.steps);
    assert!(m1.decode.enc_cache_hits >= m0.decode.enc_cache_hits);
    assert!(m1.decode.enc_cache_misses > m0.decode.enc_cache_misses);
    // Int8 projections run the int8 product, which DUMP counts apart.
    assert!(m1.compute.gemm_serial >= m0.compute.gemm_serial);
    assert_eq!(m1.compute.gemm_parallel, 0, "no product leaves its thread");
    // The durable tier: one WAL append per request.
    assert_eq!(m1.store.wal_appends - m0.store.wal_appends, 2);
    assert!(m1.store.wal_bytes > m0.store.wal_bytes);
    assert!(m1.store.flushes >= m0.store.flushes);
    assert!(m1.store.bloom_negatives >= m0.store.bloom_negatives);
    assert!(m1.store.run_block_reads >= m0.store.run_block_reads);
    assert!(
        m1.store.live_runs <= m1.store.flushes,
        "a run per flush at most"
    );
    assert_eq!(m1.store.recovery_us, m0.store.recovery_us);
    assert_eq!(after.model_epoch, 1);
    assert!(after.model_quantized, "Int8 serves a quantized model");
    drop(c);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
