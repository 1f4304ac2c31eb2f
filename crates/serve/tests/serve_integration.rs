//! End-to-end serving test: train a tiny model, run the real TCP
//! server on an ephemeral port, and drive it with real clients.
//!
//! Covers the full story in one pass (training is the expensive part,
//! so the scenario reuses one server): parallel clients, cache hits on
//! repeated windows, STATS accounting, typed backpressure from a
//! saturated queue, two workers serving two queued jobs concurrently,
//! model hot-swap mid-serve, and graceful shutdown. A second, smaller
//! scenario checks over the wire that a rejected RECOMMEND is not
//! counted as accepted.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{
    Client, DecodeEngine, DecodeRequest, EngineConfig, Metrics, RecCache, ServeError, Server,
    ServerConfig,
};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
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

/// `recommends` counts RECOMMENDs *accepted into the decode queue*: one
/// the full queue turned away is `overloaded`, not both.
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
