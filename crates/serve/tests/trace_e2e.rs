//! End-to-end flight-recorder test: drive real `RECOMMEND` requests
//! through the TCP server and assert that `TRACE` returns complete
//! per-request stage chains — proving the trace context survives the
//! loop-thread → batcher-worker hand-off with a stable request id, and
//! that a cache hit answered on the loop thread records the same chain
//! minus the hand-off — and that `DUMP` exposes the stage histograms
//! those spans fed.
//!
//! Lives in its own test binary on purpose: the flight recorder and
//! metric registry are process-global, so a dedicated process keeps
//! other integration tests' requests out of the assertions.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{Client, EngineConfig, Server, ServerConfig};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Duration;

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
            workers: 1,
            queue_cap: 32,
            ..EngineConfig::default()
        },
        session_ttl: Duration::from_secs(600),
        cache_capacity: 256,
        ..ServerConfig::default()
    }
}

#[test]
fn flight_records_carry_full_stage_chains_end_to_end() {
    qrec_obs::set_enabled(true);
    let mut server =
        Server::start(train_tiny(1), "127.0.0.1:0", server_config()).expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // First request on a fresh window decodes; the repeat is answered by
    // the recommendation cache. Both must land in the flight recorder.
    let sql = "SELECT a FROM t WHERE b < 2";
    client
        .recommend("trace-user", sql, 5)
        .expect("decode request");
    let repeat = client
        .recommend("trace-user", sql, 5)
        .expect("cached request");
    assert_eq!(
        repeat.cached,
        Some(true),
        "repeat window must hit the cache"
    );

    let reply = client
        .trace(16)
        .expect("TRACE round-trips through the client");
    assert!(
        reply.recent.len() >= 2,
        "both requests recorded, got {}",
        reply.recent.len()
    );

    // Newest first: recent[0] is the cached repeat, recent[1] the decode.
    let cached = &reply.recent[0];
    let decoded = &reply.recent[1];

    // --- stable request identity across the batcher hand-off ---------
    // The "session" stage is recorded on the loop thread, "decode" on
    // the batcher worker; both appearing in one record proves the
    // context kept its identity through the queue.
    let ids: HashSet<u64> = reply.recent.iter().map(|r| r.request_id).collect();
    assert_eq!(ids.len(), reply.recent.len(), "request ids are distinct");
    assert!(
        decoded.request_id < cached.request_id,
        "ids increase monotonically"
    );

    // --- decode-path record: full stage chain, non-zero durations -----
    let stage = |name: &str| decoded.stages.iter().find(|s| s.name == name);
    for name in ["session", "batch_wait", "cache", "decode", "rank"] {
        assert!(
            stage(name).is_some(),
            "decode record has stage {name:?}: {decoded:?}"
        );
    }
    let decode_stage = stage("decode").expect("decode stage");
    assert!(decode_stage.dur_us > 0, "decode takes measurable time");
    assert!(
        decoded.total_us >= decode_stage.dur_us,
        "total covers the decode stage"
    );
    // The encode span nests inside the decode span on the worker.
    let encode = stage("encode").expect("encoder span nests in decode");
    assert!(encode.depth > decode_stage.depth, "encode is nested deeper");
    // Stage offsets are measured from one origin and ordered.
    assert!(decode_stage.start_us >= stage("session").expect("session").start_us);
    assert!(!decoded.cache_hit, "first window missed the cache");
    assert!(decoded.decode_steps > 0, "decoder steps attributed");
    assert!(!decoded.strategy.is_empty(), "strategy recorded");
    assert!(decoded.batch_size >= 1, "batch size recorded");
    assert_eq!(decoded.epoch, 1, "served by the first model epoch");

    // --- cache-hit record: answered on the loop — the same chain minus
    // the hand-off and the decode -------------------------------------
    assert!(cached.cache_hit, "repeat request is a cache hit");
    let names: Vec<&str> = cached.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["session", "cache", "rank"], "{cached:?}");
    assert_eq!(cached.decode_steps, 0);
    assert_eq!(cached.batch_size, 0, "no worker served it");
    assert_eq!(cached.epoch, 1);

    // --- slowest reservoir: sorted, and holds the decode request ------
    assert!(!reply.slowest.is_empty(), "slowest reservoir populated");
    assert!(
        reply
            .slowest
            .windows(2)
            .all(|w| w[0].total_us >= w[1].total_us),
        "slowest is sorted slowest-first"
    );
    assert!(
        reply
            .slowest
            .iter()
            .any(|r| r.request_id == decoded.request_id),
        "the decode request is among the slowest seen"
    );

    // --- DUMP exposes the histograms the spans fed --------------------
    // STATS first: it reads the nn and tensor counters, so every family
    // a scrape can see is registered before the exposition is taken.
    client.stats().expect("STATS");
    let dump = client.dump().expect("DUMP");
    for needle in [
        "# TYPE qrec_serve_stage_decode_us histogram",
        "qrec_serve_stage_session_us_count",
        "qrec_serve_latency_us_count",
        "qrec_nn_decode_steps",
    ] {
        assert!(dump.contains(needle), "DUMP missing {needle:?}:\n{dump}");
    }
    // A scraper rejects an exposition that declares a family twice.
    let mut seen = std::collections::HashSet::new();
    let twice: Vec<&str> = dump
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .filter(|family| !seen.insert(*family))
        .collect();
    assert!(twice.is_empty(), "families declared twice: {twice:?}");

    server.shutdown();
}
