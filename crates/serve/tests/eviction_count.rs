//! One eviction count feeds `STATS` and `DUMP`.
//!
//! The housekeeping thread adds each TTL sweep's evictions to the
//! registered `serve.sessions_evicted` counter, which `STATS` reports as
//! `metrics.sessions_evicted` and `DUMP` exposes as
//! `qrec_serve_sessions_evicted`. Lives in its own test binary: `DUMP`
//! sums every server in the process, so no other test may evict here.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{Client, Server, ServerConfig};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn train_tiny(seed: u64) -> Recommender {
    let (workload, _catalog) = generate(&WorkloadProfile::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = Split::paper(workload.pairs(), &mut rng);
    let mut cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = 2;
    let (model, _report) = Recommender::try_train(&split, &workload, cfg).expect("train");
    model
}

/// The value of the `DUMP` line for `serve.sessions_evicted`.
fn dumped_evictions(c: &mut Client) -> u64 {
    let dump = c.dump().expect("dump");
    dump.lines()
        .find_map(|l| l.strip_prefix("qrec_serve_sessions_evicted "))
        .expect("DUMP has a sessions_evicted line")
        .parse()
        .expect("counter value")
}

#[test]
fn swept_sessions_move_the_stats_field_and_the_dump_line_alike() {
    let cfg = ServerConfig {
        session_ttl: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let mut server = Server::start(train_tiny(3), "127.0.0.1:0", cfg).expect("start");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let stats_before = c.stats().expect("stats").metrics.sessions_evicted;
    let dump_before = dumped_evictions(&mut c);

    const K: u64 = 5;
    for i in 0..K {
        server
            .sessions()
            .push_sql(&format!("idle-{i}"), "SELECT a FROM t")
            .expect("push");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let evicted = loop {
        let stats = c.stats().expect("stats");
        let evicted = stats.metrics.sessions_evicted - stats_before;
        if stats.sessions == 0 && evicted >= K {
            break evicted;
        }
        assert!(Instant::now() < deadline, "sessions never swept: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(evicted, K, "STATS sessions_evicted moved by the sweep");
    assert_eq!(
        dumped_evictions(&mut c) - dump_before,
        K,
        "DUMP serve.sessions_evicted moved by the sweep"
    );
    drop(c);
    server.shutdown();
}
