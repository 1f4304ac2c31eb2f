//! The threads a running server owns, counted from outside.
//!
//! A server with `w` decode workers and the profiler off runs the event
//! loop, the `w` workers and one housekeeping thread (session sweep and
//! telemetry seal) — nothing else, however many timed jobs it has.
//! This file holds a single test so that no other test's threads are
//! counted alongside it.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{EngineConfig, Server, ServerConfig};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn train_tiny(seed: u64) -> Recommender {
    let (workload, _catalog) = generate(&WorkloadProfile::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = Split::paper(workload.pairs(), &mut rng);
    let mut cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = 1;
    let (model, _report) = Recommender::try_train(&split, &workload, cfg).expect("train");
    model
}

/// Threads of this process, from /proc/self/status.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn a_server_adds_the_loop_its_workers_and_one_housekeeping_thread() {
    let model = train_tiny(21);
    let cfg = ServerConfig {
        engine: EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        profiler: false,
        ..ServerConfig::default()
    };
    let baseline = process_threads();
    let mut server = Server::start(model, "127.0.0.1:0", cfg).expect("start");
    let running = process_threads();
    assert_eq!(
        running - baseline,
        4,
        "event loop + 2 decode workers + housekeeping: {baseline} -> {running}"
    );
    server.shutdown();
    // A joined thread can linger in /proc for a moment after `join`
    // returns; give the count a short while to settle.
    let mut after = process_threads();
    for _ in 0..100 {
        if after == baseline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        after = process_threads();
    }
    assert_eq!(after, baseline, "shutdown joins every server thread");
}
