//! Restart-recovery integration tests: the durability story end to end.
//!
//! The headline test SIGKILLs a serving process after it has swapped in
//! a trained model and acknowledged session writes, restarts the server
//! over the same data directory, and asserts that (a) every session is
//! served from its recovered history, (b) the recovered model is the
//! swapped one — same epoch, bitwise-identical weights — and (c) the
//! durable-store metrics surface through `STATS`.
//!
//! The child is this test binary re-executed with the `#[ignore]`d
//! server test selected, the data directory passed through
//! `QREC_SERVE_RESTART_DIR`. The child prints `READY <addr>` only after
//! the model swap has been persisted, so everything the parent does is
//! against post-swap, durability-on state.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{Client, ModelZoo, Server, ServerConfig};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

const DIR_ENV: &str = "QREC_SERVE_RESTART_DIR";

/// Deterministic tiny model: same seed, same weights — in any process.
fn train_tiny(seed: u64) -> Recommender {
    let (workload, _catalog) = generate(&WorkloadProfile::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = Split::paper(workload.pairs(), &mut rng);
    let mut cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = 2;
    let (model, _report) = Recommender::try_train(&split, &workload, cfg).expect("train");
    model
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        session_ttl: Duration::from_secs(600),
        sweep_interval: Duration::from_secs(600),
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Assert two models carry bitwise-identical parameter tensors.
fn assert_weights_bitwise_equal(got: &Recommender, want: &Recommender) {
    let got: Vec<_> = got.params().named_tensors().collect();
    let want: Vec<_> = want.params().named_tensors().collect();
    assert_eq!(got.len(), want.len(), "tensor count differs");
    for ((gn, gt), (wn, wt)) in got.iter().zip(&want) {
        assert_eq!(gn, wn, "tensor name order differs");
        assert_eq!(gt.rows(), wt.rows(), "tensor {gn}: rows differ");
        assert_eq!(gt.cols(), wt.cols(), "tensor {gn}: cols differ");
        for (i, (g, w)) in gt.data().iter().zip(wt.data()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "tensor {gn}[{i}]: {g} != {w} (bitwise)"
            );
        }
    }
}

/// The doomed server run inside the child process: boot with one model,
/// hot-swap (and persist) a second, announce readiness, then serve until
/// the parent SIGKILLs us.
#[test]
#[ignore = "child half of sigkill_restart_recovers_sessions_and_model"]
fn restart_server_child() {
    let Some(dir) = std::env::var_os(DIR_ENV) else {
        return; // invoked directly (e.g. --ignored sweep): nothing to do
    };
    let dir = PathBuf::from(dir);
    let server = Server::start(train_tiny(11), "127.0.0.1:0", durable_config(&dir))
        .expect("child server start");
    let epoch = server
        .try_swap_model(train_tiny(22))
        .expect("persisted swap");
    assert_eq!(epoch, 2, "boot at 1, first swap is 2");
    // Printed only after the swap is durable: the parent's whole
    // interaction happens against the post-swap server. Written to the
    // raw stdout handle — `println!` would land in libtest's capture
    // buffer, which only flushes when a test *ends*, and this one never
    // does.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "READY {}", server.local_addr()).expect("announce");
    out.flush().expect("flush announce");
    drop(out);
    loop {
        std::thread::sleep(Duration::from_secs(60));
    }
}

/// Acceptance test for the PR: populate sessions and hot-swap a model in
/// a child server, SIGKILL it, restart over the same directory, and
/// serve recommendations from the recovered sessions with the recovered
/// model — weights bitwise-equal to the swapped ones.
#[test]
fn sigkill_restart_recovers_sessions_and_model() {
    let dir = std::env::temp_dir().join(format!("qrec-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(&exe)
        .args([
            "restart_server_child",
            "--exact",
            "--ignored",
            "--nocapture",
        ])
        .env(DIR_ENV, &dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server child");

    // Wait for the child to announce its ephemeral address.
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    // libtest prints `test restart_server_child ... ` with no trailing
    // newline before the test body runs, so the READY marker arrives
    // glued to that prefix — search within the line, don't anchor.
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read child stdout");
        assert!(n > 0, "child exited before READY");
        if let Some(pos) = line.find("READY ") {
            break line[pos + "READY ".len()..].trim().to_string();
        }
    };

    // Populate sessions through the real protocol. Every Ok reply is an
    // acknowledged durable write (fsync Always is the default policy).
    let mut c = Client::connect(addr.as_str()).expect("connect to child");
    let alice_sqls = [
        "SELECT a FROM t",
        "SELECT b FROM t WHERE a > 1",
        "SELECT a, b FROM t ORDER BY a",
    ];
    for sql in alice_sqls {
        let resp = c.recommend("alice", sql, 5).expect("alice recommend");
        assert_eq!(resp.epoch, Some(2), "child serves the swapped model");
    }
    for sql in ["SELECT x FROM u", "SELECT y FROM u WHERE x = 0"] {
        c.recommend("bob", sql, 5).expect("bob recommend");
    }
    drop(c);

    // SIGKILL: no drain, no flush hooks, no destructors.
    child.kill().expect("kill child");
    let _ = child.wait();

    // Restart in-process over the same directory with a *different*
    // fallback model; recovery must prefer the persisted state.
    let mut server = Server::start(train_tiny(99), "127.0.0.1:0", durable_config(&dir))
        .expect("restart over recovered dir");
    assert_eq!(server.model_epoch(), 2, "epoch resumes from the zoo");
    assert_weights_bitwise_equal(&server.registry().current().1, &train_tiny(22));

    // Session histories came back from the durable tier...
    assert_eq!(
        server.sessions().session_len("alice"),
        Some(3),
        "alice's acknowledged history survives the SIGKILL"
    );
    assert_eq!(server.sessions().session_len("bob"), Some(2));

    // ...and serving continues from them.
    let mut c = Client::connect(server.local_addr()).expect("connect after restart");
    let resp = c
        .recommend("alice", "SELECT a FROM t WHERE b < 2", 5)
        .expect("recommend from recovered session");
    assert_eq!(resp.epoch, Some(2), "recovered model serves");
    assert!(resp.fragments.is_some(), "real recommendation produced");
    assert_eq!(
        server.sessions().session_len("alice"),
        Some(4),
        "recovered history keeps growing"
    );
    assert!(
        server.sessions().rehydrated() >= 1,
        "at least one session was rehydrated from disk"
    );

    // Durable-store counters surface through STATS.
    let stats = c.stats().expect("stats");
    assert_eq!(stats.model_epoch, 2);
    assert!(
        stats.metrics.store.recovered_records >= 5,
        "recovery replayed the five acknowledged session writes, got {}",
        stats.metrics.store.recovered_records
    );
    assert!(
        stats.metrics.store.wal_appends >= 1,
        "post-restart write hit the WAL"
    );

    drop(c);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zoo save/load round trip preserves the weights bitwise and the
/// epoch exactly — the in-process half of the recovery guarantee.
#[test]
fn zoo_round_trip_is_bitwise() {
    let dir = std::env::temp_dir().join(format!("qrec-zoo-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let zoo = ModelZoo::open(&dir).expect("open zoo");
    assert!(zoo.load_current().expect("empty zoo").is_none());

    let model = train_tiny(7);
    zoo.save(7, &model).expect("save");
    let (epoch, restored) = zoo.load_current().expect("load").expect("model present");
    assert_eq!(epoch, 7);
    assert_weights_bitwise_equal(&restored, &model);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-write a saved blob with its JSON header transformed; the sections
/// are carried over untouched (the blob layer re-CRCs them).
fn rewrite_header(blob_path: &Path, f: impl FnOnce(&mut serde::Map)) {
    let b = qrec_store::blob::read_blob(blob_path).expect("read blob");
    let v: serde::Value = serde_json::from_str(&b.header).expect("parse header");
    let mut map = v.as_object().expect("header is an object").clone();
    f(&mut map);
    let doctored = serde_json::to_string(&serde::Value::Object(map)).expect("serialise header");
    let refs: Vec<&[u8]> = b.sections.iter().map(Vec::as_slice).collect();
    qrec_store::blob::write_blob(blob_path, &doctored, &refs).expect("rewrite blob");
}

/// A quantized model's int8 sidecar persists to the zoo (v2 sections)
/// and is rebuilt on load without re-calibrating: the exported packed
/// weights match entry for entry, the f32 weights stay bitwise, and the
/// restored model decodes what the saved one does, bit for bit.
#[test]
fn quantized_zoo_round_trip_restores_sidecar() {
    let dir = std::env::temp_dir().join(format!("qrec-zoo-quant-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let zoo = ModelZoo::open(&dir).expect("open zoo");
    let mut model = train_tiny(5);
    model.quantize();
    zoo.save(3, &model).expect("save quantized");

    let (epoch, restored) = zoo.load_current().expect("load").expect("model present");
    assert_eq!(epoch, 3);
    assert!(restored.is_quantized(), "sidecar must survive the zoo");
    assert_weights_bitwise_equal(&restored, &model);
    let want = model.params().quant().expect("sidecar").export();
    let got = restored.params().quant().expect("sidecar").export();
    assert_eq!(want.len(), got.len(), "quantized weight count");
    for ((wi, wr, wc, ws, wq), (gi, gr, gc, gs, gq)) in want.iter().zip(&got) {
        assert_eq!(wi, gi, "param index");
        assert_eq!((wr, wc), (gr, gc), "param {wi}: shape");
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ws), bits(gs), "param {wi}: scale bits");
        assert_eq!(wq, gq, "param {wi}: int8 values");
    }
    let tokens: Vec<String> = "select * from t0 where c0 = 1"
        .split(' ')
        .map(String::from)
        .collect();
    let decode = |m: &Recommender| {
        let strategy = qrec_nn::Strategy::Beam { width: 4 };
        let mut rng = StdRng::seed_from_u64(0);
        let mut cache = qrec_nn::decode::EncCache::new(1);
        m.decode_candidates_for_tokens_cached(&tokens, strategy, &mut rng, &mut cache)
            .into_iter()
            .map(|h| (h.ids, h.log_prob.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(decode(&restored), decode(&model), "int8 decode after load");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An f32-only (v1-era) blob — no `quant` header field — still loads,
/// and comes back unquantized.
#[test]
fn v1_blob_without_quant_field_still_loads() {
    let dir = std::env::temp_dir().join(format!("qrec-zoo-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let zoo = ModelZoo::open(&dir).expect("open zoo");
    let model = train_tiny(4);
    zoo.save(1, &model).expect("save");

    // Rewrite the header exactly as a v1 writer would have produced it.
    rewrite_header(&dir.join(ModelZoo::blob_name(1)), |map| {
        map.insert("format_version", serde::Value::Int(1));
        *map = map
            .iter()
            .filter(|(k, _)| k.as_str() != "quant")
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
    });

    let (epoch, restored) = zoo.load_current().expect("v1 blob loads").expect("present");
    assert_eq!(epoch, 1);
    assert!(!restored.is_quantized(), "v1 blobs carry no sidecar");
    assert_weights_bitwise_equal(&restored, &model);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A blob written by a *future* zoo version is refused with a typed
/// corruption error — never a panic or a misparse of unknown sections.
#[test]
fn future_format_version_blob_is_refused_typed() {
    let dir = std::env::temp_dir().join(format!("qrec-zoo-future-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let zoo = ModelZoo::open(&dir).expect("open zoo");
    zoo.save(1, &train_tiny(6)).expect("save");

    rewrite_header(&dir.join(ModelZoo::blob_name(1)), |map| {
        map.insert("format_version", serde::Value::Int(99));
    });

    let err = match zoo.load_current() {
        Err(e) => e,
        Ok(_) => panic!("future version must be refused"),
    };
    assert!(err.is_corrupt(), "wrong error class: {err}");
    assert!(
        err.to_string().contains("format version"),
        "error should name the version mismatch: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped bit anywhere in a persisted weight blob is a typed
/// corruption error on load — never a silently different model.
#[test]
fn corrupt_weight_blob_is_typed_not_loaded() {
    let dir = std::env::temp_dir().join(format!("qrec-zoo-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let zoo = ModelZoo::open(&dir).expect("open zoo");
    let model = train_tiny(3);
    zoo.save(1, &model).expect("save");

    let blob_path = dir.join(ModelZoo::blob_name(1));
    let mut bytes = std::fs::read(&blob_path).expect("read blob");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40; // flip one bit in the middle of the weights
    std::fs::write(&blob_path, &bytes).expect("write corrupted blob");

    let err = match zoo.load_current() {
        Err(e) => e,
        Ok(_) => panic!("corruption must be detected"),
    };
    assert!(err.is_corrupt(), "wrong error class: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
