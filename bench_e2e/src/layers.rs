//! The per-layer budget of the traced run, timed from outside.
//!
//! A fixed sample of the requests the server just answered is replayed
//! through each crate's public functions in this process, against a
//! model trained exactly as the server's was: `FrameBuf` → `serde_json`
//! `Request` → `SessionStore::push_sql` → `RecCache::get` →
//! `Recommender::decode_candidates_for_tokens_cached` → fragment
//! ranking → `RecCache::put` → `Response::to_json_line`. Each call is one
//! child span of the request's root span; a span's self time is its
//! duration minus its children's. No layer's source is touched, so what
//! happens between those calls inside the server (event loop, wake-ups,
//! socket) cannot be timed here and is reported as
//! `serve.unaccounted_share`.
//!
//! Counts come from the server's own `STATS`/`DUMP`, read while it was
//! idle at the two ends of the counted window.

use crate::client::Checker;
use crate::report::Report;
use crate::server::ReadyInfo;
use crate::stats::{median, ratio};
use crate::workloads::{store_config, train_bench_model, Plan, Scale, Workload, TOP_N};
use qrec_core::model::AnyModel;
use qrec_core::Recommender;
use qrec_nn::decode::EncCache;
use qrec_nn::{Seq2Seq, Strategy};
use qrec_serve::batcher::DecodeRequest;
use qrec_serve::{
    CacheKey, DecodeEngine, EngineConfig, FrameBuf, Metrics, ModelRegistry, RecCache, Request,
    Response, SessionStore, StatsReply,
};
use qrec_store::Store;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request of the counted window whose server reply was kept.
#[derive(Debug, Clone, Copy)]
pub struct Sampled {
    pub conn: usize,
    pub pos: usize,
    pub cached: bool,
}

/// What the load generator saw.
pub struct ClientSide {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub hit_p50_ms: f64,
    pub miss_p50_ms: f64,
    pub segment_spread: f64,
    pub whole_run_rps: f64,
    pub ping_p50_us: f64,
    pub trace_overhead_share: f64,
    pub samples: usize,
}

/// What the server reported about the counted window.
pub struct ServerSide<'a> {
    pub before: &'a StatsReply,
    pub after: &'a StatsReply,
    pub dump_before: &'a str,
    pub dump_after: &'a str,
    pub ready: &'a ReadyInfo,
    pub rehydrated: u64,
    /// `Store::get`s the window's requests caused: one per first touch
    /// of a session (rehydration probe).
    pub store_gets: usize,
}

/// One in-process span: request id, name, start and end in nanoseconds
/// since the replay began, parent name.
struct Span {
    request: usize,
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<&'static str>,
}

/// In-memory span log of the replay.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Time one call into a layer as a child of the request's root.
    fn call<R>(&mut self, request: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.spans.push(Span {
            request,
            name,
            start,
            end,
            parent: Some("request"),
        });
        r
    }

    /// Durations of every span with this name, in microseconds.
    fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    fn median_us(&self, name: &str) -> f64 {
        median(&self.us(name))
    }
}

/// Median microseconds of `reps` timed calls.
fn time_us<R>(reps: usize, mut f: impl FnMut(usize) -> R) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for i in 0..reps {
        let t = Instant::now();
        black_box(f(i));
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&v)
}

/// The bucket bound at quantile `q` of a log2 histogram's growth
/// between two `DUMP` texts.
fn dump_quantile(before: &str, after: &str, name: &str, q: f64) -> f64 {
    let buckets = |text: &str| -> Vec<(f64, u64)> {
        let prefix = format!("qrec_{name}_bucket{{le=\"");
        text.lines()
            .filter_map(|l| {
                let rest = l.strip_prefix(&prefix)?;
                let (bound, count) = rest.split_once("\"} ")?;
                let bound = if bound == "+Inf" {
                    f64::INFINITY
                } else {
                    bound.parse().ok()?
                };
                Some((bound, count.trim().parse().ok()?))
            })
            .collect()
    };
    let (b0, b1) = (buckets(before), buckets(after));
    let delta: Vec<(f64, u64)> = b1
        .iter()
        .enumerate()
        .map(|(i, &(bound, c))| (bound, c - b0.get(i).map_or(0, |x| x.1).min(c)))
        .collect();
    let total = delta.last().map_or(0, |x| x.1);
    if total == 0 {
        return 0.0;
    }
    let rank = (total as f64 * q).ceil() as u64;
    delta
        .iter()
        .find(|&&(_, cum)| cum >= rank.max(1))
        .map_or(
            0.0,
            |&(bound, _)| if bound.is_finite() { bound } else { 0.0 },
        )
}

/// Process-wide work counters of this process: decode steps, f32 GEMM
/// calls, int8 GEMM calls.
fn layer_counters() -> [u64; 3] {
    let k = qrec_tensor::kernel::counters();
    let q = qrec_tensor::qi8::counters();
    [
        qrec_nn::decode::counters().steps,
        k.serial + k.parallel,
        q.serial + q.blocked,
    ]
}

/// The same ranking rule the recommender applies to fragment
/// probabilities: probability descending, then name.
fn rank_fragments(model: &Recommender, hyps: &[qrec_nn::Hypothesis]) -> usize {
    let probs = model.fragment_probabilities(hyps);
    let ranked = probs.map(|_, m| {
        let mut r: Vec<(&String, f64)> = m.iter().map(|(f, &p)| (f, p)).collect();
        r.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        r.len()
    });
    ranked.table + ranked.column + ranked.function + ranked.literal
}

/// Store micro-timings on a directory of its own, with the server's
/// store configuration: put, get from the memtable, get from a run,
/// get of an absent key.
fn store_micro(dir: &std::path::Path, values: &[Vec<u8>]) -> Result<[f64; 4], String> {
    let e = |e: qrec_store::StoreError| format!("store micro-timing: {e}");
    let store = Store::open(dir, store_config()).map_err(e)?;
    let key = |i: usize| format!("session/micro-{i}").into_bytes();
    let mut puts = Vec::with_capacity(values.len());
    for (i, v) in values.iter().enumerate() {
        let t = Instant::now();
        store.put(&key(i), v).map_err(e)?;
        puts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut failed = None;
    let mut get = |k: Vec<u8>| match store.get(&k) {
        Ok(v) => v.map_or(0, |v| v.len()),
        Err(err) => {
            failed = Some(err);
            0
        }
    };
    let n = values.len();
    let get_mem = time_us(n, |i| get(key(i)));
    store.flush().map_err(e)?;
    let get_run = time_us(n, |i| get(key(i)));
    let get_miss = time_us(n, |i| get(format!("session/absent-{i}").into_bytes()));
    match failed {
        Some(err) => Err(e(err)),
        None => Ok([median(&puts), get_mem, get_run, get_miss]),
    }
}

/// Replay the sample through the layers and fill in every per-layer
/// metric of `report`; also checks the sampled server replies against
/// this process's own ranking on the same tokens.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    plan: &Plan,
    scale: &Scale,
    sample: &[Sampled],
    checker: &Checker,
    client: &ClientSide,
    server: &ServerSide<'_>,
    spans_path: &std::path::Path,
    report: &mut Report,
) -> Result<(), String> {
    let w = plan.workload;
    let (mut model, _catalog, _gen_s, _train_s) = train_bench_model(scale);
    if w == Workload::ExploreDecodeInt8 {
        model.quantize();
    }
    let registry = Arc::new(ModelRegistry::new(model));
    let (epoch, model) = registry.current();
    let strategy = EngineConfig::default().strategy;
    let beam = match strategy {
        Strategy::Beam { width } | Strategy::DiverseBeam { width, .. } => width,
        Strategy::Greedy | Strategy::Sampling { .. } => 1,
    };

    // ---- the request path, one root span per sampled request.
    // The session store is the kind the server runs: write-through to a
    // store directory on `durable_churn`, memory only elsewhere.
    let ttl = Duration::from_secs(1800);
    let dir = crate::run::TempDir::create("layers")?;
    let durable_store = if w.is_durable() {
        let store = Store::open(&dir.0.join("sessions"), store_config())
            .map_err(|e| format!("replay store: {e}"))?;
        Some(Arc::new(store))
    } else {
        None
    };
    let (sessions, push_span) = match &durable_store {
        Some(store) => (
            SessionStore::with_durable(8, 1, ttl, Arc::clone(store)),
            "serve.session_push_durable",
        ),
        None => (SessionStore::new(8, 1, ttl), "serve.session_push"),
    };
    let cache = Arc::new(RecCache::new(1024));
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut enc_cache = EncCache::new(8);
    let mut tracer = Tracer::new();
    let mut frame = FrameBuf::new(256 * 1024);
    let mut equal = 0usize;
    let mut decodes = 0u64;
    // Decode steps, f32 GEMM calls and int8 GEMM calls of timed decodes.
    let mut work = [0u64; 3];
    let mut accounted_us = Vec::with_capacity(sample.len());
    let mut token_windows = Vec::with_capacity(sample.len());
    let mut src_tokens = 0usize;
    for (id, s) in sample.iter().enumerate() {
        let slot = plan.slot(s.conn, s.pos);
        let wire = slot.wire();
        let root_start = tracer.now();
        let line = tracer.call(id, "serve.frame", || {
            frame.feed(&wire);
            frame.pop_frame()
        });
        let line = line
            .map_err(|e| format!("replay framing: {e}"))?
            .ok_or("replay framing: no frame")?;
        let req: Request = tracer
            .call(id, "serve.json_decode", || serde_json::from_slice(&line))
            .map_err(|e| format!("replay request JSON: {e}"))?;
        let (session, sql) = (
            req.session.as_deref().unwrap_or_default(),
            req.sql.as_deref().unwrap_or_default(),
        );
        let tokens = tracer
            .call(id, push_span, || sessions.push_sql(session, sql))
            .map_err(|e| format!("replay session push: {e}"))?;
        let key = CacheKey::new(epoch, &tokens);
        let hit = tracer.call(id, "serve.cache_get", || cache.get(&key));
        // Follow the path the server took for this request: one it
        // answered from its cache costs no decode here either.
        if hit.is_none() && !s.cached {
            tracer.call(id, "core.vocab_encode", || {
                black_box(model.vocab().encode(&tokens))
            });
            let before = layer_counters();
            let hyps = tracer.call(id, "nn.decode", || {
                model.decode_candidates_for_tokens_cached(
                    &tokens,
                    strategy,
                    &mut rng,
                    &mut enc_cache,
                )
            });
            let after = layer_counters();
            for (sum, (b, a)) in work.iter_mut().zip(before.iter().zip(after)) {
                *sum += a - b;
            }
            decodes += 1;
            src_tokens += tokens.len();
            tracer.call(id, "core.fragment_rank", || rank_fragments(&model, &hyps));
        }
        // The ranking the reply is checked against comes from the
        // recommender's own public entry point, outside the spans.
        let ranked = match hit {
            Some(r) => r,
            None => {
                let r = model.ranked_fragments_for_tokens_cached(
                    &tokens,
                    strategy,
                    &mut rng,
                    &mut enc_cache,
                );
                if s.cached {
                    cache.put(key.clone(), r.clone());
                } else {
                    tracer.call(id, "serve.cache_put", || cache.put(key.clone(), r.clone()));
                }
                r
            }
        };
        let top = ranked.map(|_, r| r.iter().take(TOP_N).cloned().collect::<Vec<_>>());
        if checker.answer(slot.window) == Some(&top) {
            equal += 1;
        }
        let resp = Response::recommendation(top, epoch, s.cached);
        tracer.call(id, "serve.json_encode", || black_box(resp.to_json_line()));
        let root_end = tracer.now();
        let children: u64 = tracer
            .spans
            .iter()
            .rev()
            .take_while(|sp| sp.request == id)
            .map(|sp| sp.end - sp.start)
            .sum();
        accounted_us.push(children as f64 / 1e3);
        tracer.spans.push(Span {
            request: id,
            name: "request",
            start: root_start,
            end: root_end,
            parent: None,
        });
        token_windows.push(tokens);
    }
    report.check(
        "sampled_replies_equal_in_process_ranking",
        equal == sample.len() && !sample.is_empty(),
        format!("{equal} of {} sampled replies equal", sample.len()),
    );

    // ---- the engine hand-off on a cached key: queue + thread wake-up.
    let engine = DecodeEngine::start(
        EngineConfig::default(),
        Arc::clone(&registry),
        Arc::clone(&cache),
        Arc::new(Metrics::new()),
    )
    .map_err(|e| format!("replay engine: {e}"))?;
    let mut engine_err = None;
    let engine_roundtrip_us = time_us(token_windows.len(), |i| {
        let r = engine.recommend(DecodeRequest {
            tokens: token_windows[i].clone(),
            n: TOP_N,
            trace: None,
        });
        if let Err(e) = &r {
            engine_err = Some(e.to_string());
        }
        r.map(|rec| rec.cached).unwrap_or(false)
    });
    drop(engine);
    if let Some(e) = engine_err {
        return Err(format!("replay engine: {e}"));
    }

    // ---- qrec-sql on the sampled statements.
    let sqls: Vec<&str> = sample
        .iter()
        .map(|s| plan.slot(s.conn, s.pos).query.sql.as_str())
        .collect();
    let n = sqls.len();
    let parsed: Vec<qrec_sql::Query> = sqls
        .iter()
        .map(|s| qrec_sql::parse(s).map(|q| qrec_sql::normalize::resolve_aliases(&q)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("replay parse: {e}"))?;
    let record_us = time_us(n, |i| qrec_workload::QueryRecord::new(sqls[i]).is_ok());
    let parse_us = time_us(n, |i| qrec_sql::parse(sqls[i]).is_ok());
    let tokenize_us = time_us(n, |i| qrec_sql::query_tokens(&parsed[i]).len());
    let template_us = time_us(n, |i| qrec_sql::template(&parsed[i]).id());

    // ---- kernels at the model's shapes (B = beam rows per step).
    let AnyModel::Transformer(t) = model.model() else {
        return Err("the bench model is a Transformer".into());
    };
    let cfg = *t.config();
    let (d, v) = (cfg.d_model, model.model().vocab());
    let a: Vec<f32> = (0..160 * d).map(|i| (i % 7) as f32 * 0.1 - 0.3).collect();
    let b: Vec<f32> = (0..d * v.max(d))
        .map(|i| (i % 5) as f32 * 0.1 - 0.2)
        .collect();
    let reps = if scale.smoke { 50 } else { 2000 };
    let gemm_proj_us = time_us(reps, |_| {
        qrec_tensor::kernel::gemm(&a[..beam * d], &b[..d * d], beam, d, d)
    });
    let gemm_vocab_us = time_us(reps, |_| {
        qrec_tensor::kernel::gemm(&a[..beam * d], &b[..d * v], beam, d, v)
    });
    let gemm_train_us = time_us(reps, |_| {
        qrec_tensor::kernel::gemm(&a[..160 * d], &b[..d * d], 160, d, d)
    });
    let qb_proj = qrec_tensor::qi8::QPackedB::from_f32(&b[..d * d], d, d);
    let qb_vocab = qrec_tensor::qi8::QPackedB::from_f32(&b[..d * v], d, v);
    let qgemm_proj_us = time_us(reps, |_| {
        qrec_tensor::qi8::qgemm(&a[..beam * d], &qb_proj, beam)
    });
    let qgemm_vocab_us = time_us(reps, |_| {
        qrec_tensor::qi8::qgemm(&a[..beam * d], &qb_vocab, beam)
    });

    // ---- obs: one span plus its histogram record.
    let hist = qrec_obs::Histogram::log2("bench_e2e.span_probe_us");
    let span_reps = if scale.smoke { 10_000 } else { 200_000 };
    let t = Instant::now();
    for _ in 0..span_reps {
        qrec_obs::Span::in_span_with("bench_e2e.probe", &hist, || black_box(()));
    }
    let span_record_ns = t.elapsed().as_secs_f64() * 1e9 / span_reps as f64;

    // ---- the durable tier, on `durable_churn` only. The in-memory
    // push is timed there too, for the difference the tier makes.
    let mut store_us = [0.0; 4];
    let mut push_us = tracer.median_us("serve.session_push");
    let mut rehydrate_us = 0.0;
    if let Some(store) = durable_store {
        let values: Vec<Vec<u8>> = sqls
            .iter()
            .map(|s| serde_json::to_vec(&vec![s.to_string(); 3]).expect("strings serialise"))
            .collect();
        store_us = store_micro(&dir.0.join("micro"), &values)?;
        let memory = SessionStore::new(8, 1, ttl);
        push_us = time_us(n, |i| memory.push_sql("m", sqls[i]).is_ok());
        // A second session store over the same directory holds nothing
        // in memory: its first look at a session is a rehydration.
        let cold = SessionStore::with_durable(8, 1, ttl, store);
        let ids: std::collections::BTreeSet<String> = sample
            .iter()
            .map(|s| plan.slot(s.conn, s.pos).session.wire_id())
            .collect();
        let ids: Vec<String> = ids.into_iter().collect();
        rehydrate_us = time_us(ids.len(), |i| cold.window_tokens(&ids[i]).is_some());
    }

    // ---- everything, by name.
    let decodes_f = decodes.max(1) as f64;
    let decode_us = tracer.median_us("nn.decode");
    let [steps, gemm_calls, qgemm_calls] = work;
    let steps_per_decode = steps as f64 / decodes_f;
    let mean_src = src_tokens as f64 / decodes_f;
    // Projection GEMMs only (attention score products are not GEMM
    // calls of the kernel): per decoder row-step, per layer, self-attention
    // q/k/v/o and cross-attention q/o are d×d, the feed-forward pair is
    // d×d_ff; then one d×V vocabulary projection. The encoder adds its
    // own q/k/v/o and feed-forward per source token, and each layer's
    // cross-attention k/v over the source once.
    let (dm, dff) = (d as f64, cfg.d_ff as f64);
    let (layers, vocab) = (cfg.layers as f64, v as f64);
    let per_row_step = layers * (6.0 * 2.0 * dm * dm + 2.0 * 2.0 * dm * dff) + 2.0 * dm * vocab;
    let encoder = mean_src * layers * (6.0 * 2.0 * dm * dm + 2.0 * 2.0 * dm * dff);
    let flops_per_decode = steps_per_decode * beam as f64 * per_row_step + encoder;
    // Self-attention keeps K and V per layer for every beam row up to
    // the decode length cap; cross-attention keeps K and V of the source
    // once per layer. f32 holds 4 bytes a value; int8 one byte plus a
    // 4-byte scale per row.
    let max_len = model.config().max_decode_len as f64;
    let value_bytes = |rows: f64| {
        if w == Workload::ExploreDecodeInt8 {
            rows * (dm + 4.0)
        } else {
            rows * dm * 4.0
        }
    };
    let kv_resident_kb =
        layers * 2.0 * (value_bytes(beam as f64 * max_len) + value_bytes(mean_src)) / 1024.0;

    let (m0, m1) = (&server.before.metrics, &server.after.metrics);
    let hits = m1.cache_hits - m0.cache_hits;
    let misses = m1.cache_misses - m0.cache_misses;
    let enc_hits = m1.decode.enc_cache_hits - m0.decode.enc_cache_hits;
    let enc_misses = m1.decode.enc_cache_misses - m0.decode.enc_cache_misses;
    let gemm_serial = m1.compute.gemm_serial - m0.compute.gemm_serial;
    let gemm_parallel = m1.compute.gemm_parallel - m0.compute.gemm_parallel;
    let wal_appends = m1.store.wal_appends - m0.store.wal_appends;
    let accounted_p50_us = median(&accounted_us) + engine_roundtrip_us;
    let unaccounted = if client.p50_ms > 0.0 {
        1.0 - accounted_p50_us / (client.p50_ms * 1e3)
    } else {
        0.0
    };

    let values: BTreeMap<&str, f64> = [
        ("client.p99_ms", client.p99_ms),
        ("client.hit_p50_ms", client.hit_p50_ms),
        ("client.miss_p50_ms", client.miss_p50_ms),
        ("client.segment_spread", client.segment_spread),
        ("client.whole_run_rps", client.whole_run_rps),
        ("client.ping_p50_us", client.ping_p50_us),
        ("client.trace_overhead_share", client.trace_overhead_share),
        ("client.samples", client.samples as f64),
        ("sql.record_us", record_us),
        ("sql.parse_us", parse_us),
        ("sql.tokenize_us", tokenize_us),
        ("sql.template_us", template_us),
        ("serve.frame_us", tracer.median_us("serve.frame")),
        (
            "serve.json_decode_us",
            tracer.median_us("serve.json_decode"),
        ),
        (
            "serve.json_encode_us",
            tracer.median_us("serve.json_encode"),
        ),
        ("serve.session_push_us", push_us),
        ("serve.cache_get_us", tracer.median_us("serve.cache_get")),
        ("serve.cache_put_us", tracer.median_us("serve.cache_put")),
        ("serve.engine_roundtrip_us", engine_roundtrip_us),
        ("serve.start_ms", server.ready.start_ms),
        (
            "serve.session_push_durable_us",
            tracer.median_us("serve.session_push_durable"),
        ),
        ("serve.session_rehydrate_us", rehydrate_us),
        ("serve.sessions_rehydrated", server.rehydrated as f64),
        ("serve.cache_hit_ratio", ratio(hits, hits + misses)),
        (
            "serve.batch_size_mean",
            ratio(m1.batched_jobs - m0.batched_jobs, m1.batches - m0.batches),
        ),
        (
            "serve.batch_wait_p50_us",
            dump_quantile(
                server.dump_before,
                server.dump_after,
                "serve_stage_batch_wait_us",
                0.5,
            ),
        ),
        (
            "serve.stage_decode_p50_us",
            dump_quantile(
                server.dump_before,
                server.dump_after,
                "serve_stage_decode_us",
                0.5,
            ),
        ),
        ("serve.overloaded", (m1.overloaded - m0.overloaded) as f64),
        ("serve.errors", (m1.errors - m0.errors) as f64),
        ("serve.unaccounted_share", unaccounted),
        (
            "core.fragment_rank_us",
            tracer.median_us("core.fragment_rank"),
        ),
        (
            "core.vocab_encode_us",
            tracer.median_us("core.vocab_encode"),
        ),
        ("nn.decode_us", decode_us),
        ("nn.steps_per_decode", steps_per_decode),
        (
            "nn.step_us",
            if steps_per_decode > 0.0 {
                decode_us / steps_per_decode
            } else {
                0.0
            },
        ),
        (
            "nn.enc_cache_hit_ratio",
            ratio(enc_hits, enc_hits + enc_misses),
        ),
        (
            "nn.decode_steps",
            (m1.decode.steps - m0.decode.steps) as f64,
        ),
        ("nn.train_s", server.ready.train_s),
        ("nn.kv_resident_kb", kv_resident_kb),
        (
            "tensor.gemm_calls_per_decode",
            gemm_calls as f64 / decodes_f,
        ),
        (
            "tensor.gemm_parallel_share",
            ratio(gemm_parallel, gemm_serial + gemm_parallel),
        ),
        ("tensor.gemm_proj_us", gemm_proj_us),
        ("tensor.gemm_vocab_us", gemm_vocab_us),
        ("tensor.gemm_flops_per_decode", flops_per_decode),
        ("tensor.qgemm_proj_us", qgemm_proj_us),
        ("tensor.qgemm_vocab_us", qgemm_vocab_us),
        (
            "tensor.qgemm_calls_per_decode",
            qgemm_calls as f64 / decodes_f,
        ),
        ("tensor.gemm_train_us", gemm_train_us),
        ("store.put_us", store_us[0]),
        ("store.get_mem_us", store_us[1]),
        ("store.get_run_us", store_us[2]),
        ("store.get_miss_us", store_us[3]),
        ("store.wal_appends", wal_appends as f64),
        (
            "store.wal_bytes_per_put",
            ratio(m1.store.wal_bytes - m0.store.wal_bytes, wal_appends),
        ),
        (
            "store.flushes",
            (m1.store.flushes - m0.store.flushes) as f64,
        ),
        ("store.live_runs", m1.store.live_runs as f64),
        (
            "store.bloom_negatives_per_get",
            ratio(
                m1.store.bloom_negatives - m0.store.bloom_negatives,
                server.store_gets as u64,
            ),
        ),
        (
            "store.run_block_reads",
            (m1.store.run_block_reads - m0.store.run_block_reads) as f64,
        ),
        ("store.recover_ms", m1.store.recovery_us as f64 / 1e3),
        ("obs.span_record_ns", span_record_ns),
        ("workload.generate_s", server.ready.generate_s),
        ("workload.requests", (plan.lap_requests()) as f64),
        ("workload.distinct_windows", plan.distinct_windows as f64),
    ]
    .into_iter()
    .collect();
    for &(name, unit, _) in &crate::report::PER_LAYER {
        let v = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("per-layer metric {name} has no value"))?;
        report.metric(name, v, unit);
    }
    report
        .counts
        .insert("replay.sampled_requests".into(), sample.len() as u64);
    report
        .counts
        .insert("replay.answers_equal".into(), equal as u64);

    // ---- the replay's spans, after the client's in the same file.
    let mut out = std::fs::OpenOptions::new()
        .append(true)
        .open(spans_path)
        .map(std::io::BufWriter::new)
        .map_err(|e| format!("open {}: {e}", spans_path.display()))?;
    for s in &tracer.spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"replay\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.request, s.name, s.start, s.end
        )
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    }
    out.flush()
        .map_err(|e| format!("write {}: {e}", spans_path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_quantile_reads_the_growth_between_two_dumps() {
        let before = "qrec_x_us_bucket{le=\"1\"} 10\nqrec_x_us_bucket{le=\"2\"} 10\n\
                      qrec_x_us_bucket{le=\"4\"} 10\nqrec_x_us_bucket{le=\"+Inf\"} 10\n";
        let after = "qrec_x_us_bucket{le=\"1\"} 11\nqrec_x_us_bucket{le=\"2\"} 15\n\
                     qrec_x_us_bucket{le=\"4\"} 20\nqrec_x_us_bucket{le=\"+Inf\"} 20\n";
        // Growth: 1 in ≤1, 4 more in ≤2, 5 more in ≤4: the 5th of 10 is ≤2.
        assert_eq!(dump_quantile(before, after, "x_us", 0.5), 2.0);
        assert_eq!(dump_quantile(before, after, "x_us", 0.9), 4.0);
        assert_eq!(dump_quantile(before, before, "x_us", 0.5), 0.0);
        assert_eq!(dump_quantile(before, after, "absent", 0.5), 0.0);
    }
}
