//! `bench_quant` — wall-clock and memory comparison of the int8
//! weight-quantized decode path against the f32 reference (DESIGN.md
//! §15).
//!
//! ```text
//! bench_quant [--smoke] [--out PATH]
//! ```
//!
//! Both paths run the *same* strategies on the *same* untrained model —
//! one store carrying the int8 sidecar, one without — so the timings
//! isolate the quantized projection GEMMs and quantized KV cache.
//! Unlike `bench_decode`, the two paths are *not* bitwise-equal; each
//! scenario instead reports the per-step top-5 agreement (the
//! `quant_equivalence` suite's gate, ≥ 0.99) measured teacher-forced
//! along the f32 decode's best hypothesis. `mem_ratio` is the combined
//! model + KV-cache resident footprint of the f32 representation over
//! the quantized one. Beam-8 at the serving length cap is the headline
//! speedup. Results go to `BENCH_quant.json` at the repo root (or
//! `target/BENCH_quant_smoke.json` under `--smoke`).
//!
//! Those scenarios run a model four times wider than any served one, so
//! the report also carries **kernel rows**: one weight-only int8
//! product (`qgemm_into`) against the f32 `gemm_into` of the same shape,
//! at the shapes a beam-5 step of the served model runs (d 48, d_ff 96,
//! vocab 130; 5×48×144 is the vocab projection without a right edge),
//! two encoder shapes, and the d 160 / vocab 4000 shapes of the
//! scenarios above. They are the measured answer to "what does reading
//! int8 weights cost or save against f32 ones" (DESIGN.md §15):
//! `scripts/bench.sh` fails a full run whose 5×48×48 ratio exceeds
//! 1.35×, whose 5×160×4000 ratio is not under 1×, or whose 5×48×130
//! product takes more than 1.2× the 5×48×144 one.
//!
//! Everything is timed in this process, in the order f32 → int8 → f32:
//! every scenario's f32 decode first (before any int8 decode has run),
//! then per scenario the int8 decode and the f32 decode once more. The
//! second f32 pass is a check, not a result: a full run fails when the
//! geometric mean over scenarios of `f32 best-of after int8 / f32
//! best-of before` exceeds [`F32_AFTER_INT8_MAX`] — a process that has
//! decoded with the int8 sidecar must not leave later f32 decodes
//! slower. (One scenario's ratio alone moves 0.83–1.23× between runs on
//! a shared 2-vCPU box; the effect looked for would move all of them.)

use qrec_bench::cli::{bench_main, BenchArgs};
use qrec_bench::timing::{time_stats, RepStats};
use qrec_nn::decode::{decode, Strategy, SOS};
use qrec_nn::params::{forward_eval, Params};
use qrec_nn::transformer::{Transformer, TransformerConfig};
use qrec_nn::Seq2Seq;
use qrec_tensor::{kernel, qi8};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::hint::black_box;
use std::process::ExitCode;

const SRC: [usize; 7] = [SOS, 4, 9, 5, 7, 3, 2];
const TOP_K: usize = 5;
/// Largest accepted geomean `f32 after int8 / f32 before int8` best-of
/// ratio.
const F32_AFTER_INT8_MAX: f64 = 1.15;

/// An untrained model with near-uniform output distributions: decodes
/// run to the length cap, which is what a throughput benchmark needs.
/// The shape mirrors the serving configuration's decode load (the
/// vocab-sized output head and the d_model projections dominate).
fn bench_model(smoke: bool) -> (Params, Transformer) {
    let cfg = if smoke {
        TransformerConfig::test(30)
    } else {
        TransformerConfig {
            vocab: 4000,
            d_model: 160,
            heads: 4,
            layers: 2,
            d_ff: 320,
            dropout: 0.0,
            max_len: 96,
        }
    };
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(42);
    let model = Transformer::new(&mut params, cfg, &mut rng);
    (params, model)
}

struct Scenario {
    label: &'static str,
    strategy: Strategy,
    max_len: usize,
    /// Decode-state batch the scenario sustains (for KV accounting).
    batch: usize,
}

fn scenarios(smoke: bool) -> Vec<Scenario> {
    if smoke {
        return vec![
            Scenario {
                label: "smoke greedy",
                strategy: Strategy::Greedy,
                max_len: 4,
                batch: 1,
            },
            Scenario {
                label: "smoke beam-4",
                strategy: Strategy::Beam { width: 4 },
                max_len: 6,
                batch: 4,
            },
        ];
    }
    vec![
        Scenario {
            label: "greedy len 16",
            strategy: Strategy::Greedy,
            max_len: 16,
            batch: 1,
        },
        Scenario {
            label: "greedy len 64",
            strategy: Strategy::Greedy,
            max_len: 64,
            batch: 1,
        },
        Scenario {
            label: "beam-8 len 64",
            strategy: Strategy::Beam { width: 8 },
            max_len: 64,
            batch: 8,
        },
    ]
}

/// Indices of the k largest logits (ties by index).
fn top_k(row: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Teacher-forced walk collecting one logits row per fed token.
fn step_rows(model: &Transformer, params: &Params, prefix: &[usize]) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(0);
    let enc = forward_eval(params, &mut rng, |fwd| {
        let e = model.encode(fwd, &SRC);
        fwd.graph.value_shared(e)
    });
    let mut state = forward_eval(params, &mut rng, |fwd| model.begin_decode(fwd, &enc, 1));
    let mut rows = Vec::with_capacity(prefix.len());
    for &tok in prefix {
        let t = forward_eval(params, &mut rng, |fwd| {
            model.step_logits(fwd, &mut state, &[tok])
        });
        rows.push(t.row(0).to_vec());
    }
    rows
}

/// Mean per-step tie-aware top-5 agreement along the f32 decode's best
/// hypothesis: the fraction of the quantized top-5 whose **f32** logit
/// reaches the f32 rank-5 boundary less 1% of the f32 top-5 spread —
/// the `quant_equivalence` suite's definition (DESIGN.md §15).
fn topk_agreement(model: &Transformer, fp: &Params, qp: &Params, best_ids: &[usize]) -> f64 {
    let prefix: Vec<usize> = std::iter::once(SOS)
        .chain(best_ids.iter().copied())
        .collect();
    let f_rows = step_rows(model, fp, &prefix);
    let q_rows = step_rows(model, qp, &prefix);
    let total: f64 = f_rows
        .iter()
        .zip(&q_rows)
        .map(|(a, b)| {
            let ta = top_k(a, TOP_K);
            let tb = top_k(b, TOP_K);
            let boundary = a[ta[TOP_K - 1]];
            let tau = 0.01 * (a[ta[0]] - boundary).abs() + 1e-6;
            tb.iter().filter(|&&i| a[i] >= boundary - tau).count() as f64 / TOP_K as f64
        })
        .sum();
    total / f_rows.len().max(1) as f64
}

/// Resident KV-cache bytes after `steps` decode steps at `batch` rows.
fn kv_resident_bytes(model: &Transformer, params: &Params, batch: usize, steps: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(0);
    let enc = forward_eval(params, &mut rng, |fwd| {
        let e = model.encode(fwd, &SRC);
        fwd.graph.value_shared(e)
    });
    let mut state = forward_eval(params, &mut rng, |fwd| model.begin_decode(fwd, &enc, batch));
    let feed = vec![3usize; batch];
    for _ in 0..steps {
        forward_eval(params, &mut rng, |fwd| {
            model.step_logits(fwd, &mut state, &feed)
        });
    }
    state.resident_cache_bytes()
}

/// Resident bytes of the model's weight representation: all-f32, or
/// packed int8 panels + scales with the unquantized tensors in f32.
fn model_resident_bytes(params: &Params) -> usize {
    let all_f32 = params.scalar_count() * 4;
    match params.quant() {
        None => all_f32,
        Some(sidecar) => all_f32 - sidecar.quantized_scalars() * 4 + sidecar.packed_bytes(),
    }
}

/// `(rows, k, m)` of the kernel rows: the beam-5 step's d×d, d×d_ff,
/// d_ff×d and d×vocab projections (and the vocab one rounded up to whole
/// tiles), a 20- and a 24-token source through a d×d one, and the d 160
/// scenarios' projection and vocab shapes.
const KERNEL_SHAPES: [(usize, usize, usize); 10] = [
    (5, 48, 48),
    (5, 48, 96),
    (5, 96, 48),
    (5, 48, 130),
    (5, 48, 144),
    (20, 48, 48),
    (24, 48, 48),
    (5, 160, 160),
    (5, 160, 4000),
    (1, 160, 4000),
];
/// Multiply-adds per timed rep of a kernel row: 256 products at 5×48×48,
/// which last a third of a microsecond each.
const KERNEL_MADDS_PER_REP: usize = 256 * 5 * 48 * 48;

/// One kernel row, nanoseconds per call (best rep).
struct KernelRow {
    shape: (usize, usize, usize),
    f32_gemm_ns: f64,
    qgemm_ns: f64,
}

impl KernelRow {
    fn int8_over_f32(&self) -> f64 {
        self.qgemm_ns / self.f32_gemm_ns
    }

    fn to_json(&self) -> serde_json::Value {
        let (n, k, m) = self.shape;
        json!({
            "shape": format!("{n}x{k}x{m}"),
            "n": n,
            "k": k,
            "m": m,
            "f32_gemm_ns": self.f32_gemm_ns,
            "qgemm_ns": self.qgemm_ns,
            "int8_over_f32": self.int8_over_f32(),
        })
    }
}

/// Time one shape: the f32 product and the int8 one, round-robin so load
/// drift hits both alike.
fn kernel_row(shape: (usize, usize, usize), smoke: bool) -> KernelRow {
    let (n, k, m) = shape;
    let fill = |len: usize, seed: usize| -> Vec<f32> {
        (0..len)
            .map(|i| (((i + seed) * 2_654_435_761) % 2000) as f32 * 1e-3 - 1.0)
            .collect()
    };
    let (a, b) = (fill(n * k, 1), fill(k * m, 2));
    let qb = qi8::QPackedB::from_f32(&b, k, m);
    let (mut out_f, mut out_q) = (vec![0.0f32; n * m], vec![0.0; n * m]);
    let calls = (KERNEL_MADDS_PER_REP / (n * k * m)).max(1);
    let stats = time_stats(
        &mut [
            &mut || {
                for _ in 0..calls {
                    kernel::gemm_into(black_box(&a), &b, n, k, m, &mut out_f);
                }
                black_box(&out_f);
            },
            &mut || {
                for _ in 0..calls {
                    qi8::qgemm_into(black_box(&a), &qb, n, &mut out_q);
                }
                black_box(&out_q);
            },
        ],
        if smoke { 0.02 } else { 1.0 },
        if smoke { 4 } else { 400 },
    );
    let per_call = |s: &RepStats| s.best_s * 1e9 / calls as f64;
    KernelRow {
        shape,
        f32_gemm_ns: per_call(&stats[0]),
        qgemm_ns: per_call(&stats[1]),
    }
}

struct Row {
    label: &'static str,
    strategy: String,
    max_len: usize,
    tokens: usize,
    f32_time: RepStats,
    quant_time: RepStats,
    /// f32 best-of re-timed after the int8 decodes, over `f32_time`'s.
    f32_after_over_before: f64,
    topk_agreement: f64,
    f32_bytes: usize,
    quant_bytes: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.f32_time.best_s / self.quant_time.best_s
    }

    fn mem_ratio(&self) -> f64 {
        self.f32_bytes as f64 / self.quant_bytes as f64
    }

    fn to_json(&self) -> serde_json::Value {
        json!({
            "label": self.label,
            "strategy": self.strategy,
            "max_len": self.max_len,
            "tokens": self.tokens,
            "f32_s": self.f32_time.best_s,
            "quant_s": self.quant_time.best_s,
            "f32_percentiles": self.f32_time.to_json(),
            "quant_percentiles": self.quant_time.to_json(),
            "speedup": self.speedup(),
            "f32_after_over_before": self.f32_after_over_before,
            "topk_agreement": self.topk_agreement,
            "f32_resident_bytes": self.f32_bytes,
            "quant_resident_bytes": self.quant_bytes,
            "mem_ratio": self.mem_ratio(),
        })
    }
}

/// Best-of and percentiles of one scenario's decode over `params`.
fn time_decode(s: &Scenario, model: &Transformer, params: &Params, smoke: bool) -> RepStats {
    let budget = if smoke { 0.1 } else { 3.0 };
    let reps = if smoke { 4 } else { 40 };
    time_stats(
        &mut [&mut || {
            black_box(decode(
                model,
                params,
                &SRC,
                s.strategy,
                s.max_len,
                &mut StdRng::seed_from_u64(17),
            ));
        }],
        budget,
        reps,
    )[0]
}

/// The int8 half of a scenario, given its f32 timing from before any
/// int8 decode ran.
fn bench_scenario(
    s: &Scenario,
    f32_time: RepStats,
    fp: &Params,
    qp: &Params,
    model: &Transformer,
    smoke: bool,
) -> Row {
    let seed = 17u64;
    let f_hyps = decode(
        model,
        fp,
        &SRC,
        s.strategy,
        s.max_len,
        &mut StdRng::seed_from_u64(seed),
    );
    let q_hyps = decode(
        model,
        qp,
        &SRC,
        s.strategy,
        s.max_len,
        &mut StdRng::seed_from_u64(seed),
    );
    assert_eq!(
        f_hyps.len(),
        q_hyps.len(),
        "{}: hypothesis counts diverged",
        s.label
    );
    let tokens = f_hyps.iter().map(|h| h.ids.len()).max().unwrap_or(0);
    let agreement = topk_agreement(model, fp, qp, &f_hyps[0].ids);

    // Combined model + sustained KV footprint per representation.
    let steps = tokens.max(1);
    let f32_bytes = model_resident_bytes(fp) + kv_resident_bytes(model, fp, s.batch, steps);
    let quant_bytes = model_resident_bytes(qp) + kv_resident_bytes(model, qp, s.batch, steps);

    let quant_time = time_decode(s, model, qp, smoke);
    let f32_after = time_decode(s, model, fp, smoke);
    Row {
        label: s.label,
        strategy: format!("{:?}", s.strategy),
        max_len: s.max_len,
        tokens,
        f32_time,
        quant_time,
        f32_after_over_before: f32_after.best_s / f32_time.best_s,
        topk_agreement: agreement,
        f32_bytes,
        quant_bytes,
    }
}

fn run(args: &BenchArgs) -> Result<(), String> {
    let smoke = args.smoke;
    eprintln!("bench_quant: mode={}", if smoke { "smoke" } else { "full" });
    let (fp, model) = bench_model(smoke);

    let scenarios = scenarios(smoke);
    let f32_before: Vec<RepStats> = scenarios
        .iter()
        .map(|s| {
            eprintln!("  timing {} (f32) ...", s.label);
            time_decode(s, &model, &fp, smoke)
        })
        .collect();
    let mut qp = fp.clone();
    qp.quantize();
    let mut rows = Vec::new();
    for (s, &f32_time) in scenarios.iter().zip(&f32_before) {
        eprintln!("  timing {} (int8, then f32 again) ...", s.label);
        rows.push(bench_scenario(s, f32_time, &fp, &qp, &model, smoke));
    }

    eprintln!("  timing serving-shape kernel rows ...");
    let kernel_rows: Vec<KernelRow> = KERNEL_SHAPES
        .iter()
        .map(|&shape| kernel_row(shape, smoke))
        .collect();

    // Headline numbers the acceptance gate reads: beam-8 speedup and
    // memory ratio at the serving length cap, and the worst per-row
    // top-5 agreement (must clear the 0.99 gate the equivalence suite
    // enforces on the test shapes).
    let beam8 = rows.iter().find(|r| r.label.starts_with("beam-8"));
    let beam8_speedup = beam8.map_or(f64::NAN, Row::speedup);
    let beam8_mem_ratio = beam8.map_or(f64::NAN, Row::mem_ratio);
    let min_agreement = rows
        .iter()
        .map(|r| r.topk_agreement)
        .fold(f64::INFINITY, f64::min);
    let after_over_before = rows
        .iter()
        .map(|r| r.f32_after_over_before)
        .product::<f64>()
        .powf(1.0 / rows.len() as f64);

    let report = json!({
        "benchmark": "qrec-nn int8 weight-quantized decode vs f32",
        "mode": if smoke { "smoke" } else { "full" },
        "rows": rows.iter().map(Row::to_json).collect::<Vec<_>>(),
        "kernel_rows": kernel_rows.iter().map(KernelRow::to_json).collect::<Vec<_>>(),
        "beam8_speedup_vs_f32": if smoke { json!(null) } else { json!(beam8_speedup) },
        "beam8_mem_ratio": if smoke { json!(null) } else { json!(beam8_mem_ratio) },
        "min_topk_agreement": min_agreement,
        "f32_after_over_before_geomean": after_over_before,
    });
    if rows.is_empty() {
        return Err("no scenario rows in the report".into());
    }

    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>9} {:>8} {:>9}",
        "scenario", "tokens", "f32 (s)", "int8 (s)", "speedup", "top5", "mem"
    );
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>12.6} {:>12.6} {:>8.2}x {:>8.4} {:>8.2}x",
            r.label,
            r.tokens,
            r.f32_time.best_s,
            r.quant_time.best_s,
            r.speedup(),
            r.topk_agreement,
            r.mem_ratio(),
        );
    }
    println!(
        "{:<12} {:>12} {:>12} {:>9}",
        "shape", "f32 (ns)", "int8 (ns)", "int8/f32"
    );
    for r in &kernel_rows {
        let (n, k, m) = r.shape;
        println!(
            "{:<12} {:>12.0} {:>12.0} {:>8.2}x",
            format!("{n}x{k}x{m}"),
            r.f32_gemm_ns,
            r.qgemm_ns,
            r.int8_over_f32(),
        );
    }
    if !smoke {
        println!("beam-8 speedup vs f32: {beam8_speedup:.2}x");
        println!("beam-8 model+KV memory ratio: {beam8_mem_ratio:.2}x");
    }
    println!("min top-5 agreement: {min_agreement:.4}");
    println!("f32 after/before int8 (geomean): {after_over_before:.2}x");
    args.write(&report)?;
    // Smoke decodes last microseconds; their best-of ratio is noise.
    if !smoke && after_over_before > F32_AFTER_INT8_MAX {
        return Err(format!(
            "f32 decode is {after_over_before:.2}x slower after int8 decodes \
             in the same process (limit {F32_AFTER_INT8_MAX}x)"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    bench_main("quant", run)
}
