//! `bench_tensor` — reproducible performance baseline for the GEMM
//! kernel and the end-to-end decode path (DESIGN.md §10).
//!
//! ```text
//! bench_tensor [--smoke] [--out PATH]
//! ```
//!
//! Times the shapes the models actually emit — single-token decode
//! vectors, full-sequence training tiles, and the 512³ scale shape —
//! under the seed's branchy naive loop (kept verbatim below as the fixed
//! baseline), the canonical naive reference, the blocked kernel, and the
//! shipped dispatching `kernel::gemm`. The model's narrow widths (`n×48×48`, `n×96×48`, `n×48×130`:
//! one full panel and an edge, or an edge of two columns) get rows of
//! their own, flagged `narrow_shape`; every row is also timed under the
//! small-product tile (`small_tile_s`), and `scripts/bench.sh` fails when
//! the blocked kernel is more than 1.5× slower than that on a narrow row
//! — the cliff its scalar edge loop used to be — and when the beam-5
//! vocabulary projection (`5×48×130`, a right edge of two columns) takes
//! more than 1.2× the same product rounded up to whole tiles (`5×48×144`).
//! The backward pass's two
//! product forms, `A·Bᵀ` and `Aᵀ·B`, are timed at the shapes one training
//! example emits (`backward_shapes`: a 20-row example against the bench
//! model's widths, and the per-head attention products) beside the `A·B`
//! of the same `n×k×m` and their naive references; `scripts/bench.sh`
//! holds `A·Bᵀ` to 2× and `Aᵀ·B` to 1.5× of `A·B` at 20×48×48 — the small
//! `A·Bᵀ` once ran one serial dot product per element, 16× slower. A
//! `train` row gives what those products are for: seconds and tokens per
//! second of each epoch of the `bench_e2e` model's training.
//! `softmax_rows` times the softmax row kernel against the per-row scalar
//! loop it replaced (4×20, 5×130, 20×20 causally masked; `bench.sh` holds
//! it to 0.7× at the first two) and `attention_rows` the rows-form source
//! attention against the per-row form (5 beam rows over 20 source rows,
//! an encoder's 20×20); both old forms are kept below. Also
//! measures mean end-to-end `decode()` latency on a
//! freshly trained tiny model. Results go to `BENCH_tensor.json` at the
//! repo root (or `target/BENCH_tensor_smoke.json` under `--smoke`,
//! which shrinks shapes and budgets so CI can validate the harness in
//! seconds).

// One `json!` object per shape row, wider than the macro's default depth.
#![recursion_limit = "256"]

use qrec_bench::timing::{time_stats, RepStats};
use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_nn::attention::{attend_source, SourceKv};
use qrec_nn::transformer::TransformerConfig;
use qrec_nn::Strategy;
use qrec_tensor::kernel;
use qrec_tensor::tensor::softmax_rows_in_place;
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed repository's matmul inner loop, copied verbatim so every
/// future run compares against the same fixed baseline: row-major ikj
/// with a per-element `a == 0.0` skip branch.
fn seed_naive(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * m..(i + 1) * m];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * m..(kk + 1) * m];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Deterministic pseudo-random matrix data (no RNG state to drift).
fn fill(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((i + salt) * 2654435761) % 2000) as f32 * 1e-3 - 1.0)
        .collect()
}

struct Shape {
    label: &'static str,
    n: usize,
    k: usize,
    m: usize,
    /// Decode-path shape: must stay on the tile, gated by the ≤10% rule.
    decode: bool,
    /// Narrow-width shape: `scripts/bench.sh` holds the blocked kernel to
    /// 1.5× the small-product tile here.
    narrow: bool,
}

/// The beam-5 vocabulary projection as served (vocab 130: eight full
/// tiles and a right edge of two columns) and rounded up to whole tiles
/// (144). `scripts/bench.sh` holds the first to 1.2× the second: the edge
/// once cost more than the rest of the row.
fn edge_pair() -> [Shape; 2] {
    [(130, "edge 5xd.dxvocab130"), (144, "edge 5xd.dx144")].map(|(m, label)| Shape {
        label,
        n: 5,
        k: 48,
        m,
        decode: false,
        narrow: false,
    })
}

/// `n×k×m` rows of the model's narrow widths, `n` from one beam's worth
/// of rows to two full-length sequences.
fn narrow_shapes(rows: &[usize], skip: &[(usize, usize, usize)]) -> Vec<Shape> {
    let mut out = Vec::new();
    for (k, m, label) in [
        (48, 48, "narrow nxd.dxd"),
        (96, 48, "narrow nxff.ffxd"),
        (48, 130, "narrow nxd.dxvocab130"),
    ] {
        for &n in rows {
            if !skip.contains(&(n, k, m)) {
                out.push(Shape {
                    label,
                    n,
                    k,
                    m,
                    decode: false,
                    narrow: true,
                });
            }
        }
    }
    out
}

fn shapes(smoke: bool) -> Vec<Shape> {
    if smoke {
        let mut shapes = vec![
            Shape {
                label: "smoke 1x16.16x32",
                n: 1,
                k: 16,
                m: 32,
                decode: true,
                narrow: false,
            },
            Shape {
                label: "smoke 8x16.16x16",
                n: 8,
                k: 16,
                m: 16,
                decode: false,
                narrow: false,
            },
        ];
        shapes.extend(narrow_shapes(&[48], &[]));
        shapes.extend(edge_pair());
        return shapes;
    }
    let cfg = TransformerConfig::small(2000);
    let (d, ff, vocab, len) = (cfg.d_model, cfg.d_ff, cfg.vocab, cfg.max_len);
    let mut shapes = vec![
        Shape {
            label: "decode 1xd.dxd (attention proj)",
            n: 1,
            k: d,
            m: d,
            decode: true,
            narrow: false,
        },
        Shape {
            label: "decode 1xd.dxff (ffn expand)",
            n: 1,
            k: d,
            m: ff,
            decode: true,
            narrow: false,
        },
        Shape {
            label: "decode 1xd.dxvocab (vocab proj)",
            n: 1,
            k: d,
            m: vocab,
            decode: true,
            narrow: false,
        },
        Shape {
            label: "train Lxd.dxd (attention proj)",
            n: len,
            k: d,
            m: d,
            decode: false,
            narrow: true,
        },
        Shape {
            label: "train Lxd.dxvocab (vocab proj)",
            n: len,
            k: d,
            m: vocab,
            decode: false,
            narrow: false,
        },
        Shape {
            label: "scale 512x512x512",
            n: 512,
            k: 512,
            m: 512,
            decode: false,
            narrow: false,
        },
    ];
    shapes.extend(narrow_shapes(&[8, 24, 80, len, 2 * len], &[(len, d, d)]));
    shapes.extend(edge_pair());
    shapes
}

/// Measured timings for one shape (best-of-N plus rep percentiles per
/// kernel).
struct ShapeRow {
    label: &'static str,
    n: usize,
    k: usize,
    m: usize,
    decode: bool,
    path: String,
    seed: RepStats,
    naive: RepStats,
    blocked: RepStats,
    /// The small-product tile forced onto the shape.
    small: RepStats,
    narrow: bool,
    /// The shipped `kernel::gemm`.
    gemm: RepStats,
}

impl ShapeRow {
    fn seed_s(&self) -> f64 {
        self.seed.best_s
    }

    fn gemm_s(&self) -> f64 {
        self.gemm.best_s
    }

    fn to_json(&self) -> serde_json::Value {
        let percentiles = json!({
            "seed_naive": self.seed.to_json(),
            "naive": self.naive.to_json(),
            "blocked": self.blocked.to_json(),
            "small_tile": self.small.to_json(),
            "gemm": self.gemm.to_json(),
        });
        json!({
            "label": self.label,
            "n": self.n, "k": self.k, "m": self.m,
            "flops": 2 * self.n * self.k * self.m,
            "decode_shape": self.decode,
            "kernel_path": self.path,
            "seed_naive_s": self.seed.best_s,
            "naive_s": self.naive.best_s,
            "blocked_s": self.blocked.best_s,
            "small_tile_s": self.small.best_s,
            "narrow_shape": self.narrow,
            "percentiles": percentiles,
            "gemm_s": self.gemm_s(),
            "speedup_vs_seed": self.seed_s() / self.gemm_s(),
        })
    }
}

/// Time one shape under every kernel.
fn bench_shape(s: &Shape, smoke: bool) -> ShapeRow {
    let a = fill(s.n * s.k, 1);
    let b = fill(s.k * s.m, 2);
    let flops = 2 * s.n * s.k * s.m;
    let budget = if smoke {
        0.1
    } else if flops > 1 << 24 {
        4.0
    } else {
        1.0
    };
    let reps = if flops > 1 << 24 { 400 } else { 4096 };
    let (n, k, m) = (s.n, s.k, s.m);
    let times = time_stats(
        &mut [
            &mut || drop(black_box(seed_naive(&a, &b, n, k, m))),
            &mut || drop(black_box(kernel::naive(&a, &b, n, k, m))),
            &mut || drop(black_box(kernel::blocked(&a, &b, n, k, m))),
            &mut || drop(black_box(kernel::gemm(&a, &b, n, k, m))),
            &mut || drop(black_box(kernel::small(&a, &b, n, k, m))),
        ],
        budget,
        reps,
    );
    ShapeRow {
        label: s.label,
        n,
        k,
        m,
        decode: s.decode,
        path: format!("{:?}", kernel::select(n, k, m)),
        seed: times[0],
        naive: times[1],
        blocked: times[2],
        small: times[4],
        narrow: s.narrow,
        gemm: times[3],
    }
}

/// One of the backward pass's product forms at a training shape.
struct BackwardShape {
    /// `"nt"` (`A·Bᵀ`) or `"tn"` (`Aᵀ·B`).
    form: &'static str,
    label: &'static str,
    n: usize,
    k: usize,
    m: usize,
}

/// The products one 20-token training example of the bench model
/// (`d_model` 48, `d_ff` 96, vocabulary 130, 4 heads of 12) runs
/// backward: `∂x = ∂y·Wᵀ` as `A·Bᵀ`, `∂W = xᵀ·∂y` as `Aᵀ·B`, and the
/// per-head attention products of the op-by-op form.
fn backward_shapes(smoke: bool) -> Vec<BackwardShape> {
    let shape = |form, label, n, k, m| BackwardShape {
        form,
        label,
        n,
        k,
        m,
    };
    let mut shapes = vec![
        shape("nt", "dx = dy.Wt (d x d)", 20, 48, 48),
        shape("tn", "dW = xt.dy (d x d)", 48, 20, 48),
    ];
    if !smoke {
        shapes.extend([
            shape("nt", "dx = dy.Wt (ffn contract)", 20, 48, 96),
            shape("nt", "dx = dy.Wt (ffn expand)", 20, 96, 48),
            shape("nt", "dx = dy.Wt (vocab proj)", 20, 130, 48),
            shape("nt", "per-head q.kt", 20, 12, 20),
            shape("tn", "dW = xt.dy (ffn contract)", 96, 20, 48),
            shape("tn", "dW = xt.dy (vocab proj)", 48, 20, 130),
            shape("tn", "per-head dV = pt.g", 20, 20, 12),
        ]);
    }
    shapes
}

/// Best-of-N and percentiles of one backward shape: the dispatching
/// product, its naive reference, and `A·B` at the same `n×k×m`.
struct BackwardRow {
    shape: BackwardShape,
    product: RepStats,
    reference: RepStats,
    nn: RepStats,
}

impl BackwardRow {
    fn to_json(&self) -> serde_json::Value {
        let s = &self.shape;
        json!({
            "form": s.form,
            "label": s.label,
            "n": s.n, "k": s.k, "m": s.m,
            "product_s": self.product.best_s,
            "reference_s": self.reference.best_s,
            "nn_s": self.nn.best_s,
            "product_over_nn": self.product.best_s / self.nn.best_s,
            "percentiles": {
                "product": self.product.to_json(),
                "reference": self.reference.to_json(),
                "nn": self.nn.to_json(),
            },
        })
    }
}

fn bench_backward_shape(s: BackwardShape, smoke: bool) -> BackwardRow {
    let (n, k, m) = (s.n, s.k, s.m);
    let a = fill(n * k, 1); // n×k, or k×n for `tn`
    let b = fill(k * m, 2); // k×m, or m×k for `nt`
    type Product = fn(&[f32], &[f32], usize, usize, usize) -> Vec<f32>;
    let (product, reference): (Product, Product) = match s.form {
        "nt" => (kernel::gemm_nt, kernel::naive_nt),
        _ => (kernel::gemm_tn, kernel::naive_tn),
    };
    let times = time_stats(
        &mut [
            &mut || drop(black_box(product(&a, &b, n, k, m))),
            &mut || drop(black_box(reference(&a, &b, n, k, m))),
            &mut || drop(black_box(kernel::gemm(&a, &b, n, k, m))),
        ],
        if smoke { 0.05 } else { 1.0 },
        8192,
    );
    BackwardRow {
        shape: s,
        product: times[0],
        reference: times[1],
        nn: times[2],
    }
}

/// The softmax loop `softmax_rows_in_place` replaced, copied verbatim as
/// the fixed baseline: one row at a time, a serial max, a libm `exp` per
/// value, a serial sum.
fn softmax_scalar(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// The per-row source attention the rows form replaced — its unmasked
/// path, over [`softmax_scalar`] — kept as the fixed baseline: one query
/// row over the transposed keys, each head's logits a serial fold per
/// position lane, the context one sweep over the value rows.
fn attend_source_row(
    q: &[f32],
    kt: &[f32],
    v: &[f32],
    heads: usize,
    scores: &mut [f32],
    ctx: &mut [f32],
) {
    let d = q.len();
    let m = kt.len() / d;
    ctx.fill(0.0);
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let scores = &mut scores[..heads * m];
    let head_keys = q.chunks_exact(dh).zip(kt.chunks_exact(dh * m));
    for (head_scores, (qh, kth)) in scores.chunks_exact_mut(m).zip(head_keys) {
        head_scores.fill(0.0);
        for (&qv, krow) in qh.iter().zip(kth.chunks_exact(m)) {
            for (s, &kv) in head_scores.iter_mut().zip(krow) {
                *s = kernel::fmadd(qv, kv, *s);
            }
        }
        for s in head_scores.iter_mut() {
            *s *= scale;
        }
        softmax_scalar(head_scores);
    }
    for (p, vrow) in v.chunks_exact(d).enumerate() {
        let heads_out = ctx.chunks_exact_mut(dh).zip(vrow.chunks_exact(dh));
        for ((out, vh), head_scores) in heads_out.zip(scores.chunks_exact(m)) {
            let w = head_scores[p];
            for (o, &vv) in out.iter_mut().zip(vh) {
                *o = kernel::fmadd(w, vv, *o);
            }
        }
    }
}

/// One softmax shape under the scalar loop and the row kernel.
struct SoftmaxRow {
    rows: usize,
    m: usize,
    masked: bool,
    scalar: RepStats,
    kernel: RepStats,
}

impl SoftmaxRow {
    fn ratio(&self) -> f64 {
        self.kernel.best_s / self.scalar.best_s
    }

    fn to_json(&self) -> serde_json::Value {
        json!({
            "rows": self.rows, "m": self.m, "masked": self.masked,
            "scalar_ns": self.scalar.best_s * 1e9,
            "kernel_ns": self.kernel.best_s * 1e9,
            "kernel_over_scalar": self.ratio(),
            "percentiles": { "scalar": self.scalar.to_json(), "kernel": self.kernel.to_json() },
        })
    }
}

/// Softmax rows at the shapes a decode and an encoder pass run — a
/// cross-attention's four heads over a 20-token source, the beam-5
/// vocabulary rows, an encoder's 20 causally masked rows — under the
/// scalar loop and the row kernel. `scripts/bench.sh` holds the kernel
/// to 0.7× the loop at 5×130 and 4×20.
fn softmax_rows(smoke: bool) -> Vec<SoftmaxRow> {
    let budget = if smoke { 0.05 } else { 1.0 };
    [(4, 20, false), (5, 130, false), (20, 20, true)]
        .into_iter()
        .map(|(rows, m, masked)| {
            let mut logits = fill(rows * m, m);
            if masked {
                for (i, x) in logits.iter_mut().enumerate() {
                    if i % m > i / m {
                        *x = -1e9;
                    }
                }
            }
            let (mut a, mut b) = (logits.clone(), logits.clone());
            let times = time_stats(
                &mut [
                    &mut || {
                        a.copy_from_slice(&logits);
                        a.chunks_exact_mut(m).for_each(softmax_scalar);
                        black_box(&a);
                    },
                    &mut || {
                        b.copy_from_slice(&logits);
                        softmax_rows_in_place(&mut b, m);
                        black_box(&b);
                    },
                ],
                budget,
                8192,
            );
            SoftmaxRow {
                rows,
                m,
                masked,
                scalar: times[0],
                kernel: times[1],
            }
        })
        .collect()
}

/// One source-attention shape per row as it was and over all rows.
struct AttentionRow {
    label: &'static str,
    n: usize,
    m: usize,
    per_row: RepStats,
    rows: RepStats,
}

impl AttentionRow {
    fn ratio(&self) -> f64 {
        self.rows.best_s / self.per_row.best_s
    }

    fn to_json(&self) -> serde_json::Value {
        json!({
            "label": self.label, "n": self.n, "m": self.m, "d": 48, "heads": 4,
            "per_row_ns": self.per_row.best_s * 1e9,
            "rows_ns": self.rows.best_s * 1e9,
            "rows_over_per_row": self.ratio(),
            "percentiles": { "per_row": self.per_row.to_json(), "rows": self.rows.to_json() },
        })
    }
}

/// Source attention of the serving model's width (`d_model` 48, 4 heads)
/// at a decode's shape — 5 beam rows over a 20-token source — and an
/// encoder pass's (20 rows over themselves), per row as it was and over
/// all rows at once.
fn attention_rows(smoke: bool) -> Vec<AttentionRow> {
    let (d, heads) = (48, 4);
    let budget = if smoke { 0.05 } else { 1.0 };
    [
        (5, 20, "decode cross-attention"),
        (20, 20, "encoder self-attention"),
    ]
    .into_iter()
    .map(|(n, m, label)| {
        let q = fill(n * d, 3);
        let (kt, v) = (fill(d * m, 4), fill(m * d, 5));
        let (mut ctx_a, mut ctx_b) = (vec![0.0f32; n * d], vec![0.0f32; n * d]);
        let (mut scores_a, mut scores_b) = (vec![0.0f32; heads * m], vec![0.0f32; n * heads * m]);
        let times = time_stats(
            &mut [
                &mut || {
                    for (qi, ci) in q.chunks_exact(d).zip(ctx_a.chunks_exact_mut(d)) {
                        attend_source_row(qi, &kt, &v, heads, &mut scores_a, ci);
                    }
                    black_box(&ctx_a);
                },
                &mut || {
                    let src = SourceKv { kt: &kt, v: &v, m };
                    attend_source(&q, src, heads, None, &mut scores_b, &mut ctx_b);
                    black_box(&ctx_b);
                },
            ],
            budget,
            8192,
        );
        AttentionRow {
            label,
            n,
            m,
            per_row: times[0],
            rows: times[1],
        }
    })
    .collect()
}

/// Train the `bench_e2e` model (`bench_e2e/src/workloads.rs`: the SDSS
/// profile at 24 tables and 100 sessions, `Small` transformer, 2 epochs,
/// seed 7 — a tenth of the sessions under `--smoke`) and report each
/// epoch's wall time and throughput from its `EpochReport`.
fn train_row(smoke: bool) -> (serde_json::Value, f64, f64) {
    let mut profile = WorkloadProfile::sdss();
    profile.name = "bench_e2e".into();
    profile.sessions = if smoke { 10 } else { 100 };
    profile.tables_per_dataset = (24, 24);
    profile.columns_per_table = (8, 16);
    profile.function_pool = 12;
    profile.literal_pool = 40;
    let (workload, _catalog) = generate(&profile, 7);
    let split = Split::paper(workload.pairs(), &mut StdRng::seed_from_u64(7));
    let mut cfg = RecommenderConfig::new(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = 2;
    cfg.train.patience = 0;
    let t0 = Instant::now();
    let (_model, report) =
        Recommender::try_train(&split, &workload, cfg).expect("the bench model trains");
    let total_s = t0.elapsed().as_secs_f64();
    let epochs: Vec<_> = report
        .epochs
        .iter()
        .map(|e| json!({ "seconds": e.seconds, "tokens_per_sec": e.tokens_per_sec }))
        .collect();
    let seconds: f64 = report.epochs.iter().map(|e| f64::from(e.seconds)).sum();
    let tokens: f64 = report
        .epochs
        .iter()
        .map(|e| f64::from(e.seconds) * f64::from(e.tokens_per_sec))
        .sum();
    let tokens_per_sec = if seconds > 0.0 { tokens / seconds } else { 0.0 };
    let row = json!({
        "model": "bench_e2e (transformer small, d_model 48, 2 layers)",
        "train_pairs": split.train.len(),
        "epochs": epochs,
        "epochs_s": seconds,
        "tokens_per_sec": tokens_per_sec,
        "try_train_s": total_s,
    });
    (row, seconds, tokens_per_sec)
}

/// Mean end-to-end `decode()` latency: train the tiny demo model and
/// greedy-decode test queries through the full tokenizer→model path.
fn decode_latency(smoke: bool) -> (f64, usize, f64) {
    let (workload, _catalog) = generate(&WorkloadProfile::tiny(), 1);
    let mut rng = StdRng::seed_from_u64(1);
    let split = Split::paper(workload.pairs(), &mut rng);
    let cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    let t0 = Instant::now();
    let (mut rec, _report) =
        Recommender::try_train(&split, &workload, cfg).expect("tiny training succeeds");
    let train_s = t0.elapsed().as_secs_f64();

    let queries: Vec<_> = split.test.iter().take(if smoke { 5 } else { 40 }).collect();
    for q in &queries {
        let _ = rec.decode_candidates(&q.current.tokens, Strategy::Greedy); // warm-up
    }
    let t0 = Instant::now();
    for q in &queries {
        let _ = black_box(rec.decode_candidates(&q.current.tokens, Strategy::Greedy));
    }
    let mean = t0.elapsed().as_secs_f64() / queries.len().max(1) as f64;
    (mean, queries.len(), train_s)
}

fn run(smoke: bool, out: Option<PathBuf>) -> Result<(), String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = out.unwrap_or_else(|| {
        if smoke {
            root.join("target/BENCH_tensor_smoke.json")
        } else {
            root.join("BENCH_tensor.json")
        }
    });

    eprintln!(
        "bench_tensor: mode={}",
        if smoke { "smoke" } else { "full" }
    );

    let mut rows = Vec::new();
    for s in shapes(smoke) {
        eprintln!("  timing {} ...", s.label);
        rows.push(bench_shape(&s, smoke));
    }

    // Headline numbers the acceptance gate reads: the 512³ speedup and
    // the worst decode-shape slowdown of the new dispatch vs the seed.
    let scale_speedup = rows
        .iter()
        .filter(|r| r.label.starts_with("scale"))
        .map(|r| r.seed_s() / r.gemm_s())
        .fold(f64::NAN, f64::max);
    let decode_regression = rows
        .iter()
        .filter(|r| r.decode)
        .map(|r| r.gemm_s() / r.seed_s() - 1.0)
        .fold(f64::NEG_INFINITY, f64::max);

    let backward: Vec<_> = backward_shapes(smoke)
        .into_iter()
        .map(|s| {
            eprintln!(
                "  timing {} {}x{}x{} ({}) ...",
                s.form, s.n, s.k, s.m, s.label
            );
            bench_backward_shape(s, smoke)
        })
        .collect();

    eprintln!("  timing softmax rows and source attention ...");
    let (softmax, attention) = (softmax_rows(smoke), attention_rows(smoke));

    eprintln!("  timing the bench model's training ...");
    let (train, train_epochs_s, train_tokens_per_sec) = train_row(smoke);

    eprintln!("  timing end-to-end decode ...");
    let (decode_mean_s, decode_queries, train_s) = decode_latency(smoke);

    let report = json!({
        "benchmark": "qrec-tensor GEMM kernel + end-to-end decode",
        "mode": if smoke { "smoke" } else { "full" },
        "shapes": rows.iter().map(ShapeRow::to_json).collect::<Vec<_>>(),
        "backward_shapes": backward.iter().map(BackwardRow::to_json).collect::<Vec<_>>(),
        "softmax_rows": softmax.iter().map(SoftmaxRow::to_json).collect::<Vec<_>>(),
        "attention_rows": attention.iter().map(AttentionRow::to_json).collect::<Vec<_>>(),
        "train": train,
        "scale_512_speedup_vs_seed": if smoke { json!(null) } else { json!(scale_speedup) },
        "decode_shape_max_regression": decode_regression,
        "decode_e2e": {
            "queries": decode_queries,
            "train_s": train_s,
            "mean_decode_s": decode_mean_s,
        },
    });

    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let bytes = serde_json::to_vec_pretty(&report).map_err(|e| format!("serialise: {e}"))?;
    std::fs::write(&out, bytes).map_err(|e| format!("write {}: {e}", out.display()))?;

    // Re-read and parse: the file on disk must be well-formed JSON with
    // at least one shape row.
    let text = std::fs::read_to_string(&out).map_err(|e| format!("read back: {e}"))?;
    let parsed: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("round-trip parse: {e}"))?;
    let shape_count = parsed
        .as_object()
        .and_then(|o| o.get("shapes"))
        .and_then(|s| s.as_array())
        .map_or(0, <[serde_json::Value]>::len);
    if shape_count == 0 {
        return Err("no shape rows in the written report".into());
    }

    println!(
        "{:<36} {:>12} {:>12} {:>12} {:>9}",
        "shape", "seed (s)", "blocked (s)", "gemm (s)", "speedup"
    );
    for r in &rows {
        let label = if r.narrow {
            format!("{} ({}x{}x{})", r.label, r.n, r.k, r.m)
        } else {
            r.label.to_string()
        };
        println!(
            "{:<36} {:>12.6} {:>12.6} {:>12.6} {:>8.2}x",
            label,
            r.seed_s(),
            r.blocked.best_s,
            r.gemm_s(),
            r.seed_s() / r.gemm_s(),
        );
    }
    println!(
        "{:<36} {:>12} {:>12} {:>12} {:>9}",
        "backward product", "product (s)", "naive (s)", "nn (s)", "over nn"
    );
    for row in &backward {
        let s = &row.shape;
        println!(
            "{:<36} {:>12.7} {:>12.7} {:>12.7} {:>8.2}x",
            format!("{} {}x{}x{}", s.form, s.n, s.k, s.m),
            row.product.best_s,
            row.reference.best_s,
            row.nn.best_s,
            row.product.best_s / row.nn.best_s,
        );
    }
    for r in &softmax {
        println!(
            "{:<36} {:>12.7} {:>12.7} {:>12} {:>8.2}x",
            format!(
                "softmax {}x{}{}",
                r.rows,
                r.m,
                if r.masked { " masked" } else { "" }
            ),
            r.scalar.best_s,
            r.kernel.best_s,
            "",
            r.ratio(),
        );
    }
    for r in &attention {
        println!(
            "{:<36} {:>12.7} {:>12.7} {:>12} {:>8.2}x",
            format!("attention {}x{} ({})", r.n, r.m, r.label),
            r.per_row.best_s,
            r.rows.best_s,
            "",
            r.ratio(),
        );
    }
    println!(
        "bench model training: {train_epochs_s:.3} s over its epochs, \
         {train_tokens_per_sec:.0} tokens/s"
    );
    if !smoke {
        println!("512^3 speedup (gemm vs seed): {scale_speedup:.2}x");
    }
    println!(
        "decode-shape max regression vs seed: {:+.1}%",
        decode_regression * 100.0
    );
    println!("end-to-end decode: {decode_mean_s:.4} s/query over {decode_queries} queries");
    println!("[results written to {}]", out.display());
    Ok(())
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("missing value for --out");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: bench_tensor [--smoke] [--out PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    match run(smoke, out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_tensor failed: {msg}");
            ExitCode::FAILURE
        }
    }
}
