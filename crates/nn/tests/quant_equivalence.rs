//! Top-k agreement of the int8 weight-quantized decode path against the
//! f32 reference path.
//!
//! The quantized path is *not* bitwise-equal to f32 — int8 projection
//! weights (read by f32 activations: weight-only), int8 embedding tables,
//! and quantized KV rows perturb every logit —
//! so its contract (DESIGN.md §15) is distributional: at every decode
//! step, ≥ 0.99 of the quantized top-5 slots must hold tokens the f32
//! model scores at (or within a 1% tie tolerance of) its own rank-5
//! boundary, across all three architectures and every strategy the
//! recommender uses. Agreement is measured teacher-forced along the f32
//! decode's best hypothesis so both stores score identical prefixes.
//!
//! Two exact invariants are also enforced: quantize→dequantize restores
//! the bitwise f32 path (sidecar removal is total), and the quantized
//! path is deterministic — an int8 projection is the f32 kernel's fold
//! over widened weights, one accumulation order per output element
//! whatever the tiling, so the same decode yields identical bits at any
//! compute-pool size.
//!
//! The transformer's int8 *incremental* step has no bitwise reference in
//! the tree (the full-prefix path does not quantize KV rows), so its
//! hypotheses are pinned against a recorded golden
//! (`golden/int8_decode.txt`).

mod common;

use qrec_nn::decode::{decode, Strategy, SOS};
use qrec_nn::params::{forward_eval, Params};
use qrec_nn::{
    ConvS2S, ConvS2SConfig, DecodeState, GruConfig, GruSeq2Seq, Seq2Seq, Transformer,
    TransformerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VOCAB: usize = 30;
const TOP_K: usize = 5;
/// Mean per-step top-5 slot agreement gate, per (arch, strategy) cell.
const GATE: f64 = 0.99;
const SRC: [usize; 5] = [SOS, 4, 9, 5, 2];
const MAX_LEN: usize = 24;

/// Untrained (random-init) model, same seed as the bitwise suite:
/// near-uniform distributions are the *adversarial* case for a top-k
/// gate — tiny quantization perturbations flip ranks most easily when
/// logit gaps are smallest.
fn build(arch: &str) -> (Params, Box<dyn Seq2Seq>) {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(11);
    let model: Box<dyn Seq2Seq> = match arch {
        "transformer" => Box::new(Transformer::new(
            &mut params,
            TransformerConfig::test(VOCAB),
            &mut rng,
        )),
        "convs2s" => Box::new(ConvS2S::new(
            &mut params,
            ConvS2SConfig::test(VOCAB),
            &mut rng,
        )),
        _ => Box::new(GruSeq2Seq::new(
            &mut params,
            GruConfig::test(VOCAB),
            &mut rng,
        )),
    };
    (params, model)
}

fn strategy_cases() -> [(Strategy, u64); 6] {
    [
        (Strategy::Greedy, 0),
        (Strategy::Beam { width: 1 }, 0),
        (Strategy::Beam { width: 4 }, 0),
        (
            Strategy::DiverseBeam {
                width: 4,
                groups: 2,
                penalty: 1.5,
            },
            0,
        ),
        (
            Strategy::Sampling {
                samples: 4,
                min_prob: 0.02,
            },
            7,
        ),
        (
            Strategy::Sampling {
                samples: 3,
                min_prob: 0.9,
            },
            3,
        ),
    ]
}

/// Indices of the k largest logits; ties broken by index so the set is
/// deterministic under any sort.
fn top_k(row: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Tie-aware top-5 agreement between the f32 row `a` and the quantized
/// row `b`: the fraction of `b`'s top-5 whose **f32** logit reaches the
/// f32 rank-5 boundary, less a tie tolerance of 1% of the f32 top-5
/// spread. Boundary ties — candidates the f32 model itself scores
/// within noise of each other — are not disagreements (DESIGN.md §15);
/// a broken scheme promotes tokens with deeply inferior f32 scores and
/// still collapses the metric.
fn row_agreement(a: &[f32], b: &[f32]) -> f64 {
    let ta = top_k(a, TOP_K);
    let tb = top_k(b, TOP_K);
    let boundary = a[ta[TOP_K - 1]];
    let tau = 0.01 * (a[ta[0]] - boundary).abs() + 1e-6;
    let hits = tb.iter().filter(|&&i| a[i] >= boundary - tau).count();
    hits as f64 / TOP_K as f64
}

/// Teacher-forced incremental walk: feed `prefix` token by token and
/// collect the logits row after each step.
fn step_rows(model: &dyn Seq2Seq, params: &Params, prefix: &[usize]) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(0);
    let enc = forward_eval(params, &mut rng, |fwd| {
        let e = model.encode(fwd, &SRC);
        fwd.graph.value_shared(e)
    });
    let mut state: DecodeState =
        forward_eval(params, &mut rng, |fwd| model.begin_decode(fwd, &enc, 1));
    let mut rows = Vec::with_capacity(prefix.len());
    for &tok in prefix {
        let t = forward_eval(params, &mut rng, |fwd| {
            model.step_logits(fwd, &mut state, &[tok])
        });
        rows.push(t.row(0).to_vec());
    }
    rows
}

/// Mean per-step top-5 agreement for one (arch, strategy) cell. Walks
/// the f32 decode's best hypothesis through both stores.
fn cell_agreement(
    model: &dyn Seq2Seq,
    fp: &Params,
    qp: &Params,
    strategy: Strategy,
    seed: u64,
) -> f64 {
    let hyps = decode(
        model,
        fp,
        &SRC,
        strategy,
        MAX_LEN,
        &mut StdRng::seed_from_u64(seed),
    );
    let qhyps = decode(
        model,
        qp,
        &SRC,
        strategy,
        MAX_LEN,
        &mut StdRng::seed_from_u64(seed),
    );
    assert_eq!(
        hyps.len(),
        qhyps.len(),
        "{strategy:?}: quantized decode must yield the same hypothesis count"
    );
    let best = hyps.first().expect("decode yields at least one hypothesis");
    let prefix: Vec<usize> = std::iter::once(SOS)
        .chain(best.ids.iter().copied())
        .collect();
    let f_rows = step_rows(model, fp, &prefix);
    let q_rows = step_rows(model, qp, &prefix);
    let total: f64 = f_rows
        .iter()
        .zip(&q_rows)
        .map(|(a, b)| row_agreement(a, b))
        .sum();
    total / f_rows.len() as f64
}

fn check_arch(arch: &str) {
    let (fp, model) = build(arch);
    let mut qp = fp.clone();
    qp.quantize();
    assert!(qp.is_quantized(), "{arch}: sidecar must install");
    for (strategy, seed) in strategy_cases() {
        let agreement = cell_agreement(model.as_ref(), &fp, &qp, strategy, seed);
        println!("{arch} {strategy:?}: top5 agreement {agreement:.4}");
        assert!(
            agreement >= GATE,
            "{arch} {strategy:?}: top-5 agreement {agreement:.4} below gate {GATE}"
        );
    }
}

#[test]
fn transformer_top5_agreement() {
    check_arch("transformer");
}

#[test]
fn convs2s_top5_agreement() {
    check_arch("convs2s");
}

#[test]
fn gru_top5_agreement() {
    check_arch("gru");
}

/// Sidecar removal is total: quantize → dequantize decodes bitwise
/// identically to a store that never saw the sidecar.
#[test]
fn quantize_dequantize_restores_bitwise_f32() {
    for arch in ["transformer", "convs2s", "gru"] {
        let (fp, model) = build(arch);
        let mut rt = fp.clone();
        rt.quantize();
        rt.dequantize();
        assert!(!rt.is_quantized(), "{arch}: sidecar must uninstall");
        let strategy = Strategy::Beam { width: 4 };
        let want = decode(
            model.as_ref(),
            &fp,
            &SRC,
            strategy,
            MAX_LEN,
            &mut StdRng::seed_from_u64(0),
        );
        let got = decode(
            model.as_ref(),
            &rt,
            &SRC,
            strategy,
            MAX_LEN,
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(want.len(), got.len(), "{arch}: hypothesis count");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.ids, g.ids, "{arch}: ids");
            assert_eq!(
                w.log_prob.to_bits(),
                g.log_prob.to_bits(),
                "{arch}: log_prob bits"
            );
        }
    }
}

/// Every output element has one accumulation order: the quantized path
/// must be bit-for-bit repeatable within one process.
#[test]
fn quantized_decode_is_deterministic() {
    for arch in ["transformer", "convs2s", "gru"] {
        let (fp, model) = build(arch);
        let mut qp = fp.clone();
        qp.quantize();
        let strategy = Strategy::Beam { width: 4 };
        let a = decode(
            model.as_ref(),
            &qp,
            &SRC,
            strategy,
            MAX_LEN,
            &mut StdRng::seed_from_u64(0),
        );
        let b = decode(
            model.as_ref(),
            &qp,
            &SRC,
            strategy,
            MAX_LEN,
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(a.len(), b.len(), "{arch}: hypothesis count");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ids, y.ids, "{arch}: ids");
            assert_eq!(
                x.log_prob.to_bits(),
                y.log_prob.to_bits(),
                "{arch}: log_prob bits"
            );
        }
    }
}

/// The tape-free int8 step must reproduce the recorded decode bit for
/// bit: ids, `finished` and `log_prob` bits of every hypothesis, for the
/// six strategy cases, on the test config and on the serving shape with
/// perturbed biases/γ/β. The golden holds one section per `fmadd` flavour
/// (`.cargo/config.toml` builds for the host CPU, so the folds fuse on
/// FMA hardware and do not elsewhere); this build checks its own.
#[test]
fn int8_transformer_decode_matches_recorded_golden() {
    use std::fmt::Write as _;
    let variant = if cfg!(target_feature = "fma") {
        "fma"
    } else {
        "nofma"
    };
    let (test_params, test_model) = {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(11);
        let model = Transformer::new(&mut params, TransformerConfig::test(VOCAB), &mut rng);
        (params, model)
    };
    let mut actual = String::new();
    for (name, (mut params, model)) in [
        ("test", (test_params, test_model)),
        ("small", common::perturbed_small(VOCAB, 2, 11)),
    ] {
        params.quantize();
        for (case, (strategy, seed)) in strategy_cases().into_iter().enumerate() {
            let hyps = decode(
                &model,
                &params,
                &SRC,
                strategy,
                MAX_LEN,
                &mut StdRng::seed_from_u64(seed),
            );
            for (h, hyp) in hyps.iter().enumerate() {
                let ids: Vec<String> = hyp.ids.iter().map(usize::to_string).collect();
                writeln!(
                    actual,
                    "{variant} {name} case{case} hyp{h} finished={} log_prob={:08x} ids={}",
                    u8::from(hyp.finished),
                    hyp.log_prob.to_bits(),
                    ids.join(",")
                )
                .expect("write to String");
            }
        }
    }
    let want: String = include_str!("golden/int8_decode.txt")
        .lines()
        .filter(|l| l.starts_with(variant) && l[variant.len()..].starts_with(' '))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert!(
        want == actual,
        "int8 decode drifted from the recorded golden ({variant} section).\n\
         --- golden ---\n{want}--- this build ---\n{actual}"
    );
}

/// The quantized transformer KV cache holds int8 rows + one f32 scale
/// per row: resident bytes must drop close to 4× against the f32 cache.
#[test]
fn quantized_kv_cache_shrinks_resident_bytes() {
    let (fp, model) = build("transformer");
    let mut qp = fp.clone();
    qp.quantize();
    let steps: Vec<usize> = (0..16).map(|t| 3 + (t % 5)).collect();

    let resident = |params: &Params| -> usize {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = forward_eval(params, &mut rng, |fwd| {
            let e = model.encode(fwd, &SRC);
            fwd.graph.value_shared(e)
        });
        let mut state = forward_eval(params, &mut rng, |fwd| model.begin_decode(fwd, &enc, 2));
        for &tok in &steps {
            forward_eval(params, &mut rng, |fwd| {
                model.step_logits(fwd, &mut state, &[tok, tok])
            });
        }
        state.resident_cache_bytes()
    };

    let f32_bytes = resident(&fp);
    let q_bytes = resident(&qp);
    println!("kv resident bytes: f32={f32_bytes} quant={q_bytes}");
    assert!(q_bytes > 0, "quantized cache must report resident bytes");
    assert!(
        q_bytes * 3 < f32_bytes,
        "quantized KV cache should be ~4x smaller: f32={f32_bytes} quant={q_bytes}"
    );
}

/// The compute pool is process-global (sized once from `QREC_THREADS`),
/// so each pool size re-runs the agreement matrix in a child process.
/// The quantized GEMM is the f32 register tile over int8 weights — each
/// output element one ascending-`k` fold, never split across tiles or
/// threads — so agreement (and in fact the quantized bits) must not move
/// with pool size.
#[test]
fn agreement_holds_across_pool_sizes() {
    if std::env::var_os("QREC_QEQ_CHILD").is_some() {
        return; // already inside a child run
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "8"] {
        let out = std::process::Command::new(&exe)
            .args([
                "transformer_top5_agreement",
                "convs2s_top5_agreement",
                "gru_top5_agreement",
                "--exact",
                "--test-threads=1",
            ])
            .env("QREC_THREADS", threads)
            .env("QREC_QEQ_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "quant agreement failed under QREC_THREADS={threads}:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
