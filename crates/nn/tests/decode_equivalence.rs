//! Bitwise equivalence of the incremental, step-batched decoder against
//! the serial full-prefix reference path.
//!
//! The decode rewrite's contract (DESIGN.md §11) is that KV-cached,
//! batched decoding is *bitwise* identical to re-running the decoder
//! over the full prefix once per hypothesis — not epsilon-close. These
//! tests drive all three architectures through every strategy the
//! recommender uses and compare hypothesis lists bit for bit, replay
//! state reorders against fresh per-prefix decodes, walk steps past the
//! architecture's positional capacity (the logit-freeze path), and
//! re-run the whole suite under 1-, 2-, and 8-thread compute pools
//! (the pool is process-global, so each size runs in a child process).
//!
//! The transformer's tape-free step is additionally driven at the
//! serving shape (`TransformerConfig::small`: d 48, 4 heads, 2 layers)
//! with biases and LayerNorm γ/β moved off their initial values, which
//! the freshly initialised test-config models above leave at 0/1/0.

mod common;

use qrec_nn::decode::{decode, decode_reference, Hypothesis, Strategy, SOS};
use qrec_nn::params::{forward_eval, Params};
use qrec_nn::{
    ConvS2S, ConvS2SConfig, DecodeState, GruConfig, GruSeq2Seq, Seq2Seq, Transformer,
    TransformerConfig,
};
use qrec_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const ARCHS: [&str; 3] = ["transformer", "convs2s", "gru"];
const VOCAB: usize = 30;

/// Untrained (random-init) model: distributions are near-uniform, which
/// exercises beam pruning and sampling far better than a converged model
/// that collapses every strategy onto one sequence.
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

fn assert_hyps_bitwise(want: &[Hypothesis], got: &[Hypothesis], ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: hypothesis count");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.ids, g.ids, "{ctx}: ids of hyp {i}");
        assert_eq!(w.finished, g.finished, "{ctx}: finished flag of hyp {i}");
        assert_eq!(
            w.log_prob.to_bits(),
            g.log_prob.to_bits(),
            "{ctx}: log_prob of hyp {i}: {} vs {}",
            w.log_prob,
            g.log_prob
        );
        assert_eq!(
            w.token_probs.len(),
            g.token_probs.len(),
            "{ctx}: token_probs length of hyp {i}"
        );
        for (j, (a, b)) in w.token_probs.iter().zip(&g.token_probs).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: token_prob {j} of hyp {i}: {a} vs {b}"
            );
        }
    }
}

fn assert_rows_bitwise(want: &Tensor, got: &Tensor, ctx: &str) {
    assert_eq!(want.shape(), got.shape(), "{ctx}: shape");
    for (j, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: element {j}: {a} vs {b}");
    }
}

/// Every strategy × fixed RNG seed: the incremental path must reproduce
/// the reference path's hypothesis list exactly.
fn check_strategies(arch: &str) {
    let (params, model) = build(arch);
    let src = [SOS, 4, 9, 5, 2];
    let cases: [(Strategy, u64); 6] = [
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
        // Low threshold: real multinomial draws share the RNG stream.
        (
            Strategy::Sampling {
                samples: 4,
                min_prob: 0.02,
            },
            7,
        ),
        // High threshold: the degenerate argmax fallback path.
        (
            Strategy::Sampling {
                samples: 3,
                min_prob: 0.9,
            },
            3,
        ),
    ];
    for (strategy, seed) in cases {
        let want = decode_reference(
            model.as_ref(),
            &params,
            &src,
            strategy,
            24,
            &mut StdRng::seed_from_u64(seed),
        );
        let got = decode(
            model.as_ref(),
            &params,
            &src,
            strategy,
            24,
            &mut StdRng::seed_from_u64(seed),
        );
        assert_hyps_bitwise(&want, &got, &format!("{arch} {strategy:?}"));
    }
}

#[test]
fn transformer_matches_reference() {
    check_strategies("transformer");
}

#[test]
fn convs2s_matches_reference() {
    check_strategies("convs2s");
}

#[test]
fn gru_matches_reference() {
    check_strategies("gru");
}

/// Vocabulary of the serving-shape cases: the bench model's (≈ 130), and
/// not a multiple of the small-product kernel's 16-column tile, so the
/// vocabulary projection runs its ragged right edge.
const SERVING_VOCAB: usize = 130;

fn source(len: usize) -> Vec<usize> {
    (0..len)
        .map(|i| 3 + (i * 7) % (SERVING_VOCAB - 3))
        .collect()
}

/// The serving shape, perturbed biases/γ/β, the strategies serving and
/// the experiments use at beam 5, sources of 1, 25 and 80 tokens (one
/// cross-attention position; the bench's mean; past the 16- and 64-wide
/// tiles): hypotheses bit for bit those of the full-prefix reference.
#[test]
fn transformer_serving_shape_matches_reference() {
    let (params, model) = common::perturbed_small(SERVING_VOCAB, 2, 23);
    let cases: [(Strategy, u64); 3] = [
        (Strategy::Beam { width: 5 }, 0),
        (
            Strategy::DiverseBeam {
                width: 5,
                groups: 2,
                penalty: 1.5,
            },
            0,
        ),
        (
            Strategy::Sampling {
                samples: 4,
                min_prob: 0.004,
            },
            7,
        ),
    ];
    for src_len in [1, 25, 80] {
        let src = source(src_len);
        for (strategy, seed) in cases {
            let want = decode_reference(
                &model,
                &params,
                &src,
                strategy,
                12,
                &mut StdRng::seed_from_u64(seed),
            );
            let got = decode(
                &model,
                &params,
                &src,
                strategy,
                12,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_hyps_bitwise(&want, &got, &format!("src {src_len} {strategy:?}"));
        }
    }
}

/// The transformer's tape-free encoder pass against the graph `encode`
/// it replaces, bit for bit, at the serving shape with f32 weights and
/// with the int8 sidecar. Source lengths: one row; the bench's short and
/// mean windows; 28 and 29 rows, either side of the row count at which
/// the `m×48·48×48` projections move from the small-product tile to the
/// blocked kernel; 64; and three tokens past the positional table, which
/// both passes truncate to `max_len` rows.
#[test]
fn transformer_tape_free_encoder_matches_the_graph_encoder() {
    let (mut params, model) = common::perturbed_small(SERVING_VOCAB, 2, 23);
    let max_len = model.config().max_len;
    for quantized in [false, true] {
        if quantized {
            params.quantize();
        }
        for m in [1, 5, 28, 29, 64, max_len + 3] {
            let src = source(m);
            let mut rng = StdRng::seed_from_u64(0);
            let want = forward_eval(&params, &mut rng, |fwd| {
                let e = model.encode(fwd, &src);
                fwd.graph.value(e).clone()
            });
            let got = forward_eval(&params, &mut rng, |fwd| {
                let out = model.encoder_output(fwd, &src);
                assert!(fwd.graph.is_empty(), "the pass builds no graph");
                out
            });
            assert_eq!(got.rows(), m.min(max_len));
            assert_rows_bitwise(&want, &got, &format!("int8 {quantized} m {m}"));
        }
    }
}

/// Step-level walk at the serving shape through everything a decode does
/// to a state: every step's batched logits rows equal the full-prefix
/// last-row logits of each row's own prefix, across reorders that
/// duplicate, permute, grow and shrink the batch, across the KV arena's
/// first regrow (position 16), and in a clone taken mid-walk (the
/// sampling strategy's rollout clone) that then diverges from its
/// original.
#[test]
fn transformer_serving_shape_steps_follow_reorders_regrow_and_clone() {
    let (params, model) = common::perturbed_small(SERVING_VOCAB, 2, 23);
    let src = source(25);
    let mut rng = StdRng::seed_from_u64(0);
    let enc: Arc<Tensor> = forward_eval(&params, &mut rng, |fwd| {
        let e = model.encode(fwd, &src);
        fwd.graph.value_shared(e)
    });
    let check_step = |state: &mut DecodeState, prefixes: &mut [Vec<usize>], t: usize, ctx: &str| {
        let mut rng = StdRng::seed_from_u64(0);
        let feed: Vec<usize> = (0..prefixes.len())
            .map(|r| {
                if t == 0 {
                    SOS
                } else {
                    3 + (5 * t + 11 * r) % (SERVING_VOCAB - 3)
                }
            })
            .collect();
        for (prefix, &tok) in prefixes.iter_mut().zip(&feed) {
            prefix.push(tok);
        }
        let got = forward_eval(&params, &mut rng, |fwd| {
            model.step_logits(fwd, state, &feed)
        });
        assert_eq!(
            got.shape(),
            (prefixes.len(), SERVING_VOCAB),
            "{ctx} step {t}: shape"
        );
        for (r, prefix) in prefixes.iter().enumerate() {
            let want = forward_eval(&params, &mut rng, |fwd| {
                let enc_node = fwd.constant_shared(Arc::clone(&enc));
                let logits = model.decode_last_logits(fwd, enc_node, prefix);
                fwd.graph.value(logits).clone()
            });
            let got_row = Tensor::from_vec(1, SERVING_VOCAB, got.row(r).to_vec());
            assert_rows_bitwise(&want, &got_row, &format!("{ctx} step {t} row {r}"));
        }
    };
    // One reorder per step, cycling: fan out from the root, duplicate a
    // parent, permute, shrink, grow back.
    let reorders: [&[usize]; 6] = [
        &[0, 0, 0, 0, 0],
        &[0, 0, 1, 2, 4],
        &[4, 3, 2, 1, 0],
        &[2, 0],
        &[1, 1, 0, 0, 1],
        &[0, 1, 2, 3, 4],
    ];
    let mut state = forward_eval(&params, &mut rng, |fwd| model.begin_decode(fwd, &enc, 1));
    let mut prefixes: Vec<Vec<usize>> = vec![Vec::new()];
    let mut rollout = None;
    for t in 0..20 {
        check_step(&mut state, &mut prefixes, t, "walk");
        if t == 9 {
            rollout = Some((state.clone(), prefixes.clone()));
        }
        let parents = reorders[t % reorders.len()];
        state.reorder(parents);
        prefixes = parents.iter().map(|&p| prefixes[p].clone()).collect();
    }
    // The clone carries on from step 10 with its own reorders, untouched
    // by the ten steps its original took since.
    let (mut state, mut prefixes) = rollout.expect("cloned at step 9");
    for t in 10..19 {
        check_step(&mut state, &mut prefixes, t, "clone");
        let parents: Vec<usize> = (0..prefixes.len()).rev().collect();
        state.reorder(&parents);
        prefixes = parents.iter().map(|&p| prefixes[p].clone()).collect();
    }
}

/// Step-level equivalence on a forced 70-token walk: every incremental
/// logits row must equal the reference full-prefix last-row logits,
/// including past the architecture's positional capacity (64 in the
/// test configs), where both paths freeze on the last computable row.
#[test]
fn steps_past_positional_capacity_freeze_identically() {
    for arch in ARCHS {
        let (params, model) = build(arch);
        let model = model.as_ref();
        let src = [SOS, 6, 3, 2];
        let mut rng = StdRng::seed_from_u64(0);
        let enc: Arc<Tensor> = forward_eval(&params, &mut rng, |fwd| {
            let e = model.encode(fwd, &src);
            fwd.graph.value_shared(e)
        });
        let mut state: DecodeState =
            forward_eval(&params, &mut rng, |fwd| model.begin_decode(fwd, &enc, 1));
        let mut prefix = vec![SOS];
        for t in 0..70 {
            let last = *prefix.last().expect("prefix starts with SOS");
            let got = forward_eval(&params, &mut rng, |fwd| {
                model.step_logits(fwd, &mut state, &[last])
            });
            let want = forward_eval(&params, &mut rng, |fwd| {
                let enc_node = fwd.constant_shared(Arc::clone(&enc));
                let logits = model.decode_last_logits(fwd, enc_node, &prefix);
                fwd.graph.value(logits).clone()
            });
            assert_rows_bitwise(&want, &got, &format!("{arch} step {t}"));
            prefix.push(3 + (t % 5));
        }
    }
}

/// Beam pruning permutes and duplicates survivors; after
/// `DecodeState::reorder` the batched step must match fresh batch-1
/// states replaying each surviving row's full prefix.
#[test]
fn reorder_matches_replayed_prefixes() {
    for arch in ARCHS {
        let (params, model) = build(arch);
        let model = model.as_ref();
        let src = [SOS, 5, 7, 2];
        let mut rng = StdRng::seed_from_u64(0);
        let enc: Arc<Tensor> = forward_eval(&params, &mut rng, |fwd| {
            let e = model.encode(fwd, &src);
            fwd.graph.value_shared(e)
        });
        // Three divergent rows, two steps deep.
        let mut state = forward_eval(&params, &mut rng, |fwd| model.begin_decode(fwd, &enc, 3));
        forward_eval(&params, &mut rng, |fwd| {
            model.step_logits(fwd, &mut state, &[SOS, SOS, SOS])
        });
        forward_eval(&params, &mut rng, |fwd| {
            model.step_logits(fwd, &mut state, &[4, 5, 6])
        });
        // Prune to a permutation with a duplicated parent: rows now
        // follow prefixes [SOS,6], [SOS,4], [SOS,5], [SOS,5].
        let parents = [2usize, 0, 1, 1];
        state.reorder(&parents);
        let feed = [7usize, 8, 9, 3];
        let got = forward_eval(&params, &mut rng, |fwd| {
            model.step_logits(fwd, &mut state, &feed)
        });
        assert_eq!(got.shape(), (4, VOCAB), "{arch}: batched step shape");

        let second = [4usize, 5, 6];
        for (r, (&parent, &tok)) in parents.iter().zip(&feed).enumerate() {
            let mut solo = forward_eval(&params, &mut rng, |fwd| model.begin_decode(fwd, &enc, 1));
            forward_eval(&params, &mut rng, |fwd| {
                model.step_logits(fwd, &mut solo, &[SOS])
            });
            forward_eval(&params, &mut rng, |fwd| {
                model.step_logits(fwd, &mut solo, &[second[parent]])
            });
            let want = forward_eval(&params, &mut rng, |fwd| {
                model.step_logits(fwd, &mut solo, &[tok])
            });
            let got_row = Tensor::from_vec(1, VOCAB, got.row(r).to_vec());
            assert_rows_bitwise(&want, &got_row, &format!("{arch} reordered row {r}"));
        }
    }
}

/// The compute pool is process-global (sized once from `QREC_THREADS`),
/// so each pool size re-runs the strategy equivalence tests in a child
/// process. Batched decode shapes can cross the parallel-dispatch
/// threshold where serial 1-row shapes do not; bitwise identity must
/// survive that path change.
#[test]
fn equivalence_holds_across_pool_sizes() {
    if std::env::var_os("QREC_EQ_CHILD").is_some() {
        return; // already inside a child run
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "8"] {
        let out = std::process::Command::new(&exe)
            .args([
                "transformer_matches_reference",
                "transformer_serving_shape_matches_reference",
                "convs2s_matches_reference",
                "gru_matches_reference",
                "--exact",
                "--test-threads=1",
            ])
            .env("QREC_THREADS", threads)
            .env("QREC_EQ_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "equivalence failed under QREC_THREADS={threads}:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
