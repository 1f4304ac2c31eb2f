//! Bitwise equivalence of the incremental, step-batched decoder against
//! the serial full-prefix reference path.
//!
//! The decode rewrite's contract (DESIGN.md §11) is that KV-cached,
//! batched decoding is *bitwise* identical to re-running the decoder
//! over the full prefix once per hypothesis — not epsilon-close. These
//! tests drive all three architectures through every strategy the
//! recommender uses and compare hypothesis lists bit for bit, replay
//! state reorders against fresh per-prefix decodes, and walk steps past
//! the architecture's positional capacity (the logit-freeze path).
//!
//! The full-prefix reference decoder ([`decode_reference`]) lives here and
//! nowhere in the shipped crates. It reaches the model through the public
//! API only — each next-token distribution is the softmax of the last row
//! of [`Seq2Seq::decode`] over the prefix — and selects beam slots with
//! the selection routine the shipped `BeamSelector` replaced
//! (`select_oracle`), so it shares no search code with the decoder it
//! checks.
//!
//! The transformer's tape-free step is additionally driven at the
//! serving shape (`TransformerConfig::small`: d 48, 4 heads, 2 layers)
//! with biases and LayerNorm γ/β moved off their initial values, which
//! the freshly initialised test-config models above leave at 0/1/0.

mod common;
mod select_oracle;

use qrec_nn::decode::{decode, Hypothesis, Strategy, EOS, PAD, SOS};
use qrec_nn::params::{forward_eval, Fwd, Params};
use qrec_nn::{
    ConvS2S, ConvS2SConfig, DecodeState, GruConfig, GruSeq2Seq, Seq2Seq, Transformer,
    TransformerConfig,
};
use qrec_tensor::{NodeId, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use select_oracle::select_beam_slots_oracle;
use std::collections::HashMap;
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

/// The last row of [`Seq2Seq::decode`] over `prefix` (`1 × vocab`): the
/// next-token logits after the whole prefix, recomputed from scratch.
fn last_row_logits<M: Seq2Seq + ?Sized>(
    model: &M,
    fwd: &mut Fwd<'_>,
    enc: NodeId,
    prefix: &[usize],
) -> Tensor {
    let logits = model.decode(fwd, enc, prefix);
    let all = fwd.graph.value(logits);
    Tensor::from_vec(1, all.cols(), all.row(all.rows() - 1).to_vec())
}

/// The serial full-prefix decode path `qrec_nn::decode` had before the
/// incremental rewrite: every step re-runs the decoder over the entire
/// prefix, once per live hypothesis. The ground truth [`decode`] is
/// compared against bit for bit.
fn decode_reference<M: Seq2Seq + ?Sized>(
    model: &M,
    params: &Params,
    src: &[usize],
    strategy: Strategy,
    max_len: usize,
    rng: &mut StdRng,
) -> Vec<Hypothesis> {
    // The encoder draws nothing from `rng` outside training, so encoding
    // up front leaves the sampling stream where the decode expects it.
    let enc = forward_eval(params, rng, |fwd| {
        let enc = model.encode(fwd, src);
        fwd.graph.value_shared(enc)
    });
    let mut dec = ReferenceDecoder {
        model,
        params,
        rng,
        enc,
    };
    let mut hyps = match strategy {
        Strategy::Greedy => vec![dec.greedy(max_len)],
        Strategy::Beam { width } => dec.beam(max_len, width, 1, 0.0),
        Strategy::DiverseBeam {
            width,
            groups,
            penalty,
        } => dec.beam(max_len, width, groups.max(1), penalty),
        Strategy::Sampling { samples, min_prob } => dec.sample(max_len, samples, min_prob),
    };
    // Sort by descending log-probability, deduplicate on token ids.
    hyps.sort_by(|a, b| {
        b.log_prob
            .partial_cmp(&a.log_prob)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    hyps.dedup_by(|a, b| a.ids == b.ids);
    hyps
}

fn empty_hypothesis() -> Hypothesis {
    Hypothesis {
        ids: Vec::new(),
        token_probs: Vec::new(),
        log_prob: 0.0,
        finished: false,
    }
}

/// Zero out tokens a decoder must never emit (`<PAD>`, `<SOS>`).
fn suppress_specials(probs: &mut [f32]) {
    probs[PAD] = 0.0;
    probs[SOS] = 0.0;
}

fn argmax(probs: &[f32]) -> (usize, f32) {
    let mut best = 0;
    let mut best_p = f32::NEG_INFINITY;
    for (i, &p) in probs.iter().enumerate() {
        if p > best_p {
            best_p = p;
            best = i;
        }
    }
    (best, best_p)
}

/// One graph per step per hypothesis, recomputing the full prefix each
/// time (O(L²) per emitted token), against the source's encoder output.
struct ReferenceDecoder<'m, M: Seq2Seq + ?Sized> {
    model: &'m M,
    params: &'m Params,
    rng: &'m mut StdRng,
    enc: Arc<Tensor>,
}

impl<M: Seq2Seq + ?Sized> ReferenceDecoder<'_, M> {
    /// Next-token probability distribution after `prefix` (which starts
    /// with `<SOS>`).
    fn next_probs(&mut self, prefix: &[usize]) -> Vec<f32> {
        let model = self.model;
        let enc = Arc::clone(&self.enc);
        forward_eval(self.params, self.rng, |fwd| {
            let enc = fwd.constant_shared(enc);
            last_row_logits(model, fwd, enc, prefix)
                .softmax_rows()
                .into_data()
        })
    }

    fn greedy(&mut self, max_len: usize) -> Hypothesis {
        let mut prefix = vec![SOS];
        let mut hyp = empty_hypothesis();
        for _ in 0..max_len {
            let mut probs = self.next_probs(&prefix);
            suppress_specials(&mut probs);
            let (tok, p) = argmax(&probs);
            hyp.log_prob += p.max(1e-12).ln();
            if tok == EOS {
                hyp.finished = true;
                break;
            }
            hyp.ids.push(tok);
            hyp.token_probs.push(p);
            prefix.push(tok);
        }
        hyp
    }

    /// Beam search; with `groups > 1` runs diverse beam search.
    fn beam(
        &mut self,
        max_len: usize,
        width: usize,
        groups: usize,
        penalty: f32,
    ) -> Vec<Hypothesis> {
        let width = width.max(1);
        let groups = groups.min(width);
        let group_width = width.div_ceil(groups);

        #[derive(Clone)]
        struct Live {
            prefix: Vec<usize>, // starts with SOS
            hyp: Hypothesis,
        }
        let root = Live {
            prefix: vec![SOS],
            hyp: empty_hypothesis(),
        };
        // One beam per group.
        let mut beams: Vec<Vec<Live>> = vec![vec![root]; groups];
        let mut done: Vec<Hypothesis> = Vec::new();

        for _step in 0..max_len {
            // Hamming diversity bookkeeping: token → times chosen this
            // step by earlier groups (and earlier slots of this group).
            let mut chosen: HashMap<usize, usize> = HashMap::new();
            for beam in beams.iter_mut() {
                if beam.is_empty() {
                    continue;
                }
                let mut probs_cache: Vec<Vec<f32>> = Vec::with_capacity(beam.len());
                for live in beam.iter() {
                    let mut probs = self.next_probs(&live.prefix);
                    suppress_specials(&mut probs);
                    probs_cache.push(probs);
                }
                let rows: Vec<(&[f32], f32)> = probs_cache
                    .iter()
                    .zip(beam.iter())
                    .map(|(probs, live)| (probs.as_slice(), live.hyp.log_prob))
                    .collect();
                let winners = select_beam_slots_oracle(&rows, group_width, penalty, &chosen);
                // Standard beam step: the top `group_width` candidates each
                // take one slot; an EOS candidate retires its hypothesis.
                let mut next: Vec<Live> = Vec::with_capacity(group_width);
                for (_score, li, tok) in winners {
                    let live = &beam[li];
                    let p = probs_cache[li][tok];
                    let mut hyp = live.hyp.clone();
                    hyp.log_prob += p.max(1e-12).ln();
                    if tok == EOS {
                        hyp.finished = true;
                        done.push(hyp);
                        continue;
                    }
                    hyp.ids.push(tok);
                    hyp.token_probs.push(p);
                    let mut prefix = live.prefix.clone();
                    prefix.push(tok);
                    *chosen.entry(tok).or_insert(0) += 1;
                    next.push(Live { prefix, hyp });
                }
                *beam = next;
            }
            if beams.iter().all(|b| b.is_empty()) || done.len() >= width * 2 {
                break;
            }
        }
        // Unfinished survivors still count as candidates.
        for beam in beams {
            for live in beam {
                done.push(live.hyp);
            }
        }
        done
    }

    fn sample(&mut self, max_len: usize, samples: usize, min_prob: f32) -> Vec<Hypothesis> {
        let mut out = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut prefix = vec![SOS];
            let mut hyp = empty_hypothesis();
            for _ in 0..max_len {
                let mut probs = self.next_probs(&prefix);
                suppress_specials(&mut probs);
                // The paper zeroes low-score tokens before sampling.
                let mut total = 0.0f32;
                for p in probs.iter_mut() {
                    if *p < min_prob {
                        *p = 0.0;
                    }
                    total += *p;
                }
                if total <= 0.0 {
                    // Degenerate distribution: fall back to argmax.
                    probs = self.next_probs(&prefix);
                    suppress_specials(&mut probs);
                    let (tok, p) = argmax(&probs);
                    hyp.log_prob += p.max(1e-12).ln();
                    if tok == EOS {
                        hyp.finished = true;
                        break;
                    }
                    hyp.ids.push(tok);
                    hyp.token_probs.push(p);
                    prefix.push(tok);
                    continue;
                }
                let mut u = self.rng.gen_range(0.0..total);
                let mut tok = probs.len() - 1;
                for (i, &p) in probs.iter().enumerate() {
                    if u < p {
                        tok = i;
                        break;
                    }
                    u -= p;
                }
                let p = probs[tok] / total;
                hyp.log_prob += p.max(1e-12).ln();
                if tok == EOS {
                    hyp.finished = true;
                    break;
                }
                hyp.ids.push(tok);
                hyp.token_probs.push(p);
                prefix.push(tok);
            }
            out.push(hyp);
        }
        out
    }
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
/// mean windows; 28 and 29 rows (a last row tile of four and of five);
/// 64; and three tokens past the positional table, which both passes
/// truncate to `max_len` rows.
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
                last_row_logits(&model, fwd, enc_node, prefix)
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
                last_row_logits(model, fwd, enc_node, &prefix)
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
