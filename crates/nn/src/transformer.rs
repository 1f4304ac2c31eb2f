//! The Transformer seq2seq architecture (Vaswani et al.), sized for the
//! paper's query-prediction task.

use crate::attention::{attend_fused, attend_source, transpose_into, MultiHeadAttention, SourceKv};
use crate::incremental::{
    DecodeState, KvArena, StateKind, StepScratch, TransformerLayerState, TransformerState,
};
use crate::layers::{
    causal_mask, positional_divisors, positional_encoding, positional_encoding_row_into, Dropout,
    Embedding, FeedForward, LayerNorm, Linear,
};
use crate::params::{Fwd, Params};
use crate::seq2seq::Seq2Seq;
use qrec_tensor::{NodeId, Tensor};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Transformer hyper-parameters. The paper tunes heads in `[8, 16]`,
/// hidden size in `[512, 1024]`, and layers in `[2, 12]`; our scaled-down
/// defaults keep the same shape at laptop cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder and decoder layer count.
    pub layers: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Maximum sequence length (positional table size).
    pub max_len: usize,
}

impl TransformerConfig {
    /// A small configuration good for the synthetic workloads.
    pub fn small(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 48,
            heads: 4,
            layers: 2,
            d_ff: 96,
            dropout: 0.1,
            max_len: 160,
        }
    }

    /// A minimal configuration for tests.
    pub fn test(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 16,
            heads: 2,
            layers: 1,
            d_ff: 32,
            dropout: 0.0,
            max_len: 64,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct EncoderLayer {
    attn: MultiHeadAttention,
    ff: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
    drop: Dropout,
}

impl EncoderLayer {
    fn new(params: &mut Params, name: &str, cfg: &TransformerConfig, rng: &mut StdRng) -> Self {
        EncoderLayer {
            attn: MultiHeadAttention::new(
                params,
                &format!("{name}.self"),
                cfg.d_model,
                cfg.heads,
                rng,
            ),
            ff: FeedForward::new(params, name, cfg.d_model, cfg.d_ff, cfg.dropout, rng),
            ln1: LayerNorm::new(params, &format!("{name}.ln1"), cfg.d_model),
            ln2: LayerNorm::new(params, &format!("{name}.ln2"), cfg.d_model),
            drop: Dropout::new(cfg.dropout),
        }
    }

    fn forward(&self, fwd: &mut Fwd<'_>, x: NodeId) -> NodeId {
        let a = self.attn.forward(fwd, x, x, None);
        let a = self.drop.forward(fwd, a);
        let x = fwd.graph.add(x, a);
        let x = self.ln1.forward(fwd, x);
        let f = self.ff.forward(fwd, x);
        let f = self.drop.forward(fwd, f);
        let x = fwd.graph.add(x, f);
        self.ln2.forward(fwd, x)
    }

    /// [`EncoderLayer::forward`] outside training, tape-free, over the
    /// `m` source rows of the residual stream `s.x` (`m × d_model`,
    /// updated in place): every projection batched over the rows, and
    /// the graph path's unmasked `m × m` attention as per-head products
    /// over all `m` query rows, the keys transposed once. Weights are
    /// read from `params` in place; every intermediate lives in `s`.
    fn apply(&self, params: &Params, m: usize, s: &mut StepScratch) {
        let attn = &self.attn;
        let d = attn.d;
        attn.q.apply(params, &s.x, m, &mut s.q);
        attn.k.apply(params, &s.x, m, &mut s.k);
        attn.v.apply(params, &s.x, m, &mut s.v);
        transpose_into(&s.k, d, &mut s.kt);
        let src = SourceKv {
            kt: &s.kt,
            v: &s.v,
            m,
        };
        attend_source(&s.q, src, attn.heads, None, &mut s.scores, &mut s.ctx);
        attn.out.apply(params, &s.ctx, m, &mut s.y);
        add_assign(&mut s.x, &s.y);
        self.ln1.apply(params, &mut s.x);

        self.ff.apply(params, &s.x, m, &mut s.h, &mut s.y);
        add_assign(&mut s.x, &s.y);
        self.ln2.apply(params, &mut s.x);
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct DecoderLayer {
    self_attn: MultiHeadAttention,
    cross_attn: MultiHeadAttention,
    ff: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
    ln3: LayerNorm,
    drop: Dropout,
}

impl DecoderLayer {
    fn new(params: &mut Params, name: &str, cfg: &TransformerConfig, rng: &mut StdRng) -> Self {
        DecoderLayer {
            self_attn: MultiHeadAttention::new(
                params,
                &format!("{name}.self"),
                cfg.d_model,
                cfg.heads,
                rng,
            ),
            cross_attn: MultiHeadAttention::new(
                params,
                &format!("{name}.cross"),
                cfg.d_model,
                cfg.heads,
                rng,
            ),
            ff: FeedForward::new(params, name, cfg.d_model, cfg.d_ff, cfg.dropout, rng),
            ln1: LayerNorm::new(params, &format!("{name}.ln1"), cfg.d_model),
            ln2: LayerNorm::new(params, &format!("{name}.ln2"), cfg.d_model),
            ln3: LayerNorm::new(params, &format!("{name}.ln3"), cfg.d_model),
            drop: Dropout::new(cfg.dropout),
        }
    }

    fn forward(
        &self,
        fwd: &mut Fwd<'_>,
        x: NodeId,
        enc: NodeId,
        mask: &qrec_tensor::Tensor,
    ) -> NodeId {
        let a = self.self_attn.forward(fwd, x, x, Some(mask));
        let a = self.drop.forward(fwd, a);
        let x = fwd.graph.add(x, a);
        let x = self.ln1.forward(fwd, x);
        let c = self.cross_attn.forward(fwd, x, enc, None);
        let c = self.drop.forward(fwd, c);
        let x = fwd.graph.add(x, c);
        let x = self.ln2.forward(fwd, x);
        let f = self.ff.forward(fwd, x);
        let f = self.drop.forward(fwd, f);
        let x = fwd.graph.add(x, f);
        self.ln3.forward(fwd, x)
    }

    /// One tape-free incremental step over the `n` hypothesis rows of
    /// the residual stream `s.x` (`n × d_model`, one new position per
    /// row, updated in place): append this step's K/V rows to the
    /// layer's arena, attend each row over its own history (the only
    /// per-hypothesis work — histories differ per row) and all rows over
    /// the shared source K/V, and run every projection batched. Weights
    /// are read from `params` in place; every intermediate lives in `s`.
    ///
    /// The full-prefix path's causal-mask row for the newest position is
    /// all zeros, so attending the new query over exactly the cached
    /// positions — no mask — computes the same softmax term for term.
    /// Dropout is the identity outside training.
    fn step(&self, params: &Params, n: usize, ls: &mut TransformerLayerState, s: &mut StepScratch) {
        let d = self.self_attn.d;
        let attn = &self.self_attn;
        attn.q.apply(params, &s.x, n, &mut s.q);
        attn.k.apply(params, &s.x, n, &mut s.k);
        attn.v.apply(params, &s.x, n, &mut s.v);
        ls.self_kv.append(&s.k, &s.v);
        let t = ls.self_kv.positions();
        let rows = s.q.chunks_exact(d).zip(s.ctx.chunks_exact_mut(d));
        for (i, (q, ctx)) in rows.enumerate() {
            let history = ls.self_kv.history(i);
            attend_fused(q, history, attn.heads, &mut s.scores[..attn.heads * t], ctx);
        }
        attn.out.apply(params, &s.ctx, n, &mut s.y);
        add_assign(&mut s.x, &s.y);
        self.ln1.apply(params, &mut s.x);

        let attn = &self.cross_attn;
        attn.q.apply(params, &s.x, n, &mut s.q);
        let src = SourceKv {
            kt: ls.cross_kt.data(),
            v: ls.cross_v.data(),
            m: ls.cross_v.rows(),
        };
        attend_source(&s.q, src, attn.heads, None, &mut s.scores, &mut s.ctx);
        attn.out.apply(params, &s.ctx, n, &mut s.y);
        add_assign(&mut s.x, &s.y);
        self.ln2.apply(params, &mut s.x);

        self.ff.apply(params, &s.x, n, &mut s.h, &mut s.y);
        add_assign(&mut s.x, &s.y);
        self.ln3.apply(params, &mut s.x);
    }
}

/// Residual add: `x += y`, elementwise.
fn add_assign(x: &mut [f32], y: &[f32]) {
    for (x, &y) in x.iter_mut().zip(y) {
        *x += y;
    }
}

/// An embedding row into a residual-stream row: `row ← row·√d + pe`, the
/// two roundings of the graph's `scale` then `add`.
fn scale_and_position(row: &mut [f32], sqrt_d: f32, pe: &[f32]) {
    for (x, &pe) in row.iter_mut().zip(pe) {
        *x = *x * sqrt_d + pe;
    }
}

/// A full Transformer encoder–decoder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Transformer {
    cfg: TransformerConfig,
    src_embed: Embedding,
    tgt_embed: Embedding,
    enc_layers: Vec<EncoderLayer>,
    dec_layers: Vec<DecoderLayer>,
    out_proj: Linear,
    embed_drop: Dropout,
}

impl Transformer {
    /// Build the architecture, registering weights into `params`.
    pub fn new(params: &mut Params, cfg: TransformerConfig, rng: &mut StdRng) -> Self {
        let src_embed = Embedding::new(params, "tfm.src", cfg.vocab, cfg.d_model, rng);
        let tgt_embed = Embedding::new(params, "tfm.tgt", cfg.vocab, cfg.d_model, rng);
        let enc_layers = (0..cfg.layers)
            .map(|i| EncoderLayer::new(params, &format!("tfm.enc{i}"), &cfg, rng))
            .collect();
        let dec_layers = (0..cfg.layers)
            .map(|i| DecoderLayer::new(params, &format!("tfm.dec{i}"), &cfg, rng))
            .collect();
        let out_proj = Linear::new(params, "tfm.out", cfg.d_model, cfg.vocab, rng);
        Transformer {
            embed_drop: Dropout::new(cfg.dropout),
            cfg,
            src_embed,
            tgt_embed,
            enc_layers,
            dec_layers,
            out_proj,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    fn decode_states(&self, fwd: &mut Fwd<'_>, enc: NodeId, tgt_in: &[usize]) -> NodeId {
        let len = tgt_in.len().min(self.cfg.max_len);
        let mask = fwd.cached_constant(("causal_mask", len, len), || causal_mask(len));
        let mut x = self.embed(fwd, &self.tgt_embed, tgt_in);
        for layer in &self.dec_layers {
            x = layer.forward(fwd, x, enc, &mask);
        }
        x
    }

    fn embed(&self, fwd: &mut Fwd<'_>, table: &Embedding, ids: &[usize]) -> NodeId {
        let ids: Vec<usize> = ids.iter().take(self.cfg.max_len).copied().collect();
        let e = table.forward(fwd, &ids);
        let e = fwd.graph.scale(e, (self.cfg.d_model as f32).sqrt());
        let (len, d) = (ids.len(), self.cfg.d_model);
        let pe = fwd.cached_constant(("positional", len, d), || positional_encoding(len, d));
        let pe = fwd.constant_shared(pe);
        let x = fwd.graph.add(e, pe);
        self.embed_drop.forward(fwd, x)
    }
}

impl Seq2Seq for Transformer {
    fn encode(&self, fwd: &mut Fwd<'_>, src: &[usize]) -> NodeId {
        let mut x = self.embed(fwd, &self.src_embed, src);
        for layer in &self.enc_layers {
            x = layer.forward(fwd, x);
        }
        x
    }

    fn decode(&self, fwd: &mut Fwd<'_>, enc: NodeId, tgt_in: &[usize]) -> NodeId {
        let states = self.decode_states(fwd, enc, tgt_in);
        self.out_proj.forward(fwd, states)
    }

    fn decode_last_logits(&self, fwd: &mut Fwd<'_>, enc: NodeId, tgt_in: &[usize]) -> NodeId {
        let states = self.decode_states(fwd, enc, tgt_in);
        let rows = fwd.graph.value(states).rows();
        let last = fwd.graph.slice_rows(states, rows - 1, rows);
        self.out_proj.forward(fwd, last)
    }

    /// The tape-free encoder pass: the `m = min(len(src), max_len)`
    /// source rows go through embedding, positions and every encoder
    /// layer on one `StepScratch` sized for `m` rows — no autograd
    /// graph (`fwd` supplies the parameter store only), no weight copied,
    /// no per-head slice or concatenation. The allocations are the
    /// scratch buffers and the divisor table, whatever `m` or the depth;
    /// the residual stream itself becomes the returned tensor.
    fn encoder_output(&self, fwd: &mut Fwd<'_>, src: &[usize]) -> Arc<Tensor> {
        let params = fwd.params;
        let d = self.cfg.d_model;
        let src = &src[..src.len().min(self.cfg.max_len)];
        let m = src.len();
        let mut s = StepScratch::default();
        s.ensure(m, d, self.cfg.d_ff, m * self.cfg.heads * m);
        self.src_embed.gather_into(params, src, &mut s.x);
        let pe_div = positional_divisors(d);
        let sqrt_d = (d as f32).sqrt();
        for (pos, row) in s.x.chunks_exact_mut(d).enumerate() {
            positional_encoding_row_into(pos, &pe_div, &mut s.pe);
            scale_and_position(row, sqrt_d, &s.pe);
        }
        for layer in &self.enc_layers {
            layer.apply(params, m, &mut s);
        }
        Arc::new(Tensor::from_vec(m, d, s.x))
    }

    fn begin_decode(&self, fwd: &mut Fwd<'_>, enc: &Arc<Tensor>, batch: usize) -> DecodeState {
        let params = fwd.params;
        let d = self.cfg.d_model;
        // A quantized parameter store also quantizes the resident KV
        // rows: the whole decode picks one cache representation here.
        let quantized = params.is_quantized();
        // Cross-attention K/V depend only on the source: project them
        // once here instead of once per decode step, and transpose the
        // keys, which no step changes, for `attend_source`.
        let m = enc.rows();
        let project = |lin: &Linear| {
            let mut out = Tensor::zeros(m, d);
            lin.apply(params, enc.data(), m, out.data_mut());
            out
        };
        let layers = self
            .dec_layers
            .iter()
            .map(|layer| {
                let mut kt = Vec::new();
                transpose_into(project(&layer.cross_attn.k).data(), d, &mut kt);
                TransformerLayerState {
                    self_kv: KvArena::new(batch, d, quantized),
                    cross_kt: Arc::new(Tensor::from_vec(d, m, kt)),
                    cross_v: Arc::new(project(&layer.cross_attn.v)),
                }
            })
            .collect();
        let state = TransformerState {
            layers,
            scratch: StepScratch::default(),
            pe_div: positional_divisors(d),
        };
        DecodeState::with_kind(
            StateKind::Transformer(Box::new(state)),
            enc,
            batch,
            self.cfg.max_len,
        )
    }

    /// The tape-free step: no autograd graph is built (`fwd` supplies
    /// the parameter store only, and the pass is inference by
    /// construction — dropout is the identity), weights are read in
    /// place, and the logits tensor returned is the only allocation.
    fn step_logits(
        &self,
        fwd: &mut Fwd<'_>,
        state: &mut DecodeState,
        last_toks: &[usize],
    ) -> Tensor {
        let pos = state.advance(last_toks);
        if last_toks.is_empty() {
            return state.remember_logits(Tensor::zeros(0, self.cfg.vocab));
        }
        assert!(
            matches!(state.kind, StateKind::Transformer(_)),
            "transformer cannot step a decode state begun by another architecture"
        );
        let Some(pos) = pos else {
            return state.frozen_logits();
        };
        let params = fwd.params;
        let n = last_toks.len();
        let d = self.cfg.d_model;
        let mut logits = Tensor::zeros(n, self.cfg.vocab);
        if let StateKind::Transformer(ts) = &mut state.kind {
            let s = &mut ts.scratch;
            let heads = self.cfg.heads;
            let scores = (heads * (pos + 1)).max(n * heads * state.enc.rows());
            s.ensure(n, d, self.cfg.d_ff, scores);
            self.tgt_embed.gather_into(params, last_toks, &mut s.x);
            positional_encoding_row_into(pos, &ts.pe_div, &mut s.pe);
            let sqrt_d = (d as f32).sqrt();
            for row in s.x.chunks_exact_mut(d) {
                scale_and_position(row, sqrt_d, &s.pe);
            }
            for (layer, ls) in self.dec_layers.iter().zip(&mut ts.layers) {
                layer.step(params, n, ls, s);
            }
            self.out_proj.apply(params, &s.x, n, logits.data_mut());
        }
        state.remember_logits(logits)
    }

    fn vocab(&self) -> usize {
        self.cfg.vocab
    }

    fn d_model(&self) -> usize {
        self.cfg.d_model
    }

    fn arch_name(&self) -> &'static str {
        "transformer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{forward_eval, Params};
    use rand::SeedableRng;

    fn setup() -> (Params, Transformer, StdRng) {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(5);
        let model = Transformer::new(&mut params, TransformerConfig::test(20), &mut rng);
        (params, model, rng)
    }

    #[test]
    fn shapes_are_correct() {
        let (params, model, mut rng) = setup();
        let (enc_shape, dec_shape) = forward_eval(&params, &mut rng, |fwd| {
            let enc = model.encode(fwd, &[1, 5, 6, 2]);
            let logits = model.decode(fwd, enc, &[1, 7, 8]);
            (
                fwd.graph.value(enc).shape(),
                fwd.graph.value(logits).shape(),
            )
        });
        assert_eq!(enc_shape, (4, 16));
        assert_eq!(dec_shape, (3, 20));
    }

    #[test]
    fn decoder_is_causal() {
        // Changing a later target token must not change earlier logits.
        let (params, model, _) = setup();
        let run = |tgt: &[usize]| {
            let mut rng = StdRng::seed_from_u64(0);
            forward_eval(&params, &mut rng, |fwd| {
                let enc = model.encode(fwd, &[1, 5, 2]);
                let logits = model.decode(fwd, enc, tgt);
                fwd.graph.value(logits).row(0).to_vec()
            })
        };
        let a = run(&[1, 7, 8]);
        let b = run(&[1, 9, 4]);
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x - y).abs() < 1e-4,
                "decoder row 0 depends on future tokens"
            );
        }
    }

    #[test]
    fn encoder_affects_decoder_output() {
        let (params, model, _) = setup();
        let run = |src: &[usize]| {
            let mut rng = StdRng::seed_from_u64(0);
            forward_eval(&params, &mut rng, |fwd| {
                let enc = model.encode(fwd, src);
                let logits = model.decode(fwd, enc, &[1, 7]);
                fwd.graph.value(logits).row(1).to_vec()
            })
        };
        let a = run(&[1, 5, 2]);
        let b = run(&[1, 11, 2]);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "cross-attention must transport encoder info");
    }

    #[test]
    fn long_inputs_are_truncated_to_max_len() {
        let (params, model, mut rng) = setup();
        let long: Vec<usize> = (0..200).map(|i| i % 20).collect();
        let shape = forward_eval(&params, &mut rng, |fwd| {
            let enc = model.encode(fwd, &long);
            fwd.graph.value(enc).shape()
        });
        assert_eq!(shape.0, 64);
    }

    #[test]
    fn training_reduces_loss_on_a_single_pair() {
        // Overfit one (src, tgt) pair — the canonical smoke test that the
        // whole backward path works.
        use crate::adam::{Adam, AdamConfig};
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(6);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let mut adam = Adam::new(
            AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            &params,
        );
        let src = [1usize, 4, 5, 6, 2];
        let tgt_in = [1usize, 7, 8, 9];
        let tgt_out = [7usize, 8, 9, 2];
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..30 {
            let loss = crate::params::forward_backward(&mut params, &mut rng, |fwd| {
                let enc = model.encode(fwd, &src);
                let logits = model.decode(fwd, enc, &tgt_in);
                fwd.graph.cross_entropy(logits, &tgt_out)
            });
            if step == 0 {
                first = loss;
            }
            last = loss;
            adam.step(&mut params, 1.0);
        }
        assert!(
            last < first * 0.5,
            "loss did not drop: first {first}, last {last}"
        );
    }

    #[test]
    fn param_count_scales_with_config() {
        let mut p1 = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Transformer::new(&mut p1, TransformerConfig::test(20), &mut rng);
        let mut p2 = Params::new();
        let _ = Transformer::new(&mut p2, TransformerConfig::small(20), &mut rng);
        assert!(p2.scalar_count() > 2 * p1.scalar_count());
    }
}
