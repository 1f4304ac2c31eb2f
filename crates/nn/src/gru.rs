//! GRU (recurrent) sequence-to-sequence model with dot-product attention.
//!
//! The paper's RNN variant (details deferred to its full version); we
//! include it both for completeness and for the architecture ablation
//! benches.

use crate::incremental::{repeat_row, DecodeState, GruState, StateKind};
use crate::layers::{Dropout, Embedding, Linear};
use crate::params::{Fwd, Params};
use crate::seq2seq::Seq2Seq;
use qrec_tensor::{NodeId, Tensor};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// GRU seq2seq hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GruConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden width.
    pub d_model: usize,
    /// Dropout probability on embeddings.
    pub dropout: f32,
    /// Maximum sequence length.
    pub max_len: usize,
}

impl GruConfig {
    /// A small configuration good for the synthetic workloads.
    pub fn small(vocab: usize) -> Self {
        GruConfig {
            vocab,
            d_model: 48,
            dropout: 0.1,
            max_len: 160,
        }
    }

    /// A minimal configuration for tests.
    pub fn test(vocab: usize) -> Self {
        GruConfig {
            vocab,
            d_model: 16,
            dropout: 0.0,
            max_len: 64,
        }
    }
}

/// One GRU cell: update/reset/candidate gates.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GruCell {
    wz: Linear,
    uz: Linear,
    wr: Linear,
    ur: Linear,
    wh: Linear,
    uh: Linear,
}

impl GruCell {
    fn new(params: &mut Params, name: &str, d_in: usize, d: usize, rng: &mut StdRng) -> Self {
        GruCell {
            wz: Linear::new(params, &format!("{name}.wz"), d_in, d, rng),
            uz: Linear::new_no_bias(params, &format!("{name}.uz"), d, d, rng),
            wr: Linear::new(params, &format!("{name}.wr"), d_in, d, rng),
            ur: Linear::new_no_bias(params, &format!("{name}.ur"), d, d, rng),
            wh: Linear::new(params, &format!("{name}.wh"), d_in, d, rng),
            uh: Linear::new_no_bias(params, &format!("{name}.uh"), d, d, rng),
        }
    }

    /// One step: `x` is `1 × d_in`, `h` is `1 × d`; returns new `1 × d`.
    fn step(&self, fwd: &mut Fwd<'_>, x: NodeId, h: NodeId) -> NodeId {
        let zx = self.wz.forward(fwd, x);
        let zh = self.uz.forward(fwd, h);
        let z = fwd.graph.add(zx, zh);
        let z = fwd.graph.sigmoid(z);

        let rx = self.wr.forward(fwd, x);
        let rh = self.ur.forward(fwd, h);
        let r = fwd.graph.add(rx, rh);
        let r = fwd.graph.sigmoid(r);

        let hx = self.wh.forward(fwd, x);
        let rh = fwd.graph.mul(r, h);
        let hu = self.uh.forward(fwd, rh);
        let cand = fwd.graph.add(hx, hu);
        let cand = fwd.graph.tanh(cand);

        // h' = (1 - z) ⊙ h + z ⊙ cand
        let one_minus_z = fwd.graph.one_minus(z);
        let keep = fwd.graph.mul(one_minus_z, h);
        let new = fwd.graph.mul(z, cand);
        fwd.graph.add(keep, new)
    }
}

/// GRU encoder–decoder with dot-product attention.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruSeq2Seq {
    cfg: GruConfig,
    src_embed: Embedding,
    tgt_embed: Embedding,
    enc_cell: GruCell,
    dec_cell: GruCell,
    out_proj: Linear,
    drop: Dropout,
}

impl GruSeq2Seq {
    /// Build the architecture, registering weights into `params`.
    pub fn new(params: &mut Params, cfg: GruConfig, rng: &mut StdRng) -> Self {
        let d = cfg.d_model;
        GruSeq2Seq {
            src_embed: Embedding::new(params, "gru.src", cfg.vocab, d, rng),
            tgt_embed: Embedding::new(params, "gru.tgt", cfg.vocab, d, rng),
            enc_cell: GruCell::new(params, "gru.enc", d, d, rng),
            // Decoder input: [embedding | attention context] → 2d wide.
            dec_cell: GruCell::new(params, "gru.dec", 2 * d, d, rng),
            out_proj: Linear::new(params, "gru.out", d, cfg.vocab, rng),
            drop: Dropout::new(cfg.dropout),
            cfg,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &GruConfig {
        &self.cfg
    }
}

impl Seq2Seq for GruSeq2Seq {
    fn encode(&self, fwd: &mut Fwd<'_>, src: &[usize]) -> NodeId {
        let ids: Vec<usize> = src.iter().take(self.cfg.max_len).copied().collect();
        let emb = self.src_embed.forward(fwd, &ids);
        let emb = self.drop.forward(fwd, emb);
        let d = self.cfg.d_model;
        let mut h = fwd.constant(Tensor::zeros(1, d));
        let mut states: Option<NodeId> = None;
        for t in 0..ids.len() {
            let x = fwd.graph.slice_rows(emb, t, t + 1);
            h = self.enc_cell.step(fwd, x, h);
            states = Some(match states {
                Some(acc) => fwd.graph.vcat(acc, h),
                None => h,
            });
        }
        states.unwrap_or_else(|| fwd.constant(Tensor::zeros(1, d)))
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

    fn begin_decode(&self, fwd: &mut Fwd<'_>, enc: &Arc<Tensor>, batch: usize) -> DecodeState {
        let _ = fwd;
        // Initial hidden: the final encoder state, one copy per
        // hypothesis row (matching `decode_states`' slice of the last
        // encoder row).
        let h = repeat_row(enc.row(enc.rows() - 1), batch);
        DecodeState::with_kind(StateKind::Gru(GruState { h }), enc, batch, self.cfg.max_len)
    }

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
            matches!(state.kind, StateKind::Gru(_)),
            "gru cannot step a decode state begun by another architecture"
        );
        if pos.is_none() {
            return state.frozen_logits();
        }
        let emb = self.tgt_embed.forward(fwd, last_toks);
        let x = self.drop.forward(fwd, emb);
        let enc_node = fwd.constant_shared(Arc::clone(&state.enc));
        let scale = 1.0 / (self.cfg.d_model as f32).sqrt();
        let mut new_h = None;
        if let StateKind::Gru(gs) = &mut state.kind {
            let h = fwd.constant(gs.h.clone());
            // Dot-product attention with the previous hidden state,
            // batched across hypothesis rows.
            let logits = fwd.graph.matmul_nt(h, enc_node);
            let logits = fwd.graph.scale(logits, scale);
            let attn = fwd.graph.softmax_rows(logits);
            let ctx = fwd.graph.matmul(attn, enc_node);
            let xin = fwd.graph.hcat(x, ctx);
            let next = self.dec_cell.step(fwd, xin, h);
            gs.h = fwd.graph.value(next).clone();
            new_h = Some(next);
        }
        match new_h {
            Some(h) => {
                let logits = self.out_proj.forward(fwd, h);
                let value = fwd.graph.value(logits).clone();
                state.remember_logits(value)
            }
            None => state.frozen_logits(),
        }
    }

    fn vocab(&self) -> usize {
        self.cfg.vocab
    }

    fn d_model(&self) -> usize {
        self.cfg.d_model
    }

    fn arch_name(&self) -> &'static str {
        "gru"
    }
}

impl GruSeq2Seq {
    fn decode_states(&self, fwd: &mut Fwd<'_>, enc: NodeId, tgt_in: &[usize]) -> NodeId {
        let ids: Vec<usize> = tgt_in.iter().take(self.cfg.max_len).copied().collect();
        let emb = self.tgt_embed.forward(fwd, &ids);
        let emb = self.drop.forward(fwd, emb);
        let d = self.cfg.d_model;
        let scale = 1.0 / (d as f32).sqrt();
        // Initial hidden: final encoder state.
        let n_enc = fwd.graph.value(enc).rows();
        let mut h = fwd.graph.slice_rows(enc, n_enc - 1, n_enc);
        let mut outputs: Option<NodeId> = None;
        for t in 0..ids.len() {
            // Dot-product attention with the previous hidden state.
            let logits = fwd.graph.matmul_nt(h, enc); // 1 × n_enc
            let logits = fwd.graph.scale(logits, scale);
            let attn = fwd.graph.softmax_rows(logits);
            let ctx = fwd.graph.matmul(attn, enc); // 1 × d
            let x = fwd.graph.slice_rows(emb, t, t + 1);
            let xin = fwd.graph.hcat(x, ctx); // 1 × 2d
            h = self.dec_cell.step(fwd, xin, h);
            outputs = Some(match outputs {
                Some(acc) => fwd.graph.vcat(acc, h),
                None => h,
            });
        }
        outputs.unwrap_or_else(|| fwd.constant(Tensor::zeros(1, d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{forward_eval, Params};
    use rand::SeedableRng;

    fn setup() -> (Params, GruSeq2Seq) {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(5);
        let model = GruSeq2Seq::new(&mut params, GruConfig::test(20), &mut rng);
        (params, model)
    }

    #[test]
    fn shapes_are_correct() {
        let (params, model) = setup();
        let mut rng = StdRng::seed_from_u64(0);
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
        let (params, model) = setup();
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
            assert!((x - y).abs() < 1e-4, "GRU decoder row 0 sees the future");
        }
    }

    #[test]
    fn encoder_order_matters() {
        // A recurrent encoder must distinguish permuted inputs.
        let (params, model) = setup();
        let run = |src: &[usize]| {
            let mut rng = StdRng::seed_from_u64(0);
            forward_eval(&params, &mut rng, |fwd| {
                let enc = model.encode(fwd, src);
                let n = fwd.graph.value(enc).rows();
                fwd.graph.value(enc).row(n - 1).to_vec()
            })
        };
        let a = run(&[1, 5, 7, 2]);
        let b = run(&[1, 7, 5, 2]);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn training_reduces_loss_on_a_single_pair() {
        use crate::adam::{Adam, AdamConfig};
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(6);
        let model = GruSeq2Seq::new(&mut params, GruConfig::test(12), &mut rng);
        let mut adam = Adam::new(
            AdamConfig {
                lr: 5e-3,
                ..AdamConfig::default()
            },
            &params,
        );
        let src = [1usize, 4, 5, 6, 2];
        let tgt_in = [1usize, 7, 8, 9];
        let tgt_out = [7usize, 8, 9, 2];
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..40 {
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
        assert!(last < first * 0.5, "first {first}, last {last}");
    }

    #[test]
    fn empty_source_still_produces_states() {
        let (params, model) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let shape = forward_eval(&params, &mut rng, |fwd| {
            let enc = model.encode(fwd, &[]);
            fwd.graph.value(enc).shape()
        });
        assert_eq!(shape, (1, 16));
    }
}
