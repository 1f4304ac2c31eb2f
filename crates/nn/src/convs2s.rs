//! Convolutional sequence-to-sequence architecture (Gehring et al.,
//! "ConvS2S"), the second architecture the paper evaluates.
//!
//! Encoder blocks apply a centered 1-D convolution with a GLU gate and a
//! residual connection; decoder blocks use a *causal* convolution plus a
//! dot-product attention over the encoder output, exactly the shape of
//! the original model (per-layer attention, residual scaling by √0.5).

use crate::incremental::{shift_window, ConvState, DecodeState, StateKind};
use crate::layers::{Dropout, Embedding, Linear};
use crate::params::{Fwd, Params};
use crate::seq2seq::Seq2Seq;
use qrec_tensor::{NodeId, Tensor};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// ConvS2S hyper-parameters. The paper fixes these as in the original
/// ConvS2S work; our defaults scale them down proportionally.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvS2SConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Convolution kernel width.
    pub kernel: usize,
    /// Encoder/decoder layer count.
    pub layers: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Maximum sequence length (position-embedding table size).
    pub max_len: usize,
}

impl ConvS2SConfig {
    /// A small configuration good for the synthetic workloads.
    pub fn small(vocab: usize) -> Self {
        ConvS2SConfig {
            vocab,
            d_model: 48,
            kernel: 3,
            layers: 2,
            dropout: 0.1,
            max_len: 160,
        }
    }

    /// A minimal configuration for tests.
    pub fn test(vocab: usize) -> Self {
        ConvS2SConfig {
            vocab,
            d_model: 16,
            kernel: 3,
            layers: 1,
            dropout: 0.0,
            max_len: 64,
        }
    }
}

const RESIDUAL_SCALE: f32 = std::f32::consts::FRAC_1_SQRT_2;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ConvBlock {
    conv: Linear, // (kernel · d) → 2d, fed by unfold
    drop: Dropout,
}

impl ConvBlock {
    fn new(params: &mut Params, name: &str, cfg: &ConvS2SConfig, rng: &mut StdRng) -> Self {
        ConvBlock {
            conv: Linear::new(
                params,
                &format!("{name}.conv"),
                cfg.kernel * cfg.d_model,
                2 * cfg.d_model,
                rng,
            ),
            drop: Dropout::new(cfg.dropout),
        }
    }

    fn forward(&self, fwd: &mut Fwd<'_>, x: NodeId, kernel: usize, causal: bool) -> NodeId {
        let x_in = self.drop.forward(fwd, x);
        let u = if causal {
            fwd.graph.unfold_causal(x_in, kernel)
        } else {
            fwd.graph.unfold_centered(x_in, kernel)
        };
        let h = self.conv.forward(fwd, u);
        let h = fwd.graph.glu(h);
        let s = fwd.graph.add(x, h);
        fwd.graph.scale(s, RESIDUAL_SCALE)
    }
}

/// A full ConvS2S encoder–decoder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvS2S {
    cfg: ConvS2SConfig,
    src_embed: Embedding,
    tgt_embed: Embedding,
    pos_embed: Embedding,
    enc_blocks: Vec<ConvBlock>,
    dec_blocks: Vec<ConvBlock>,
    attn_proj: Vec<Linear>,
    out_proj: Linear,
}

impl ConvS2S {
    /// Build the architecture, registering weights into `params`.
    pub fn new(params: &mut Params, cfg: ConvS2SConfig, rng: &mut StdRng) -> Self {
        let src_embed = Embedding::new(params, "cnn.src", cfg.vocab, cfg.d_model, rng);
        let tgt_embed = Embedding::new(params, "cnn.tgt", cfg.vocab, cfg.d_model, rng);
        let pos_embed = Embedding::new(params, "cnn.pos", cfg.max_len, cfg.d_model, rng);
        let enc_blocks = (0..cfg.layers)
            .map(|i| ConvBlock::new(params, &format!("cnn.enc{i}"), &cfg, rng))
            .collect();
        let dec_blocks = (0..cfg.layers)
            .map(|i| ConvBlock::new(params, &format!("cnn.dec{i}"), &cfg, rng))
            .collect();
        let attn_proj = (0..cfg.layers)
            .map(|i| {
                Linear::new(
                    params,
                    &format!("cnn.attn{i}"),
                    cfg.d_model,
                    cfg.d_model,
                    rng,
                )
            })
            .collect();
        let out_proj = Linear::new(params, "cnn.out", cfg.d_model, cfg.vocab, rng);
        ConvS2S {
            cfg,
            src_embed,
            tgt_embed,
            pos_embed,
            enc_blocks,
            dec_blocks,
            attn_proj,
            out_proj,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &ConvS2SConfig {
        &self.cfg
    }

    fn decode_states(&self, fwd: &mut Fwd<'_>, enc: NodeId, tgt_in: &[usize]) -> NodeId {
        let mut x = self.embed(fwd, &self.tgt_embed, tgt_in);
        for (block, attn) in self.dec_blocks.iter().zip(&self.attn_proj) {
            x = block.forward(fwd, x, self.cfg.kernel, true);
            // Per-layer dot-product attention over the encoder output.
            let q = attn.forward(fwd, x);
            let scale = 1.0 / (self.cfg.d_model as f32).sqrt();
            let logits = fwd.graph.matmul_nt(q, enc);
            let logits = fwd.graph.scale(logits, scale);
            let a = fwd.graph.softmax_rows(logits);
            let ctx = fwd.graph.matmul(a, enc);
            let s = fwd.graph.add(x, ctx);
            x = fwd.graph.scale(s, RESIDUAL_SCALE);
        }
        x
    }

    fn embed(&self, fwd: &mut Fwd<'_>, table: &Embedding, ids: &[usize]) -> NodeId {
        let ids: Vec<usize> = ids.iter().take(self.cfg.max_len).copied().collect();
        let positions: Vec<usize> = (0..ids.len()).collect();
        let e = table.forward(fwd, &ids);
        let p = self.pos_embed.forward(fwd, &positions);
        fwd.graph.add(e, p)
    }
}

impl Seq2Seq for ConvS2S {
    fn encode(&self, fwd: &mut Fwd<'_>, src: &[usize]) -> NodeId {
        let mut x = self.embed(fwd, &self.src_embed, src);
        for block in &self.enc_blocks {
            x = block.forward(fwd, x, self.cfg.kernel, false);
        }
        x
    }

    fn decode(&self, fwd: &mut Fwd<'_>, enc: NodeId, tgt_in: &[usize]) -> NodeId {
        let states = self.decode_states(fwd, enc, tgt_in);
        self.out_proj.forward(fwd, states)
    }

    fn begin_decode(&self, fwd: &mut Fwd<'_>, enc: &Arc<Tensor>, batch: usize) -> DecodeState {
        let _ = fwd;
        // Each decoder block's causal convolution at the next position
        // sees the previous `kernel - 1` rows of that block's input; the
        // rolling windows start as zeros, matching `unfold_causal`'s
        // zero padding before position 0.
        let slot = self.cfg.kernel.saturating_sub(1) * self.cfg.d_model;
        let windows = vec![Tensor::zeros(batch, slot); self.cfg.layers];
        DecodeState::with_kind(
            StateKind::ConvS2S(ConvState { windows }),
            enc,
            batch,
            self.cfg.max_len,
        )
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
            matches!(state.kind, StateKind::ConvS2S(_)),
            "convs2s cannot step a decode state begun by another architecture"
        );
        let Some(pos) = pos else {
            return state.frozen_logits();
        };
        let batch = last_toks.len();
        let e = self.tgt_embed.forward(fwd, last_toks);
        let p = self.pos_embed.forward(fwd, &vec![pos; batch]);
        let mut x = fwd.graph.add(e, p);
        let enc_node = fwd.constant_shared(Arc::clone(&state.enc));
        if let StateKind::ConvS2S(cs) = &mut state.kind {
            let layers = self
                .dec_blocks
                .iter()
                .zip(&self.attn_proj)
                .zip(&mut cs.windows);
            for ((block, attn), window) in layers {
                // Causal convolution over [window | new row] — the same
                // `kernel · d_model` slice `unfold_causal` builds for
                // the newest position, batched across hypotheses.
                let x_in = block.drop.forward(fwd, x);
                let win = fwd.constant(window.clone());
                let u = fwd.graph.hcat(win, x_in);
                let h = block.conv.forward(fwd, u);
                let h = fwd.graph.glu(h);
                let s = fwd.graph.add(x, h);
                let conv_out = fwd.graph.scale(s, RESIDUAL_SCALE);
                *window = shift_window(window, &fwd.graph.value(x_in).clone());
                // Per-layer dot-product attention over the encoder
                // output, exactly as in `decode_states`.
                let q = attn.forward(fwd, conv_out);
                let scale = 1.0 / (self.cfg.d_model as f32).sqrt();
                let logits = fwd.graph.matmul_nt(q, enc_node);
                let logits = fwd.graph.scale(logits, scale);
                let a = fwd.graph.softmax_rows(logits);
                let ctx = fwd.graph.matmul(a, enc_node);
                let s = fwd.graph.add(conv_out, ctx);
                x = fwd.graph.scale(s, RESIDUAL_SCALE);
            }
        }
        let logits = self.out_proj.forward(fwd, x);
        let value = fwd.graph.value(logits).clone();
        state.remember_logits(value)
    }

    fn vocab(&self) -> usize {
        self.cfg.vocab
    }

    fn d_model(&self) -> usize {
        self.cfg.d_model
    }

    fn arch_name(&self) -> &'static str {
        "convs2s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{forward_eval, Params};
    use rand::SeedableRng;

    fn setup() -> (Params, ConvS2S) {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(5);
        let model = ConvS2S::new(&mut params, ConvS2SConfig::test(20), &mut rng);
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
        let a = run(&[1, 7, 8, 9]);
        let b = run(&[1, 3, 4, 5]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4, "conv decoder row 0 sees the future");
        }
    }

    #[test]
    fn encoder_is_not_causal() {
        // Centered convolutions see one step ahead: changing token 1
        // should change encoder row 0.
        let (params, model) = setup();
        let run = |src: &[usize]| {
            let mut rng = StdRng::seed_from_u64(0);
            forward_eval(&params, &mut rng, |fwd| {
                let enc = model.encode(fwd, src);
                fwd.graph.value(enc).row(0).to_vec()
            })
        };
        let a = run(&[1, 7, 2]);
        let b = run(&[1, 9, 2]);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn training_reduces_loss_on_a_single_pair() {
        use crate::adam::{Adam, AdamConfig};
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(6);
        let model = ConvS2S::new(&mut params, ConvS2SConfig::test(12), &mut rng);
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
        assert!(last < first * 0.5, "first {first}, last {last}");
    }

    #[test]
    fn convs2s_has_fewer_params_than_comparable_transformer() {
        // Table 3 shape: at matched width/layers ConvS2S is lighter than
        // the Transformer (no per-layer q/k/v/out + ff stacks).
        use crate::transformer::{Transformer, TransformerConfig};
        let mut pc = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = ConvS2S::new(&mut pc, ConvS2SConfig::small(100), &mut rng);
        let mut pt = Params::new();
        let _ = Transformer::new(&mut pt, TransformerConfig::small(100), &mut rng);
        assert!(pc.scalar_count() < pt.scalar_count());
    }
}
