//! The sequence-to-sequence model interface.
//!
//! All three architectures (Transformer, ConvS2S, GRU) expose the same
//! two-phase API: [`Seq2Seq::encode`] the source token ids, then
//! [`Seq2Seq::decode`] a (teacher-forced or partial) target prefix into
//! per-position next-token logits. Training is built on that pair.
//!
//! Decoding runs on [`Seq2Seq::begin_decode`] / [`Seq2Seq::step_logits`],
//! which every architecture implements over its own caches. The full
//! recompute of a prefix — the last row of [`Seq2Seq::decode`] — is the
//! oracle they are held to; it runs only in the decode equivalence suite
//! (`crates/nn/tests/decode_equivalence.rs`).

use crate::incremental::DecodeState;
use crate::params::Fwd;
use qrec_tensor::{NodeId, Tensor};
use std::sync::Arc;

/// A sequence-to-sequence architecture (weights live in a
/// [`crate::params::Params`] store created alongside the model).
pub trait Seq2Seq {
    /// Encode source token ids into a hidden representation
    /// (`len(src) × d_model`).
    fn encode(&self, fwd: &mut Fwd<'_>, src: &[usize]) -> NodeId;

    /// Decode a target prefix with teacher forcing: returns logits of
    /// shape `len(tgt_in) × vocab`, where row `i` predicts token `i+1`.
    ///
    /// Decoding must be causal: row `i` may depend only on
    /// `tgt_in[..=i]` and the encoder output. The test suites verify
    /// this for every architecture.
    fn decode(&self, fwd: &mut Fwd<'_>, enc: NodeId, tgt_in: &[usize]) -> NodeId;

    /// The encoder output of `src` for inference (`len(src) × d_model`,
    /// shared): what the decoders run once per source and keep in their
    /// [`crate::decode::EncCache`]. Not for training passes — dropout is
    /// the identity and no gradient can flow from the result.
    ///
    /// The default records [`Seq2Seq::encode`] on `fwd`'s graph and takes
    /// the node's value. An architecture may override it with a pass that
    /// builds no graph and reads the weights in place — the transformer
    /// does — as long as the result is bitwise what the default returns;
    /// the decode equivalence suite enforces that.
    fn encoder_output(&self, fwd: &mut Fwd<'_>, src: &[usize]) -> Arc<Tensor> {
        let enc = self.encode(fwd, src);
        fwd.graph.value_shared(enc)
    }

    /// Start an incremental decode against a frozen encoder output,
    /// with `batch` hypothesis rows (all starting from an empty prefix).
    /// Each architecture builds its own caches here (Transformer K/V
    /// rows, ConvS2S windows, the GRU hidden state) and projects
    /// step-invariant quantities — e.g. cross-attention K/V of the
    /// source — exactly once instead of once per step.
    fn begin_decode(&self, fwd: &mut Fwd<'_>, enc: &Arc<Tensor>, batch: usize) -> DecodeState;

    /// Feed one token per hypothesis row and return next-token logits of
    /// shape `batch × vocab`: row `i` is the distribution after row `i`'s
    /// prefix grows by `last_toks[i]`. A zero-row step advances the state
    /// and returns `0 × vocab`; a state another architecture began is a
    /// caller bug and panics.
    ///
    /// Must be bitwise identical, row by row, to the last row of
    /// [`Seq2Seq::decode`] over that row's full prefix — the decode
    /// equivalence suite enforces this for every architecture, step by
    /// step and through whole decodes.
    fn step_logits(
        &self,
        fwd: &mut Fwd<'_>,
        state: &mut DecodeState,
        last_toks: &[usize],
    ) -> Tensor;

    /// Vocabulary size (logit width).
    fn vocab(&self) -> usize;

    /// Model (hidden) width.
    fn d_model(&self) -> usize;

    /// Short architecture label for reports (`"transformer"`, `"convs2s"`,
    /// `"gru"`).
    fn arch_name(&self) -> &'static str;
}

/// Mean-pool an encoder output into a single `1 × d` representation —
/// the pooling the template classifier head consumes.
pub fn pool_encoder(fwd: &mut Fwd<'_>, enc: NodeId) -> NodeId {
    fwd.graph.mean_rows(enc)
}
