//! Architecture selection: a single enum wrapping the three seq2seq
//! architectures behind one [`Seq2Seq`] object.

use qrec_nn::params::{Fwd, Params};
use qrec_nn::{
    ConvS2S, ConvS2SConfig, DecodeState, GruConfig, GruSeq2Seq, Seq2Seq, Transformer,
    TransformerConfig,
};
use qrec_tensor::{NodeId, Tensor};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which architecture to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// Transformer encoder–decoder.
    Transformer,
    /// Convolutional seq2seq.
    ConvS2S,
    /// GRU with attention.
    Gru,
}

impl Arch {
    /// Report label (`"transformer"` etc. — the paper abbreviates the
    /// transformer as `tfm`).
    pub fn label(&self) -> &'static str {
        match self {
            Arch::Transformer => "transformer",
            Arch::ConvS2S => "convs2s",
            Arch::Gru => "gru",
        }
    }
}

/// Size preset for a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SizePreset {
    /// The default experiment size (see crate docs on scaling).
    Small,
    /// Minimal size for tests.
    Test,
}

/// An instantiated architecture.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // built once per pipeline; size is irrelevant
pub enum AnyModel {
    /// Transformer.
    Transformer(Transformer),
    /// ConvS2S.
    ConvS2S(ConvS2S),
    /// GRU.
    Gru(GruSeq2Seq),
}

impl AnyModel {
    /// Build a model of the chosen architecture and size, registering
    /// weights in `params`.
    pub fn build(
        arch: Arch,
        size: SizePreset,
        vocab: usize,
        params: &mut Params,
        rng: &mut StdRng,
    ) -> Self {
        match (arch, size) {
            (Arch::Transformer, SizePreset::Small) => AnyModel::Transformer(Transformer::new(
                params,
                TransformerConfig::small(vocab),
                rng,
            )),
            (Arch::Transformer, SizePreset::Test) => AnyModel::Transformer(Transformer::new(
                params,
                TransformerConfig::test(vocab),
                rng,
            )),
            (Arch::ConvS2S, SizePreset::Small) => {
                AnyModel::ConvS2S(ConvS2S::new(params, ConvS2SConfig::small(vocab), rng))
            }
            (Arch::ConvS2S, SizePreset::Test) => {
                AnyModel::ConvS2S(ConvS2S::new(params, ConvS2SConfig::test(vocab), rng))
            }
            (Arch::Gru, SizePreset::Small) => {
                AnyModel::Gru(GruSeq2Seq::new(params, GruConfig::small(vocab), rng))
            }
            (Arch::Gru, SizePreset::Test) => {
                AnyModel::Gru(GruSeq2Seq::new(params, GruConfig::test(vocab), rng))
            }
        }
    }

    /// Which architecture this is.
    pub fn arch(&self) -> Arch {
        match self {
            AnyModel::Transformer(_) => Arch::Transformer,
            AnyModel::ConvS2S(_) => Arch::ConvS2S,
            AnyModel::Gru(_) => Arch::Gru,
        }
    }

    /// The wrapped architecture: every [`Seq2Seq`] call forwards here.
    fn as_seq2seq(&self) -> &dyn Seq2Seq {
        match self {
            AnyModel::Transformer(m) => m,
            AnyModel::ConvS2S(m) => m,
            AnyModel::Gru(m) => m,
        }
    }
}

impl Seq2Seq for AnyModel {
    fn encode(&self, fwd: &mut Fwd<'_>, src: &[usize]) -> NodeId {
        self.as_seq2seq().encode(fwd, src)
    }

    fn decode(&self, fwd: &mut Fwd<'_>, enc: NodeId, tgt_in: &[usize]) -> NodeId {
        self.as_seq2seq().decode(fwd, enc, tgt_in)
    }

    fn encoder_output(&self, fwd: &mut Fwd<'_>, src: &[usize]) -> Arc<Tensor> {
        self.as_seq2seq().encoder_output(fwd, src)
    }

    fn begin_decode(&self, fwd: &mut Fwd<'_>, enc: &Arc<Tensor>, batch: usize) -> DecodeState {
        self.as_seq2seq().begin_decode(fwd, enc, batch)
    }

    fn step_logits(
        &self,
        fwd: &mut Fwd<'_>,
        state: &mut DecodeState,
        last_toks: &[usize],
    ) -> Tensor {
        self.as_seq2seq().step_logits(fwd, state, last_toks)
    }

    fn vocab(&self) -> usize {
        self.as_seq2seq().vocab()
    }

    fn d_model(&self) -> usize {
        self.as_seq2seq().d_model()
    }

    fn arch_name(&self) -> &'static str {
        self.as_seq2seq().arch_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrec_nn::params::forward_eval;
    use rand::SeedableRng;

    #[test]
    fn all_architectures_build_and_run() {
        for arch in [Arch::Transformer, Arch::ConvS2S, Arch::Gru] {
            let mut params = Params::new();
            let mut rng = StdRng::seed_from_u64(1);
            let model = AnyModel::build(arch, SizePreset::Test, 15, &mut params, &mut rng);
            assert_eq!(model.arch(), arch);
            assert_eq!(model.vocab(), 15);
            let shape = forward_eval(&params, &mut rng, |fwd| {
                let enc = model.encode(fwd, &[1, 4, 5, 2]);
                let logits = model.decode(fwd, enc, &[1, 6]);
                fwd.graph.value(logits).shape()
            });
            assert_eq!(shape, (2, 15), "{arch:?}");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Arch::Transformer.label(), "transformer");
        assert_eq!(Arch::ConvS2S.label(), "convs2s");
        assert_eq!(Arch::Gru.label(), "gru");
    }
}
