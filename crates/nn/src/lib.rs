//! # qrec-nn — sequence models, training, and decoding
//!
//! The deep-learning layer of the `qrec` reproduction, built entirely on
//! [`qrec_tensor`]'s autodiff:
//!
//! * [`params`] — parameter store + per-graph binding (enables the
//!   paper's fine-tuning: clone the store, append a head, keep encoder
//!   ids valid).
//! * [`layers`] / [`attention`] — linear, embedding, layer norm, dropout,
//!   feed-forward, sinusoidal positions, multi-head attention.
//! * [`transformer`], [`convs2s`], [`gru`] — the three seq2seq
//!   architectures behind the [`seq2seq::Seq2Seq`] trait.
//! * [`adam`] / [`trainer`] — Adam with clipping; mini-batch training
//!   with validation early stopping, for both seq2seq and classification.
//! * [`mod@decode`] — greedy, beam, diverse-beam, and stochastic decoding,
//!   returning per-token probabilities for the paper's search-tree
//!   fragment aggregation.
//! * [`incremental`] — per-architecture KV/window/hidden decode caches
//!   that let the beam family run one batched forward per step instead
//!   of a full-prefix forward per hypothesis.
//! * [`classifier`] — the two-layer template classification head
//!   (Section 4.1.2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adam;
pub mod attention;
pub mod classifier;
pub mod convs2s;
pub mod decode;
pub mod gru;
pub mod incremental;
pub mod layers;
pub mod params;
pub mod quant;
pub mod schedule;
pub mod seq2seq;
pub mod trainer;
pub mod transformer;

pub use adam::{Adam, AdamConfig};
pub use classifier::ClassifierHead;
pub use convs2s::{ConvS2S, ConvS2SConfig};
pub use decode::{decode, Hypothesis, Strategy};
pub use gru::{GruConfig, GruSeq2Seq};
pub use incremental::DecodeState;
pub use params::{Binding, Fwd, ParamId, Params, Tape};
pub use quant::QuantParams;
pub use schedule::LrSchedule;
pub use seq2seq::Seq2Seq;
pub use trainer::{
    train_classifier, train_seq2seq, try_train_classifier, try_train_seq2seq, EncodedPair,
    LabeledSeq, TrainConfig, TrainError, TrainReport,
};
pub use transformer::{Transformer, TransformerConfig};
