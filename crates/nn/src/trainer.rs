//! Mini-batch training loops with validation-based early stopping
//! (Section 6.2.4: Adam, cross-entropy, early stopping on validation
//! loss).

use crate::adam::{Adam, AdamConfig};
use crate::classifier::{classify_logits, ClassifierHead};
use crate::params::{Fwd, Params, Tape};
use crate::schedule::LrSchedule;
use crate::seq2seq::Seq2Seq;
use qrec_tensor::{NodeId, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Epochs completed across all training runs in this process.
fn epochs_counter() -> &'static Arc<qrec_obs::Counter> {
    static C: OnceLock<Arc<qrec_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| qrec_obs::global().counter("nn.train.epochs"))
}

/// Supervision tokens consumed across all training runs.
fn tokens_counter() -> &'static Arc<qrec_obs::Counter> {
    static C: OnceLock<Arc<qrec_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| qrec_obs::global().counter("nn.train.tokens"))
}

/// Epoch wall-clock duration histogram.
fn epoch_hist() -> &'static Arc<qrec_obs::Histogram> {
    static H: OnceLock<Arc<qrec_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| qrec_obs::global().histogram_log2("nn.train.epoch_us"))
}

/// An encoded training pair: source ids and target ids, both wrapped in
/// `<SOS> … <EOS>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedPair {
    /// `Q_i` token ids.
    pub src: Vec<usize>,
    /// `Q_{i+1}` token ids.
    pub tgt: Vec<usize>,
}

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Mini-batch size (the paper tests `[16, 64]`).
    pub batch_size: usize,
    /// Adam settings.
    pub adam: AdamConfig,
    /// Early-stopping patience: stop after this many epochs without a
    /// validation-loss improvement. `0` disables early stopping.
    pub patience: usize,
    /// Learning-rate schedule applied on top of `adam.lr`.
    #[serde(default)]
    pub schedule: LrSchedule,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 16,
            adam: AdamConfig::default(),
            patience: 2,
            schedule: LrSchedule::Constant,
            seed: 7,
        }
    }
}

/// Per-epoch training telemetry, recorded alongside the loss pair.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training loss of this epoch.
    pub train_loss: f32,
    /// Mean validation loss after this epoch.
    pub val_loss: f32,
    /// L2 norm of the last mini-batch's accumulated gradient, captured
    /// just before the optimizer step consumed it.
    pub grad_norm: f32,
    /// Supervision tokens consumed per wall-clock second.
    pub tokens_per_sec: f32,
    /// Wall-clock epoch duration in seconds.
    pub seconds: f32,
}

/// What happened during training.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// `(train_loss, val_loss)` per epoch actually run.
    pub epoch_losses: Vec<(f32, f32)>,
    /// Index of the epoch whose weights were kept.
    pub best_epoch: usize,
    /// Wall-clock training time.
    pub train_time: Duration,
    /// Whether early stopping fired.
    pub early_stopped: bool,
    /// Per-epoch telemetry (loss, gradient norm, throughput). Defaults
    /// to empty when deserializing reports written before this field
    /// existed.
    #[serde(default)]
    pub epochs: Vec<EpochReport>,
}

impl TrainReport {
    /// Best validation loss achieved.
    pub fn best_val_loss(&self) -> f32 {
        self.epoch_losses
            .get(self.best_epoch)
            .map_or(f32::INFINITY, |e| e.1)
    }

    /// Training loss of the last epoch actually run, if any ran.
    pub fn final_train_loss(&self) -> Option<f32> {
        self.epoch_losses.last().map(|e| e.0)
    }
}

/// Why a training run could not be started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// `TrainConfig.epochs` was zero: the loop would run no epochs and
    /// produce an empty `epoch_losses`, which downstream consumers index.
    NoEpochs,
    /// The training set was empty: no gradient step could be taken.
    NoTrainingData,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NoEpochs => write!(f, "training config requests zero epochs"),
            TrainError::NoTrainingData => write!(f, "training set is empty"),
        }
    }
}

impl std::error::Error for TrainError {}

fn validate_training(cfg: &TrainConfig, train_len: usize) -> Result<(), TrainError> {
    if cfg.epochs == 0 {
        return Err(TrainError::NoEpochs);
    }
    if train_len == 0 {
        return Err(TrainError::NoTrainingData);
    }
    Ok(())
}

/// The mini-batch loop both trainers run: shuffle, one forward-backward
/// per example, an Adam step per batch, validation and early stopping per
/// epoch, the best epoch's weights restored at the end.
///
/// `example(fwd, i)` records example `i` and returns its scalar loss node
/// and the supervision tokens it carries; `validate` is the mean
/// validation loss of the current weights. Every example of the run is
/// recorded on one [`Tape`], cleared between examples: the graph's arena,
/// the parameter binding and the per-length constants are built once, and
/// because the cleared tape holds no weight handle, each Adam step writes
/// the weights in place.
fn train_loop(
    params: &mut Params,
    examples: usize,
    cfg: &TrainConfig,
    mut example: impl FnMut(&mut Fwd<'_>, usize) -> (NodeId, usize),
    validate: impl Fn(&Params) -> f32,
) -> Result<TrainReport, TrainError> {
    validate_training(cfg, examples)?;
    let start = Instant::now();
    let mut adam = Adam::new(cfg.adam, params);
    let mut tape = Tape::recording();
    let base_lr = cfg.adam.lr;
    let mut global_step = 0u64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..examples).collect();
    // Early stopping keeps the weights of its best epoch, not a clone of
    // the store: gradient buffers and the quant sidecar stay where they are.
    let mut best: Option<(f32, Vec<Arc<Tensor>>)> = None;
    let mut best_epoch = 0usize;
    let mut epoch_losses = Vec::new();
    let mut epochs = Vec::new();
    let mut early_stopped = false;

    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let epoch_start = Instant::now();
        let mut epoch_tokens = 0usize;
        let mut last_grad_norm = 0.0f32;
        let mut train_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let mut batch_loss = 0.0f32;
            for &i in chunk {
                batch_loss += tape.forward_backward(params, &mut rng, |fwd| {
                    let (loss, tokens) = example(fwd, i);
                    epoch_tokens += tokens;
                    loss
                });
            }
            adam.set_lr(cfg.schedule.lr(base_lr, global_step));
            global_step += 1;
            last_grad_norm = params.grad_norm();
            adam.step(params, 1.0 / chunk.len() as f32);
            train_loss += (batch_loss / chunk.len() as f32) as f64;
            batches += 1;
        }
        let train_loss = (train_loss / batches.max(1) as f64) as f32;
        let val_loss = validate(params);
        epoch_losses.push((train_loss, val_loss));

        let elapsed = epoch_start.elapsed();
        let seconds = elapsed.as_secs_f32();
        epochs_counter().inc();
        tokens_counter().add(epoch_tokens as u64);
        epoch_hist().record_duration(elapsed);
        epochs.push(EpochReport {
            epoch,
            train_loss,
            val_loss,
            grad_norm: last_grad_norm,
            tokens_per_sec: if seconds > 0.0 {
                epoch_tokens as f32 / seconds
            } else {
                0.0
            },
            seconds,
        });

        let improved = best.as_ref().is_none_or(|(b, _)| val_loss < *b);
        if improved {
            best = Some((val_loss, params.weights()));
            best_epoch = epoch;
        } else if cfg.patience > 0 && epoch - best_epoch >= cfg.patience {
            early_stopped = true;
            break;
        }
    }
    if let Some((_, weights)) = best {
        params.set_weights(weights);
    }
    Ok(TrainReport {
        epoch_losses,
        best_epoch,
        train_time: start.elapsed(),
        early_stopped,
        epochs,
    })
}

/// Train a seq2seq model on query pairs; restores the weights of the
/// best validation epoch before returning.
///
/// Panics on a degenerate configuration; use [`try_train_seq2seq`] for a
/// typed error instead.
#[must_use]
pub fn train_seq2seq<M: Seq2Seq>(
    model: &M,
    params: &mut Params,
    train: &[EncodedPair],
    val: &[EncodedPair],
    cfg: &TrainConfig,
) -> TrainReport {
    try_train_seq2seq(model, params, train, val, cfg)
        // qrec-lint: allow(no-panic-in-hot-path) -- documented panicking convenience wrapper; try_train_seq2seq is the typed path
        .unwrap_or_else(|e| panic!("train_seq2seq: {e}"))
}

/// Fallible variant of [`train_seq2seq`]: rejects zero-epoch configs and
/// empty training sets up front instead of returning a report with an
/// empty `epoch_losses` that callers would `unwrap` on.
pub fn try_train_seq2seq<M: Seq2Seq>(
    model: &M,
    params: &mut Params,
    train: &[EncodedPair],
    val: &[EncodedPair],
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    train_loop(
        params,
        train.len(),
        cfg,
        |fwd, i| {
            let pair = &train[i];
            let tokens = pair.tgt.len().saturating_sub(1);
            (seq2seq_loss(model, fwd, pair), tokens)
        },
        |params| eval_seq2seq(model, params, val, cfg.seed),
    )
}

/// The teacher-forced cross-entropy of one pair, recorded on `fwd`.
fn seq2seq_loss<M: Seq2Seq>(model: &M, fwd: &mut Fwd<'_>, pair: &EncodedPair) -> NodeId {
    let enc = model.encode(fwd, &pair.src);
    let tgt_in = &pair.tgt[..pair.tgt.len() - 1];
    let tgt_out = &pair.tgt[1..];
    let logits = model.decode(fwd, enc, tgt_in);
    // The decoder may truncate very long targets to its max_len; align the
    // target slice with the logits it actually produced.
    let rows = fwd.graph.value(logits).rows();
    fwd.graph.cross_entropy(logits, &tgt_out[..rows])
}

/// The mean of `loss` over `items`, each recorded on one forward-only
/// [`Tape`] (no gradients): infinite for an empty set.
fn mean_loss<E>(
    params: &Params,
    items: &[E],
    seed: u64,
    loss: impl Fn(&mut Fwd<'_>, &E) -> NodeId,
) -> f32 {
    if items.is_empty() {
        return f32::INFINITY;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tape = Tape::forward_only();
    let mut total = 0.0f64;
    for item in items {
        total += tape.forward(params, &mut rng, |fwd| {
            let node = loss(fwd, item);
            fwd.graph.value(node).item()
        }) as f64;
    }
    (total / items.len() as f64) as f32
}

/// Mean validation loss of a seq2seq model (no gradients).
pub fn eval_seq2seq<M: Seq2Seq>(
    model: &M,
    params: &Params,
    pairs: &[EncodedPair],
    seed: u64,
) -> f32 {
    mean_loss(params, pairs, seed, |fwd, pair| {
        seq2seq_loss(model, fwd, pair)
    })
}

/// A labelled classification example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledSeq {
    /// Input token ids (`Q_i`).
    pub src: Vec<usize>,
    /// Class index (`template(Q_{i+1})`).
    pub label: usize,
}

/// Train a template classifier (encoder + head) on labelled sequences;
/// restores the best-validation weights before returning.
///
/// Panics on a degenerate configuration; use [`try_train_classifier`]
/// for a typed error instead.
#[must_use]
pub fn train_classifier<M: Seq2Seq>(
    model: &M,
    head: &ClassifierHead,
    params: &mut Params,
    train: &[LabeledSeq],
    val: &[LabeledSeq],
    cfg: &TrainConfig,
) -> TrainReport {
    try_train_classifier(model, head, params, train, val, cfg)
        // qrec-lint: allow(no-panic-in-hot-path) -- documented panicking convenience wrapper; try_train_classifier is the typed path
        .unwrap_or_else(|e| panic!("train_classifier: {e}"))
}

/// Fallible variant of [`train_classifier`].
pub fn try_train_classifier<M: Seq2Seq>(
    model: &M,
    head: &ClassifierHead,
    params: &mut Params,
    train: &[LabeledSeq],
    val: &[LabeledSeq],
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    train_loop(
        params,
        train.len(),
        cfg,
        |fwd, i| {
            let ex = &train[i];
            (classifier_loss(model, head, fwd, ex), ex.src.len())
        },
        |params| eval_classifier(model, head, params, val, cfg.seed),
    )
}

/// The cross-entropy of one labelled sequence, recorded on `fwd`.
fn classifier_loss<M: Seq2Seq>(
    model: &M,
    head: &ClassifierHead,
    fwd: &mut Fwd<'_>,
    ex: &LabeledSeq,
) -> NodeId {
    let logits = classify_logits(model, head, fwd, &ex.src);
    fwd.graph.cross_entropy(logits, &[ex.label])
}

/// Mean validation loss of a classifier.
pub fn eval_classifier<M: Seq2Seq>(
    model: &M,
    head: &ClassifierHead,
    params: &Params,
    data: &[LabeledSeq],
    seed: u64,
) -> f32 {
    mean_loss(params, data, seed, |fwd, ex| {
        classifier_loss(model, head, fwd, ex)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::{Transformer, TransformerConfig};
    use rand::SeedableRng;

    fn copy_pairs() -> Vec<EncodedPair> {
        // "Next query" = source with token+1 (mod small alphabet) — a
        // learnable deterministic mapping.
        let seqs: Vec<Vec<usize>> = vec![
            vec![1, 4, 5, 2],
            vec![1, 5, 6, 2],
            vec![1, 6, 7, 2],
            vec![1, 7, 4, 2],
            vec![1, 4, 6, 2],
            vec![1, 5, 7, 2],
        ];
        seqs.iter()
            .map(|s| {
                let tgt: Vec<usize> = s
                    .iter()
                    .map(|&t| {
                        if (4..=7).contains(&t) {
                            4 + (t - 3) % 4
                        } else {
                            t
                        }
                    })
                    .collect();
                EncodedPair {
                    src: s.clone(),
                    tgt,
                }
            })
            .collect()
    }

    #[test]
    fn seq2seq_training_converges_and_early_stops() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let pairs = copy_pairs();
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 3,
            patience: 4,
            adam: AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            seed: 2,
            ..TrainConfig::default()
        };
        let report = train_seq2seq(&model, &mut params, &pairs, &pairs, &cfg);
        assert!(!report.epoch_losses.is_empty());
        let first = report.epoch_losses[0].1;
        let best = report.best_val_loss();
        assert!(best < first * 0.6, "val loss {first} -> {best}");
        // Restored weights really are the best ones: re-eval matches.
        let re = eval_seq2seq(&model, &params, &pairs, 2);
        assert!((re - best).abs() < 1e-4, "restored {re} vs best {best}");
    }

    #[test]
    fn classifier_training_converges() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(3);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let head = crate::classifier::ClassifierHead::new(&mut params, 16, 16, 2, 0.0, &mut rng);
        let data: Vec<LabeledSeq> = vec![
            LabeledSeq {
                src: vec![1, 4, 6, 2],
                label: 0,
            },
            LabeledSeq {
                src: vec![1, 4, 7, 2],
                label: 0,
            },
            LabeledSeq {
                src: vec![1, 5, 6, 2],
                label: 1,
            },
            LabeledSeq {
                src: vec![1, 5, 9, 2],
                label: 1,
            },
        ];
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 2,
            patience: 5,
            adam: AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            seed: 4,
            ..TrainConfig::default()
        };
        let report = train_classifier(&model, &head, &mut params, &data, &data, &cfg);
        assert!(report.best_val_loss() < report.epoch_losses[0].1);
        // And accuracy is perfect on this separable toy set.
        let mut rng = StdRng::seed_from_u64(0);
        for ex in &data {
            let ranked = crate::classifier::classify(&model, &head, &params, &ex.src, &mut rng);
            assert_eq!(ranked[0].0, ex.label);
        }
    }

    /// The contract of the training step is the weights. Three optimizer
    /// steps (12 pairs, batch 4, dropout on) through the path as it was —
    /// every weight copied into a graph built per example, attention
    /// recorded op by op ([`crate::params::oracle`]) — and through the
    /// one that ships: every parameter tensor, every loss and the
    /// gradient norm bit for bit equal. (That `gemm_nt` / `gemm_tn` are
    /// their references bit for bit is `gemm_equivalence`'s half of the
    /// argument; the kernel has no switch to flip here.)
    #[test]
    fn trained_weights_equal_the_oracle_path_bit_for_bit() {
        let vocab = 40;
        let pairs: Vec<EncodedPair> = (0..12usize)
            .map(|i| {
                let body = |salt: usize, len: usize| -> Vec<usize> {
                    let toks = (0..len).map(|j| 4 + (i * 7 + j * 5 + salt) % (vocab - 4));
                    std::iter::once(1).chain(toks).chain([2]).collect()
                };
                EncodedPair {
                    src: body(1, 3 + i % 9),
                    tgt: body(2, 2 + (i * 3) % 11),
                }
            })
            .collect();
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 4,
            patience: 0,
            seed: 11,
            ..TrainConfig::default()
        };
        let configs = [
            TransformerConfig {
                dropout: 0.1,
                ..TransformerConfig::test(vocab)
            },
            TransformerConfig::small(vocab),
        ];
        for tcfg in configs {
            let mut want = Params::new();
            let model = Transformer::new(&mut want, tcfg, &mut StdRng::seed_from_u64(3));
            let mut got = want.clone();
            let want_report = crate::params::oracle::with(|| {
                train_seq2seq(&model, &mut want, &pairs, &pairs[..4], &cfg)
            });
            let got_report = train_seq2seq(&model, &mut got, &pairs, &pairs[..4], &cfg);
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut moved = 0;
            for ((name, w), (_, g)) in want.named_tensors().zip(got.named_tensors()) {
                assert_eq!(bits(w), bits(g), "{name}, d_model {}", tcfg.d_model);
                moved += usize::from(w.data().iter().any(|x| *x != 0.0 && *x != 1.0));
            }
            assert!(moved > want.len() / 2, "the steps trained something");
            let losses = |r: &TrainReport| -> Vec<(u32, u32)> {
                let pair = |&(t, v): &(f32, f32)| (t.to_bits(), v.to_bits());
                r.epoch_losses.iter().map(pair).collect()
            };
            assert_eq!(losses(&want_report), losses(&got_report));
            assert_eq!(
                want_report.epochs[0].grad_norm.to_bits(),
                got_report.epochs[0].grad_norm.to_bits()
            );
        }
    }

    #[test]
    fn zero_epoch_config_is_a_typed_error() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let pairs = copy_pairs();
        let cfg = TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        };
        let err = try_train_seq2seq(&model, &mut params, &pairs, &pairs, &cfg).unwrap_err();
        assert_eq!(err, TrainError::NoEpochs);

        let head = crate::classifier::ClassifierHead::new(&mut params, 16, 16, 2, 0.0, &mut rng);
        let data = vec![LabeledSeq {
            src: vec![1, 4, 2],
            label: 0,
        }];
        let err = try_train_classifier(&model, &head, &mut params, &data, &data, &cfg).unwrap_err();
        assert_eq!(err, TrainError::NoEpochs);
    }

    #[test]
    fn empty_training_set_is_a_typed_error() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let err =
            try_train_seq2seq(&model, &mut params, &[], &[], &TrainConfig::default()).unwrap_err();
        assert_eq!(err, TrainError::NoTrainingData);
    }

    #[test]
    fn final_train_loss_tracks_last_epoch() {
        let report = TrainReport {
            epoch_losses: vec![(2.0, 2.1), (1.0, 1.2)],
            best_epoch: 1,
            train_time: Duration::from_millis(1),
            ..TrainReport::default()
        };
        assert_eq!(report.final_train_loss(), Some(1.0));
        let empty = TrainReport::default();
        assert_eq!(empty.final_train_loss(), None);
    }

    #[test]
    fn eval_on_empty_sets_is_infinite() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        assert!(eval_seq2seq(&model, &params, &[], 0).is_infinite());
    }

    #[test]
    fn report_tracks_epochs() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let pairs = copy_pairs();
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 2,
            patience: 0,
            adam: AdamConfig::default(),
            seed: 1,
            ..TrainConfig::default()
        };
        let report = train_seq2seq(&model, &mut params, &pairs, &pairs, &cfg);
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(!report.early_stopped);
        assert!(report.train_time.as_nanos() > 0);
        // Telemetry rows track the loss pairs one-to-one.
        assert_eq!(report.epochs.len(), 3);
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert_eq!((e.train_loss, e.val_loss), report.epoch_losses[i]);
            assert!(e.grad_norm > 0.0, "gradient norm should be captured");
            assert!(e.tokens_per_sec > 0.0, "throughput should be captured");
            assert!(e.seconds > 0.0);
        }
    }

    #[test]
    fn reports_without_epoch_telemetry_still_deserialize() {
        // A report serialized before the `epochs` field existed.
        let old = r#"{
            "epoch_losses": [[2.0, 2.5], [1.0, 1.5]],
            "best_epoch": 1,
            "train_time": {"secs": 1, "nanos": 0},
            "early_stopped": false
        }"#;
        let report: TrainReport = serde_json::from_str(old).unwrap();
        assert_eq!(report.best_epoch, 1);
        assert!(report.epochs.is_empty());
    }
}
