//! The workload-aware fragment recommender: offline step 1 (seq2seq
//! training on query pairs) and online step 4 (fragment-set and
//! N-fragments prediction), Sections 4.1.1 and 4.2.2 of the paper.

use crate::data::{build_vocab, encode_pairs, SeqMode};
use crate::lexicon::FragmentLexicon;
use crate::model::{AnyModel, Arch, SizePreset};
use crate::predict::{FragmentPredictor, PerKind};
use qrec_nn::decode::{decode_with_cache, EncCache, Hypothesis, Strategy};
use qrec_nn::params::Params;
use qrec_nn::trainer::{try_train_seq2seq, TrainConfig, TrainError, TrainReport};
use qrec_sql::{FragmentKind, FragmentSet};
use qrec_workload::{QueryRecord, Split, Vocab, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the full fragment-recommendation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecommenderConfig {
    /// Architecture (the paper compares Transformer and ConvS2S).
    pub arch: Arch,
    /// Model size preset.
    pub size: SizePreset,
    /// Seq-aware (pairs) vs seq-less (reconstruction) training.
    pub seq_mode: SeqMode,
    /// Vocabulary frequency threshold.
    pub vocab_min_count: usize,
    /// Training loop settings.
    pub train: TrainConfig,
    /// Decoding length cap for online recommendation.
    pub max_decode_len: usize,
    /// Construction seed.
    pub seed: u64,
}

impl RecommenderConfig {
    /// Experiment defaults for an architecture and sequence mode.
    pub fn new(arch: Arch, seq_mode: SeqMode) -> Self {
        RecommenderConfig {
            arch,
            size: SizePreset::Small,
            seq_mode,
            vocab_min_count: 2,
            train: TrainConfig::default(),
            max_decode_len: 64,
            seed: 17,
        }
    }

    /// Tiny settings for tests.
    pub fn test(arch: Arch, seq_mode: SeqMode) -> Self {
        RecommenderConfig {
            arch,
            size: SizePreset::Test,
            seq_mode,
            vocab_min_count: 1,
            train: TrainConfig {
                epochs: 8,
                batch_size: 8,
                patience: 0,
                ..TrainConfig::default()
            },
            max_decode_len: 32,
            seed: 17,
        }
    }

    /// Report label like `"seq-aware transformer"`.
    pub fn label(&self) -> String {
        format!("{} {}", self.seq_mode.label(), self.arch.label())
    }
}

/// A trained fragment recommender.
pub struct Recommender {
    cfg: RecommenderConfig,
    model: AnyModel,
    params: Params,
    vocab: Vocab,
    lexicon: FragmentLexicon,
    rng: StdRng,
}

impl Recommender {
    /// Offline training (step 1): build the vocabulary and lexicon from
    /// the training split, then train the seq2seq model on query pairs
    /// (seq-aware) or on reconstruction (seq-less).
    ///
    /// Panics on a degenerate configuration (zero epochs, empty training
    /// split); use [`Recommender::try_train`] for a typed error.
    #[must_use]
    pub fn train(
        split: &Split,
        train_workload: &Workload,
        cfg: RecommenderConfig,
    ) -> (Self, TrainReport) {
        Self::try_train(split, train_workload, cfg)
            // qrec-lint: allow(no-panic-in-hot-path) -- documented panicking convenience wrapper; try_train is the typed path
            .unwrap_or_else(|e| panic!("Recommender::train: {e}"))
    }

    /// Fallible variant of [`Recommender::train`]: a zero-epoch
    /// `TrainConfig` or an empty training split is reported as a
    /// [`TrainError`] instead of panicking downstream.
    pub fn try_train(
        split: &Split,
        train_workload: &Workload,
        cfg: RecommenderConfig,
    ) -> Result<(Self, TrainReport), TrainError> {
        let vocab = build_vocab(&split.train, cfg.vocab_min_count);
        let lexicon = FragmentLexicon::from_workload(train_workload);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut params = Params::new();
        let model = AnyModel::build(cfg.arch, cfg.size, vocab.len(), &mut params, &mut rng);
        let train_data = encode_pairs(&split.train, &vocab, cfg.seq_mode);
        let val_data = encode_pairs(&split.val, &vocab, cfg.seq_mode);
        let report = try_train_seq2seq(&model, &mut params, &train_data, &val_data, &cfg.train)?;
        Ok((
            Recommender {
                cfg,
                model,
                params,
                vocab,
                lexicon,
                rng,
            },
            report,
        ))
    }

    /// Reassemble a recommender from previously trained parts (used by
    /// the experiment harness to cache trained models on disk).
    pub fn from_parts(
        cfg: RecommenderConfig,
        model: AnyModel,
        params: Params,
        vocab: Vocab,
        lexicon: FragmentLexicon,
    ) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Recommender {
            cfg,
            model,
            params,
            vocab,
            lexicon,
            rng,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &RecommenderConfig {
        &self.cfg
    }

    /// The trained parameter store (cloned by the fine-tuned classifier).
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The underlying architecture object.
    pub fn model(&self) -> &AnyModel {
        &self.model
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The fragment lexicon.
    pub fn lexicon(&self) -> &FragmentLexicon {
        &self.lexicon
    }

    /// Total scalar parameter count (Table 3's `#params`).
    pub fn param_count(&self) -> usize {
        self.params.scalar_count()
    }

    /// Build the int8 quantization sidecar on the parameter store (the
    /// serving layer's `QuantMode::Int8` boot/swap hook): decoding
    /// thereafter runs its projections through the int8 GEMM and keeps
    /// resident KV caches quantized. Deterministic and idempotent.
    pub fn quantize(&mut self) {
        self.params.quantize();
    }

    /// Drop the int8 sidecar, restoring the bitwise f32 path.
    pub fn dequantize(&mut self) {
        self.params.dequantize();
    }

    /// True when the parameter store carries an int8 sidecar.
    pub fn is_quantized(&self) -> bool {
        self.params.is_quantized()
    }

    /// Decode candidate next-query token sequences for raw word tokens
    /// (one query's, or a session window's), drawing any sampling from
    /// the recommender's own RNG.
    #[must_use]
    pub fn decode_candidates(&mut self, tokens: &[String], strategy: Strategy) -> Vec<Hypothesis> {
        // The RNG is tiny (4 words), so the move out and back is free.
        let mut rng = self.rng.clone();
        let hyps = self.decode_candidates_for_tokens_cached(
            tokens,
            strategy,
            &mut rng,
            &mut EncCache::new(1),
        );
        self.rng = rng;
        hyps
    }

    /// Rank fragments of each kind by aggregated probability over
    /// [`Recommender::decode_candidates`]' hypotheses.
    pub fn ranked_fragments(
        &mut self,
        tokens: &[String],
        strategy: Strategy,
    ) -> PerKind<Vec<String>> {
        let hyps = self.decode_candidates(tokens, strategy);
        self.rank_hypothesis_fragments(&hyps)
    }

    // ----- shared (`&self`) entry points --------------------------------
    //
    // Decoding only needs mutability for the sampling RNG. These take the
    // RNG, and an encoder-output cache, from the caller, so a
    // `Recommender` behind an `Arc` serves many threads at once (each
    // qrec-serve worker owns its `StdRng` and `EncCache`).

    /// Decode candidates against a caller-owned RNG and [`EncCache`], so
    /// a serving worker that interleaves sessions reuses encoder passes
    /// across requests.
    #[must_use]
    pub fn decode_candidates_for_tokens_cached(
        &self,
        tokens: &[String],
        strategy: Strategy,
        rng: &mut StdRng,
        cache: &mut EncCache,
    ) -> Vec<Hypothesis> {
        let src = self.vocab.encode(tokens);
        decode_with_cache(
            &self.model,
            &self.params,
            &src,
            strategy,
            self.cfg.max_decode_len,
            rng,
            cache,
        )
    }

    /// [`Recommender::ranked_fragments`] against a caller-owned RNG and
    /// [`EncCache`] (the qrec-serve worker path).
    pub fn ranked_fragments_for_tokens_cached(
        &self,
        tokens: &[String],
        strategy: Strategy,
        rng: &mut StdRng,
        cache: &mut EncCache,
    ) -> PerKind<Vec<String>> {
        let hyps = self.decode_candidates_for_tokens_cached(tokens, strategy, rng, cache);
        self.rank_hypothesis_fragments(&hyps)
    }

    /// Aggregate fragment probabilities over the decoded search tree
    /// (Section 4.2.2): a fragment's probability on a path is the token
    /// probability at its first occurrence; paths sharing that prefix
    /// count once; probabilities sum over distinct paths.
    pub fn fragment_probabilities(&self, hyps: &[Hypothesis]) -> PerKind<HashMap<String, f64>> {
        let mut probs: PerKind<HashMap<String, f64>> = PerKind::default();
        // (kind, fragment) → set of distinct first-occurrence prefixes.
        let mut seen_prefixes: HashMap<(FragmentKind, String), Vec<Vec<usize>>> = HashMap::new();
        for hyp in hyps {
            let mut first_seen: HashMap<(FragmentKind, &str), usize> = HashMap::new();
            for (i, &id) in hyp.ids.iter().enumerate() {
                let token = self.vocab.token(id);
                let frag = FragmentLexicon::token_to_fragment(token);
                for &kind in self.lexicon.classify_token(token) {
                    first_seen.entry((kind, frag)).or_insert(i);
                }
            }
            for ((kind, frag), pos) in first_seen {
                let prefix: Vec<usize> = hyp.ids[..=pos].to_vec();
                let key = (kind, frag.to_string());
                let prefixes = seen_prefixes.entry(key.clone()).or_default();
                if !prefixes.contains(&prefix) {
                    prefixes.push(prefix);
                    *probs.get_mut(kind).entry(key.1).or_insert(0.0) += hyp.token_probs[pos] as f64;
                }
            }
        }
        probs
    }

    fn rank_hypothesis_fragments(&self, hyps: &[Hypothesis]) -> PerKind<Vec<String>> {
        let probs = self.fragment_probabilities(hyps);
        probs.map(|_, m| {
            let mut ranked: Vec<(&String, f64)> = m.iter().map(|(f, &p)| (f, p)).collect();
            ranked.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(b.0))
            });
            ranked.into_iter().map(|(f, _)| f.clone()).collect()
        })
    }
}

impl FragmentPredictor for Recommender {
    fn name(&self) -> String {
        self.cfg.label()
    }

    /// Fragment-set prediction: greedy-decode the next query and take the
    /// fragments of the generated statement (Section 4.2.2).
    fn predict_set(&mut self, q: &QueryRecord) -> FragmentSet {
        let hyps = self.decode_candidates(&q.tokens, Strategy::Greedy);
        match hyps.first() {
            Some(h) => {
                let tokens = h.ids.iter().map(|&id| self.vocab.token(id));
                self.lexicon.fragments_of_tokens(tokens)
            }
            None => FragmentSet::default(),
        }
    }

    /// N-fragments prediction with the default beam-search strategy.
    fn predict_n(&mut self, q: &QueryRecord, n: usize) -> PerKind<Vec<String>> {
        let ranked = self.ranked_fragments(&q.tokens, Strategy::Beam { width: 5 });
        ranked.map(|_, r| r.iter().take(n).cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrec_workload::gen::{generate, WorkloadProfile};

    fn tiny_setup(seq_mode: SeqMode) -> (Recommender, TrainReport, Split) {
        let (w, _) = generate(&WorkloadProfile::tiny(), 21);
        let mut rng = StdRng::seed_from_u64(5);
        let split = Split::paper(w.pairs(), &mut rng);
        let cfg = RecommenderConfig::test(Arch::Transformer, seq_mode);
        let (r, report) = Recommender::train(&split, &w, cfg);
        (r, report, split)
    }

    #[test]
    fn training_runs_and_improves() {
        let (_r, report, _) = tiny_setup(SeqMode::Aware);
        assert!(!report.epoch_losses.is_empty());
        let first = report.epoch_losses[0].0;
        let last = report.epoch_losses.last().unwrap().0;
        assert!(last < first, "train loss should drop: {first} -> {last}");
    }

    /// Each internal-RNG call is the cached path on a clone of the
    /// recommender's RNG with a fresh one-slot cache, and hands the
    /// advanced RNG back: successive calls equal successive cached calls
    /// driven by one RNG, for every strategy.
    #[test]
    fn internal_rng_calls_equal_the_cached_path_on_a_cloned_rng() {
        let (mut r, _, split) = tiny_setup(SeqMode::Aware);
        let tokens = &split.test.first().expect("test pairs").current.tokens;
        let strategies = [
            Strategy::Greedy,
            Strategy::Beam { width: 5 },
            Strategy::DiverseBeam {
                width: 4,
                groups: 2,
                penalty: 1.0,
            },
            Strategy::Sampling {
                samples: 6,
                min_prob: 0.05,
            },
        ];
        for strategy in strategies {
            let mut rng = r.rng.clone();
            for call in 0..2 {
                let want = r.decode_candidates_for_tokens_cached(
                    tokens,
                    strategy,
                    &mut rng,
                    &mut EncCache::new(1),
                );
                let got = r.decode_candidates(tokens, strategy);
                assert_eq!(got, want, "{strategy:?} decode call {call}");
            }
            for call in 0..2 {
                let want = r.ranked_fragments_for_tokens_cached(
                    tokens,
                    strategy,
                    &mut rng,
                    &mut EncCache::new(1),
                );
                let got = r.ranked_fragments(tokens, strategy);
                assert_eq!(got, want, "{strategy:?} ranking call {call}");
            }
        }
    }

    #[test]
    fn predict_set_returns_fragments() {
        let (mut r, _, split) = tiny_setup(SeqMode::Aware);
        // A briefly trained tiny model may decode an empty sequence for
        // some inputs; across several queries it must produce fragments.
        let any = split
            .test
            .iter()
            .take(5)
            .any(|p| !r.predict_set(&p.current).is_empty());
        assert!(any, "prediction should contain fragments for some query");
    }

    #[test]
    fn predict_n_truncates_and_ranks() {
        let (mut r, _, split) = tiny_setup(SeqMode::Aware);
        let q = &split.test.first().expect("test pairs").current;
        let top1 = r.predict_n(q, 1);
        let top3 = r.predict_n(q, 3);
        assert!(top1.table.len() <= 1);
        assert!(top3.table.len() <= 3);
        if !top1.table.is_empty() && !top3.table.is_empty() {
            assert_eq!(top1.table[0], top3.table[0], "ranking must be stable");
        }
    }

    #[test]
    fn seq_less_mode_reconstructs() {
        // A seq-less model learns identity; its greedy decode of a train
        // query should share fragments with the input. A briefly trained
        // tiny model is noisy on single queries, so require the echo to
        // show up across a handful of train queries.
        let (mut r, _, split) = tiny_setup(SeqMode::Less);
        let echoed = split.train.iter().take(8).any(|p| {
            let set = r.predict_set(&p.current);
            set.is_empty() || set.tables.intersection(&p.current.fragments.tables).count() > 0
        });
        assert!(echoed, "seq-less prediction should echo input tables");
    }

    #[test]
    fn fragment_probabilities_dedupe_shared_prefixes() {
        let (r, _, _) = tiny_setup(SeqMode::Aware);
        // Two hypotheses sharing the same prefix up to the fragment token:
        // the fragment must be counted once.
        let table_token = (0..r.vocab.len())
            .map(|i| r.vocab.token(i).to_string())
            .find(|t| {
                r.lexicon
                    .classify_token(t)
                    .contains(&qrec_sql::FragmentKind::Table)
            })
            .expect("some table in vocab");
        let tid = r.vocab.id(&table_token);
        let h1 = Hypothesis {
            ids: vec![tid, tid + 1],
            token_probs: vec![0.5, 0.9],
            log_prob: -1.0,
            finished: true,
        };
        let h2 = Hypothesis {
            ids: vec![tid, tid + 2],
            token_probs: vec![0.5, 0.1],
            log_prob: -2.0,
            finished: true,
        };
        let probs = r.fragment_probabilities(&[h1, h2]);
        let p = probs.table.get(&table_token).copied().unwrap_or(0.0);
        assert!(
            (p - 0.5).abs() < 1e-9,
            "shared prefix counted once, got {p}"
        );
    }

    #[test]
    fn fragment_probabilities_sum_distinct_paths() {
        let (r, _, _) = tiny_setup(SeqMode::Aware);
        let table_token = (0..r.vocab.len())
            .map(|i| r.vocab.token(i).to_string())
            .find(|t| {
                r.lexicon
                    .classify_token(t)
                    .contains(&qrec_sql::FragmentKind::Table)
            })
            .expect("some table in vocab");
        let tid = r.vocab.id(&table_token);
        let other = if tid + 1 < r.vocab.len() {
            tid + 1
        } else {
            tid - 1
        };
        // Fragment appears via two different prefixes: probabilities add.
        let h1 = Hypothesis {
            ids: vec![tid],
            token_probs: vec![0.4],
            log_prob: -1.0,
            finished: true,
        };
        let h2 = Hypothesis {
            ids: vec![other, tid],
            token_probs: vec![0.3, 0.2],
            log_prob: -2.0,
            finished: true,
        };
        let probs = r.fragment_probabilities(&[h1, h2]);
        let p = probs.table.get(&table_token).copied().unwrap_or(0.0);
        assert!((p - 0.6).abs() < 1e-6, "0.4 + 0.2 expected, got {p}");
    }
}
