//! Property-based tests for model and decoder invariants, run against
//! freshly initialised (untrained) models of random small shapes — these
//! invariants must hold regardless of weights.

use proptest::prelude::*;
use qrec_nn::decode::{decode, Strategy as DecodeStrategy, EOS, SOS};
use qrec_nn::params::{forward_eval, Params};
use qrec_nn::seq2seq::Seq2Seq;
use qrec_nn::{ConvS2S, ConvS2SConfig, GruConfig, GruSeq2Seq, Transformer, TransformerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone, Copy)]
enum ArchPick {
    Tfm,
    Cnn,
    Gru,
}

fn arch_strategy() -> impl Strategy<Value = ArchPick> {
    prop_oneof![
        Just(ArchPick::Tfm),
        Just(ArchPick::Cnn),
        Just(ArchPick::Gru)
    ]
}

fn build(arch: ArchPick, vocab: usize, seed: u64) -> (Params, Box<dyn Seq2Seq>) {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model: Box<dyn Seq2Seq> = match arch {
        ArchPick::Tfm => Box::new(Transformer::new(
            &mut params,
            TransformerConfig::test(vocab),
            &mut rng,
        )),
        ArchPick::Cnn => Box::new(ConvS2S::new(
            &mut params,
            ConvS2SConfig::test(vocab),
            &mut rng,
        )),
        ArchPick::Gru => Box::new(GruSeq2Seq::new(
            &mut params,
            GruConfig::test(vocab),
            &mut rng,
        )),
    };
    (params, model)
}

fn seq_strategy(vocab: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(4..vocab, 1..8).prop_map(|mut v| {
        let mut s = vec![SOS];
        s.append(&mut v);
        s.push(EOS);
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Decoder causality holds for every architecture with random
    /// weights: logits row 0 does not depend on later target tokens.
    #[test]
    fn decoders_are_causal(
        arch in arch_strategy(),
        seed in 0u64..100,
        src in seq_strategy(12),
        t1 in 4usize..12,
        t2 in 4usize..12,
    ) {
        let (params, model) = build(arch, 12, seed);
        let run = |tok: usize| {
            let mut rng = StdRng::seed_from_u64(0);
            forward_eval(&params, &mut rng, |fwd| {
                let enc = model.encode(fwd, &src);
                let logits = model.decode(fwd, enc, &[SOS, 5, tok]);
                fwd.graph.value(logits).row(0).to_vec()
            })
        };
        let a = run(t1);
        let b = run(t2);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4, "{arch:?} leaked future context");
        }
    }

    /// Beam width 1 always equals greedy decoding.
    #[test]
    fn beam1_equals_greedy(
        arch in arch_strategy(),
        seed in 0u64..50,
        src in seq_strategy(10),
    ) {
        let (params, model) = build(arch, 10, seed);
        let g = decode(model.as_ref(), &params, &src, DecodeStrategy::Greedy, 8,
                       &mut StdRng::seed_from_u64(1));
        let b = decode(model.as_ref(), &params, &src, DecodeStrategy::Beam { width: 1 }, 8,
                       &mut StdRng::seed_from_u64(1));
        prop_assert_eq!(&g[0].ids, &b[0].ids);
    }

    /// Hypotheses are sorted by log-probability, probabilities are valid,
    /// and log_prob is consistent with the recorded token probabilities.
    #[test]
    fn hypotheses_are_consistent(
        arch in arch_strategy(),
        seed in 0u64..50,
        src in seq_strategy(10),
        width in 2usize..5,
    ) {
        let (params, model) = build(arch, 10, seed);
        let hyps = decode(model.as_ref(), &params, &src, DecodeStrategy::Beam { width }, 6,
                          &mut StdRng::seed_from_u64(2));
        prop_assert!(!hyps.is_empty());
        for w in hyps.windows(2) {
            prop_assert!(w[0].log_prob >= w[1].log_prob);
        }
        for h in &hyps {
            prop_assert_eq!(h.ids.len(), h.token_probs.len());
            prop_assert!(h.token_probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let token_sum: f32 = h.token_probs.iter().map(|&p| p.max(1e-12).ln()).sum();
            if h.finished {
                // log_prob additionally includes the EOS step.
                prop_assert!(h.log_prob <= token_sum + 1e-4);
            } else {
                prop_assert!((h.log_prob - token_sum).abs() < 1e-3);
            }
            // No specials inside the emitted ids.
            prop_assert!(h.ids.iter().all(|&id| id != SOS && id != EOS));
        }
    }

    /// Evaluation forwards are deterministic (no dropout in eval mode).
    #[test]
    fn eval_forward_is_deterministic(
        arch in arch_strategy(),
        seed in 0u64..50,
        src in seq_strategy(10),
    ) {
        let (params, model) = build(arch, 10, seed);
        let run = |rng_seed: u64| {
            let mut rng = StdRng::seed_from_u64(rng_seed);
            forward_eval(&params, &mut rng, |fwd| {
                let enc = model.encode(fwd, &src);
                let logits = model.decode(fwd, enc, &[SOS, 4]);
                fwd.graph.value(logits).row(0).to_vec()
            })
        };
        // Different RNG seeds must not matter in eval mode.
        prop_assert_eq!(run(1), run(999));
    }

    /// Sampling with min_prob = 1.1 (impossible threshold) falls back to
    /// argmax and thus matches greedy.
    #[test]
    fn degenerate_sampling_matches_greedy(
        arch in arch_strategy(),
        seed in 0u64..30,
        src in seq_strategy(10),
    ) {
        let (params, model) = build(arch, 10, seed);
        let g = decode(model.as_ref(), &params, &src, DecodeStrategy::Greedy, 6,
                       &mut StdRng::seed_from_u64(3));
        let s = decode(
            model.as_ref(), &params, &src,
            DecodeStrategy::Sampling { samples: 2, min_prob: 1.1 }, 6,
            &mut StdRng::seed_from_u64(3),
        );
        prop_assert_eq!(&g[0].ids, &s[0].ids);
    }
}
