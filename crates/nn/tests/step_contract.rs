//! The incremental-step contract each architecture owns now that
//! `Seq2Seq::step_logits` has no cache-free default: a zero-row step
//! advances the state and returns `0 × vocab`, and a state another
//! architecture began is refused with a panic naming the stepper. Every
//! architecture is checked on f32 weights and with the int8 sidecar.

use qrec_nn::params::{forward_eval, Params};
use qrec_nn::{
    ConvS2S, ConvS2SConfig, DecodeState, GruConfig, GruSeq2Seq, Seq2Seq, Transformer,
    TransformerConfig,
};
use qrec_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const ARCHS: [&str; 3] = ["transformer", "convs2s", "gru"];
const VOCAB: usize = 30;
const SOS: usize = qrec_nn::decode::SOS;

fn build(arch: &str, quantized: bool) -> (Params, Box<dyn Seq2Seq>) {
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
    if quantized {
        params.quantize();
    }
    (params, model)
}

/// A fresh `batch`-row decode state of `model` over a short source.
fn begin(params: &Params, model: &dyn Seq2Seq, batch: usize) -> DecodeState {
    let mut rng = StdRng::seed_from_u64(0);
    forward_eval(params, &mut rng, |fwd| {
        let enc = model.encoder_output(fwd, &[SOS, 5, 7, 2]);
        model.begin_decode(fwd, &enc, batch)
    })
}

fn step(params: &Params, model: &dyn Seq2Seq, state: &mut DecodeState, toks: &[usize]) -> Tensor {
    let mut rng = StdRng::seed_from_u64(0);
    forward_eval(params, &mut rng, |fwd| model.step_logits(fwd, state, toks))
}

#[test]
fn a_zero_row_step_returns_no_rows_and_advances() {
    for arch in ARCHS {
        for quantized in [false, true] {
            let case = format!("{arch} int8 {quantized}");
            let (params, model) = build(arch, quantized);
            let model = model.as_ref();

            let mut empty = begin(&params, model, 0);
            let logits = step(&params, model, &mut empty, &[]);
            assert_eq!(logits.shape(), (0, VOCAB), "{case}: fresh state");
            assert_eq!(empty.positions(), 1, "{case}: fresh state");

            // Rows stepped, then all pruned away: the next step has none.
            let mut pruned = begin(&params, model, 2);
            assert_eq!(
                step(&params, model, &mut pruned, &[SOS, SOS]).shape(),
                (2, VOCAB)
            );
            pruned.reorder(&[]);
            let logits = step(&params, model, &mut pruned, &[]);
            assert_eq!(logits.shape(), (0, VOCAB), "{case}: pruned state");
            assert_eq!(pruned.positions(), 2, "{case}: pruned state");
        }
    }
}

#[test]
fn stepping_a_state_another_architecture_began_panics() {
    for owner in ARCHS {
        for stepper in ARCHS.into_iter().filter(|&a| a != owner) {
            for quantized in [false, true] {
                let case = format!("{stepper} stepping {owner}'s state, int8 {quantized}");
                let (owner_params, owner_model) = build(owner, quantized);
                let mut state = begin(&owner_params, owner_model.as_ref(), 1);
                let (params, model) = build(stepper, quantized);
                let refused = catch_unwind(AssertUnwindSafe(|| {
                    step(&params, model.as_ref(), &mut state, &[SOS])
                }))
                .expect_err(&case);
                let want =
                    format!("{stepper} cannot step a decode state begun by another architecture");
                assert_eq!(
                    refused.downcast_ref::<&str>(),
                    Some(&want.as_str()),
                    "{case}"
                );
            }
        }
    }
}
