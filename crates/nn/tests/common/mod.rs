//! Shared fixture for the decode test binaries: a transformer at the
//! serving shape whose biases and LayerNorm gains/offsets are moved off
//! their initial values.

use qrec_nn::params::Params;
use qrec_nn::{Transformer, TransformerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A `TransformerConfig::small` model (d 48, 4 heads, 2 layers) with
/// `layers` overriding the layer count, seeded from `seed`.
///
/// Fresh weights have all-zero biases and LayerNorm γ = 1, β = 0, under
/// which bias-add and the affine half of LayerNorm are exact no-ops and
/// an implementation that skipped them would still pass. Every `*.b`,
/// `*.gamma` and `*.beta` tensor is therefore offset by a fixed
/// integer-hash pattern in `[-0.2, 0.2)` (no libm call, so the fixture is
/// the same on every host).
pub fn perturbed_small(vocab: usize, layers: usize, seed: u64) -> (Params, Transformer) {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = TransformerConfig {
        layers,
        ..TransformerConfig::small(vocab)
    };
    let model = Transformer::new(&mut params, cfg, &mut rng);
    let tensors = params
        .named_tensors()
        .enumerate()
        .map(|(t, (name, value))| {
            let mut value = value.clone();
            if [".b", ".gamma", ".beta"].iter().any(|s| name.ends_with(s)) {
                for (i, v) in value.data_mut().iter_mut().enumerate() {
                    let h = (i + 31 * t + 1).wrapping_mul(2_654_435_761) % 2000;
                    *v += (h as f32 * 1e-3 - 1.0) * 0.2;
                }
            }
            (name.to_string(), value)
        })
        .collect();
    // Ids are positional, so the rebuilt store keeps the model's ids.
    (Params::from_named_tensors(tensors), model)
}
