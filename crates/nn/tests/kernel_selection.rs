//! Shape-driven GEMM kernel selection for the shapes the models emit.
//!
//! The paper's models funnel everything through `Tensor::matmul{,_nt,_tn}`;
//! these tests pin which kernel path (small-product tile / blocked) the
//! shapes they actually produce select, so a threshold change that would
//! silently put decode vectors on the packed kernel — or training tiles
//! back on the tile — fails loudly here.

use qrec_nn::transformer::TransformerConfig;
use qrec_tensor::kernel::{select, KernelPath};

/// Decode-step products are `1 × d` against `d × vocab` (the output
/// projection) or `d × d` (attention projections). They must stay on the
/// small-product tile: packing `B` would dwarf the math.
#[test]
fn decode_step_shapes_stay_on_the_tile() {
    let small = TransformerConfig::small(2000);
    let test = TransformerConfig::test(200);
    for cfg in [&small, &test] {
        // 1×d · d×d attention/FF projections for one new token.
        assert_eq!(select(1, cfg.d_model, cfg.d_model), KernelPath::Naive);
        // 1×d · d×vocab output projection (the widest decode GEMM).
        assert_eq!(select(1, cfg.d_model, cfg.vocab), KernelPath::Naive);
        // d_ff expansion for a single position.
        assert_eq!(select(1, cfg.d_model, cfg.d_ff), KernelPath::Naive);
    }
}

/// Training-step products over a full sequence (`L × d` activations) at
/// the paper's scale: the sequence-wide vocabulary projection — the
/// largest training GEMM — runs the blocked kernel.
#[test]
fn sequence_wide_vocab_projection_is_blocked() {
    let cfg = TransformerConfig::small(2000);
    let seq = cfg.max_len; // worst case: the longest supported sequence
    assert_eq!(select(seq, cfg.d_model, cfg.vocab), KernelPath::Blocked);
}
