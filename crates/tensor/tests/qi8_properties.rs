//! Property tests for the int8 quantization scale calibration
//! (DESIGN.md §15): degenerate inputs (all-zero, single-element),
//! outlier saturation (clamp, never wrap), and the round-trip error
//! bound of half a quantization step — plus the two oracles of the
//! vectorised code: the slice quantizer against [`quantize_one`] over
//! the `f32` bit patterns, and the weight-only product against
//! [`kernel::naive`] over the widened weights on every edge shape.
//! `scripts/ci.sh` runs this binary under `--release` too: both are
//! autovectorised code a debug build does not exercise.

use proptest::prelude::*;
use qrec_tensor::kernel;
use qrec_tensor::qi8::{
    calibrate, dequantize, qgemm, quantize, quantize_into, quantize_one, quantize_row, QPackedB,
};

/// Scales of the quantizer sweep: unit, a typical activation scale, one
/// that overflows every quotient, one that underflows them, and zero.
const SWEEP_SCALES: [f32; 5] = [1.0, 1.0 / 127.0, 1e-20, 3.1e5, 0.0];

/// The slice quantizer is [`quantize_one`] — same quotient, same
/// round-half-away, same saturation, NaN → 0 — on every `f32` bit
/// pattern of a stride-4 099 walk (a prime, so every exponent and both
/// signs are visited with shifting mantissas) under each sweep scale.
#[test]
fn slice_quantizer_equals_quantize_one_across_the_f32_bit_patterns() {
    let xs: Vec<f32> = (0..=u32::MAX).step_by(4_099).map(f32::from_bits).collect();
    let mut got = vec![0i8; xs.len()];
    for scale in SWEEP_SCALES {
        quantize_into(&xs, scale, &mut got);
        for (&x, &q) in xs.iter().zip(&got) {
            assert_eq!(
                q,
                quantize_one(x, scale),
                "x {x:e} ({:#x}) scale {scale:e}",
                x.to_bits()
            );
        }
    }
}

/// The same identity where rounding and saturation decide: both
/// neighbours of every half-integer boundary (`0.49999997` rounds to 0,
/// `0.5` to 1), the saturation edge (`126.5`, `127.49`), infinities, NaN,
/// zeros and subnormals, as quotients under each sweep scale.
#[test]
fn slice_quantizer_equals_quantize_one_at_the_boundaries() {
    let mut quotients = vec![
        0.0f32,
        0.499_999_97,
        0.5,
        1.5,
        2.5,
        126.499_99,
        126.5,
        127.0,
        127.49,
        127.5,
        128.0,
        1e30,
        f32::INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
    ];
    for half in 0..256 {
        let b = half as f32 * 0.5;
        quotients.extend([
            f32::from_bits(b.to_bits().wrapping_sub(1)),
            b,
            f32::from_bits(b.to_bits() + 1),
        ]);
    }
    let signed: Vec<f32> = quotients.iter().flat_map(|&q| [q, -q]).collect();
    for scale in SWEEP_SCALES {
        // As quotients (`x = q · scale`, so `x / scale` lands on or next
        // to the boundary) and as raw inputs.
        let xs: Vec<f32> = signed.iter().flat_map(|&q| [q * scale, q]).collect();
        let mut got = vec![0i8; xs.len()];
        quantize_into(&xs, scale, &mut got);
        for (&x, &q) in xs.iter().zip(&got) {
            assert_eq!(
                q,
                quantize_one(x, scale),
                "x {x:e} ({:#x}) scale {scale:e}",
                x.to_bits()
            );
        }
    }
}

/// The row quantizer is [`calibrate`] then [`quantize_one`] per value,
/// also on rows holding non-finite values (ignored by calibration,
/// saturated or zeroed by quantization).
#[test]
fn row_quantizer_is_calibrate_then_quantize_one() {
    let rows: [&[f32]; 5] = [
        &[],
        &[0.0, -0.0, 0.0],
        &[1.0, -2.5, 0.3, 7.75, -7.75, 1e-9],
        &[f32::NAN, 1.27, f32::INFINITY, -0.635, f32::NEG_INFINITY],
        &[f32::NAN, f32::INFINITY],
    ];
    for row in rows {
        let mut got = vec![5i8; row.len()];
        let scale = quantize_row(row, &mut got);
        assert_eq!(scale.to_bits(), calibrate(row).to_bits(), "{row:?}");
        let want: Vec<i8> = row.iter().map(|&x| quantize_one(x, scale)).collect();
        assert_eq!(got, want, "{row:?}");
    }
}

/// The weight-only product is, bit for bit, [`kernel::naive`] — the
/// single-accumulator ascending-`k` `fmadd` fold — over the activations
/// and the int8 weights widened to `f32`, each element then times the
/// weight's scale: on every edge the tile has (row tiles of 1–6 rows and
/// up to three tiles deep; widths under one tile, exact multiples of it,
/// and right edges of 1 and `130 mod 16` columns that re-run a full tile
/// ending at column `m`), over activations that hold `±0.0`, subnormals
/// and pairs that cancel exactly, and weights that reach `±127`.
#[test]
fn product_is_the_naive_fold_over_widened_weights_on_every_edge_shape() {
    let specials = [0.0f32, -0.0, f32::from_bits(1), -f32::MIN_POSITIVE / 2.0];
    for n in 1..=13 {
        for k in [1, 12, 47, 48, 96] {
            for m in [1, 15, 16, 17, 48, 130, 144] {
                // Activations come in pairs `(x, −x)` against two equal
                // weight rows, so every pair cancels; every third `x` is
                // a signed zero or a subnormal, the rest a hash in [-1, 1).
                let a: Vec<f32> = (0..n * k)
                    .map(|i| {
                        let pair = i % k / 2 + i / k;
                        let x = if pair % 3 == 0 {
                            specials[pair / 3 % 4]
                        } else {
                            ((pair * 2_654_435_761) % 2000) as f32 * 1e-3 - 1.0
                        };
                        if i % k % 2 == 0 {
                            x
                        } else {
                            -x
                        }
                    })
                    .collect();
                // Weights sweep [-126, 126] with ±127 planted throughout.
                let q: Vec<i8> = (0..k * m)
                    .map(|i| i / m / 2 * 31 + i % m * 7)
                    .map(|h| match h % 11 {
                        0 => 127,
                        1 => -127,
                        _ => (h % 253) as i16 - 126,
                    })
                    .map(|v| v as i8)
                    .collect();
                let scale = 0.003_7 * (1 + m % 3) as f32;
                let qb = QPackedB::from_quantized(&q, k, m, scale);
                let wide: Vec<f32> = q.iter().map(|&v| f32::from(v)).collect();
                let want: Vec<u32> = kernel::naive(&a, &wide, n, k, m)
                    .iter()
                    .map(|&acc| (acc * scale).to_bits())
                    .collect();
                let got: Vec<u32> = qgemm(&a, &qb, n).iter().map(|x| x.to_bits()).collect();
                assert_eq!(want, got, "{n}x{k}x{m}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An all-zero (or empty) slice calibrates to scale 0 and
    /// round-trips to exactly zero — nothing divides by the zero scale.
    #[test]
    fn all_zero_slices_calibrate_to_zero(len in 0usize..64) {
        let xs = vec![0.0f32; len];
        let s = calibrate(&xs);
        prop_assert_eq!(s, 0.0);
        let q = quantize(&xs, s);
        prop_assert!(q.iter().all(|&v| v == 0));
        let dq = dequantize(&q, s);
        prop_assert!(dq.iter().all(|&v| v == 0.0));
    }

    /// A single finite value is its own calibration max: the scale is
    /// |x|/127 and the value quantizes to exactly ±127, so one-element
    /// tensors lose only the 1/127 rounding, never more.
    #[test]
    fn single_element_calibration_is_exact(x in -1e6f32..1e6) {
        let s = calibrate(&[x]);
        if x == 0.0 {
            prop_assert_eq!(s, 0.0);
        } else {
            prop_assert_eq!(s, x.abs() / 127.0);
            let q = quantize_one(x, s);
            prop_assert_eq!(i32::from(q).abs(), 127);
            prop_assert_eq!(q > 0, x > 0.0);
        }
    }

    /// Values far outside the calibrated range saturate at ±127 with
    /// the sign preserved — an outlier clips, it never wraps into a
    /// huge opposite-sign weight.
    #[test]
    fn outliers_clamp_and_never_wrap(
        base in 0.1f32..10.0,
        factor in 2.0f32..1e6,
        sign in 0u8..2,
    ) {
        let scale = calibrate(&[base]);
        let outlier = if sign == 0 { base * factor } else { -base * factor };
        let q = quantize_one(outlier, scale);
        prop_assert_eq!(i32::from(q), if sign == 0 { 127 } else { -127 });
    }

    /// Quantize→dequantize under the slice's own calibrated scale is
    /// within half a step (plus float fuzz) of the original everywhere:
    /// round-to-nearest, and calibration guarantees no interior value
    /// saturates.
    #[test]
    fn round_trip_error_is_bounded_by_half_step(
        xs in proptest::collection::vec(-100.0f32..100.0, 1..128),
    ) {
        let s = calibrate(&xs);
        let q = quantize(&xs, s);
        let dq = dequantize(&q, s);
        for (a, b) in xs.iter().zip(&dq) {
            prop_assert!(
                (a - b).abs() <= s * 0.5 + 1e-6,
                "{} round-tripped to {} (scale {})",
                a, b, s
            );
        }
    }
}
