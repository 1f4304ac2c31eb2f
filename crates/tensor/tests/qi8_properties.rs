//! Property tests for the int8 quantization scale calibration
//! (DESIGN.md §15): degenerate inputs (all-zero, single-element),
//! outlier saturation (clamp, never wrap), and the round-trip error
//! bound of half a quantization step — plus the two oracles of the
//! vectorised code: the slice quantizer against [`quantize_one`] over
//! the `f32` bit patterns, and the register tile against a triple loop
//! over every edge shape. `scripts/ci.sh` runs this binary under
//! `--release` too: both are autovectorised code a debug build does not
//! exercise.

use proptest::prelude::*;
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

/// Deterministic values in `[-1, 1)` (an integer hash: no libm call, the
/// same on every host).
fn fill(len: usize, seed: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((i + seed) * 2_654_435_761) % 2000) as f32 * 1e-3 - 1.0)
        .collect()
}

/// The register tile against the quantized computation as a plain
/// triple loop — bit for bit, integer math being exact at any tiling —
/// on every edge the tile has: row tiles of 1–5 rows and two or three
/// tiles deep, an odd last weight row (`k` 1, 47, 97), one pair only
/// (`k` 2), and right edges of 1, 15 and `130 mod 16` live columns
/// beside exact multiples of the tile width.
#[test]
fn tile_matches_the_triple_loop_on_every_edge_shape() {
    for n in 1..=11 {
        for k in [1, 2, 47, 48, 96, 97] {
            for m in [1, 15, 16, 17, 48, 130] {
                let a = fill(n * k, n + k);
                let b = fill(k * m, m);
                let b_scale = calibrate(&b);
                let qb: Vec<i8> = b.iter().map(|&x| quantize_one(x, b_scale)).collect();
                let mut want = vec![0.0f32; n * m];
                for (arow, wrow) in a.chunks_exact(k).zip(want.chunks_exact_mut(m)) {
                    let a_scale = calibrate(arow);
                    for (j, w) in wrow.iter_mut().enumerate() {
                        let acc: i32 = (0..k)
                            .map(|kk| {
                                i32::from(quantize_one(arow[kk], a_scale))
                                    * i32::from(qb[kk * m + j])
                            })
                            .sum();
                        *w = a_scale * b_scale * acc as f32;
                    }
                }
                let got = qgemm(&a, &QPackedB::from_f32(&b, k, m), n);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&want), bits(&got), "{n}x{k}x{m}");
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
