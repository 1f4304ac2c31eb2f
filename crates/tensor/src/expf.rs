//! `exp` of a row of `f32`s, vectorised, returning for every input the
//! bits `f32::exp` — a libm `expf` call per value — returns.
//!
//! On x86-64 Linux that call is glibc's `expf` (glibc ≥ 2.28), which is
//! the ARM optimized-routines algorithm (© Arm Limited, MIT OR Apache-2.0
//! WITH LLVM-exception): `x·32/ln 2 = k + r` with `k` an integer and
//! `|r| ≤ 1/2`, then `exp(x) = 2^(k/32) · 2^(r/32)`, the first factor from
//! a 32-entry table with the exponent bits of `k` added in, the second a
//! degree-3 polynomial in `r`, all in `f64` and rounded to `f32` once.
//! [`lane`] is that code for one value, branch-free, so a loop over a row
//! compiles to vector lanes; the table read becomes a gather. glibc ships
//! it twice, selected by an ifunc at load time: compiled plainly, and
//! compiled with FMA contraction for CPUs where FMA and AVX2 are usable —
//! which fuses the two uses of `x·32/ln 2` and the three polynomial steps,
//! and rounds differently for some inputs. [`exp_shifted`] makes the same
//! choice with the same CPU test ([`fused`]), once per row. `mul_add` is
//! correctly rounded wherever it runs (an FMA instruction, or libm's `fma`
//! in a build for a baseline x86-64 target), so the fused arm matches the
//! fused glibc on any build.
//!
//! glibc leaves the main path for `|x| ≥ 88`: NaN, `+∞` and overflow, and
//! the band `[log 2⁻¹⁵⁰, log 2⁻¹⁴⁹)` where it returns the least subnormal
//! and sets `errno`. A row holding any of those runs them through
//! `f32::exp` itself; everything below `log 2⁻¹⁵⁰` (including `−∞` and
//! the −1e9 of a causal mask) is `+0.0` on the vector path, as in glibc.
//! Other targets call `f32::exp` per value.

// Off x86-64 glibc only `exp_shifted`'s per-value loop is live.
#![cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")),
    allow(dead_code)
)]

/// Table bits: `T[i] = bits(2^(i/32)) − (i << 47)`, so that
/// `T[k % 32] + (k << 47)` is the bit pattern of `2^(k/32)` for any
/// integer `k` in range — the `k / 32` part lands in the exponent field.
const T: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `32 / ln 2`.
const INV_LN2_N: f64 = 32.0 * std::f64::consts::LOG2_E;
/// `0x1.8p52`: adding it rounds an `f64` of magnitude below 2⁵¹ to an
/// integer (ties to even), which then sits in the low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// The polynomial `2^(r/32) ≈ C0·r³ + C1·r² + C2·r + 1`: minimax
/// coefficients near the Taylor terms `(ln 2/32)^j / j!`.
const C: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];

/// `−0x1.9fe368p6`, just under `log 2⁻¹⁵⁰`: below it `exp` rounds to `+0.0`.
const UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// `−0x1.9d1d9ep6`, just under `log 2⁻¹⁴⁹`: the top of glibc's underflow band.
const MAY_UFLOW: f32 = f32::from_bits(0xc2ce_8ecf);
/// `0x1.62e42ep6`, just under `log 2¹²⁸`: above it `exp` overflows.
const OFLOW: f32 = f32::from_bits(0x42b1_7217);

/// glibc's main path for one value, without its branches: exact for every
/// `x` that is not NaN, not above [`OFLOW`] and not in the underflow band
/// (`+0.0` below [`UFLOW`]). `FUSED` picks glibc's FMA build.
#[inline(always)]
fn lane<const FUSED: bool>(x: f32) -> f32 {
    let xd = f64::from(x);
    let z = INV_LN2_N * xd;
    let kd = if FUSED {
        INV_LN2_N.mul_add(xd, SHIFT)
    } else {
        z + SHIFT
    };
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = if FUSED {
        INV_LN2_N.mul_add(xd, -kd)
    } else {
        z - kd
    };
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let r2 = r * r;
    let [c0, c1, c2] = C;
    let y = if FUSED {
        c0.mul_add(r, c1).mul_add(r2, c2.mul_add(r, 1.0))
    } else {
        (c0 * r + c1) * r2 + (c2 * r + 1.0)
    };
    let y = (y * s) as f32;
    if x < UFLOW {
        0.0
    } else {
        y
    }
}

/// The inputs glibc answers outside its main path (bar `x < UFLOW`, which
/// [`lane`] answers).
#[inline(always)]
fn off_path(x: f32) -> bool {
    x.is_nan() | (x > OFLOW) | (UFLOW..MAY_UFLOW).contains(&x)
}

/// Whether this process's glibc runs the FMA build of `expf`: the test of
/// its ifunc selector, FMA and AVX2 both usable.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
fn fused() -> bool {
    is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2")
}

/// `x ← exp(x − shift)` for every `x` of `row`, each bit for bit
/// `(x − shift).exp()`. When `shift` is the row's maximum, `lowest` is
/// its minimum, or NaN if the row holds a NaN; otherwise `lowest` is NaN.
/// A finite maximum less than 103 above the minimum puts every `x − shift`
/// in `[MAY_UFLOW, 0]`, where no value leaves glibc's main path, and the
/// row skips the pass that looks for one.
///
/// Kept out of line: inlined into a caller's loop nest, the row loop
/// lost its vector lanes.
#[inline(never)]
pub(crate) fn exp_shifted(row: &mut [f32], shift: f32, lowest: f32) {
    let on_path = shift.is_finite() && lowest - shift >= MAY_UFLOW;
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if fused() {
        exp_row::<true>(row, shift, on_path);
    } else {
        exp_row::<false>(row, shift, on_path);
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    {
        let _ = on_path;
        for x in row {
            *x = (*x - shift).exp();
        }
    }
}

/// [`exp_shifted`] as `FUSED` selects: one vector pass over [`lane`],
/// unless a value of the row leaves glibc's main path — then the row goes
/// value by value, those values through `f32::exp`.
fn exp_row<const FUSED: bool>(row: &mut [f32], shift: f32, on_path: bool) {
    if !on_path && row.iter().fold(false, |any, &x| any | off_path(x - shift)) {
        for x in row {
            let v = *x - shift;
            *x = if off_path(v) {
                v.exp()
            } else {
                lane::<FUSED>(v)
            };
        }
    } else {
        for x in row {
            *x = lane::<FUSED>(*x - shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a·b` as an unevaluated sum of two `f64`s.
    fn mul_dd((ah, al): (f64, f64), (bh, bl): (f64, f64)) -> (f64, f64) {
        let p = ah * bh;
        let e = ah.mul_add(bh, -p) + (ah * bl + al * bh);
        let s = p + e;
        (s, e - (s - p))
    }

    /// `|v³² − 2^i|` to about 100 bits, relative.
    fn distance_of_32nd_power(v: f64, i: i32) -> f64 {
        let mut p = (v, 0.0);
        for _ in 0..5 {
            p = mul_dd(p, p);
        }
        ((p.0 - 2f64.powi(i)) + p.1).abs()
    }

    /// Entry `i` plus `i << 47` is the `f64` nearest `2^(i/32)`: closer,
    /// raised to the 32nd power, to `2^i` than either neighbour is.
    #[test]
    fn table_entries_are_the_rounded_powers_of_two() {
        for (i, &t) in T.iter().enumerate() {
            let bits = t + ((i as u64) << 47);
            let v = f64::from_bits(bits);
            assert!((1.0..2.0).contains(&v), "entry {i}");
            let d = distance_of_32nd_power(v, i as i32);
            for neighbour in [bits - 1, bits + 1] {
                let dn = distance_of_32nd_power(f64::from_bits(neighbour), i as i32);
                assert!(d < dn, "entry {i} is not the nearest f64 to 2^({i}/32)");
            }
        }
    }

    /// `INV_LN2_N` is the `f64` nearest `32/ln 2`: times `ln 2` (to 106
    /// bits) it is closer to 32 than either neighbour is.
    #[test]
    fn scaling_constants_are_their_definitions() {
        const LN2_LO: f64 = 2.319_046_813_846_299_6e-17;
        let ln2 = (std::f64::consts::LN_2, LN2_LO);
        let off = |bits: u64| {
            let (h, l) = mul_dd((f64::from_bits(bits), 0.0), ln2);
            ((h - 32.0) + l).abs()
        };
        let bits = INV_LN2_N.to_bits();
        assert!(
            off(bits) < off(bits - 1) && off(bits) < off(bits + 1),
            "32/ln 2"
        );
        assert_eq!(bits, 0x4047_1547_652b_82fe);
        assert_eq!(SHIFT, 1.5 * 2f64.powi(52));
        // Adding SHIFT rounds to an integer, ties to even, into the low bits.
        for (x, k) in [(2.5, 2u64), (3.5, 4), (-1.5, u64::MAX - 1), (7.25, 7)] {
            let kd: f64 = x + SHIFT;
            assert_eq!(kd.to_bits().wrapping_sub(SHIFT.to_bits()), k, "{x}");
        }
        let taylor = |j: i32, fact: f64| (std::f64::consts::LN_2 / 32.0).powi(j) / fact;
        for (c, want) in C
            .iter()
            .zip([taylor(3, 6.0), taylor(2, 2.0), taylor(1, 1.0)])
        {
            assert!((c / want - 1.0).abs() < 1e-5, "{c} vs {want}");
        }
    }

    /// Every `f32` bit pattern in `start..end`, a row at a time through
    /// [`exp_shifted`] with no shift: the patterns whose row `f32::exp`
    /// does not answer the same, bit for bit (NaN as any NaN).
    fn mismatches(start: u64, end: u64) -> Vec<u32> {
        let mut bad = Vec::new();
        let mut row = Vec::with_capacity(1024);
        for first in (start..end).step_by(1024) {
            row.clear();
            row.extend((first..end.min(first + 1024)).map(|b| f32::from_bits(b as u32)));
            exp_shifted(&mut row, 0.0, f32::NAN);
            for (b, &got) in (first..).zip(&row) {
                let want = f32::from_bits(b as u32).exp();
                let same = got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
                if !same {
                    bad.push(b as u32);
                }
            }
        }
        bad
    }

    /// The port against `f32::exp` on every `f32`, split over two
    /// threads. An optimised build only: the vector code is what ships,
    /// and unoptimised the sweep takes minutes (optimised: ≈ 15 s native,
    /// ≈ 45 s for a baseline x86-64 target, whose `mul_add` calls libm).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive: run with --release")]
    fn exp_matches_f32_exp_on_every_f32() {
        let half = 1u64 << 31;
        let bad: Vec<u32> = std::thread::scope(|s| {
            let parts = [0, half].map(|start| s.spawn(move || mismatches(start, start + half)));
            parts
                .into_iter()
                .flat_map(|p| p.join().expect("sweep thread"))
                .collect()
        });
        let show: Vec<String> = bad.iter().take(8).map(|b| format!("{b:#010x}")).collect();
        assert!(bad.is_empty(), "{} mismatches, first {show:?}", bad.len());
    }

    /// The inputs that leave the vector path, and the edges around them,
    /// in rows that mix them with ordinary values.
    #[test]
    fn special_inputs_match_f32_exp_inside_ordinary_rows() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            OFLOW,
            f32::from_bits(OFLOW.to_bits() + 1),
            UFLOW,
            f32::from_bits(UFLOW.to_bits() + 1),
            f32::from_bits(UFLOW.to_bits() - 1),
            MAY_UFLOW,
            f32::from_bits(MAY_UFLOW.to_bits() + 1),
            -103.5,
            -1e9,
            88.0,
            -88.0,
            0.0,
            -0.0,
            1e-40,
            f32::MIN_POSITIVE,
        ];
        for shift in [0.0, 1.5, -3.0] {
            for &s in &specials {
                let mut row: Vec<f32> = (0..19).map(|i| i as f32 * 0.37 - 3.0).collect();
                row[7] = s;
                let want: Vec<u32> = row.iter().map(|&x| (x - shift).exp().to_bits()).collect();
                exp_shifted(&mut row, shift, f32::NAN);
                for (j, (&got, &want)) in row.iter().zip(&want).enumerate() {
                    let want = f32::from_bits(want);
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{s} at shift {shift}, lane {j}: {got} vs {want}"
                    );
                }
            }
        }
    }
}
