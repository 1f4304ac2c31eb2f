//! Int8 weight-only quantization (W8A32) for the decode hot path.
//!
//! ## Scheme
//!
//! Per-tensor **symmetric** quantization: a tensor with max absolute
//! value `A` maps through `scale = A / 127` as `q = round(x / scale)`
//! clamped to `[-127, 127]` (saturating, never wrapping; `-128` is
//! unused so negation stays closed). Weights are quantized **once** at
//! model-load time and stay resident **row-major** `k×m`; they are never
//! persisted. Activations stay `f32`: what int8 buys at the
//! served widths is 3.9× smaller weights and K/V rows, and that needs
//! only the stored side to be int8.
//!
//! ## The product
//!
//! [`qgemm_into`] is the f32 kernel's register tile
//! ([`crate::kernel`]) instantiated for an int8 `B`: each weight segment
//! is widened `i8 → f32` on load (exact), so an output element is the
//! kernel's single-accumulator ascending-`k` `fmadd` fold of the f32
//! activations over the integer-valued weights, times the weight's scale
//! once. It is deterministic at any tiling for the reason
//! the f32 kernel is — one fold order per element, not associativity —
//! and bit-equal to [`crate::kernel::naive`] over the widened weights
//! (`tests/qi8_properties.rs`). Nothing is packed, quantized or allocated
//! per call. Calls are counted per size class in the process-wide
//! observability registry — under four rows (`tensor.gemm.qi8_serial`) or
//! four and more (`tensor.gemm.qi8_blocked`) — and snapshot through
//! [`counters`].
//!
//! ## KV rows
//!
//! The decoder's int8 KV arena (`qrec_nn::incremental`) stores each
//! appended f32 row through [`quantize_row`] (~4× smaller) and attention
//! dequantizes on read as `f32::from(q) * scale`. Per-row (not per-cache)
//! scales matter there: K/V magnitudes drift over a long decode, and one
//! early outlier must not crush every later step.

use crate::kernel;
use std::sync::Arc;

/// Largest quantized magnitude: symmetric `[-127, 127]`.
const Q_MAX: f32 = 127.0;

/// The call counters of the two size classes (serial, blocked), in the
/// process-wide registry beside the f32 kernel's `tensor.gemm.naive`.
/// Both classes run the one tile; the names stay because the end-to-end
/// benchmark reads them.
fn dispatch() -> &'static [Arc<qrec_obs::Counter>; 2] {
    static D: std::sync::OnceLock<[Arc<qrec_obs::Counter>; 2]> = std::sync::OnceLock::new();
    D.get_or_init(|| {
        ["tensor.gemm.qi8_serial", "tensor.gemm.qi8_blocked"]
            .map(|name| qrec_obs::global().counter(name))
    })
}

/// Process-wide int8-GEMM dispatch counters, for serving metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Qi8Counters {
    /// Products of fewer than four activation rows (decode vectors).
    pub serial: u64,
    /// Products of four or more activation rows.
    pub blocked: u64,
}

/// Snapshot the dispatch counters (monotonic since process start).
pub fn counters() -> Qi8Counters {
    let [serial, blocked] = dispatch();
    Qi8Counters {
        serial: serial.get(),
        blocked: blocked.get(),
    }
}

// ---------------------------------------------------------------------
// Scale calibration and per-value mapping
// ---------------------------------------------------------------------

/// Per-tensor symmetric scale: `max |x| / 127`, or `0.0` for an all-zero
/// (or empty) slice. Non-finite inputs are ignored during calibration so
/// one NaN cannot zero out an entire tensor's resolution. (The maximum
/// is order-independent, so it is folded in eight vectorisable lanes.)
pub fn calibrate(data: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for chunk in data.chunks(lanes.len()) {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            let a = if v.abs() < f32::INFINITY {
                v.abs()
            } else {
                0.0
            };
            *lane = if a > *lane { a } else { *lane };
        }
    }
    lanes.iter().fold(0.0f32, |m, &a| m.max(a)) / Q_MAX
}

/// Quantize one value under `scale`: round to nearest, saturating clamp
/// to `[-127, 127]` (an outlier above the calibrated range clips, it
/// never wraps). A zero scale maps everything to 0. This is the
/// definition; slices take [`quantize_into`], the same without libm.
#[inline(always)]
pub fn quantize_one(x: f32, scale: f32) -> i8 {
    if scale == 0.0 {
        return 0;
    }
    let q = (x / scale).round(); // saturated by comparison: NaN → 0, no wrap
    if q >= Q_MAX {
        127
    } else if q <= -Q_MAX {
        -127
    } else {
        q as i8
    }
}

/// `1.5 · 2²³`: adding it to a float of magnitude ≤ 2²² rounds that
/// float to an integer (ties to even) held in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// [`quantize_one`] for a non-zero `scale` without the libm `round`, a
/// branch or a float→int cast, so a row of them vectorises: the same
/// `x / scale`, its magnitude saturated first (rounding is monotone and
/// 127 an integer, so clamping before equals clamping after; a NaN
/// compares false and saturates too, to be zeroed below), rounded
/// half-away as round-half-even plus one where the (exact) remainder is
/// a half, and given the quotient's sign back.
#[inline(always)]
fn quantize_lane(x: f32, scale: f32) -> i8 {
    let v = x / scale;
    let a = if v.abs() < Q_MAX { v.abs() } else { Q_MAX };
    let even = (a + ROUND_MAGIC) - ROUND_MAGIC;
    let away = if a - even == 0.5 { even + 1.0 } else { even };
    let r = if v.is_nan() { 0.0 } else { away.copysign(v) };
    // `r` is an integer in [-127, 127], so `r + ROUND_MAGIC` is exact
    // and its low mantissa byte is `r` in two's complement.
    (r + ROUND_MAGIC).to_bits() as u8 as i8
}

/// Quantize `data` under one shared scale into `out` (same length):
/// element for element the value [`quantize_one`] returns.
pub fn quantize_into(data: &[f32], scale: f32, out: &mut [i8]) {
    assert_eq!(data.len(), out.len(), "one quantized value per input");
    if scale == 0.0 {
        return out.fill(0);
    }
    for (q, &x) in out.iter_mut().zip(data) {
        *q = quantize_lane(x, scale);
    }
}

/// Quantize a slice under one shared scale.
pub fn quantize(data: &[f32], scale: f32) -> Vec<i8> {
    let mut out = vec![0i8; data.len()];
    quantize_into(data, scale, &mut out);
    out
}

/// Quantize one row under its own scale ([`calibrate`]) into `out` and
/// return it — the quantizer of the decoder's int8 K/V rows.
pub fn quantize_row(row: &[f32], out: &mut [i8]) -> f32 {
    let scale = calibrate(row);
    quantize_into(row, scale, out);
    scale
}

/// Dequantize a slice: `q * scale`.
pub fn dequantize(q: &[i8], scale: f32) -> Vec<f32> {
    q.iter().map(|&v| f32::from(v) * scale).collect()
}

// ---------------------------------------------------------------------
// Quantized weights
// ---------------------------------------------------------------------

/// A weight matrix quantized per-tensor, resident **row-major** `k×m`.
/// Row `kk` is the contiguous int8 run `data[kk·m .. (kk+1)·m]`, of which
/// the register tile reads a 16-column segment as one load.
///
/// Built once per weight tensor at model-load time
/// ([`QPackedB::from_f32`]); every decode step then reuses the bytes.
#[derive(Debug, Clone)]
pub struct QPackedB {
    /// Row-major quantized values: `k` rows of `m` bytes each.
    data: Vec<i8>,
    /// Row count of the `k×m` weight matrix.
    k: usize,
    /// Column count of the `k×m` weight matrix.
    m: usize,
    /// The per-tensor symmetric scale the values were quantized under.
    scale: f32,
}

impl QPackedB {
    /// Quantize a row-major `k×m` f32 weight matrix (per-tensor scale).
    pub fn from_f32(b: &[f32], k: usize, m: usize) -> QPackedB {
        assert_eq!(b.len(), k * m, "weight must hold k·m values");
        let scale = calibrate(b);
        let data = quantize(b, scale);
        QPackedB { data, k, m, scale }
    }

    /// Inner dimension (`k`) of the packed weight.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension (`m`) of the packed weight.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Bytes resident for the packed weight: exactly `k·m` (the f32
    /// original holds `4·k·m`).
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Adopt a row-major `k×m` int8 matrix quantized under `scale` (the
    /// int8 properties build oracle weights with it).
    pub fn from_quantized(q: &[i8], k: usize, m: usize, scale: f32) -> QPackedB {
        assert_eq!(q.len(), k * m, "weight must hold k·m values");
        let data = q.to_vec();
        QPackedB { data, k, m, scale }
    }
}

// ---------------------------------------------------------------------
// Quantized GEMM
// ---------------------------------------------------------------------

/// `n×k` f32 activations times a quantized `k×m` weight: `out[i][j] =
/// b_scale · Σ_kk a[i][kk]·qb[kk][j]`, the sum the f32 kernel's
/// ascending-`k` `fmadd` fold over the int8 values widened to `f32`.
///
/// `a.len()` must be `n · qb.k()`; the result is row-major `n × qb.m()`.
pub fn qgemm(a: &[f32], qb: &QPackedB, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * qb.m];
    qgemm_into(a, qb, n, &mut out);
    out
}

/// [`qgemm`] into a caller-owned `n · qb.m()` buffer (overwritten): the
/// same bits, no allocation.
pub fn qgemm_into(a: &[f32], qb: &QPackedB, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), n * qb.k, "qgemm activations must hold n·k values");
    assert_eq!(out.len(), n * qb.m, "qgemm output must hold n·m values");
    let [serial, blocked] = dispatch();
    if n < 4 { serial } else { blocked }.inc();
    let (a, b) = (
        kernel::Strided::new(a, qb.k),
        kernel::Strided::new(&qb.data[..], qb.m),
    );
    kernel::tiles::<false, i8>(a, b, n, qb.k, qb.m, out, qb.m);
    for o in out.iter_mut() {
        *o *= qb.scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((i + seed) * 2654435761) % 2000) as f32 * 1e-3 - 1.0)
            .collect()
    }

    /// The product's definition: [`kernel::naive`] over the int8 values
    /// widened to `f32`, each element then scaled once.
    fn q_reference(a: &[f32], qb: &QPackedB, n: usize) -> Vec<f32> {
        let wide: Vec<f32> = qb.data.iter().map(|&q| f32::from(q)).collect();
        let mut out = kernel::naive(a, &wide, n, qb.k, qb.m);
        out.iter_mut().for_each(|o| *o *= qb.scale);
        out
    }

    fn assert_bitwise(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn qgemm_matches_reference_bitwise_on_awkward_shapes() {
        for &(n, k, m) in &[
            (1, 7, 9),
            (1, 48, 200),
            (3, 33, 31),
            (4, 32, 32),
            (5, 33, 31),
            (37, 300, 65),
            (130, 17, 257),
        ] {
            let a = fill(n * k, 1);
            let qb = QPackedB::from_f32(&fill(k * m, 2), k, m);
            assert_bitwise(&q_reference(&a, &qb, n), &qgemm(&a, &qb, n));
        }
    }

    #[test]
    fn row_tilings_agree_exactly() {
        // The same rows as one product (two tiles: six rows and two) and
        // one row at a time: an element's fold never leaves its row, so
        // the tiling is invisible in the output.
        let (n, k, m) = (8, 130, 45);
        let a = fill(n * k, 3);
        let b = fill(k * m, 4);
        let qb = QPackedB::from_f32(&b, k, m);
        let whole = qgemm(&a, &qb, n);
        for i in 0..n {
            let row = qgemm(&a[i * k..(i + 1) * k], &qb, 1);
            assert_bitwise(&row, &whole[i * m..(i + 1) * m]);
        }
    }

    /// An adopted weight may hold `-128` (the quantizers never emit
    /// it): it widens like any other value.
    #[test]
    fn extreme_persisted_weights_widen_exactly() {
        let (k, m) = (4, 3);
        let qb = QPackedB::from_quantized(&[-128i8; 12], k, m, 0.5);
        let out = qgemm(&[-2.0, -2.0, -2.0, -2.0], &qb, 1);
        assert_eq!(out, vec![0.5 * (4.0 * 2.0 * 128.0); m]);
    }

    #[test]
    fn zero_inner_dimension_yields_zeros() {
        let qb = QPackedB::from_f32(&[], 0, 3);
        assert_eq!(qgemm(&[], &qb, 2), vec![0.0; 6]);
    }

    #[test]
    fn calibrate_edge_cases() {
        assert_eq!(calibrate(&[]), 0.0);
        assert_eq!(calibrate(&[0.0, 0.0, -0.0]), 0.0);
        assert_eq!(calibrate(&[2.54]), 2.54 / 127.0);
        // Non-finite values are ignored, not propagated.
        assert_eq!(calibrate(&[f32::NAN, 1.27]), 0.01);
        assert_eq!(calibrate(&[f32::INFINITY, 1.27]), 0.01);
    }

    #[test]
    fn quantize_saturates_never_wraps() {
        let scale = 1.0;
        assert_eq!(quantize_one(1e9, scale), 127);
        assert_eq!(quantize_one(-1e9, scale), -127);
        assert_eq!(quantize_one(f32::NAN, scale), 0);
        assert_eq!(quantize_one(0.0, 0.0), 0);
        assert_eq!(quantize_one(5.0, 0.0), 0);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let x = fill(1000, 7);
        let s = calibrate(&x);
        let q = quantize(&x, s);
        let dq = dequantize(&q, s);
        for (a, b) in x.iter().zip(&dq) {
            assert!((a - b).abs() <= s * 0.5 + 1e-6, "{a} vs {b} (scale {s})");
        }
    }

    #[test]
    fn pack_unpack_round_trips() {
        for &(k, m) in &[(7, 9), (32, 32), (300, 65), (17, 257), (1, 1)] {
            let b = fill(k * m, 5);
            let qb = QPackedB::from_f32(&b, k, m);
            let scale = qb.scale;
            let direct: Vec<i8> = b.iter().map(|&x| quantize_one(x, scale)).collect();
            assert_eq!(qb.data, direct, "{k}x{m}");
            // And back: adopting the flat form reproduces the weight.
            let qb2 = QPackedB::from_quantized(&direct, k, m, scale);
            assert_eq!(qb.data, qb2.data, "{k}x{m}");
            assert_eq!(qb.scale, qb2.scale);
        }
    }

    #[test]
    fn packed_bytes_are_near_quarter_of_f32() {
        let (k, m) = (256, 256);
        let b = fill(k * m, 6);
        let qb = QPackedB::from_f32(&b, k, m);
        let f32_bytes = k * m * 4;
        assert!(qb.packed_bytes() * 3 < f32_bytes, "~4x reduction");
    }

    #[test]
    fn qgemm_into_overwrites_stale_output_with_the_same_bits() {
        for &(n, k, m) in &[(5, 48, 130), (1, 96, 48), (8, 48, 48), (3, 7, 9)] {
            let a = fill(n * k, 8);
            let qb = QPackedB::from_f32(&fill(k * m, 9), k, m);
            let mut out = vec![7.5f32; n * m];
            qgemm_into(&a, &qb, n, &mut out);
            assert_bitwise(&qgemm(&a, &qb, n), &out);
        }
    }

    #[test]
    fn counters_move() {
        let before = counters();
        let b = fill(64, 1);
        let qb = QPackedB::from_f32(&b, 8, 8);
        let _ = qgemm(&fill(8, 2), &qb, 1);
        let _ = qgemm(&fill(64, 3), &qb, 8);
        let after = counters();
        assert!(after.serial > before.serial);
        assert!(after.blocked > before.blocked);
    }
}
