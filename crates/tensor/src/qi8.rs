//! Int8 weight-quantized GEMM for the decode hot path.
//!
//! ## Scheme
//!
//! Per-tensor **symmetric** quantization: a tensor with max absolute
//! value `A` maps through `scale = A / 127` as `q = round(x / scale)`
//! clamped to `[-127, 127]` (saturating, never wrapping; `-128` is
//! unused so negation stays closed). Weights are quantized **once** at
//! model-load time and stored **column-major** (each weight column a
//! contiguous int8 run), so every output element is a single contiguous
//! dot product; activations are quantized **per call, per row** with
//! their own dynamic scale, which keeps the narrow decode activations
//! (1×d query vectors, beam×d tiles) accurate without any calibration
//! data.
//!
//! The product accumulates in `i32` — exact for every `k ≤ 133 000`
//! since `|q| ≤ 127` bounds each term by `127² = 16 129` — and converts
//! to `f32` exactly once at the edge: `out[i][j] = (a_scale[i] *
//! b_scale) * acc`. Because integer accumulation is associative, the
//! quantized path is deterministic at any tiling or thread count by
//! construction, with no ordering discipline needed.
//!
//! ## Dispatch
//!
//! Weights are pre-packed, so unlike the f32 kernel there is no per-call
//! packing cost to amortise; the only path split is register tiling.
//! [`qselect`] keeps products with fewer than MR rows (the decode-time
//! 1×d and small-beam shapes) on a plain per-row serial loop whose only
//! overhead is the call itself, and routes taller products through an
//! MR-row tile that reuses each weight column across MR activation
//! rows. Both are contiguous column dots in exact integer math and
//! produce identical bits, so selection is purely a performance
//! decision. Dispatch is counted per size class in the process-wide
//! observability registry (`tensor.gemm.qi8_serial` /
//! `tensor.gemm.qi8_blocked`) and snapshot through [`counters`].
//!
//! ## KV rows
//!
//! The decoder's int8 KV arena (`qrec_nn::incremental`) stores each
//! appended f32 row with the same two primitives — [`calibrate`] for a
//! per-row scale, [`quantize_one`] per value — a ~4× footprint reduction,
//! and attention dequantizes on read as `f32::from(q) * scale`. Per-row
//! (not per-cache) scales matter there because K/V row magnitudes drift
//! over a long decode; a single early outlier must not crush the
//! resolution of every later step.

use std::sync::Arc;

/// Rows per register tile in the blocked path (mirrors the f32 kernel).
const MR: usize = 4;

/// Largest quantized magnitude: symmetric `[-127, 127]`.
const Q_MAX: f32 = 127.0;

/// Per-path dispatch counters in the process-wide observability
/// registry, one per size class, same idiom as the f32 kernel's
/// `tensor.gemm.*` family.
struct DispatchCounters {
    serial: Arc<qrec_obs::Counter>,
    blocked: Arc<qrec_obs::Counter>,
}

fn dispatch() -> &'static DispatchCounters {
    static D: std::sync::OnceLock<DispatchCounters> = std::sync::OnceLock::new();
    D.get_or_init(|| DispatchCounters {
        serial: qrec_obs::global().counter("tensor.gemm.qi8_serial"),
        blocked: qrec_obs::global().counter("tensor.gemm.qi8_blocked"),
    })
}

/// Process-wide int8-GEMM dispatch counters, for serving metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Qi8Counters {
    /// Calls that ran the per-row serial loop (decode-vector shapes).
    pub serial: u64,
    /// Calls that ran the MR×NR register-tiled kernel.
    pub blocked: u64,
}

/// Snapshot the dispatch counters (monotonic since process start).
pub fn counters() -> Qi8Counters {
    let d = dispatch();
    Qi8Counters {
        serial: d.serial.get(),
        blocked: d.blocked.get(),
    }
}

// ---------------------------------------------------------------------
// Scale calibration and per-value mapping
// ---------------------------------------------------------------------

/// Per-tensor symmetric scale: `max |x| / 127`, or `0.0` for an all-zero
/// (or empty) slice. Non-finite inputs are ignored during calibration so
/// one NaN cannot zero out an entire tensor's resolution.
pub fn calibrate(data: &[f32]) -> f32 {
    let max_abs = data
        .iter()
        .map(|v| v.abs())
        .filter(|v| v.is_finite())
        .fold(0.0f32, f32::max);
    if max_abs == 0.0 {
        0.0
    } else {
        max_abs / Q_MAX
    }
}

/// Quantize one value under `scale`: round to nearest, saturating clamp
/// to `[-127, 127]` (an outlier above the calibrated range clips, it
/// never wraps). A zero scale maps everything to 0.
#[inline(always)]
pub fn quantize_one(x: f32, scale: f32) -> i8 {
    if scale == 0.0 {
        return 0;
    }
    let q = (x / scale).round();
    // Saturate through f32 comparison before the cast so NaN → 0 and
    // out-of-range values clamp instead of wrapping.
    if q >= Q_MAX {
        127
    } else if q <= -Q_MAX {
        -127
    } else {
        q as i8
    }
}

/// Quantize a slice under one shared scale.
pub fn quantize(data: &[f32], scale: f32) -> Vec<i8> {
    data.iter().map(|&x| quantize_one(x, scale)).collect()
}

/// Dequantize a slice: `q * scale`.
pub fn dequantize(q: &[i8], scale: f32) -> Vec<f32> {
    q.iter().map(|&v| f32::from(v) * scale).collect()
}

// ---------------------------------------------------------------------
// Packed quantized weights
// ---------------------------------------------------------------------

/// A weight matrix quantized per-tensor and stored **column-major**
/// (`Bᵀ`): column `j` of the original `k×m` matrix is the contiguous
/// int8 run `data[j·k .. (j+1)·k]`. Every output element is then one
/// contiguous dot product `out[i][j] = dot(qa_row_i, col_j)`, a shape
/// the compiler auto-vectorizes to widening multiply-adds; an NR-wide
/// interleaved panel walk (the f32 kernel's layout) measured 2–4×
/// slower here because int8 lanes defeat its vectorization.
///
/// Built once per weight tensor at model-load time
/// ([`QPackedB::from_f32`]); every decode step then reuses the packed
/// bytes with zero per-call packing cost.
#[derive(Debug, Clone)]
pub struct QPackedB {
    /// Column-major quantized values: `m` columns of `k` bytes each.
    data: Vec<i8>,
    /// Row count of the original `k×m` weight matrix.
    k: usize,
    /// Column count of the original `k×m` weight matrix.
    m: usize,
    /// The per-tensor symmetric scale the values were quantized under.
    scale: f32,
}

impl QPackedB {
    /// Quantize a row-major `k×m` f32 weight matrix (per-tensor scale)
    /// and pack it.
    pub fn from_f32(b: &[f32], k: usize, m: usize) -> QPackedB {
        let scale = calibrate(b);
        let mut data = vec![0i8; k * m];
        for kk in 0..k {
            for (j, &x) in b[kk * m..(kk + 1) * m].iter().enumerate() {
                data[j * k + kk] = quantize_one(x, scale);
            }
        }
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

    /// The per-tensor scale the values were quantized under.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Bytes resident for the packed weight: exactly `k·m` (the f32
    /// original holds `4·k·m`).
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Recover the quantized values as a row-major `k×m` int8 matrix
    /// (undoing the transpose; the persistence layer stores this form,
    /// which re-packs losslessly on load).
    pub fn unpack(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.k * self.m];
        for (j, col) in self.data.chunks_exact(self.k.max(1)).enumerate() {
            for (kk, &v) in col.iter().enumerate() {
                out[kk * self.m + j] = v;
            }
        }
        out
    }

    /// Re-pack a row-major `k×m` int8 matrix quantized under `scale`
    /// (the inverse of [`QPackedB::unpack`], used when loading a
    /// persisted int8 section).
    pub fn from_quantized(q: &[i8], k: usize, m: usize, scale: f32) -> QPackedB {
        let mut data = vec![0i8; k * m];
        for kk in 0..k {
            for (j, &v) in q[kk * m..(kk + 1) * m].iter().enumerate() {
                data[j * k + kk] = v;
            }
        }
        QPackedB { data, k, m, scale }
    }
}

// ---------------------------------------------------------------------
// Path selection
// ---------------------------------------------------------------------

/// The execution path [`qgemm`] takes for an `n×k` activation against a
/// packed `k×m` weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Qi8Path {
    /// Fewer than MR rows: plain per-row loop, zero tiling overhead —
    /// the decode-time 1×d and small-beam fast path.
    Serial,
    /// MR or more rows: MR-row tiles that reuse each weight column
    /// across MR activation rows.
    Blocked,
}

/// Pick the path for an `n`-row activation. Pure in `n`; both paths
/// produce identical bits (exact i32 accumulation), so this is purely a
/// performance decision.
pub fn qselect(n: usize) -> Qi8Path {
    if n < MR {
        Qi8Path::Serial
    } else {
        Qi8Path::Blocked
    }
}

// ---------------------------------------------------------------------
// Quantized GEMM
// ---------------------------------------------------------------------

/// Reusable buffers for the per-call activation quantization of
/// [`qgemm_into`]: the int8 activation rows and their scales. A caller
/// that runs many products (one decode) keeps one of these so no step
/// allocates; buffers grow to the largest `n·k` seen and stay there.
#[derive(Debug, Clone, Default)]
pub struct QScratch {
    qa: Vec<i8>,
    scales: Vec<f32>,
}

/// `n×k` f32 activations times a pre-packed quantized `k×m` weight,
/// with dynamic per-row activation quantization: `out[i][j] =
/// (a_scale[i] · b_scale) · Σ_kk qa[i][kk]·qb[kk][j]`, the inner sum in
/// exact `i32`.
///
/// `a.len()` must be `n · qb.k()`; the result is row-major `n × qb.m()`.
pub fn qgemm(a: &[f32], qb: &QPackedB, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * qb.m];
    qgemm_into(a, qb, n, &mut out, &mut QScratch::default());
    out
}

/// [`qgemm`] written into a caller-owned `n · qb.m()` buffer
/// (overwritten), quantizing activations into `scratch`: the same path
/// selection, dispatch counters and bits, with no allocation once
/// `scratch` has grown to the call's shape.
pub fn qgemm_into(a: &[f32], qb: &QPackedB, n: usize, out: &mut [f32], scratch: &mut QScratch) {
    let k = qb.k;
    assert_eq!(a.len(), n * k, "qgemm activations must hold n·k values");
    assert_eq!(out.len(), n * qb.m, "qgemm output must hold n·m values");
    // Dynamic per-row activation quantization: one scale per row keeps
    // a large logit row from crushing a small one's resolution.
    scratch.qa.resize(n * k, 0);
    scratch.scales.resize(n, 0.0);
    for i in 0..n {
        let row = &a[i * k..(i + 1) * k];
        let s = calibrate(row);
        scratch.scales[i] = s;
        for (q, &x) in scratch.qa[i * k..(i + 1) * k].iter_mut().zip(row) {
            *q = quantize_one(x, s);
        }
    }
    if k == 0 {
        out.fill(0.0);
    }
    match qselect(n) {
        Qi8Path::Serial => {
            dispatch().serial.inc();
            q_rows_serial(&scratch.qa, &scratch.scales, qb, 0, n, out);
        }
        Qi8Path::Blocked => {
            dispatch().blocked.inc();
            q_rows_blocked(&scratch.qa, &scratch.scales, qb, n, out);
        }
    }
}

/// Per-row serial loop over rows `r0..r1`, writing from the start of
/// `out`: each output element is one contiguous dot product of an
/// activation row against a stored column, converted to `f32` once at
/// the edge. No tiling overhead — this is the 1×d decode fast path, and
/// the plain `zip`/`sum` shape is exactly what the auto-vectorizer
/// lowers to widening multiply-adds.
fn q_rows_serial(
    qa: &[i8],
    a_scales: &[f32],
    pb: &QPackedB,
    r0: usize,
    r1: usize,
    out: &mut [f32],
) {
    let k = pb.k;
    let m = pb.m;
    if k == 0 {
        return;
    }
    for i in r0..r1 {
        let arow = &qa[i * k..(i + 1) * k];
        let c = a_scales[i] * pb.scale;
        let orow = &mut out[(i - r0) * m..(i - r0 + 1) * m];
        for (o, col) in orow.iter_mut().zip(pb.data.chunks_exact(k)) {
            let acc: i32 = arow
                .iter()
                .zip(col)
                .map(|(&x, &y)| i32::from(x) * i32::from(y))
                .sum();
            *o = c * acc as f32;
        }
    }
}

/// MR-row tile over rows `0..n`: each stored column is streamed once per
/// tile and dotted against MR activation rows in lockstep, quartering
/// the traffic over `B` relative to the per-row loop; leftover rows
/// (fewer than MR) fall back to the serial loop. Same exact i32 sums, so
/// both paths produce identical bits.
fn q_rows_blocked(qa: &[i8], a_scales: &[f32], pb: &QPackedB, n: usize, out: &mut [f32]) {
    let k = pb.k;
    let m = pb.m;
    if k == 0 {
        return;
    }
    let mut i = 0;
    while i + MR <= n {
        let a0 = &qa[i * k..(i + 1) * k];
        let a1 = &qa[(i + 1) * k..(i + 2) * k];
        let a2 = &qa[(i + 2) * k..(i + 3) * k];
        let a3 = &qa[(i + 3) * k..(i + 4) * k];
        let [c0, c1, c2, c3] = [0, 1, 2, 3].map(|r| a_scales[i + r] * pb.scale);
        let o0 = i * m;
        for (j, col) in pb.data.chunks_exact(k).enumerate() {
            let mut s0 = 0i32;
            let mut s1 = 0i32;
            let mut s2 = 0i32;
            let mut s3 = 0i32;
            for (((&b, &x0), (&x1, &x2)), &x3) in col.iter().zip(a0).zip(a1.iter().zip(a2)).zip(a3)
            {
                let b = i32::from(b);
                s0 += i32::from(x0) * b;
                s1 += i32::from(x1) * b;
                s2 += i32::from(x2) * b;
                s3 += i32::from(x3) * b;
            }
            out[o0 + j] = c0 * s0 as f32;
            out[o0 + m + j] = c1 * s1 as f32;
            out[o0 + 2 * m + j] = c2 * s2 as f32;
            out[o0 + 3 * m + j] = c3 * s3 as f32;
        }
        i += MR;
    }
    if i < n {
        q_rows_serial(qa, a_scales, pb, i, n, &mut out[i * m..]);
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

    /// f32 reference of the *quantized* computation: same quantization,
    /// plain triple loop. The kernels must match this exactly (integer
    /// math), independent of tiling.
    fn q_reference(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
        let b_scale = calibrate(b);
        let qb: Vec<i8> = b.iter().map(|&x| quantize_one(x, b_scale)).collect();
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            let arow = &a[i * k..(i + 1) * k];
            let a_scale = calibrate(arow);
            let qa: Vec<i8> = arow.iter().map(|&x| quantize_one(x, a_scale)).collect();
            for j in 0..m {
                let mut acc = 0i32;
                for kk in 0..k {
                    acc += i32::from(qa[kk]) * i32::from(qb[kk * m + j]);
                }
                out[i * m + j] = a_scale * b_scale * acc as f32;
            }
        }
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
            let b = fill(k * m, 2);
            let qb = QPackedB::from_f32(&b, k, m);
            assert_bitwise(&q_reference(&a, &b, n, k, m), &qgemm(&a, &qb, n));
        }
    }

    #[test]
    fn serial_and_blocked_paths_agree_exactly() {
        // Same shape forced down both paths by splitting the rows: the
        // integer accumulation makes tiling invisible in the output.
        let (n, k, m) = (8, 130, 45);
        let a = fill(n * k, 3);
        let b = fill(k * m, 4);
        let qb = QPackedB::from_f32(&b, k, m);
        let whole = qgemm(&a, &qb, n); // n >= MR: blocked
        for i in 0..n {
            let row = qgemm(&a[i * k..(i + 1) * k], &qb, 1); // serial
            assert_bitwise(&row, &whole[i * m..(i + 1) * m]);
        }
    }

    #[test]
    fn qselect_keeps_decode_vectors_serial() {
        assert_eq!(qselect(1), Qi8Path::Serial);
        assert_eq!(qselect(3), Qi8Path::Serial);
        assert_eq!(qselect(4), Qi8Path::Blocked);
        assert_eq!(qselect(64), Qi8Path::Blocked);
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
            let flat = qb.unpack();
            let scale = qb.scale();
            let direct: Vec<i8> = b.iter().map(|&x| quantize_one(x, scale)).collect();
            assert_eq!(flat, direct, "{k}x{m}");
            // And back: re-packing the flat form reproduces the panels.
            let qb2 = QPackedB::from_quantized(&flat, k, m, scale);
            assert_eq!(qb.data, qb2.data, "{k}x{m}");
            assert_eq!(qb.scale(), qb2.scale());
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
    fn qgemm_into_reuses_scratch_across_shapes_with_the_same_bits() {
        let mut scratch = QScratch::default();
        // Growing then shrinking shapes through one scratch; stale output
        // and stale scratch rows must not leak.
        for &(n, k, m) in &[(5, 48, 130), (1, 96, 48), (8, 48, 48), (3, 7, 9)] {
            let a = fill(n * k, 8);
            let qb = QPackedB::from_f32(&fill(k * m, 9), k, m);
            let mut out = vec![7.5f32; n * m];
            qgemm_into(&a, &qb, n, &mut out, &mut scratch);
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
