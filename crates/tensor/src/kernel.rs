//! The GEMM kernel behind `Tensor::matmul{,_nt,_tn}`: one register tile.
//!
//! ## The tile
//!
//! Every product runs one loop: the accumulators of an up-to-`SR`×`SN`
//! output tile (6 rows × 16 columns) stay in registers across the whole
//! `k` loop, and `B` is read unpacked, as it lies — a row-major `B` row
//! segment is already contiguous — so a product has no set-up cost and
//! allocates nothing but its output. The row count is a const parameter
//! (a last tile of fewer than `SR` rows is its own instance), and a right
//! edge of fewer than `SN` columns is the tile that ends at column `m`,
//! so no tile is a scalar remainder loop. The tile is generic over `B`'s
//! element ([`Widen`]): int8 weights ([`crate::qi8`]) are read through
//! the same code, widened to `f32` on load.
//!
//! The three product forms share it. [`gemm`] and [`gemm_into`] run it
//! over `A` and `B` as given; [`gemm_tn`] reads its `k×n` operand where it
//! lies (the `R` values a tile needs at step `kk` are contiguous in row
//! `kk`); [`gemm_nt`] transposes `B` once into a per-thread scratch and is
//! [`gemm`] from there. Attention's per-head products run it too,
//! uncounted, over operands that are column ranges of wider buffers
//! ([`tile_gemm`], [`Strided`]). Every product runs on the calling thread:
//! the recommender's products are beam rows or one training example
//! against `d_model` 48, and none is large enough for a second thread to
//! repay its hand-off.
//!
//! ## Determinism
//!
//! Every product form (`A·B`, `A·Bᵀ`, `Aᵀ·B`), the tile and the naive
//! references alike, computes each output element as the *same* fold:
//! `acc = fmadd(a[i][kk], b[kk][j], acc)` over ascending `kk` with a
//! single accumulator. The tile is therefore **bitwise identical** to
//! [`naive`] — property-tested in `tests/gemm_equivalence.rs`.
//!
//! [`fmadd`] is compiled as fused `mul_add` only when the target has a
//! hardware FMA unit (see `.cargo/config.toml`), so a given build is
//! internally consistent; builds for different targets may round
//! differently, as with any float kernel.

use std::sync::Arc;

/// The call counter of the f32 products, `tensor.gemm.naive` in the
/// process-wide observability registry: every [`gemm`], [`gemm_into`],
/// [`gemm_nt`] and [`gemm_tn`] call moves it once. The name dates from
/// when a second kernel took the larger products; DUMP exports it as
/// `qrec_tensor_gemm_naive`.
fn calls() -> &'static qrec_obs::Counter {
    static C: std::sync::OnceLock<Arc<qrec_obs::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| qrec_obs::global().counter("tensor.gemm.naive"))
}

/// Process-wide GEMM dispatch counters, for serving metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Every call: each runs the register tile on the calling thread.
    pub serial: u64,
    /// Always 0 — no product leaves the calling thread. Kept because the
    /// end-to-end benchmark reads it.
    pub parallel: u64,
}

/// Snapshot the dispatch counters (monotonic since process start).
pub fn counters() -> KernelCounters {
    KernelCounters {
        serial: calls().get(),
        parallel: 0,
    }
}

/// Fused multiply-add when the hardware has it, plain `a*b + acc`
/// otherwise. The cfg split keeps non-FMA builds off the libm softfloat
/// path while every build stays internally bitwise-consistent.
///
/// Public so that kernels outside this module which must reproduce a
/// GEMM fold bit for bit (the decoder's fused attention) use the one
/// definition of the fold step.
#[inline(always)]
pub fn fmadd(a: f32, b: f32, acc: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

// ---------------------------------------------------------------------
// Naive references (canonical accumulation order)
// ---------------------------------------------------------------------

/// Reference `n×k · k×m` product in canonical accumulation order.
///
/// This is the semantic ground truth every other kernel is
/// property-tested against (bitwise, not epsilon).
pub fn naive(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * m..(i + 1) * m];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * m..(kk + 1) * m];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = fmadd(av, bv, *o);
            }
        }
    }
    out
}

/// A stored matrix element, read back as the `f32` a fold consumes: an
/// `f32` weight or K/V value is itself, an int8 one its integer value —
/// exact in `f32` — which the reader scales once per output element
/// ([`crate::qi8::qgemm_into`]) or once per element of a row that carries
/// its own scale (the decoder's int8 K/V rows).
pub trait Widen: Copy {
    /// The element as `f32`.
    fn widen(self) -> f32;
    /// The element of a row stored under `scale`.
    fn widen_scaled(self, scale: f32) -> f32;
}

impl Widen for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }
    #[inline(always)]
    fn widen_scaled(self, _: f32) -> f32 {
        self
    }
}

impl Widen for i8 {
    #[inline(always)]
    fn widen(self) -> f32 {
        f32::from(self)
    }
    #[inline(always)]
    fn widen_scaled(self, scale: f32) -> f32 {
        f32::from(self) * scale
    }
}

/// Rows per register tile of [`tiles`].
const SR: usize = 6;
/// Columns per register tile of [`tiles`].
const SN: usize = 16;

/// A matrix as it lies inside a larger buffer, row-major with row stride
/// `ld`: element `(r, c)` at `data[r·ld + c]`. One head's column range of
/// a `d`-wide matrix is `Strided { data: &x[h·d_h..], ld: d }`, with
/// nothing copied.
#[derive(Debug, Clone, Copy)]
pub struct Strided<'a, T = f32> {
    /// The buffer, from the matrix's first element on.
    pub data: &'a [T],
    /// Distance between the starts of consecutive rows.
    pub ld: usize,
}

impl<'a, T> Strided<'a, T> {
    /// A matrix of rows `ld` apart starting at `data[0]`.
    pub fn new(data: &'a [T], ld: usize) -> Self {
        Strided { data, ld }
    }
}

/// The counted body of all three f32 product forms: [`tiles`] over an
/// f32 `B`, all three operands contiguous; `out` is overwritten.
fn counted_tiles<const TA: bool>(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
) {
    calls().inc();
    let lda = if TA { n } else { k };
    tiles::<TA, f32>(Strided::new(a, lda), Strided::new(b, m), n, k, m, out, m);
}

/// `A·B` on the register tile, where `a` is `n×k`, `b` is `k×m` and the
/// output `n×m` (overwritten) lies in `out` with row stride `ldc`: the
/// per-head products of attention, whose operands are column
/// ranges and interleaved rows of wider buffers. Every element is the
/// fold of [`naive`]. Uncounted: the counters behind [`counters`] see
/// the model's projections only.
pub fn tile_gemm(
    a: Strided<'_>,
    b: Strided<'_>,
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    ldc: usize,
) {
    tiles::<false, f32>(a, b, n, k, m, out, ldc);
}

/// [`tile_gemm`] of `Aᵀ·B`: `a` holds the `k×n` operand, read where it
/// lies. Every element is the fold of [`naive_tn`].
pub fn tile_gemm_tn(
    a: Strided<'_>,
    b: Strided<'_>,
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    ldc: usize,
) {
    tiles::<true, f32>(a, b, n, k, m, out, ldc);
}

/// The register tile over a whole product, of f32 weights and — the
/// whole of [`crate::qi8::qgemm_into`] — of int8 ones: the canonical fold
/// of [`naive`] over `B`'s elements widened to `f32`, with the accumulators
/// of an up-to-`SR`×`SN` output tile held in registers across the whole
/// `k` loop, reading `B` unpacked (a row-major `B` row segment is already
/// contiguous), so there is no set-up cost to amortise. [`naive`]'s loop
/// reloads and restores its output row on every `kk`, which serialises
/// each row on store-to-load forwarding; the tile removes that chain and
/// reads each `B` segment once per tile instead of once per output row.
/// The output's `n×m` window of `out` (row stride `ldc`) is overwritten.
///
/// `TA` says how `A` lies in memory: `n×k` row-major when `false`
/// (`A·B`, and `A·Bᵀ` once [`gemm_nt`] has transposed `B`), `k×n` when
/// `true` (`Aᵀ·B`) — the tile then takes its `R` values of step `kk` from
/// `a[kk·lda + i0..][..R]`, contiguous, so that form needs no transpose.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tiles<const TA: bool, B: Widen>(
    a: Strided<'_>,
    b: Strided<'_, B>,
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    ldc: usize,
) {
    let mut i0 = 0;
    while i0 < n {
        let rows = SR.min(n - i0);
        let tile = if m < SN {
            tile_for::<TA, true, B>(rows)
        } else {
            tile_for::<TA, false, B>(rows)
        };
        for j0 in (0..m).step_by(SN) {
            // A right edge of fewer than `SN` columns is the tile that
            // *ends* at column `m`: the columns it shares with its left
            // neighbour get the same fold again, so the same bits, and no
            // tile pads a segment or stores part of one. An output
            // narrower than one tile is one tile of `m` live lanes.
            let j0 = j0.min(m.saturating_sub(SN));
            tile(a.data, a.ld, b.data, b.ld, k, m, i0, j0, out, ldc);
        }
        i0 += rows;
    }
}

/// A [`register_tile`] of one shape, as [`tiles`] calls it: the
/// operands go unpacked, as slices and strides — a [`Strided`] passed by
/// value through the pointer travels by reference, which cost the
/// latency-bound one-row tiles ≈ 20 %.
type RegisterTile<B> =
    fn(&[f32], usize, &[B], usize, usize, usize, usize, usize, &mut [f32], usize);

/// The [`register_tile`] instance for a tile of `rows ≤ SR` rows.
fn tile_for<const TA: bool, const NARROW: bool, B: Widen>(rows: usize) -> RegisterTile<B> {
    match rows {
        1 => register_tile::<1, TA, NARROW, B>,
        2 => register_tile::<2, TA, NARROW, B>,
        3 => register_tile::<3, TA, NARROW, B>,
        4 => register_tile::<4, TA, NARROW, B>,
        5 => register_tile::<5, TA, NARROW, B>,
        _ => register_tile::<SR, TA, NARROW, B>,
    }
}

/// One `R`-row × `SN`-column tile of [`tiles`] at output `(i0,
/// j0)`, over `k` steps, `A` and `B` with row strides `lda` and `ldb`.
/// Each `B` segment is widened once for the tile's `R` rows.
///
/// `NARROW` is the tile of an output narrower than `SN` (`m < SN`, `j0`
/// 0): its segment at step `kk` is the `SN` values from `B`'s row `kk`
/// on — the live `m` and then whatever follows them in the buffer, the
/// next row's first values, which only feed lanes that are never stored —
/// and only the last rows, whose run would pass the buffer's end, are
/// copied short and zero-padded.
#[allow(clippy::too_many_arguments)]
fn register_tile<const R: usize, const TA: bool, const NARROW: bool, B: Widen>(
    a: &[f32],
    lda: usize,
    b: &[B],
    ldb: usize,
    k: usize,
    m: usize,
    i0: usize,
    j0: usize,
    out: &mut [f32],
    ldc: usize,
) {
    // `A` as it lies: `R` rows of the `n×k` operand, or — `TA` — one
    // `R`-long run in each row of the `k×n` one.
    let arows: [&[f32]; R] = std::array::from_fn(|r| {
        if TA {
            &a[..0]
        } else {
            &a[(i0 + r) * lda..][..k]
        }
    });
    let w = if NARROW { m } else { SN };
    let mut acc = [[0.0f32; SN]; R];
    // The rows of `B` that lie whole in its buffer, then the rest: all of
    // a narrow tile's (its runs pass the row's end), and the last row of a
    // column window of a wider matrix, which ends at its `m`-th value.
    let whole = if NARROW {
        0
    } else if k * ldb <= b.len() {
        k
    } else {
        k - 1
    };
    for (kk, brow) in b[..whole * ldb].chunks_exact(ldb.max(1)).enumerate() {
        let seg = widen_segment(&brow[j0..j0 + SN]);
        fold_step::<R, TA>(&mut acc, &seg, a, lda, &arows, i0, kk);
    }
    for kk in whole..k {
        let at = kk * ldb + j0;
        let seg = match b.get(at..at + SN) {
            Some(run) => widen_segment(run),
            None => widen_segment(&b[at..at + w]),
        };
        fold_step::<R, TA>(&mut acc, &seg, a, lda, &arows, i0, kk);
    }
    for (r, accr) in acc.iter().enumerate() {
        let o = (i0 + r) * ldc + j0;
        out[o..o + w].copy_from_slice(&accr[..w]);
    }
}

/// Up to `SN` values of a `B` row as `f32`, zero past the run's end.
#[inline(always)]
fn widen_segment<B: Widen>(run: &[B]) -> [f32; SN] {
    let mut seg = [0.0f32; SN];
    for (s, &bv) in seg.iter_mut().zip(run) {
        *s = bv.widen();
    }
    seg
}

/// Step `kk` of [`register_tile`]'s fold: every row's accumulators advance
/// by its `A` value times the segment.
#[inline(always)]
fn fold_step<const R: usize, const TA: bool>(
    acc: &mut [[f32; SN]; R],
    seg: &[f32; SN],
    a: &[f32],
    lda: usize,
    arows: &[&[f32]; R],
    i0: usize,
    kk: usize,
) {
    if TA {
        let acol = &a[kk * lda + i0..][..R];
        for (accr, &av) in acc.iter_mut().zip(acol) {
            for j in 0..SN {
                accr[j] = fmadd(av, seg[j], accr[j]);
            }
        }
    } else {
        for (accr, arow) in acc.iter_mut().zip(arows) {
            let av = arow[kk];
            for j in 0..SN {
                accr[j] = fmadd(av, seg[j], accr[j]);
            }
        }
    }
}

/// Reference `A · Bᵀ` where `a` is `n×k` and `b` is `m×k`, in canonical
/// accumulation order (ascending `k` per element).
pub fn naive_nt(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * m..(i + 1) * m];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut s = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                s = fmadd(av, bv, s);
            }
            *o = s;
        }
    }
    out
}

/// Reference `Aᵀ · B` where `a` is `k×n` and `b` is `k×m`, in canonical
/// accumulation order (ascending `k` per element).
pub fn naive_tn(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    for kk in 0..k {
        let arow = &a[kk * n..(kk + 1) * n];
        let brow = &b[kk * m..(kk + 1) * m];
        for (i, &av) in arow.iter().enumerate() {
            let orow = &mut out[i * m..(i + 1) * m];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = fmadd(av, bv, *o);
            }
        }
    }
    out
}

thread_local! {
    /// The transposed operand of [`gemm_nt`], reused by every call on the
    /// thread: a backward pass runs one `A·Bᵀ` per matmul node, and none
    /// of them allocates a transpose.
    static TRANSPOSED: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` on the `cols×rows` transpose of the `rows×cols` row-major `x`,
/// built in the thread's [`TRANSPOSED`] scratch. Four source rows are
/// swept together, so the transpose stores one 4-wide segment per column
/// instead of four scattered scalars.
fn with_transposed<T>(x: &[f32], rows: usize, cols: usize, f: impl FnOnce(&[f32]) -> T) -> T {
    TRANSPOSED.with(|t| {
        let mut t = t.borrow_mut();
        // Every element is written below, so what the buffer held is moot.
        t.resize(rows * cols, 0.0);
        let mut quads = x.chunks_exact(4 * cols.max(1));
        let mut r0 = 0;
        for quad in &mut quads {
            let (x0, rest) = quad.split_at(cols);
            let (x1, rest) = rest.split_at(cols);
            let (x2, x3) = rest.split_at(cols);
            for (c, (((&a, &b), &cc), &d)) in x0.iter().zip(x1).zip(x2).zip(x3).enumerate() {
                t[c * rows + r0..c * rows + r0 + 4].copy_from_slice(&[a, b, cc, d]);
            }
            r0 += 4;
        }
        for (r, row) in quads.remainder().chunks_exact(cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                t[c * rows + r0 + r] = v;
            }
        }
        f(&t)
    })
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// `n×k · k×m` product on the register tile.
pub fn gemm(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    counted_tiles::<false>(a, b, n, k, m, &mut out);
    out
}

/// [`gemm`] written into a caller-owned `n·m` buffer (overwritten): the
/// same counter and per-element fold, with no output allocation. The
/// tape-free decode step runs its projections through this into
/// per-decode scratch.
pub fn gemm_into(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_eq!(out.len(), n * m, "gemm_into output must hold n·m values");
    counted_tiles::<false>(a, b, n, k, m, out);
}

/// `A · Bᵀ` (`a` is `n×k`, `b` is `m×k`).
///
/// Transposes `b` once into a per-thread scratch (O(k·m), no allocation)
/// and is [`gemm`] from there: the ascending-`k` fold of [`naive_nt`] per
/// element.
pub fn gemm_nt(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    with_transposed(&b[..m * k], m, k, |bt| gemm(a, bt, n, k, m))
}

/// `Aᵀ · B` (`a` is `k×n`, `b` is `k×m`).
///
/// The register tile of [`gemm`] straight over `a` as it lies — the `R`
/// values a tile needs at step `kk` are contiguous in row `kk` of a `k×n`
/// operand — so nothing is transposed: the ascending-`k` fold of
/// [`naive_tn`] per element.
pub fn gemm_tn(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    counted_tiles::<true>(a, b, n, k, m, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((i + seed) * 2654435761) % 2000) as f32 * 1e-3 - 1.0)
            .collect()
    }

    fn assert_bitwise(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn gemm_matches_naive_bitwise_on_awkward_shapes() {
        for &(n, k, m) in &[
            (1, 7, 9),
            (4, 32, 32),
            (5, 33, 31),
            (37, 300, 65),
            (130, 17, 257),
            (3, 512, 2),
        ] {
            let a = fill(n * k, 1);
            let b = fill(k * m, 2);
            assert_bitwise(&naive(&a, &b, n, k, m), &gemm(&a, &b, n, k, m));
        }
    }

    #[test]
    fn small_product_tile_matches_naive_bitwise() {
        // Every row-tile height (1..=SR, then a second tile), exact and
        // ragged tile widths, and the narrower-than-a-tile fallback.
        for n in 1..=2 * SR + 1 {
            for &(k, m) in &[(48, SN), (48, SN + 1), (7, 3 * SN), (96, 130), (33, SN - 1)] {
                let a = fill(n * k, 14);
                let b = fill(k * m, 15);
                let mut out = vec![0.0f32; n * m];
                counted_tiles::<false>(&a, &b, n, k, m, &mut out);
                assert_bitwise(&naive(&a, &b, n, k, m), &out);
            }
        }
    }

    /// The strided entries against the references over contiguous copies
    /// of the same windows: `A` and `B` column ranges of wider buffers
    /// (the narrow tile's over-read then runs into the next row's values,
    /// and past the buffer's end on the last row), the output a window of
    /// a wider buffer whose other elements must survive.
    #[test]
    fn strided_tiles_match_the_references_on_windows_of_wider_buffers() {
        let window = |x: &[f32], rows: usize, cols: usize, ld: usize| -> Vec<f32> {
            (0..rows)
                .flat_map(|r| x[r * ld..r * ld + cols].to_vec())
                .collect()
        };
        for n in 1..=2 * SR + 1 {
            for k in [1, 12, 20] {
                for m in [1, 5, 12, 15, 16, 17, 20, 33] {
                    let (lda, ldb, ldc) = (k + 7, m + 3, m + 5);
                    // Offsets put each window past the first columns of its buffer.
                    let a = fill(3 + n.max(k) * lda, n + k);
                    let b = fill(2 + k.max(n) * ldb, m);
                    // `B`'s buffer ends at its last row's `m`-th value, as a
                    // column window of a wider matrix does.
                    let (a_win, b_win) = (&a[3..], &b[2..2 + (k - 1) * ldb + m]);
                    let check = |got: &[f32], want: Vec<f32>, form: &str| {
                        for (i, row) in got.chunks(ldc).enumerate() {
                            for (j, &x) in row.iter().enumerate() {
                                let expect = if i < n && j < m { want[i * m + j] } else { 7.5 };
                                assert_eq!(
                                    x.to_bits(),
                                    expect.to_bits(),
                                    "{form} n {n} k {k} m {m}: ({i}, {j})"
                                );
                            }
                        }
                    };
                    let mut out = vec![7.5f32; n * ldc + 4];
                    tile_gemm(
                        Strided::new(a_win, lda),
                        Strided::new(b_win, ldb),
                        n,
                        k,
                        m,
                        &mut out,
                        ldc,
                    );
                    let want = naive(
                        &window(a_win, n, k, lda),
                        &window(b_win, k, m, ldb),
                        n,
                        k,
                        m,
                    );
                    check(&out, want, "A.B");
                    let mut out = vec![7.5f32; n * ldc + 4];
                    tile_gemm_tn(
                        Strided::new(a_win, lda),
                        Strided::new(b_win, ldb),
                        n,
                        k,
                        m,
                        &mut out,
                        ldc,
                    );
                    let at = window(a_win, k, n, lda);
                    check(
                        &out,
                        naive_tn(&at, &window(b_win, k, m, ldb), n, k, m),
                        "At.B",
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes_are_empty_or_zero() {
        assert!(gemm(&[], &[], 0, 0, 0).is_empty());
        assert!(gemm(&[], &fill(5, 1), 0, 1, 5).is_empty());
        assert!(gemm(&fill(5, 1), &[], 5, 1, 0).is_empty());
        // k == 0: the product is a zero matrix, not an empty one.
        assert_eq!(gemm(&[], &[], 3, 0, 4), vec![0.0; 12]);
    }

    #[test]
    fn nt_and_tn_match_their_references() {
        let (n, k, m) = (70, 96, 110); // several row and column tiles
        let a = fill(n * k, 5);
        let bt = fill(m * k, 6); // m×k
        let want_nt = naive_nt(&a, &bt, n, k, m);
        assert_bitwise(&want_nt, &gemm_nt(&a, &bt, n, k, m));

        let at = fill(k * n, 7); // k×n
        let b = fill(k * m, 8);
        let want_tn = naive_tn(&at, &b, n, k, m);
        assert_bitwise(&want_tn, &gemm_tn(&at, &b, n, k, m));
    }

    #[test]
    fn gemm_into_overwrites_with_the_same_bits_on_every_path() {
        // Decode-step and training shapes; stale buffer contents must not
        // leak into the product.
        for &(n, k, m) in &[(1, 48, 48), (5, 48, 130), (8, 96, 48), (64, 64, 64)] {
            let a = fill(n * k, 12);
            let b = fill(k * m, 13);
            let mut out = vec![7.5f32; n * m];
            let before = counters();
            gemm_into(&a, &b, n, k, m, &mut out);
            assert!(counters().serial > before.serial, "gemm_into is counted");
            assert_bitwise(&gemm(&a, &b, n, k, m), &out);
        }
    }

    #[test]
    fn counters_move() {
        let before = counters();
        let a = fill(16, 9);
        let b = fill(16, 10);
        let _ = gemm(&a, &b, 4, 4, 4);
        let after = counters();
        assert!(after.serial > before.serial);
    }
}
