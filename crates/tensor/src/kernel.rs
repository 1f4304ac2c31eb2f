//! Cache-blocked GEMM kernels behind `Tensor::matmul{,_nt,_tn}`.
//!
//! ## Blocking scheme
//!
//! The blocked kernel is BLIS-shaped: `B` is packed once into NR-wide
//! column panels (panel-major, row-major inside a panel, zero-padded on
//! the right edge), split into KC-deep slabs along `k`. The micro-kernel
//! then computes an MR×NR register tile per call, reading MR contiguous
//! unpacked rows of `A` and one packed panel of `B`; the inner loops are
//! written as exact-size slice iteration so the autovectorizer emits
//! branch-free FMA lanes. Row tiles are grouped MC at a time so the
//! active slice of `A` stays L2-resident across panels.
//!
//! Whatever is not a full MR×NR tile — the last rows of a row count that
//! is not a multiple of MR, and the right-edge panel of a column count
//! that is not a multiple of NR — runs through the same loop
//! instantiated for its own row and lane counts (`micro_tile::<R, L>`,
//! lanes in steps of 8), so it is a register tile too, not a scalar
//! remainder loop. The model's widths are mostly edge: `d_model` 48 is
//! one full panel and a 16-lane edge. An edge of at most NR/2 lanes is
//! swept 2·MR rows at a time — the same register budget as the full
//! tile, and enough independent accumulator chains to keep the FMA units
//! busy. The kernel packs `B` into a per-thread buffer it reuses,
//! so a blocked product allocates nothing but its output.
//!
//! ## Determinism
//!
//! Every path of every product form (`A·B`, `A·Bᵀ`, `Aᵀ·B`) — the naive
//! references, the small-product tile and the blocked kernel — computes
//! each output element as the *same* fold: `acc = fmadd(a[i][kk],
//! b[kk][j], acc)` over ascending `kk` with a single accumulator. KC
//! slabs do not reorder `k`; spilling a partial accumulator to memory and
//! reloading it does not change an `f32`. The blocked kernel and the tile
//! are therefore **bitwise identical** to [`naive`] — property-tested in
//! `tests/gemm_equivalence.rs`.
//!
//! [`fmadd`] is compiled as fused `mul_add` only when the target has a
//! hardware FMA unit (see `.cargo/config.toml`), so a given build is
//! internally consistent; builds for different targets may round
//! differently, as with any float kernel.
//!
//! ## Threshold policy
//!
//! [`select`] keeps small products (decode-time B×d tiles, tiny
//! training tiles) on the [`KernelPath::Naive`] path: no packing — an
//! unpacked register tile over `B` as it lies in memory, so the only
//! overhead is the call itself. The tile is generic over `B`'s element
//! ([`Widen`]): int8 weights ([`crate::qi8`]) are read through the same
//! code, widened to `f32` on load. The transposed forms of a
//! backward pass run the same tile: [`gemm_tn`] reads its `k×n` operand
//! where it lies, [`gemm_nt`] transposes `B` once into a per-thread
//! scratch and is [`gemm`] from there. Attention's per-head products run
//! it too, uncounted, over operands that are column ranges of wider
//! buffers ([`tile_gemm`], [`Strided`]). Every larger product runs the
//! blocked kernel. Every product runs on the calling thread: the
//! recommender's products are beam rows or one training example against
//! `d_model` 48, and none is large enough for a second thread to repay
//! its hand-off.

use std::sync::Arc;

/// Rows per register tile.
const MR: usize = 4;
/// Columns per packed panel (and per register tile).
const NR: usize = 32;
/// Depth of a packed slab along `k`.
const KC: usize = 256;
/// Row-block size keeping the active `A` slice cache-resident.
const MC: usize = 128;

/// Products with fewer than this many flops (`2·n·k·m`) stay on the
/// naive kernel: packing B costs more than it saves.
const NAIVE_MAX_FLOPS: usize = 1 << 17;

/// Per-path dispatch counters in the process-wide observability
/// registry, one per size class — the split that tuning the
/// `NAIVE_MAX_FLOPS` threshold needs. [`counters`] folds both into
/// `serial`.
struct DispatchCounters {
    naive: Arc<qrec_obs::Counter>,
    blocked: Arc<qrec_obs::Counter>,
}

fn dispatch() -> &'static DispatchCounters {
    static D: std::sync::OnceLock<DispatchCounters> = std::sync::OnceLock::new();
    D.get_or_init(|| DispatchCounters {
        naive: qrec_obs::global().counter("tensor.gemm.naive"),
        blocked: qrec_obs::global().counter("tensor.gemm.blocked"),
    })
}

/// Process-wide GEMM dispatch counters, for serving metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Every call: each runs on the calling thread (naive or blocked path).
    pub serial: u64,
    /// Always 0 — no product leaves the calling thread. Kept because the
    /// end-to-end benchmark reads it.
    pub parallel: u64,
}

/// Snapshot the dispatch counters (monotonic since process start).
pub fn counters() -> KernelCounters {
    let d = dispatch();
    KernelCounters {
        serial: d.naive.get() + d.blocked.get(),
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
// Path selection
// ---------------------------------------------------------------------

/// The execution path [`gemm`] takes for an `n×k · k×m` product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Small product: no packing, zero set-up cost — the unpacked
    /// register tile.
    Naive,
    /// Every larger product: the packed blocked kernel.
    Blocked,
}

/// Pick the kernel path for an `n×k · k×m` product.
///
/// Pure and deterministic: the same shape always selects the same path,
/// and both paths produce bitwise-identical output, so selection is a
/// pure performance decision.
pub fn select(n: usize, k: usize, m: usize) -> KernelPath {
    let flops = 2usize.saturating_mul(n).saturating_mul(k).saturating_mul(m);
    if n < MR || flops < NAIVE_MAX_FLOPS {
        KernelPath::Naive
    } else {
        KernelPath::Blocked
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

/// Rows per register tile of [`small_tiles`].
const SR: usize = 6;
/// Columns per register tile of [`small_tiles`].
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

/// The counted small-product dispatch arm of all three f32 product
/// forms: [`small_tiles`] over an f32 `B`, all three operands contiguous.
fn small_acc<const TA: bool>(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    dispatch().naive.inc();
    let lda = if TA { n } else { k };
    small_tiles::<TA, f32>(Strided::new(a, lda), Strided::new(b, m), n, k, m, out, m);
}

/// `A·B` on the small-product register tile, where `a` is `n×k`, `b` is
/// `k×m` and the output `n×m` (overwritten) lies in `out` with row stride
/// `ldc`: the per-head products of attention, whose operands are column
/// ranges and interleaved rows of wider buffers. Every element is the
/// fold of [`naive`]. Not a dispatched GEMM: the counters behind
/// [`counters`] see the model's projections only.
pub fn tile_gemm(
    a: Strided<'_>,
    b: Strided<'_>,
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    ldc: usize,
) {
    small_tiles::<false, f32>(a, b, n, k, m, out, ldc);
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
    small_tiles::<true, f32>(a, b, n, k, m, out, ldc);
}

/// The small-product kernel, of f32 weights and — the whole of
/// [`crate::qi8::qgemm_into`] — of int8 ones: the canonical fold of
/// [`naive`] over `B`'s elements widened to `f32`, with the accumulators
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
pub(crate) fn small_tiles<const TA: bool, B: Widen>(
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

/// A [`small_tile`] of one shape, as [`small_tiles`] calls it: the
/// operands go unpacked, as slices and strides — a [`Strided`] passed by
/// value through the pointer travels by reference, which cost the
/// latency-bound one-row tiles ≈ 20 %.
type SmallTile<B> = fn(&[f32], usize, &[B], usize, usize, usize, usize, usize, &mut [f32], usize);

/// The [`small_tile`] instance for a tile of `rows ≤ SR` rows.
fn tile_for<const TA: bool, const NARROW: bool, B: Widen>(rows: usize) -> SmallTile<B> {
    match rows {
        1 => small_tile::<1, TA, NARROW, B>,
        2 => small_tile::<2, TA, NARROW, B>,
        3 => small_tile::<3, TA, NARROW, B>,
        4 => small_tile::<4, TA, NARROW, B>,
        5 => small_tile::<5, TA, NARROW, B>,
        _ => small_tile::<SR, TA, NARROW, B>,
    }
}

/// One `R`-row × `SN`-column tile of [`small_tiles`] at output `(i0,
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
fn small_tile<const R: usize, const TA: bool, const NARROW: bool, B: Widen>(
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

/// Step `kk` of [`small_tile`]'s fold: every row's accumulators advance
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
    /// The transposed operand of [`gemm_nt`] / [`gemm_tn`], reused by
    /// every call on the thread like [`PACKED`]: a backward pass runs one
    /// `A·Bᵀ` per matmul node, and none of them allocates a transpose.
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

/// `n×k · k×m` product with automatic path selection.
pub fn gemm(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    gemm_acc(a, b, n, k, m, &mut out);
    out
}

/// [`gemm`] written into a caller-owned `n·m` buffer (overwritten): the
/// same path selection, dispatch counters and per-element fold, with no
/// output allocation. The tape-free decode step runs its projections
/// through this into per-decode scratch.
pub fn gemm_into(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_eq!(out.len(), n * m, "gemm_into output must hold n·m values");
    out.fill(0.0);
    gemm_acc(a, b, n, k, m, out);
}

/// Path selection shared by [`gemm`] and [`gemm_into`]; `out` is zeroed.
fn gemm_acc(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    match select(n, k, m) {
        KernelPath::Naive => small_acc::<false>(a, b, n, k, m, out),
        KernelPath::Blocked => blocked_acc(a, b, n, k, m, out),
    }
}

/// `A · Bᵀ` (`a` is `n×k`, `b` is `m×k`) with automatic path selection.
///
/// Transposes `b` once into a per-thread scratch (O(k·m), no allocation)
/// and is [`gemm`] from there: the small-product register tile under
/// `NAIVE_MAX_FLOPS`, the blocked kernel above it. Every path computes
/// the ascending-`k` fold of [`naive_nt`] per element.
pub fn gemm_nt(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    with_transposed(&b[..m * k], m, k, |bt| gemm(a, bt, n, k, m))
}

/// `Aᵀ · B` (`a` is `k×n`, `b` is `k×m`) with automatic path selection.
///
/// Small products run the register tile of [`gemm`] straight over `a` as
/// it lies — the `R` values a tile needs at step `kk` are contiguous in
/// row `kk` of a `k×n` operand — so nothing is transposed; large ones
/// transpose `a` into the per-thread scratch and reuse the blocked
/// kernel. Every path computes the ascending-`k` fold of [`naive_tn`]
/// per element.
pub fn gemm_tn(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    if select(n, k, m) == KernelPath::Naive {
        small_acc::<true>(a, b, n, k, m, &mut out);
    } else {
        with_transposed(&a[..k * n], k, n, |at| {
            blocked_acc(at, b, n, k, m, &mut out)
        });
    }
    out
}

/// The counted blocked dispatch arm; `out` is zeroed.
fn blocked_acc(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    dispatch().blocked.inc();
    PACKED.with(|pb| {
        let mut pb = pb.borrow_mut();
        pb.pack(b, k, m);
        blocked_rows(a, &pb, k, m, 0, n, out);
    });
}

/// Blocked kernel on any shape, bypassing the shape threshold: pack `B`
/// once, run every row.
pub fn blocked(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    blocked_acc(a, b, n, k, m, &mut out);
    out
}

/// The small-product register tile on any shape, bypassing the shape
/// thresholds: what `bench_tensor` holds the blocked kernel's narrow
/// shapes against, and the equivalence suite pins to [`naive`].
pub fn small(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    small_acc::<false>(a, b, n, k, m, &mut out);
    out
}

// ---------------------------------------------------------------------
// Packed-B layout
// ---------------------------------------------------------------------

/// `B` repacked into NR-wide panels per KC slab: slab-major, panel-major
/// inside a slab, row-major inside a panel, right edge zero-padded to NR.
#[derive(Default)]
struct PackedB {
    data: Vec<f32>,
}

impl PackedB {
    /// Repack `b` (`k×m`) into this buffer, reusing its allocation.
    fn pack(&mut self, b: &[f32], k: usize, m: usize) {
        // Every lane is written below — live columns copied, the edge
        // panel's padding zeroed — so what a reused buffer held is moot.
        self.data.resize(k * m.div_ceil(NR) * NR, 0.0);
        let mut rows = self.data.chunks_exact_mut(NR);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            for j0 in (0..m).step_by(NR) {
                let w = NR.min(m - j0);
                for (r, dst) in (k0..k0 + kc).zip(&mut rows) {
                    dst[..w].copy_from_slice(&b[r * m + j0..r * m + j0 + w]);
                    dst[w..].fill(0.0);
                }
            }
        }
    }

    /// The KC slabs in ascending-`k` order: each slab's first `k` index,
    /// its depth, and its `npanels` panels of `depth × NR` values.
    fn slabs(&self, k: usize, m: usize) -> impl Iterator<Item = (usize, usize, &[f32])> {
        let row = m.div_ceil(NR) * NR;
        (0..k).step_by(KC).map(move |k0| {
            let kc = KC.min(k - k0);
            (k0, kc, &self.data[k0 * row..(k0 + kc) * row])
        })
    }
}

thread_local! {
    /// The blocked path's packed `B`, reused by every call on the
    /// thread: a blocked product allocates nothing but its output, so a
    /// caller that runs many of them at a stable shape — a training step,
    /// an encoder pass over a long source — does not pay (or count) a
    /// buffer per product. Holds the largest `B` the thread has packed.
    static PACKED: std::cell::RefCell<PackedB> = std::cell::RefCell::default();
}

// ---------------------------------------------------------------------
// Blocked kernel core
// ---------------------------------------------------------------------

/// Compute output rows `r0..r1` into `out` (which holds exactly
/// `(r1-r0)*m` elements, locally indexed from `r0`).
///
/// KC slabs run in ascending-`k` order, and row grouping (MC blocks, MR
/// tiles) never mixes rows arithmetically, so each element is the fold of
/// [`naive`]. The one caller passes the whole range `0..n`; the range
/// stays a parameter because folding it away compiled the kernel ≈ 13 %
/// slower at `48×48×48`.
fn blocked_rows(
    a: &[f32],
    pb: &PackedB,
    k: usize,
    m: usize,
    r0: usize,
    r1: usize,
    out: &mut [f32],
) {
    // Full-width panels first, MR rows at a time; then the right-edge
    // panel, if `m` leaves one, in its own sweep over the same rows.
    let full_panels = m / NR;
    let (edge_j0, edge_w) = (full_panels * NR, m % NR);
    let edge_rows = edge_tile_rows(edge_w);
    for (k0, kc, slab) in pb.slabs(k, m) {
        let panel = |p: usize| &slab[p * kc * NR..(p + 1) * kc * NR];
        let mut ii = r0;
        while ii < r1 {
            let mc = MC.min(r1 - ii);
            for i in (0..mc).step_by(MR) {
                let (i0, mr) = (ii + i, MR.min(mc - i));
                for p in 0..full_panels {
                    if mr == MR {
                        micro_full(a, panel(p), out, i0, r0, k0, kc, k, m, p * NR);
                    } else {
                        micro_for(mr, NR)(a, panel(p), out, i0, r0, k0, k, m, p * NR, NR);
                    }
                }
            }
            if edge_w > 0 {
                let bp = panel(full_panels);
                for i in (0..mc).step_by(edge_rows) {
                    let rows = edge_rows.min(mc - i);
                    let micro = micro_for(rows, edge_w);
                    micro(a, bp, out, ii + i, r0, k0, k, m, edge_j0, edge_w);
                }
            }
            ii += MC;
        }
    }
}

/// Rows per register tile on a right-edge panel of `w` live columns. A
/// tile of MR rows over at most 16 lanes is MR accumulator chains —
/// fewer than the FMA units can keep in flight, so it runs at the latency
/// of the chain, not the throughput of the units; twice the rows at half
/// the lanes is the same register budget and twice the chains.
fn edge_tile_rows(w: usize) -> usize {
    if w <= NR / 2 {
        2 * MR
    } else {
        MR
    }
}

/// A [`micro_tile`] of one shape, as [`blocked_rows`] calls it.
type MicroTile = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, usize, usize, usize, usize);

/// The [`micro_tile`] instance for `rows ≤ 2·MR` rows and `w ≤ NR` live
/// columns: lanes are `w` rounded up to the next multiple of 8.
fn micro_for(rows: usize, w: usize) -> MicroTile {
    fn lanes_for<const R: usize>(w: usize) -> MicroTile {
        match w.div_ceil(8) {
            1 => micro_tile::<R, 8>,
            2 => micro_tile::<R, 16>,
            3 => micro_tile::<R, 24>,
            _ => micro_tile::<R, NR>,
        }
    }
    match rows {
        1 => lanes_for::<1>(w),
        2 => lanes_for::<2>(w),
        3 => lanes_for::<3>(w),
        4 => lanes_for::<4>(w),
        5 => lanes_for::<5>(w),
        6 => lanes_for::<6>(w),
        7 => lanes_for::<7>(w),
        _ => lanes_for::<8>(w),
    }
}

/// Full MR×NR register tile. `A` rows are read as contiguous unpacked
/// slices; the `chunks_exact`/`zip` iteration proves every bound to the
/// compiler so the inner lanes compile branch-free.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_full(
    a: &[f32],
    bp: &[f32],
    out: &mut [f32],
    i0: usize,
    r0: usize,
    kk: usize,
    kc: usize,
    k: usize,
    m: usize,
    j0: usize,
) {
    let o0 = (i0 - r0) * m + j0;
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate() {
        accr.copy_from_slice(&out[o0 + r * m..o0 + r * m + NR]);
    }
    let [acc0, acc1, acc2, acc3] = &mut acc;
    let a0 = &a[i0 * k + kk..i0 * k + kk + kc];
    let a1 = &a[(i0 + 1) * k + kk..(i0 + 1) * k + kk + kc];
    let a2 = &a[(i0 + 2) * k + kk..(i0 + 2) * k + kk + kc];
    let a3 = &a[(i0 + 3) * k + kk..(i0 + 3) * k + kk + kc];
    for ((((brow, &v0), &v1), &v2), &v3) in bp.chunks_exact(NR).zip(a0).zip(a1).zip(a2).zip(a3) {
        for j in 0..NR {
            acc0[j] = fmadd(v0, brow[j], acc0[j]);
        }
        for j in 0..NR {
            acc1[j] = fmadd(v1, brow[j], acc1[j]);
        }
        for j in 0..NR {
            acc2[j] = fmadd(v2, brow[j], acc2[j]);
        }
        for j in 0..NR {
            acc3[j] = fmadd(v3, brow[j], acc3[j]);
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out[o0 + r * m..o0 + r * m + NR].copy_from_slice(accr);
    }
}

/// Every tile that is not the full MR×NR one — a short last row tile, a
/// right-edge panel, or both: `R` rows of `A`, read as contiguous
/// unpacked slices, against the first `L ≤ NR` lanes of each row of one
/// packed panel slab, of which `w ≤ L` are live columns. Row count and
/// lane count are compile-time, as in [`small_tile`], so the
/// accumulators stay in registers and the lanes compile branch-free: a
/// 48-column product is one full panel and a 16-lane edge, not one full
/// panel and a scalar loop. Lanes past `w` multiply the panel's zero
/// padding and are never stored, so they cannot leak.
#[allow(clippy::too_many_arguments)]
fn micro_tile<const R: usize, const L: usize>(
    a: &[f32],
    bp: &[f32],
    out: &mut [f32],
    i0: usize,
    r0: usize,
    kk: usize,
    k: usize,
    m: usize,
    j0: usize,
    w: usize,
) {
    let o0 = (i0 - r0) * m + j0;
    let kc = bp.len() / NR;
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k + kk..(i0 + r) * k + kk + kc]);
    let mut acc = [[0.0f32; L]; R];
    for (r, accr) in acc.iter_mut().enumerate() {
        accr[..w].copy_from_slice(&out[o0 + r * m..o0 + r * m + w]);
    }
    for (kr, brow) in bp.chunks_exact(NR).enumerate() {
        let lanes = &brow[..L];
        for (accr, arow) in acc.iter_mut().zip(&arows) {
            let av = arow[kr];
            for j in 0..L {
                accr[j] = fmadd(av, lanes[j], accr[j]);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out[o0 + r * m..o0 + r * m + w].copy_from_slice(&accr[..w]);
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

    fn assert_bitwise(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_bitwise_on_awkward_shapes() {
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
            assert_bitwise(&naive(&a, &b, n, k, m), &blocked(&a, &b, n, k, m));
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
                small_acc::<false>(&a, &b, n, k, m, &mut out);
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
        assert!(blocked(&[], &[], 0, 0, 0).is_empty());
        assert!(blocked(&[], &fill(5, 1), 0, 1, 5).is_empty());
        assert!(blocked(&fill(5, 1), &[], 5, 1, 0).is_empty());
        // k == 0: the product is a zero matrix, not an empty one.
        assert_eq!(blocked(&[], &[], 3, 0, 4), vec![0.0; 12]);
    }

    #[test]
    fn nt_and_tn_match_their_references() {
        let (n, k, m) = (70, 96, 110); // big enough to take the transpose path
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
    fn select_keeps_decode_vectors_on_the_tile() {
        assert_eq!(select(1, 48, 4096), KernelPath::Naive);
        assert_eq!(select(1, 512, 512), KernelPath::Naive);
        assert_eq!(select(2, 16, 16), KernelPath::Naive);
    }

    #[test]
    fn select_blocks_everything_larger() {
        assert_eq!(select(64, 64, 64), KernelPath::Blocked);
        assert_eq!(select(512, 512, 512), KernelPath::Blocked);
    }

    #[test]
    fn gemm_into_overwrites_with_the_same_bits_on_every_path() {
        // Naive (decode-step) and blocked shapes; stale buffer contents
        // must not leak into the product.
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

    #[test]
    fn dispatch_counters_track_size_classes() {
        let read = |name: &str| qrec_obs::global().snapshot().counter(name).unwrap_or(0);
        let naive0 = read("tensor.gemm.naive");
        let blocked0 = read("tensor.gemm.blocked");
        // 4×4·4×4 is far below NAIVE_MAX_FLOPS; 64×64·64×64 is above it,
        // so it lands on the blocked path.
        let _ = gemm(&fill(16, 9), &fill(16, 10), 4, 4, 4);
        let a = fill(64 * 64, 11);
        let _ = gemm(&a, &a, 64, 64, 64);
        assert!(read("tensor.gemm.naive") > naive0);
        assert!(read("tensor.gemm.blocked") > blocked0);
    }
}
