//! A dense, row-major, 2-D `f32` tensor.
//!
//! Everything in the `qrec` neural substrate is expressed over matrices:
//! a token sequence of length `n` with model dimension `d` is an `n × d`
//! tensor, a scalar is `1 × 1`, a vector is `1 × d`. Keeping the type 2-D
//! keeps every op simple, testable, and cache-friendly.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from raw data. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// All-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All-one tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor::full(rows, cols, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// A `1 × 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(1, 1, vec![value])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice, row-major.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice, row-major.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw data vector.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The value of a `1 × 1` tensor. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data.first().copied().unwrap_or_default()
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow one row mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    // ------------------------------------------------------------------
    // Elementwise ops
    // ------------------------------------------------------------------

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combine with another tensor of the same shape.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other);
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scale by a constant.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += c * other` (axpy).
    pub fn add_scaled_assign(&mut self, other: &Tensor, c: f32) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += c * b;
        }
    }

    /// In-place zero fill (reuse allocation).
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `self · other` with shapes `(n,k) · (k,m) -> (n,m)`.
    ///
    /// Dispatches to the cache-blocked (and, for large products,
    /// pool-parallel) kernel in [`crate::kernel`]; every path is bitwise
    /// deterministic regardless of thread count.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        Tensor {
            rows: n,
            cols: m,
            data: crate::kernel::gemm(&self.data, &other.data, n, k, m),
        }
    }

    /// Matrix product `self · otherᵀ` with shapes `(n,k) · (m,k) -> (n,m)`.
    ///
    /// `other` is transposed once into a per-thread scratch and the
    /// product runs the kernel of [`Tensor::matmul`]. See
    /// [`crate::kernel::gemm_nt`].
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        Tensor {
            rows: n,
            cols: m,
            data: crate::kernel::gemm_nt(&self.data, &other.data, n, k, m),
        }
    }

    /// Matrix product `selfᵀ · other` with shapes `(k,n) · (k,m) -> (n,m)`.
    ///
    /// Used in backward passes (`∂W = Xᵀ · ∂Y`). See
    /// [`crate::kernel::gemm_tn`].
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, n, m) = (self.rows, self.cols, other.cols);
        Tensor {
            rows: n,
            cols: m,
            data: crate::kernel::gemm_tn(&self.data, &other.data, n, k, m),
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = vec![0.0f32; self.data.len()];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        Tensor {
            rows: self.cols,
            cols: self.rows,
            data: out,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sum: `(n,d) -> (1,d)`.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        Tensor {
            rows: 1,
            cols: self.cols,
            data: out,
        }
    }

    /// Row-wise softmax, numerically stabilised.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        softmax_rows_in_place(&mut out.data, self.cols);
        out
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// The index of the maximum element of a row.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Vertically stack rows of `self` and `other` (same column count).
    pub fn vcat(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "vcat column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Tensor {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontally concatenate columns (same row count).
    pub fn hcat(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Tensor {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Copy of rows `range.start .. range.end`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.rows, "slice_rows out of range");
        Tensor {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Append one row in place (grow a `t × d` cache tensor to
    /// `(t+1) × d` without reallocating the prefix). The incremental
    /// decoder appends one K/V row per step this way.
    pub fn append_row(&mut self, row: &[f32]) {
        assert_eq!(
            row.len(),
            self.cols,
            "append_row width mismatch: row has {} values, tensor has {} columns",
            row.len(),
            self.cols
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Gather rows by index: row `i` of the result is `self.row(idx[i])`.
    /// Indices may repeat (beam search spawns several hypotheses from one
    /// parent) and the result may have more or fewer rows than `self`.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &r in idx {
            assert!(
                r < self.rows,
                "gather_rows index {r} out of range for {} rows",
                self.rows
            );
            data.extend_from_slice(self.row(r));
        }
        Tensor {
            rows: idx.len(),
            cols: self.cols,
            data,
        }
    }

    fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }
}

/// Numerically stabilised softmax of every `m`-wide row of `data`, in
/// place — the one definition behind [`Tensor::softmax_rows`], the
/// cross-entropy loss, the decoder's vocabulary rows and every attention
/// kernel, so all of them round identically.
///
/// Per row: `max`, then `x ← exp(x − max)`, then `sum` of the row in
/// ascending order from `0.0`, then `x ← x / sum` when `sum > 0`. The max
/// is taken over four lanes and combined (a max does not depend on the
/// order it is taken in: NaN is skipped wherever it sits, and the sign of
/// a zero maximum cannot change `x − max`); `exp` runs as vector lanes
/// that return `f32::exp`'s bits (`crate::expf`); the sums of up to eight
/// rows advance together, one element of each per step, so they are
/// independent chains instead of one, while each row's own sum keeps its
/// order. Every value is therefore the one a scalar loop per row computes.
pub fn softmax_rows_in_place(data: &mut [f32], m: usize) {
    if m == 0 {
        return;
    }
    assert_eq!(
        data.len() % m,
        0,
        "softmax rows: {} values in rows of {m}",
        data.len()
    );
    let mut groups = data.chunks_exact_mut(SOFTMAX_GROUP * m);
    for group in &mut groups {
        softmax_group::<SOFTMAX_GROUP>(group, m);
    }
    let rest = groups.into_remainder();
    match rest.len() / m {
        0 => {}
        1 => softmax_group::<1>(rest, m),
        2 => softmax_group::<2>(rest, m),
        3 => softmax_group::<3>(rest, m),
        4 => softmax_group::<4>(rest, m),
        5 => softmax_group::<5>(rest, m),
        6 => softmax_group::<6>(rest, m),
        _ => softmax_group::<7>(rest, m),
    }
}

/// Rows whose sums [`softmax_rows_in_place`] advances together.
const SOFTMAX_GROUP: usize = 8;

/// [`softmax_rows_in_place`] over exactly `G` rows of `m`.
fn softmax_group<const G: usize>(group: &mut [f32], m: usize) {
    for row in group.chunks_exact_mut(m) {
        let (max, lowest) = row_range(row);
        crate::expf::exp_shifted(row, max, lowest);
    }
    let mut sums = [0.0f32; G];
    for j in 0..m {
        for (r, sum) in sums.iter_mut().enumerate() {
            *sum += group[r * m + j];
        }
    }
    for (row, &sum) in group.chunks_exact_mut(m).zip(&sums) {
        if sum > 0.0 {
            for x in row {
                *x /= sum;
            }
        }
    }
}

/// The maximum of a row, NaN skipped (`−∞` for a row of NaN), and its
/// minimum, NaN if the row holds one: four lanes, then combined. `x > a`
/// is false for a NaN `x`, so each lane keeps its value — the
/// NaN-skipping `f32::max` as one vector `max`.
fn row_range(row: &[f32]) -> (f32, f32) {
    let max = |a: f32, x: f32| if x > a { x } else { a };
    let min = |a: f32, x: f32| if x < a { x } else { a };
    let mut hi = [f32::NEG_INFINITY; 4];
    let mut lo = [f32::INFINITY; 4];
    let mut nan = [false; 4];
    let mut lane = |l: usize, x: f32| {
        hi[l] = max(hi[l], x);
        lo[l] = min(lo[l], x);
        nan[l] |= x.is_nan();
    };
    let mut chunks = row.chunks_exact(4);
    for chunk in &mut chunks {
        for (l, &x) in chunk.iter().enumerate() {
            lane(l, x);
        }
    }
    for (l, &x) in chunks.remainder().iter().enumerate() {
        lane(l, x);
    }
    let ([h0, h1, h2, h3], [l0, l1, l2, l3]) = (hi, lo);
    let lowest = if nan.contains(&true) {
        f32::NAN
    } else {
        min(min(l0, l2), min(l1, l3))
    };
    (max(max(h0, h2), max(h1, h3)), lowest)
}

/// The softmax Jacobian applied to one row: with `s` a row of softmax
/// outputs and `g` the gradient of that row, writes `s ⊙ (g − ⟨s, g⟩)` —
/// the gradient of the logits — into `out`. The one definition behind
/// [`crate::Graph::softmax_rows`]' backward and the fused attention
/// node's, so both round identically.
pub fn softmax_backward_row(s: &[f32], g: &[f32], out: &mut [f32]) {
    let dot: f32 = s.iter().zip(g).map(|(&s, &gg)| s * gg).sum();
    for (o, (&s, &gg)) in out.iter_mut().zip(s.iter().zip(g)) {
        *o = s * (gg - dot);
    }
}

/// Mean and `1/σ` (`σ² = var + 1e-5`) of one row — the statistics half
/// of layer normalisation, `y = γ ⊙ (x − μ)/σ + β`. The one definition
/// behind [`crate::Graph::layer_norm`] and the decoder's tape-free step,
/// so both round identically.
pub fn layer_norm_stats(row: &[f32]) -> (f32, f32) {
    const EPS: f32 = 1e-5;
    let d = row.len() as f32;
    let mean = row.iter().sum::<f32>() / d;
    let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / d;
    (mean, 1.0 / (var + EPS).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn construction_and_accessors() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.shape(), (2, 3));
        assert_eq!(a.get(1, 2), 6.0);
        assert_eq!(a.row(1), &[4., 5., 6.]);
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = t(1, 3, &[1., 2., 3.]);
        let b = t(1, 3, &[10., 20., 30.]);
        assert_eq!(a.add(&b).data(), &[11., 22., 33.]);
        assert_eq!(b.sub(&a).data(), &[9., 18., 27.]);
        assert_eq!(a.mul(&b).data(), &[10., 40., 90.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
        let mut c = a.clone();
        c.add_scaled_assign(&b, 0.1);
        assert_eq!(c.data(), &[2., 4., 6.]);
    }

    #[test]
    fn matmul_reference() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_variants_agree() {
        let a = t(2, 3, &[1., -2., 3., 0.5, 5., -6.]);
        let b = t(3, 4, &(1..=12).map(|x| x as f32 * 0.25).collect::<Vec<_>>());
        let plain = a.matmul(&b);
        let nt = a.matmul_nt(&b.transpose());
        let tn = a.transpose().matmul_tn(&b.transpose().transpose());
        for (x, y) in plain.data().iter().zip(nt.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        for (x, y) in plain.data().iter().zip(tn.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = t(2, 3, &[1., 2., 3., -1000., 0., 1000.]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Monotone: bigger logits get bigger probabilities.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
        // Extreme logits saturate without NaN.
        assert!(s.get(1, 2) > 0.99 && s.data().iter().all(|x| x.is_finite()));
    }

    /// The softmax loop [`softmax_rows_in_place`] replaced, one row at a time
    /// with a libm `exp` per value: the oracle it is held to, bit for bit.
    fn softmax_reference(row: &mut [f32]) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }

    /// The row kernel against the per-row scalar loop it replaced, bit for
    /// bit, on every row count up to past one group and every width up to
    /// 40, with rows of ordinary logits carrying masks of −1e9 and −∞,
    /// all-equal rows, zeros of both signs, subnormals, NaN, |x| ≥ 88 and
    /// rows masked through.
    #[test]
    fn softmax_rows_match_the_scalar_loop_bitwise() {
        let specials = [
            -1e9,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-40,
            -1e-45,
            f32::NAN,
            88.5,
            -88.5,
            -103.5,
            120.0,
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rows in 1..=9usize {
            for m in 1..=40usize {
                for case in 0..6usize {
                    let mut data: Vec<f32> = (0..rows * m)
                        .map(|i| ((i * 2_654_435_761) % 1000) as f32 * 0.013 - 6.5)
                        .collect();
                    for (i, x) in data.iter_mut().enumerate() {
                        let (r, c) = (i / m, i % m);
                        match case {
                            // Causal-style masks: −1e9 or −∞ above the diagonal.
                            0 if c > r => *x = -1e9,
                            1 if c > r => *x = f32::NEG_INFINITY,
                            // All-equal rows.
                            2 => *x = 0.25,
                            // One special value per row, a different one per row.
                            3 if c == (r * 7) % m => *x = specials[(r + m) % specials.len()],
                            4 => *x = specials[(i + r) % specials.len()],
                            // Rows masked through: all −1e9, or all −∞.
                            5 if r % 2 == 1 => {
                                *x = if r % 4 == 1 { -1e9 } else { f32::NEG_INFINITY }
                            }
                            _ => {}
                        }
                    }
                    let mut want = data.clone();
                    for row in want.chunks_exact_mut(m) {
                        softmax_reference(row);
                    }
                    softmax_rows_in_place(&mut data, m);
                    assert_eq!(bits(&want), bits(&data), "rows {rows} m {m} case {case}");
                }
            }
        }
    }

    #[test]
    fn reductions() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows().data(), &[4., 6.]);
        assert_eq!(a.sq_norm(), 30.0);
    }

    #[test]
    fn argmax_row_picks_first_max() {
        let a = t(1, 4, &[0., 5., 5., 1.]);
        assert_eq!(a.argmax_row(0), 1);
    }

    #[test]
    fn concat_and_slice() {
        let a = t(1, 2, &[1., 2.]);
        let b = t(2, 2, &[3., 4., 5., 6.]);
        let v = a.vcat(&b);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5., 6.]);
        let h = a.hcat(&t(1, 1, &[9.]));
        assert_eq!(h.data(), &[1., 2., 9.]);
        assert_eq!(v.slice_rows(1, 3), b);
    }

    #[test]
    fn append_row_grows_cache_tensors() {
        let mut a = Tensor::zeros(0, 3);
        a.append_row(&[1., 2., 3.]);
        a.append_row(&[4., 5., 6.]);
        assert_eq!(a.shape(), (2, 3));
        assert_eq!(a.row(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "append_row width mismatch")]
    fn append_row_rejects_wrong_width() {
        let mut a = Tensor::zeros(1, 3);
        a.append_row(&[1., 2.]);
    }

    #[test]
    fn gather_rows_permutes_and_repeats() {
        let a = t(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let g = a.gather_rows(&[2, 0, 2, 2]);
        assert_eq!(g.shape(), (4, 2));
        assert_eq!(g.row(0), &[5., 6.]);
        assert_eq!(g.row(1), &[1., 2.]);
        assert_eq!(g.row(3), &[5., 6.]);
        assert_eq!(a.gather_rows(&[]).shape(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "gather_rows index")]
    fn gather_rows_rejects_out_of_range() {
        let _ = t(2, 1, &[1., 2.]).gather_rows(&[2]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_shape_mismatch_panics() {
        let _ = t(1, 2, &[1., 2.]).add(&t(2, 1, &[1., 2.]));
    }

    #[test]
    fn matmul_skips_zero_rows_correctly() {
        // The a == 0.0 fast path must not change results.
        let a = t(2, 3, &[0., 0., 0., 1., 0., 2.]);
        let b = t(3, 2, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matmul(&b).data(), &[0., 0., 11., 14.]);
    }
}
