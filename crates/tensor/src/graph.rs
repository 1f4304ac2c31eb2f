//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records one forward computation; [`Graph::backward`] then
//! walks the tape in reverse and accumulates gradients into every node.
//! Leaf nodes created with [`Graph::input`] keep their gradients after the
//! pass (read them with [`Graph::grad`]); internal-node gradients are
//! dropped as soon as they have been propagated.
//!
//! The design is an arena tape: nodes are indexed by [`NodeId`], each op
//! pushes a value and — on a recording graph — a boxed backward closure.
//! A graph holds one training example (or one small batch) at a time;
//! [`Graph::clear`] empties it for the next one, keeping the arena's
//! allocations. A pass that will never run backward (validation loss,
//! the graph-based inference steps) uses [`Graph::forward_only`], which
//! keeps values and nothing else.

use crate::tensor::{softmax_backward_row, Tensor};
use std::sync::Arc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Gradient accumulator handed to backward closures.
pub struct GradStore<'a> {
    grads: &'a mut Vec<Option<Tensor>>,
}

impl GradStore<'_> {
    /// Add `g` into the gradient of `id`.
    pub fn accumulate(&mut self, id: NodeId, g: Tensor) {
        match &mut self.grads[id.0] {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }
}

type BackFn = Box<dyn FnOnce(&Tensor, &[Arc<Tensor>], &mut GradStore<'_>)>;

/// A reverse-mode autodiff tape.
///
/// Node values are held as `Arc<Tensor>` so values that outlive one graph
/// — a parameter store's weights, the encoder output a decoder re-feeds
/// every step — enter through [`Graph::input_shared`] /
/// [`Graph::value_shared`] without their data being copied. The graph
/// gives every handle back on [`Graph::clear`] (or drop), so an owner
/// that mutates in place afterwards (`Arc::make_mut`) never copies.
pub struct Graph {
    values: Vec<Arc<Tensor>>,
    /// One slot per node; stays empty on a forward-only graph.
    grads: Vec<Option<Tensor>>,
    /// One slot per node; stays empty on a forward-only graph.
    backs: Vec<Option<BackFn>>,
    recording: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Graph {
    /// An empty graph that records backward closures.
    pub fn new() -> Self {
        Graph {
            values: Vec::new(),
            grads: Vec::new(),
            backs: Vec::new(),
            recording: true,
        }
    }

    /// An empty graph for a forward that will never run backward: ops
    /// push their values and drop their backward closures unboxed.
    /// [`Graph::backward`] panics on it; [`Graph::grad`] is always `None`.
    pub fn forward_only() -> Self {
        Graph {
            recording: false,
            ..Graph::new()
        }
    }

    /// True if ops record backward closures ([`Graph::new`]).
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Drop every node — values, gradients, unrun closures, and with them
    /// every shared handle the graph held — keeping the arena's capacity
    /// and the recording mode. [`NodeId`]s of the cleared tape are void.
    pub fn clear(&mut self) {
        self.values.clear();
        self.grads.clear();
        self.backs.clear();
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Push an op's value; box its backward only if this graph records.
    fn push(
        &mut self,
        value: Tensor,
        back: impl FnOnce(&Tensor, &[Arc<Tensor>], &mut GradStore<'_>) + 'static,
    ) -> NodeId {
        let back: Option<BackFn> = self.recording.then(|| Box::new(back) as BackFn);
        self.push_node(Arc::new(value), back)
    }

    fn push_node(&mut self, value: Arc<Tensor>, back: Option<BackFn>) -> NodeId {
        let id = NodeId(self.values.len());
        self.values.push(value);
        if self.recording {
            self.grads.push(None);
            self.backs.push(back);
        }
        id
    }

    /// Register a leaf node. Its gradient survives [`Graph::backward`].
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push_node(Arc::new(value), None)
    }

    /// Register a leaf node backed by an existing shared tensor without
    /// copying its data. Its gradient survives [`Graph::backward`].
    pub fn input_shared(&mut self, value: Arc<Tensor>) -> NodeId {
        self.push_node(value, None)
    }

    /// Record a node whose value was computed outside the graph's own ops
    /// (a fused kernel), with the backward that goes with it: `back` gets
    /// the node's output gradient and accumulates into the nodes the value
    /// was computed from. Inputs it needs are captured as shared handles
    /// ([`Graph::value_shared`]). Dropped unboxed on a forward-only graph.
    pub fn custom(
        &mut self,
        value: Tensor,
        back: impl FnOnce(&Tensor, &mut GradStore<'_>) + 'static,
    ) -> NodeId {
        self.push(value, move |g, _vals, store| back(g, store))
    }

    /// The value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        self.values[id.0].as_ref()
    }

    /// The value of a node as a shared handle (no tensor data copied).
    pub fn value_shared(&self, id: NodeId) -> Arc<Tensor> {
        Arc::clone(&self.values[id.0])
    }

    /// The accumulated gradient of a leaf node after [`Graph::backward`],
    /// or `None` if no gradient reached it.
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// Run the backward pass from `loss` (must be `1 × 1`).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar-shaped, or if the graph is
    /// forward-only.
    pub fn backward(&mut self, loss: NodeId) {
        assert!(
            self.recording,
            "backward() on a forward-only graph: nothing was recorded"
        );
        assert_eq!(
            self.values[loss.0].shape(),
            (1, 1),
            "backward() must start from a scalar loss"
        );
        self.grads[loss.0] = Some(Tensor::scalar(1.0));
        for i in (0..=loss.0).rev() {
            let Some(back) = self.backs[i].take() else {
                continue; // leaf: keep its gradient for the caller
            };
            let Some(g) = self.grads[i].take() else {
                continue; // no gradient flowed here
            };
            let mut store = GradStore {
                grads: &mut self.grads,
            };
            back(&g, &self.values, &mut store);
        }
    }

    // ------------------------------------------------------------------
    // Elementwise / arithmetic ops
    // ------------------------------------------------------------------

    /// `a + b` (same shapes).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.values[a.0].add(&self.values[b.0]);
        self.push(v, move |g, _vals, store| {
            store.accumulate(a, g.clone());
            store.accumulate(b, g.clone());
        })
    }

    /// `a - b` (same shapes).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.values[a.0].sub(&self.values[b.0]);
        self.push(v, move |g, _vals, store| {
            store.accumulate(a, g.clone());
            store.accumulate(b, g.scale(-1.0));
        })
    }

    /// Elementwise product (same shapes).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.values[a.0].mul(&self.values[b.0]);
        self.push(v, move |g, vals, store| {
            store.accumulate(a, g.mul(&vals[b.0]));
            store.accumulate(b, g.mul(&vals[a.0]));
        })
    }

    /// `c · a` for a constant `c`.
    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.values[a.0].scale(c);
        self.push(v, move |g, _vals, store| {
            store.accumulate(a, g.scale(c));
        })
    }

    /// `1 - a`.
    pub fn one_minus(&mut self, a: NodeId) -> NodeId {
        let v = self.values[a.0].map(|x| 1.0 - x);
        self.push(v, move |g, _vals, store| {
            store.accumulate(a, g.scale(-1.0));
        })
    }

    /// Broadcast-add a `1 × d` bias to every row of an `n × d` tensor.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let av = &self.values[a.0];
        let bv = &self.values[bias.0];
        assert_eq!(bv.rows(), 1, "bias must be 1 x d");
        assert_eq!(av.cols(), bv.cols(), "bias width mismatch");
        let mut v = av.as_ref().clone();
        for r in 0..v.rows() {
            for (x, &b) in v.row_mut(r).iter_mut().zip(bv.row(0)) {
                *x += b;
            }
        }
        self.push(v, move |g, _vals, store| {
            store.accumulate(a, g.clone());
            store.accumulate(bias, g.sum_rows());
        })
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.values[a.0].matmul(&self.values[b.0]);
        self.push(v, move |g, vals, store| {
            // ∂a = g · bᵀ ; ∂b = aᵀ · g
            store.accumulate(a, g.matmul_nt(&vals[b.0]));
            store.accumulate(b, vals[a.0].matmul_tn(g));
        })
    }

    /// Matrix product with transposed right operand: `a · bᵀ`.
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.values[a.0].matmul_nt(&self.values[b.0]);
        self.push(v, move |g, vals, store| {
            // out = a bᵀ: ∂a = g · b ; ∂b = gᵀ · a
            store.accumulate(a, g.matmul(&vals[b.0]));
            store.accumulate(b, g.matmul_tn(&vals[a.0]));
        })
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.values[a.0].map(|x| x.max(0.0));
        self.push(v, move |g, vals, store| {
            store.accumulate(a, g.zip(&vals[a.0], |g, x| if x > 0.0 { g } else { 0.0 }));
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.values[a.0].map(|x| 1.0 / (1.0 + (-x).exp()));
        let me = self.values.len(); // the closure reads its own saved output
        self.push(v, move |g, vals, store| {
            store.accumulate(a, g.zip(&vals[me], |g, y| g * y * (1.0 - y)));
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.values[a.0].map(f32::tanh);
        let me = self.values.len();
        self.push(v, move |g, vals, store| {
            store.accumulate(a, g.zip(&vals[me], |g, y| g * (1.0 - y * y)));
        })
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.values[a.0].softmax_rows();
        let me = self.values.len();
        self.push(v, move |g, vals, store| {
            let out = &vals[me];
            let mut ga = Tensor::zeros(out.rows(), out.cols());
            for r in 0..out.rows() {
                softmax_backward_row(out.row(r), g.row(r), ga.row_mut(r));
            }
            store.accumulate(a, ga);
        })
    }

    /// Gated linear unit over the column halves: input `n × 2d`,
    /// output `n × d` computed as `x[:, :d] ⊙ σ(x[:, d:])`.
    #[allow(clippy::needless_range_loop)] // index couples two half-rows
    pub fn glu(&mut self, a: NodeId) -> NodeId {
        let av = &self.values[a.0];
        assert!(
            av.cols().is_multiple_of(2),
            "GLU needs an even column count"
        );
        let d = av.cols() / 2;
        let mut v = Tensor::zeros(av.rows(), d);
        for r in 0..av.rows() {
            let row = av.row(r);
            for c in 0..d {
                let gate = 1.0 / (1.0 + (-row[d + c]).exp());
                v.set(r, c, row[c] * gate);
            }
        }
        self.push(v, move |g, vals, store| {
            let av = &vals[a.0];
            let d = av.cols() / 2;
            let mut ga = Tensor::zeros(av.rows(), av.cols());
            for r in 0..av.rows() {
                let row = av.row(r);
                let grow = g.row(r);
                let garow = ga.row_mut(r);
                for c in 0..d {
                    let gate = 1.0 / (1.0 + (-row[d + c]).exp());
                    garow[c] = grow[c] * gate;
                    garow[d + c] = grow[c] * row[c] * gate * (1.0 - gate);
                }
            }
            store.accumulate(a, ga);
        })
    }

    // ------------------------------------------------------------------
    // Normalisation
    // ------------------------------------------------------------------

    /// Row-wise layer normalisation with learnable `gamma`/`beta`
    /// (`1 × d` each): `y = γ ⊙ (x - μ)/σ + β`.
    #[allow(clippy::needless_range_loop)] // indices couple several parallel buffers
    pub fn layer_norm(&mut self, a: NodeId, gamma: NodeId, beta: NodeId) -> NodeId {
        let av = &self.values[a.0];
        let gv = &self.values[gamma.0];
        let bv = &self.values[beta.0];
        assert_eq!(gv.shape(), (1, av.cols()), "gamma must be 1 x d");
        assert_eq!(bv.shape(), (1, av.cols()), "beta must be 1 x d");
        let (n, d) = av.shape();
        let mut v = Tensor::zeros(n, d);
        // Save per-row inv_std and the normalised x̂ for backward.
        let mut xhat = Tensor::zeros(n, d);
        let mut inv_stds = Vec::with_capacity(n);
        for r in 0..n {
            let row = av.row(r);
            let (mean, inv_std) = crate::tensor::layer_norm_stats(row);
            inv_stds.push(inv_std);
            for c in 0..d {
                let xh = (row[c] - mean) * inv_std;
                xhat.set(r, c, xh);
                v.set(r, c, gv.get(0, c) * xh + bv.get(0, c));
            }
        }
        self.push(v, move |g, vals, store| {
            let gv = &vals[gamma.0];
            let (n, d) = g.shape();
            let mut ga = Tensor::zeros(n, d);
            let mut ggamma = Tensor::zeros(1, d);
            let mut gbeta = Tensor::zeros(1, d);
            for r in 0..n {
                let grow = g.row(r);
                let xrow = xhat.row(r);
                let inv_std = inv_stds[r];
                // dL/dx̂ = g ⊙ γ
                let dxhat: Vec<f32> = grow
                    .iter()
                    .zip(gv.row(0))
                    .map(|(&gg, &gam)| gg * gam)
                    .collect();
                let sum_dxhat: f32 = dxhat.iter().sum();
                let sum_dxhat_xhat: f32 = dxhat.iter().zip(xrow).map(|(&dx, &xh)| dx * xh).sum();
                for c in 0..d {
                    let t = dxhat[c] - sum_dxhat / d as f32 - xrow[c] * sum_dxhat_xhat / d as f32;
                    ga.set(r, c, t * inv_std);
                    ggamma.data_mut()[c] += grow[c] * xrow[c];
                    gbeta.data_mut()[c] += grow[c];
                }
            }
            store.accumulate(a, ga);
            store.accumulate(gamma, ggamma);
            store.accumulate(beta, gbeta);
        })
    }

    // ------------------------------------------------------------------
    // Gather / scatter and shape ops
    // ------------------------------------------------------------------

    /// Row gather from an embedding table: `weight[v × d]`, `ids` →
    /// `len(ids) × d`.
    pub fn embedding(&mut self, weight: NodeId, ids: &[usize]) -> NodeId {
        let wv = &self.values[weight.0];
        let d = wv.cols();
        let mut v = Tensor::zeros(ids.len(), d);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < wv.rows(), "embedding id {id} out of range");
            v.row_mut(r).copy_from_slice(wv.row(id));
        }
        let ids = ids.to_vec();
        self.push(v, move |g, vals, store| {
            let wv = &vals[weight.0];
            let mut gw = Tensor::zeros(wv.rows(), wv.cols());
            for (r, &id) in ids.iter().enumerate() {
                for (o, &x) in gw.row_mut(id).iter_mut().zip(g.row(r)) {
                    *o += x;
                }
            }
            store.accumulate(weight, gw);
        })
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn hcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.values[a.0].hcat(&self.values[b.0]);
        let a_cols = self.values[a.0].cols();
        self.push(v, move |g, _vals, store| {
            let (n, total) = g.shape();
            let mut ga = Tensor::zeros(n, a_cols);
            let mut gb = Tensor::zeros(n, total - a_cols);
            for r in 0..n {
                let grow = g.row(r);
                ga.row_mut(r).copy_from_slice(&grow[..a_cols]);
                gb.row_mut(r).copy_from_slice(&grow[a_cols..]);
            }
            store.accumulate(a, ga);
            store.accumulate(b, gb);
        })
    }

    /// Vertical concatenation (stack rows).
    pub fn vcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.values[a.0].vcat(&self.values[b.0]);
        let a_rows = self.values[a.0].rows();
        self.push(v, move |g, _vals, store| {
            store.accumulate(a, g.slice_rows(0, a_rows));
            store.accumulate(b, g.slice_rows(a_rows, g.rows()));
        })
    }

    /// Copy of rows `start..end`.
    pub fn slice_rows(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        let v = self.values[a.0].slice_rows(start, end);
        let (rows, cols) = self.values[a.0].shape();
        self.push(v, move |g, _vals, store| {
            let mut ga = Tensor::zeros(rows, cols);
            for r in start..end {
                ga.row_mut(r).copy_from_slice(g.row(r - start));
            }
            store.accumulate(a, ga);
        })
    }

    /// Copy of columns `start..end`.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        let av = &self.values[a.0];
        let (rows, cols) = av.shape();
        assert!(start <= end && end <= cols, "slice_cols out of range");
        let mut v = Tensor::zeros(rows, end - start);
        for r in 0..rows {
            v.row_mut(r).copy_from_slice(&av.row(r)[start..end]);
        }
        self.push(v, move |g, _vals, store| {
            let mut ga = Tensor::zeros(rows, cols);
            for r in 0..rows {
                ga.row_mut(r)[start..end].copy_from_slice(g.row(r));
            }
            store.accumulate(a, ga);
        })
    }

    /// Centered window unfold (im2col for a non-causal 1-D convolution):
    /// output row `i` concatenates input rows `i-⌊k/2⌋ … i+⌈k/2⌉-1`,
    /// zero-padded at both ends. Output shape `n × (k·d)`. Used by the
    /// ConvS2S *encoder*, where future context is visible.
    pub fn unfold_centered(&mut self, a: NodeId, k: usize) -> NodeId {
        let av = &self.values[a.0];
        let (n, d) = av.shape();
        let left = k / 2;
        let mut v = Tensor::zeros(n, k * d);
        for i in 0..n {
            for j in 0..k {
                let src = i as isize + j as isize - left as isize;
                if src >= 0 && (src as usize) < n {
                    let dst = &mut v.row_mut(i)[j * d..(j + 1) * d];
                    dst.copy_from_slice(av.row(src as usize));
                }
            }
        }
        self.push(v, move |g, _vals, store| {
            let mut ga = Tensor::zeros(n, d);
            for i in 0..n {
                let grow = g.row(i);
                for j in 0..k {
                    let src = i as isize + j as isize - left as isize;
                    if src >= 0 && (src as usize) < n {
                        let dst = ga.row_mut(src as usize);
                        for (o, &x) in dst.iter_mut().zip(&grow[j * d..(j + 1) * d]) {
                            *o += x;
                        }
                    }
                }
            }
            store.accumulate(a, ga);
        })
    }

    /// Mean over rows: `n × d → 1 × d`.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let av = &self.values[a.0];
        let n = av.rows().max(1);
        let v = av.sum_rows().scale(1.0 / n as f32);
        let rows = av.rows();
        self.push(v, move |g, _vals, store| {
            let mut ga = Tensor::zeros(rows, g.cols());
            let inv = 1.0 / rows.max(1) as f32;
            for r in 0..rows {
                for (o, &x) in ga.row_mut(r).iter_mut().zip(g.row(0)) {
                    *o = x * inv;
                }
            }
            store.accumulate(a, ga);
        })
    }

    /// Causal window unfold (im2col for 1-D convolution): each output row
    /// `i` is the concatenation of input rows `i-k+1 … i` (zero-padded on
    /// the left). Output shape `n × (k·d)`.
    pub fn unfold_causal(&mut self, a: NodeId, k: usize) -> NodeId {
        let av = &self.values[a.0];
        let (n, d) = av.shape();
        let mut v = Tensor::zeros(n, k * d);
        for i in 0..n {
            for j in 0..k {
                let src = i as isize - (k - 1 - j) as isize;
                if src >= 0 {
                    let dst = &mut v.row_mut(i)[j * d..(j + 1) * d];
                    dst.copy_from_slice(av.row(src as usize));
                }
            }
        }
        self.push(v, move |g, _vals, store| {
            let mut ga = Tensor::zeros(n, d);
            for i in 0..n {
                let grow = g.row(i);
                for j in 0..k {
                    let src = i as isize - (k - 1 - j) as isize;
                    if src >= 0 {
                        let dst = ga.row_mut(src as usize);
                        for (o, &x) in dst.iter_mut().zip(&grow[j * d..(j + 1) * d]) {
                            *o += x;
                        }
                    }
                }
            }
            store.accumulate(a, ga);
        })
    }

    // ------------------------------------------------------------------
    // Losses
    // ------------------------------------------------------------------

    /// Mean token-level cross-entropy between `logits` (`n × v`) and
    /// integer `targets` (length `n`). Returns a scalar node.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[usize]) -> NodeId {
        let lv = &self.values[logits.0];
        assert_eq!(lv.rows(), targets.len(), "one target per logits row");
        let probs = lv.softmax_rows();
        let n = targets.len().max(1);
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < lv.cols(), "target {t} out of vocabulary");
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= n as f32;
        let targets = targets.to_vec();
        self.push(Tensor::scalar(loss), move |g, _vals, store| {
            let gscale = g.item() / n as f32;
            let mut gl = probs; // moved in: (softmax - onehot) * gscale
            for (r, &t) in targets.iter().enumerate() {
                let row = gl.row_mut(r);
                row[t] -= 1.0;
                for x in row.iter_mut() {
                    *x *= gscale;
                }
            }
            store.accumulate(logits, gl);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference gradient check for a scalar-valued
    /// function of one tensor input.
    fn grad_check(input: Tensor, build: impl Fn(&mut Graph, NodeId) -> NodeId, tol: f32) {
        // Analytic gradient.
        let mut g = Graph::new();
        let x = g.input(input.clone());
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x).expect("input must receive gradient").clone();

        // Numeric gradient.
        let eps = 1e-2f32;
        let mut numeric = Tensor::zeros(input.rows(), input.cols());
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f = |t: Tensor| {
                let mut g = Graph::new();
                let x = g.input(t);
                let loss = build(&mut g, x);
                g.value(loss).item()
            };
            numeric.data_mut()[i] = (f(plus) - f(minus)) / (2.0 * eps);
        }
        for i in 0..input.len() {
            let a = analytic.data()[i];
            let n = numeric.data()[i];
            assert!(
                (a - n).abs() <= tol * (1.0 + a.abs().max(n.abs())),
                "grad mismatch at {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    /// Reduce any node to a scalar via a fixed random projection so the
    /// check exercises non-uniform output gradients.
    fn to_scalar(g: &mut Graph, y: NodeId) -> NodeId {
        let (n, d) = g.value(y).shape();
        let mut rng = StdRng::seed_from_u64(42);
        let w = g.input(init::uniform(d, 1, -1.0, 1.0, &mut rng));
        let prod = g.matmul(y, w); // n x 1
        let ones = g.input(Tensor::ones(1, n));
        let mm = g.matmul(ones, prod); // 1 x 1
        g.scale(mm, 1.0 / n as f32)
    }

    fn sample(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        init::uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn grad_add_sub_mul_scale() {
        let other = sample(3, 4, 1);
        grad_check(
            sample(3, 4, 2),
            |g, x| {
                let o = g.input(other.clone());
                let s = g.add(x, o);
                let m = g.mul(s, x);
                let d = g.sub(m, o);
                let sc = g.scale(d, 0.5);
                to_scalar(g, sc)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_both_sides() {
        let w = sample(4, 3, 3);
        grad_check(
            sample(2, 4, 4),
            |g, x| {
                let wn = g.input(w.clone());
                let y = g.matmul(x, wn);
                to_scalar(g, y)
            },
            1e-2,
        );
        // Right-hand side gradient.
        let a = sample(3, 4, 5);
        grad_check(
            sample(4, 2, 6),
            |g, x| {
                let an = g.input(a.clone());
                let y = g.matmul(an, x);
                to_scalar(g, y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_nt() {
        let b = sample(5, 4, 7);
        grad_check(
            sample(2, 4, 8),
            |g, x| {
                let bn = g.input(b.clone());
                let y = g.matmul_nt(x, bn);
                to_scalar(g, y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_nonlinearities() {
        for (name, f) in [
            ("relu", 0usize),
            ("sigmoid", 1),
            ("tanh", 2),
            ("softmax", 3),
        ] {
            let _ = name;
            grad_check(
                sample(3, 5, 10 + f as u64).scale(2.0),
                move |g, x| {
                    let y = match f {
                        0 => g.relu(x),
                        1 => g.sigmoid(x),
                        2 => g.tanh(x),
                        _ => g.softmax_rows(x),
                    };
                    to_scalar(g, y)
                },
                2e-2,
            );
        }
    }

    #[test]
    fn grad_glu() {
        grad_check(
            sample(3, 6, 20),
            |g, x| {
                let y = g.glu(x);
                to_scalar(g, y)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_layer_norm_input_and_params() {
        let gamma = sample(1, 4, 21).scale(0.5).map(|x| x + 1.0);
        let beta = sample(1, 4, 22);
        grad_check(
            sample(3, 4, 23),
            |g, x| {
                let ga = g.input(gamma.clone());
                let be = g.input(beta.clone());
                let y = g.layer_norm(x, ga, be);
                to_scalar(g, y)
            },
            5e-2,
        );
        // Gamma gradient.
        let input = sample(3, 4, 24);
        grad_check(
            gamma,
            |g, ga| {
                let x = g.input(input.clone());
                let be = g.input(beta.clone());
                let y = g.layer_norm(x, ga, be);
                to_scalar(g, y)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_add_bias() {
        let bias = sample(1, 4, 30);
        grad_check(
            sample(3, 4, 31),
            |g, x| {
                let b = g.input(bias.clone());
                let y = g.add_bias(x, b);
                to_scalar(g, y)
            },
            1e-2,
        );
        let a = sample(3, 4, 32);
        grad_check(
            bias,
            |g, b| {
                let x = g.input(a.clone());
                let y = g.add_bias(x, b);
                to_scalar(g, y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_embedding_scatters() {
        let ids = vec![2usize, 0, 2, 1];
        grad_check(
            sample(3, 4, 40),
            |g, w| {
                let y = g.embedding(w, &ids);
                to_scalar(g, y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_concat_slice_mean() {
        let other = sample(2, 3, 50);
        grad_check(
            sample(2, 3, 51),
            |g, x| {
                let o = g.input(other.clone());
                let h = g.hcat(x, o);
                let v = g.vcat(h, h);
                let s = g.slice_rows(v, 1, 4);
                let m = g.mean_rows(s);
                to_scalar(g, m)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_unfold_causal() {
        grad_check(
            sample(4, 3, 60),
            |g, x| {
                let u = g.unfold_causal(x, 3);
                to_scalar(g, u)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_slice_cols() {
        grad_check(
            sample(3, 6, 61),
            |g, x| {
                let s = g.slice_cols(x, 1, 4);
                to_scalar(g, s)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_unfold_centered() {
        grad_check(
            sample(5, 2, 62),
            |g, x| {
                let u = g.unfold_centered(x, 3);
                to_scalar(g, u)
            },
            1e-2,
        );
    }

    #[test]
    fn unfold_centered_values() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(3, 1, vec![1., 2., 3.]));
        let u = g.unfold_centered(x, 3);
        // Row i = [x[i-1], x[i], x[i+1]] with zero pads.
        assert_eq!(g.value(u).data(), &[0., 1., 2., 1., 2., 3., 2., 3., 0.]);
    }

    #[test]
    fn slice_cols_values() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let s = g.slice_cols(x, 1, 3);
        assert_eq!(g.value(s).data(), &[2., 3., 5., 6.]);
    }

    #[test]
    fn grad_cross_entropy() {
        let targets = vec![1usize, 3, 0];
        grad_check(
            sample(3, 5, 70).scale(2.0),
            |g, x| g.cross_entropy(x, &targets),
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_value_matches_manual() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::from_vec(1, 3, vec![0.0, 0.0, 0.0]));
        let loss = g.cross_entropy(logits, &[2]);
        // Uniform softmax over 3 classes: -ln(1/3).
        assert!((g.value(loss).item() - (3.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradients_accumulate_over_reuse() {
        // y = x + x → dy/dx = 2
        let mut g = Graph::new();
        let x = g.input(Tensor::scalar(1.5));
        let y = g.add(x, x);
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().item(), 2.0);
    }

    #[test]
    fn no_grad_for_unreached_leaf() {
        let mut g = Graph::new();
        let x = g.input(Tensor::scalar(1.0));
        let y = g.input(Tensor::scalar(2.0));
        let z = g.scale(x, 3.0);
        g.backward(z);
        assert!(g.grad(y).is_none());
        assert_eq!(g.grad(x).unwrap().item(), 3.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        g.backward(x);
    }

    #[test]
    fn unfold_causal_values() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(3, 1, vec![1., 2., 3.]));
        let u = g.unfold_causal(x, 2);
        // Row i = [x[i-1], x[i]] with left zero pad.
        assert_eq!(g.value(u).data(), &[0., 1., 1., 2., 2., 3.]);
    }

    #[test]
    fn deep_chain_backward() {
        // A longer composite graph exercises the reverse sweep ordering.
        let mut g = Graph::new();
        let x = g.input(sample(4, 4, 80));
        let w1 = g.input(sample(4, 8, 81));
        let w2 = g.input(sample(8, 3, 82));
        let h = g.matmul(x, w1);
        let h = g.relu(h);
        let h = g.matmul(h, w2);
        let loss = g.cross_entropy(h, &[0, 1, 2, 1]);
        g.backward(loss);
        assert!(g.grad(w1).is_some());
        assert!(g.grad(w2).is_some());
        assert!(g.grad(x).is_some());
        assert!(g.grad(w1).unwrap().data().iter().all(|x| x.is_finite()));
    }
}
