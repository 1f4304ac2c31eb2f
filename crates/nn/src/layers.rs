//! Basic neural layers: linear, embedding, layer norm, dropout,
//! position-wise feed-forward, and sinusoidal positional encodings.

use crate::params::{Fwd, ParamId, Params};
use qrec_tensor::qi8;
use qrec_tensor::tensor::layer_norm_stats;
use qrec_tensor::{init, kernel, NodeId, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Fully connected layer `y = x·W + b`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    /// Input width (for diagnostics).
    pub d_in: usize,
    /// Output width.
    pub d_out: usize,
}

impl Linear {
    /// Create a linear layer with bias.
    pub fn new(
        params: &mut Params,
        name: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = params.add(format!("{name}.w"), init::xavier_uniform(d_in, d_out, rng));
        let b = params.add(format!("{name}.b"), Tensor::zeros(1, d_out));
        Linear {
            w,
            b: Some(b),
            d_in,
            d_out,
        }
    }

    /// Create a linear layer without bias.
    pub fn new_no_bias(
        params: &mut Params,
        name: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = params.add(format!("{name}.w"), init::xavier_uniform(d_in, d_out, rng));
        Linear {
            w,
            b: None,
            d_in,
            d_out,
        }
    }

    /// Apply to `x` of shape `n × d_in`.
    ///
    /// When the parameter store carries an int8 sidecar
    /// ([`Params::quantize`]) and the pass is not training, the
    /// projection reads the weight's int8 form ([`qi8::qgemm`]:
    /// weight-only quantization — the activations stay f32), and the
    /// result enters the graph as a constant (inference builds no
    /// gradients, so a leaf is sufficient). Stores without a sidecar —
    /// and every training pass — take the f32 matmul path bitwise
    /// unchanged.
    pub fn forward(&self, fwd: &mut Fwd<'_>, x: NodeId) -> NodeId {
        let y = match (
            fwd.training,
            fwd.params.quant().and_then(|q| q.weight(self.w)),
        ) {
            (false, Some(qw)) => {
                let xv = fwd.graph.value(x);
                let n = xv.rows();
                let data = qi8::qgemm(xv.data(), &qw.packed, n);
                fwd.constant(Tensor::from_vec(n, self.d_out, data))
            }
            _ => {
                let w = fwd.param(self.w);
                fwd.graph.matmul(x, w)
            }
        };
        match self.b {
            Some(b) => {
                let b = fwd.param(b);
                fwd.graph.add_bias(y, b)
            }
            None => y,
        }
    }

    /// Tape-free inference forward: `out` (`n × d_out`, overwritten)
    /// becomes `x·W + b` for the `n` rows of `x`, reading the weight
    /// straight from the store — its int8 form when the store carries
    /// a sidecar, the f32 tensor otherwise — with no graph node and no
    /// weight copy. Bit for bit the value [`Linear::forward`] computes
    /// outside training: the same product (one register tile serves both
    /// weight types) and the same bias add.
    pub(crate) fn apply(&self, params: &Params, x: &[f32], n: usize, out: &mut [f32]) {
        match params.quant().and_then(|q| q.weight(self.w)) {
            Some(qw) => qi8::qgemm_into(x, &qw.packed, n, out),
            None => {
                let w = params.value(self.w).data();
                kernel::gemm_into(x, w, n, self.d_in, self.d_out, out);
            }
        }
        if let Some(b) = self.b {
            let bias = params.value(b).data();
            for row in out.chunks_exact_mut(self.d_out) {
                for (o, &b) in row.iter_mut().zip(bias) {
                    *o += b;
                }
            }
        }
    }
}

/// Token embedding table.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Embedding {
    weight: ParamId,
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension.
    pub dim: usize,
}

impl Embedding {
    /// Create an embedding with `N(0, 0.02)` initialisation.
    pub fn new(
        params: &mut Params,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let weight = params.add(format!("{name}.emb"), init::normal(vocab, dim, 0.1, rng));
        Embedding { weight, vocab, dim }
    }

    /// Look up a sequence of token ids: returns `len(ids) × dim`.
    ///
    /// Training passes bind the table as a graph leaf (its gradient is a
    /// scatter into the looked-up rows). Every other pass gathers only
    /// the requested rows into a constant (`Embedding::gather_into`),
    /// which is also what reads an int8 table when the store has one.
    pub fn forward(&self, fwd: &mut Fwd<'_>, ids: &[usize]) -> NodeId {
        if fwd.training {
            let w = fwd.param(self.weight);
            return fwd.graph.embedding(w, ids);
        }
        let mut rows = vec![0.0; ids.len() * self.dim];
        self.gather_into(fwd.params, ids, &mut rows);
        fwd.constant(Tensor::from_vec(ids.len(), self.dim, rows))
    }

    /// Tape-free lookup: write the rows named by `ids` into `out`
    /// (`len(ids) × dim`). With an int8 sidecar the rows come from the
    /// int8 table ([`crate::quant::QEmbed::gather_into`]) — only the
    /// requested rows are dequantized and the f32 table is not read;
    /// without one they are copied from the f32 table, bitwise what the
    /// graph gather returns.
    pub(crate) fn gather_into(&self, params: &Params, ids: &[usize], out: &mut [f32]) {
        if let Some(qe) = params.quant().and_then(|q| q.embed(self.weight)) {
            return qe.gather_into(ids, out);
        }
        let table = params.value(self.weight);
        for (row, &id) in out.chunks_exact_mut(self.dim).zip(ids) {
            assert!(id < table.rows(), "embedding id {id} out of range");
            row.copy_from_slice(table.row(id));
        }
    }
}

/// Layer normalisation with learnable gain/bias.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
}

impl LayerNorm {
    /// Create for feature width `d`.
    pub fn new(params: &mut Params, name: &str, d: usize) -> Self {
        LayerNorm {
            gamma: params.add(format!("{name}.gamma"), Tensor::ones(1, d)),
            beta: params.add(format!("{name}.beta"), Tensor::zeros(1, d)),
        }
    }

    /// Apply row-wise normalisation.
    pub fn forward(&self, fwd: &mut Fwd<'_>, x: NodeId) -> NodeId {
        let g = fwd.param(self.gamma);
        let b = fwd.param(self.beta);
        fwd.graph.layer_norm(x, g, b)
    }

    /// Tape-free forward: normalise each `d`-wide row of `x` in place,
    /// with the arithmetic of [`qrec_tensor::Graph::layer_norm`].
    pub(crate) fn apply(&self, params: &Params, x: &mut [f32]) {
        let gamma = params.value(self.gamma).data();
        let beta = params.value(self.beta).data();
        for row in x.chunks_exact_mut(gamma.len()) {
            let (mean, inv_std) = layer_norm_stats(row);
            for ((x, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
                *x = g * ((*x - mean) * inv_std) + b;
            }
        }
    }
}

/// Inverted dropout: active only in training mode.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Dropout {
    /// Drop probability.
    pub p: f32,
}

impl Dropout {
    /// Create with drop probability `p` (0 disables).
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Dropout { p }
    }

    /// Apply dropout to `x`.
    pub fn forward(&self, fwd: &mut Fwd<'_>, x: NodeId) -> NodeId {
        if !fwd.training || self.p == 0.0 {
            return x;
        }
        let (rows, cols) = fwd.graph.value(x).shape();
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = Tensor::zeros(rows, cols);
        for v in mask.data_mut() {
            if fwd.rng.gen::<f32>() < keep {
                *v = scale;
            }
        }
        let m = fwd.constant(mask);
        fwd.graph.mul(x, m)
    }
}

/// Position-wise feed-forward block: `Linear → ReLU → Dropout → Linear`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FeedForward {
    lin1: Linear,
    lin2: Linear,
    drop: Dropout,
}

impl FeedForward {
    /// Create with hidden width `d_ff`.
    pub fn new(
        params: &mut Params,
        name: &str,
        d: usize,
        d_ff: usize,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Self {
        FeedForward {
            lin1: Linear::new(params, &format!("{name}.ff1"), d, d_ff, rng),
            lin2: Linear::new(params, &format!("{name}.ff2"), d_ff, d, rng),
            drop: Dropout::new(dropout),
        }
    }

    /// Apply the block.
    pub fn forward(&self, fwd: &mut Fwd<'_>, x: NodeId) -> NodeId {
        let h = self.lin1.forward(fwd, x);
        let h = fwd.graph.relu(h);
        let h = self.drop.forward(fwd, h);
        self.lin2.forward(fwd, h)
    }

    /// Tape-free inference forward over the `n` rows of `x`: hidden
    /// activations go to `h` (`n × d_ff`), the block's output to `out`
    /// (`n × d`). Dropout is the identity outside training.
    pub(crate) fn apply(
        &self,
        params: &Params,
        x: &[f32],
        n: usize,
        h: &mut [f32],
        out: &mut [f32],
    ) {
        self.lin1.apply(params, x, n, h);
        for v in h.iter_mut() {
            *v = v.max(0.0);
        }
        self.lin2.apply(params, h, n, out);
    }
}

/// The sinusoidal encoding's per-column divisors `10000^(2⌊i/2⌋/d)` —
/// the position-independent half of [`positional_encoding`], which an
/// incremental decode computes once instead of one `powf` per column per
/// step.
pub fn positional_divisors(d: usize) -> Vec<f32> {
    (0..d)
        .map(|i| 10_000f32.powf((2 * (i / 2)) as f32 / d as f32))
        .collect()
}

/// Write the encoding of position `pos` into `row`, one value per
/// divisor of `divisors` ([`positional_divisors`]): `sin` of the angle on
/// even columns, `cos` on odd ones.
pub fn positional_encoding_row_into(pos: usize, divisors: &[f32], row: &mut [f32]) {
    for (i, (slot, &div)) in row.iter_mut().zip(divisors).enumerate() {
        let angle = pos as f32 / div;
        *slot = if i % 2 == 0 { angle.sin() } else { angle.cos() };
    }
}

/// The sinusoidal positional encoding of the transformer paper, for
/// positions `0..len` and dimension `d`. Every row is a pure function of
/// its position, so a row built alone by
/// [`positional_encoding_row_into`] is bitwise the table's row.
pub fn positional_encoding(len: usize, d: usize) -> Tensor {
    let divisors = positional_divisors(d);
    let mut pe = Tensor::zeros(len, d);
    for pos in 0..len {
        positional_encoding_row_into(pos, &divisors, pe.row_mut(pos));
    }
    pe
}

/// A causal attention mask: `len × len` with 0 on/below the diagonal and
/// a large negative value above it (added to logits before softmax).
pub fn causal_mask(len: usize) -> Tensor {
    let mut m = Tensor::zeros(len, len);
    for r in 0..len {
        for c in (r + 1)..len {
            m.set(r, c, -1e9);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{forward_eval, Params};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn linear_shapes_and_bias() {
        let mut params = Params::new();
        let mut r = rng();
        let lin = Linear::new(&mut params, "l", 4, 3, &mut r);
        assert_eq!(params.len(), 2);
        let mut r2 = rng();
        let out_shape = forward_eval(&params, &mut r2, |fwd| {
            let x = fwd.constant(Tensor::ones(2, 4));
            let y = lin.forward(fwd, x);
            fwd.graph.value(y).shape()
        });
        assert_eq!(out_shape, (2, 3));
    }

    #[test]
    fn embedding_rows_match_table() {
        let mut params = Params::new();
        let mut r = rng();
        let emb = Embedding::new(&mut params, "e", 10, 4, &mut r);
        let row2 = params.value(crate::params::ParamId(0)).row(2).to_vec();
        let mut r2 = rng();
        let got = forward_eval(&params, &mut r2, |fwd| {
            let e = emb.forward(fwd, &[2, 2, 5]);
            fwd.graph.value(e).row(0).to_vec()
        });
        assert_eq!(got, row2);
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Move a store's biases/gains off their initial 0/1 so the affine
    /// halves of Linear and LayerNorm are exercised.
    fn perturb(params: &mut Params) {
        for i in 0..params.len() {
            for (j, v) in params
                .value_mut(crate::params::ParamId(i))
                .data_mut()
                .iter_mut()
                .enumerate()
            {
                *v += ((i * 7 + j * 3) % 11) as f32 * 0.03 - 0.15;
            }
        }
    }

    /// The tape-free forwards against the graph forwards they mirror,
    /// bit for bit, with f32 weights and with the int8 sidecar.
    #[test]
    fn tape_free_forwards_match_the_graph_forwards_bitwise() {
        let mut params = Params::new();
        let mut r = rng();
        let (d, d_ff, n) = (48, 96, 5);
        let ff = FeedForward::new(&mut params, "ff", d, d_ff, 0.3, &mut r);
        let ln = LayerNorm::new(&mut params, "ln", d);
        let emb = Embedding::new(&mut params, "e", 20, d, &mut r);
        perturb(&mut params);
        let x = init::uniform(n, d, -2.0, 2.0, &mut r);
        let ids = [3usize, 19, 3, 0, 7];
        for quantized in [false, true] {
            if quantized {
                params.quantize();
            }
            let (want_ff, want_ln, want_emb) = forward_eval(&params, &mut r, |fwd| {
                let xn = fwd.constant(x.clone());
                let f = ff.forward(fwd, xn);
                let l = ln.forward(fwd, xn);
                let e = emb.forward(fwd, &ids);
                (
                    fwd.graph.value(f).clone(),
                    fwd.graph.value(l).clone(),
                    fwd.graph.value(e).clone(),
                )
            });
            let (mut h, mut out) = (vec![0.0; n * d_ff], vec![0.0; n * d]);
            ff.apply(&params, x.data(), n, &mut h, &mut out);
            assert_eq!(bits(want_ff.data()), bits(&out), "ff, int8 {quantized}");
            let mut normed = x.data().to_vec();
            ln.apply(&params, &mut normed);
            assert_eq!(bits(want_ln.data()), bits(&normed), "ln, int8 {quantized}");
            let mut rows = vec![0.0; ids.len() * d];
            emb.gather_into(&params, &ids, &mut rows);
            assert_eq!(bits(want_emb.data()), bits(&rows), "emb, int8 {quantized}");
        }
    }

    #[test]
    fn eval_embedding_gathers_rows_without_binding_the_table() {
        let mut params = Params::new();
        let mut r = rng();
        let emb = Embedding::new(&mut params, "e", 10, 4, &mut r);
        let table = params.value(crate::params::ParamId(0)).clone();
        let mut r2 = rng();
        forward_eval(&params, &mut r2, |fwd| {
            let e = emb.forward(fwd, &[2, 9, 2]);
            assert_eq!(fwd.graph.len(), 1, "one 3-row constant, no table leaf");
            let got = fwd.graph.value(e);
            assert_eq!(bits(got.row(0)), bits(table.row(2)));
            assert_eq!(bits(got.row(1)), bits(table.row(9)));
            assert_eq!(bits(got.row(2)), bits(table.row(2)));
        });
    }

    #[test]
    fn layer_norm_normalises_rows() {
        let mut params = Params::new();
        let ln = LayerNorm::new(&mut params, "ln", 4);
        let mut r = rng();
        let (mean, var) = forward_eval(&params, &mut r, |fwd| {
            let x = fwd.constant(Tensor::from_vec(1, 4, vec![1., 2., 3., 10.]));
            let y = ln.forward(fwd, x);
            let row = fwd.graph.value(y).row(0);
            let mean = row.iter().sum::<f32>() / 4.0;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            (mean, var)
        });
        assert!(mean.abs() < 1e-4);
        assert!((var - 1.0).abs() < 1e-2);
    }

    #[test]
    fn dropout_inactive_in_eval_mode() {
        let params = Params::new();
        let d = Dropout::new(0.5);
        let mut r = rng();
        let same = forward_eval(&params, &mut r, |fwd| {
            let x = fwd.constant(Tensor::ones(2, 8));
            let y = d.forward(fwd, x);
            fwd.graph.value(y).data().iter().all(|&v| v == 1.0)
        });
        assert!(same);
    }

    #[test]
    fn dropout_zeroes_and_rescales_in_training() {
        let mut params = Params::new();
        let _ = &mut params;
        let d = Dropout::new(0.5);
        let mut graph = qrec_tensor::Graph::new();
        let mut bind = crate::params::Binding::new(0);
        let mut r = rng();
        let mut fwd = Fwd {
            graph: &mut graph,
            params: &params,
            bind: &mut bind,
            rng: &mut r,
            training: true,
        };
        let x = fwd.constant(Tensor::ones(10, 10));
        let y = d.forward(&mut fwd, x);
        let data = graph.value(y).data();
        let zeros = data.iter().filter(|&&v| v == 0.0).count();
        let twos = data.iter().filter(|&&v| (v - 2.0).abs() < 1e-6).count();
        assert_eq!(zeros + twos, 100);
        assert!(zeros > 20 && zeros < 80, "zeros {zeros}");
    }

    #[test]
    fn positional_encoding_properties() {
        let pe = positional_encoding(8, 6);
        assert_eq!(pe.shape(), (8, 6));
        // Position 0: sin(0)=0 at even dims, cos(0)=1 at odd dims.
        assert_eq!(pe.get(0, 0), 0.0);
        assert_eq!(pe.get(0, 1), 1.0);
        // Distinct positions get distinct encodings.
        assert_ne!(pe.row(1), pe.row(2));
        assert!(pe.data().iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn positional_encoding_matches_the_closed_form_bitwise() {
        // The table is assembled from shared divisors; each entry must
        // still be the textbook expression evaluated on its own.
        let (len, d) = (9, 6);
        let pe = positional_encoding(len, d);
        for pos in 0..len {
            for i in 0..d {
                let angle = pos as f32 / 10_000f32.powf((2 * (i / 2)) as f32 / d as f32);
                let want = if i % 2 == 0 { angle.sin() } else { angle.cos() };
                assert_eq!(
                    pe.get(pos, i).to_bits(),
                    want.to_bits(),
                    "pos {pos} col {i}"
                );
            }
        }
    }

    #[test]
    fn causal_mask_blocks_future() {
        let m = causal_mask(3);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert!(m.get(0, 1) < -1e8);
        assert!(m.get(0, 2) < -1e8);
        assert!(m.get(1, 2) < -1e8);
    }

    #[test]
    fn feed_forward_shapes() {
        let mut params = Params::new();
        let mut r = rng();
        let ff = FeedForward::new(&mut params, "ff", 4, 16, 0.0, &mut r);
        let mut r2 = rng();
        let shape = forward_eval(&params, &mut r2, |fwd| {
            let x = fwd.constant(Tensor::ones(3, 4));
            let y = ff.forward(fwd, x);
            fwd.graph.value(y).shape()
        });
        assert_eq!(shape, (3, 4));
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn dropout_rejects_p_one() {
        let _ = Dropout::new(1.0);
    }
}
