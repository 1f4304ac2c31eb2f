//! Multi-head scaled dot-product attention: the tape form the training
//! forward and the full-prefix decode run ([`MultiHeadAttention::forward`]
//! — the projections as graph ops, the attention itself as one node with
//! a hand-written backward), and the two fused tape-free kernels — over a
//! hypothesis's growing history ([`attend_fused`]) and over a fixed set
//! of source rows whose keys are stored transposed ([`attend_source`]),
//! which is also the forward of the tape node.

use crate::layers::Linear;
use crate::params::{Fwd, Params};
use qrec_tensor::kernel::{fmadd, tile_gemm, tile_gemm_tn, Strided, Widen};
use qrec_tensor::tensor::{softmax_backward_row, softmax_rows_in_place};
use qrec_tensor::{NodeId, Tensor};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Multi-head attention with `heads` heads over model width `d`
/// (`d % heads == 0`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    pub(crate) q: Linear,
    pub(crate) k: Linear,
    pub(crate) v: Linear,
    pub(crate) out: Linear,
    /// Number of heads.
    pub heads: usize,
    /// Model width.
    pub d: usize,
}

impl MultiHeadAttention {
    /// Create the four projections.
    pub fn new(params: &mut Params, name: &str, d: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert!(heads >= 1, "attention needs at least one head");
        assert!(
            d.is_multiple_of(heads),
            "model width {d} not divisible by {heads} heads"
        );
        MultiHeadAttention {
            q: Linear::new(params, &format!("{name}.q"), d, d, rng),
            k: Linear::new(params, &format!("{name}.k"), d, d, rng),
            v: Linear::new(params, &format!("{name}.v"), d, d, rng),
            out: Linear::new(params, &format!("{name}.out"), d, d, rng),
            heads,
            d,
        }
    }

    /// Attend from `x_q` (`n × d`) over `x_kv` (`m × d`).
    ///
    /// `mask`, if given, is an `n × m` additive logit mask (use
    /// [`crate::layers::causal_mask`] for autoregressive self-attention).
    pub fn forward(
        &self,
        fwd: &mut Fwd<'_>,
        x_q: NodeId,
        x_kv: NodeId,
        mask: Option<&Tensor>,
    ) -> NodeId {
        let q = self.q.forward(fwd, x_q);
        let k = self.k.forward(fwd, x_kv);
        let v = self.v.forward(fwd, x_kv);
        let ctx = self.attend(fwd, q, k, v, mask);
        self.out.forward(fwd, ctx)
    }

    /// Scaled dot-product attention over already-projected `q`/`k`/`v`
    /// (full width, three distinct nodes), as **one** tape node.
    ///
    /// The forward is the serving path's kernel, [`attend_source`], over
    /// every query row at once and keys transposed once, with the softmax
    /// weights kept for the backward. The backward is [`attend_backward`]. Both are bit for bit what the op-by-op form
    /// (per head: three column slices, `matmul_nt`, `scale`, `add` of the
    /// mask, `softmax_rows`, `matmul`, then `hcat`) computes — the test
    /// suite keeps that form as the oracle.
    fn attend(
        &self,
        fwd: &mut Fwd<'_>,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        mask: Option<&Tensor>,
    ) -> NodeId {
        #[cfg(test)]
        if crate::params::oracle::active() {
            return self.attend_op_by_op(fwd, q, k, v, mask);
        }
        let heads = self.heads;
        let graph = &mut *fwd.graph;
        let (qv, kv, vv) = (
            graph.value_shared(q),
            graph.value_shared(k),
            graph.value_shared(v),
        );
        let (n, m, d) = (qv.rows(), kv.rows(), self.d);
        let mut kt = Vec::new();
        transpose_into(kv.data(), d, &mut kt);
        // Row i's weights: `heads` runs of `m`, the layout of `probs`.
        let mut probs = vec![0.0f32; n * heads * m];
        let mut ctx = Tensor::zeros(n, d);
        let src = SourceKv {
            kt: &kt,
            v: vv.data(),
            m,
        };
        attend_source(
            qv.data(),
            src,
            heads,
            mask.map(Tensor::data),
            &mut probs,
            ctx.data_mut(),
        );
        graph.custom(ctx, move |g, store| {
            let (dq, dk, dv) = attend_backward(&qv, &kv, &vv, &probs, heads, g);
            store.accumulate(q, dq);
            store.accumulate(k, dk);
            store.accumulate(v, dv);
        })
    }

    /// [`MultiHeadAttention::attend`] as the graph ops it replaced: the
    /// oracle its forward and backward are held to, bit for bit.
    #[cfg(test)]
    fn attend_op_by_op(
        &self,
        fwd: &mut Fwd<'_>,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        mask: Option<&Tensor>,
    ) -> NodeId {
        let dh = self.d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mask_node = mask.map(|m| fwd.constant(m.clone()));
        let head_ctx = |fwd: &mut Fwd<'_>, h: usize| {
            let (s, e) = (h * dh, (h + 1) * dh);
            let qh = fwd.graph.slice_cols(q, s, e);
            let kh = fwd.graph.slice_cols(k, s, e);
            let vh = fwd.graph.slice_cols(v, s, e);
            let logits = fwd.graph.matmul_nt(qh, kh); // n × m
            let logits = fwd.graph.scale(logits, scale);
            let logits = match mask_node {
                Some(m) => fwd.graph.add(logits, m),
                None => logits,
            };
            let attn = fwd.graph.softmax_rows(logits);
            fwd.graph.matmul(attn, vh) // n × dh
        };
        let mut concat = head_ctx(fwd, 0);
        for h in 1..self.heads {
            let ctx = head_ctx(fwd, h);
            concat = fwd.graph.hcat(concat, ctx);
        }
        concat
    }
}

/// The gradients of [`MultiHeadAttention::attend`]'s context with respect
/// to `q` (`n × d`), `k` and `v` (`m × d`), given the softmax weights
/// `probs` its forward kept (row `i`: `heads` runs of `m`) and the
/// context's gradient `g` (`n × d`).
///
/// Per head, with `P` the weights and `g`, `q`, `k`, `v` the head's
/// columns, four register-tile products over every query row: `dP =
/// g·Vᵀ`, then `dS` the softmax Jacobian applied to `dP` row by row
/// ([`softmax_backward_row`]) times the logit scale, `dQ = dS·K`, `dK =
/// dSᵀ·Q` and `dV = Pᵀ·g`. Every product element is the GEMM's
/// single-accumulator ascending [`fmadd`] fold from `0.0` over the same
/// index the op-by-op tape's `matmul` / `matmul_nt` backward folds over
/// (`dP` over the head's columns, `dQ` over positions, `dK` and `dV` over
/// query rows), so the three gradients are bit for bit the ones that tape
/// accumulates — down to the sign of a zero: with several heads each of
/// its per-head column slices arrives zero-padded to full width and is
/// summed into the node, which turns a `-0.0` into `+0.0`; the closing
/// `+ 0.0` does the same here.
fn attend_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    probs: &[f32],
    heads: usize,
    g: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (n, d) = q.shape();
    let m = k.rows();
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let (mut dq, mut dk, mut dv) = (
        Tensor::zeros(n, d),
        Tensor::zeros(m, d),
        Tensor::zeros(m, d),
    );
    if m == 0 {
        return (dq, dk, dv);
    }
    // Values transposed once (`d × m`): head `h`'s `Vᵀ` is one block.
    let mut vt = Vec::new();
    transpose_into(v.data(), d, &mut vt);
    let (mut dp, mut ds) = (vec![0.0f32; n * m], vec![0.0f32; n * m]);
    for h in 0..heads {
        // Head `h`'s columns of `g`, `k` and `q`, and its weights.
        let [gh, kh, qh] = [g, k, q].map(|x| Strided::new(&x.data()[h * dh..], d));
        let p = Strided::new(&probs[h * m..], heads * m);
        tile_gemm(gh, Strided::new(&vt[h * dh * m..], m), n, dh, m, &mut dp, m);
        for (i, (dpi, dsi)) in dp.chunks_exact(m).zip(ds.chunks_exact_mut(m)).enumerate() {
            softmax_backward_row(&probs[(i * heads + h) * m..][..m], dpi, dsi);
            for x in dsi.iter_mut() {
                *x *= scale;
            }
        }
        let ds = Strided::new(&ds[..], m);
        tile_gemm(ds, kh, n, m, dh, &mut dq.data_mut()[h * dh..], d);
        tile_gemm_tn(ds, qh, m, n, dh, &mut dk.data_mut()[h * dh..], d);
        tile_gemm_tn(p, gh, m, n, dh, &mut dv.data_mut()[h * dh..], d);
    }
    if heads > 1 {
        for t in [&mut dq, &mut dk, &mut dv] {
            for x in t.data_mut() {
                *x += 0.0;
            }
        }
    }
    (dq, dk, dv)
}

/// The key and value rows one query attends over: `t` rows of `d`
/// values each, contiguous, in either resident form of the decode
/// caches.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KvPair<'a> {
    /// Full-precision rows.
    F32 {
        /// Key rows, row-major.
        k: &'a [f32],
        /// Value rows, row-major.
        v: &'a [f32],
    },
    /// Int8 rows with one scale per row; element `(p, c)` of the keys
    /// reads as `f32::from(k[p·d + c]) * k_scales[p]`, values likewise.
    I8 {
        /// Key rows, row-major int8.
        k: &'a [i8],
        /// Per-row key dequantization scales.
        k_scales: &'a [f32],
        /// Value rows, row-major int8.
        v: &'a [i8],
        /// Per-row value dequantization scales.
        v_scales: &'a [f32],
    },
}

/// Fused multi-head attention of one query row over `t` key/value rows,
/// tape-free: for each head's column range of `q`, dot against the same
/// columns of every key row, scale by `1/√d_head`, softmax over the `t`
/// positions, and accumulate the probability-weighted value rows into
/// the same columns of `ctx`. Heads are walked in place — nothing is
/// sliced, concatenated or allocated. `scores` is scratch for every
/// head's `t` probabilities, head by head; its length over `heads` says
/// how many positions to attend. All heads' logits come first, so one
/// softmax call takes every head's row.
///
/// Bit for bit the context row [`MultiHeadAttention::forward`] computes
/// unmasked: each logit is the GEMM's single-accumulator ascending-`k`
/// [`fmadd`] fold from `0.0` (`matmul_nt`), times the scale; softmax is
/// the shared [`softmax_rows_in_place`]; each context element is the same
/// fold over ascending positions (`matmul`). Reading an int8 element as
/// `f32::from(q) * scale` on the fly yields the value a dequantized copy
/// of the row would hold, so the folds see identical operands.
pub(crate) fn attend_fused(
    q: &[f32],
    kv: KvPair<'_>,
    heads: usize,
    scores: &mut [f32],
    ctx: &mut [f32],
) {
    let d = q.len();
    match kv {
        KvPair::F32 { k, v } => attend_rows(
            q,
            heads,
            scores,
            ctx,
            |p| (&k[p * d..(p + 1) * d], 1.0),
            |p| (&v[p * d..(p + 1) * d], 1.0),
        ),
        KvPair::I8 {
            k,
            k_scales,
            v,
            v_scales,
        } => attend_rows(
            q,
            heads,
            scores,
            ctx,
            |p| (&k[p * d..(p + 1) * d], k_scales[p]),
            |p| (&v[p * d..(p + 1) * d], v_scales[p]),
        ),
    }
}

/// [`attend_fused`] over row readers: `key(p)` / `value(p)` return
/// position `p`'s full-width row and its scale. `scores.len() / heads`
/// is the number of positions attended.
#[inline(always)]
fn attend_rows<'a, T: Widen + 'a>(
    q: &[f32],
    heads: usize,
    scores: &mut [f32],
    ctx: &mut [f32],
    key: impl Fn(usize) -> (&'a [T], f32),
    value: impl Fn(usize) -> (&'a [T], f32),
) {
    let dh = q.len() / heads;
    let t = scores.len() / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    for h in 0..heads {
        let cols = h * dh..(h + 1) * dh;
        let qh = &q[cols.clone()];
        for (p, score) in scores[h * t..(h + 1) * t].iter_mut().enumerate() {
            let (row, row_scale) = key(p);
            let mut s = 0.0f32;
            for (&qv, &kv) in qh.iter().zip(&row[cols.clone()]) {
                s = fmadd(qv, kv.widen_scaled(row_scale), s);
            }
            *score = s * scale;
        }
    }
    softmax_rows_in_place(scores, t);
    for h in 0..heads {
        let cols = h * dh..(h + 1) * dh;
        let out = &mut ctx[cols.clone()];
        out.fill(0.0);
        for (p, &w) in scores[h * t..(h + 1) * t].iter().enumerate() {
            let (row, row_scale) = value(p);
            for (o, &vv) in out.iter_mut().zip(&row[cols.clone()]) {
                *o = fmadd(w, vv.widen_scaled(row_scale), *o);
            }
        }
    }
}

/// `x` (`rows × cols`, row-major) transposed into `out` (`cols × rows`).
pub(crate) fn transpose_into(x: &[f32], cols: usize, out: &mut Vec<f32>) {
    let rows = x.len().checked_div(cols).unwrap_or(0);
    out.resize(x.len(), 0.0);
    for (r, row) in x.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[c * rows + r] = v;
        }
    }
}

/// The `m` full-precision source rows a batch of queries attends: rows
/// that stay fixed while many queries attend them — the cross-attention
/// K/V of a decode, an encoder layer's K/V, a training example's — with
/// the keys stored **transposed** (`kt`: `d × m`, [`transpose_into`]),
/// so head `h`'s keys are the contiguous `d_h × m` block of rows
/// `h·d_h..`, and the values row-major (`v`: `m × d`).
#[derive(Debug, Clone, Copy)]
pub struct SourceKv<'a> {
    /// Keys, transposed: `d × m`.
    pub kt: &'a [f32],
    /// Values, row-major: `m × d`.
    pub v: &'a [f32],
    /// Source rows.
    pub m: usize,
}

/// Multi-head attention of the `n` query rows of `q` (`n × d`) over the
/// source rows `src`, tape-free, per head as two register-tile products
/// over every query row at once: the logits `Q_h·K_hᵀ` (`n × m`, the
/// keys already transposed), scaled by `1/√d_h`, plus `mask` (`n × m`
/// additive terms, the same for every head; added after the scale, as the
/// graph ops did: two roundings, never a fused multiply-add); one softmax
/// over all `n · heads` rows; then the context `P_h·V_h` into head `h`'s
/// columns of `ctx` (`n × d`). Nothing is sliced, concatenated or
/// allocated: a head's columns are read and written where they lie
/// ([`Strided`]). `probs` is scratch for `n · heads · m` weights — on
/// return row `i`'s `heads` runs of `m` softmax weights, which the tape
/// node keeps for its backward.
///
/// Bit for bit what [`attend_fused`] and the graph ops compute per row:
/// each logit and each context element is the single-accumulator
/// ascending [`fmadd`] fold from `0.0` that every GEMM path computes (the
/// tile's, [`tile_gemm`]), over the head's columns for a logit and over
/// the positions for a context element, and each row of weights is the
/// shared softmax of the same values.
pub fn attend_source(
    q: &[f32],
    src: SourceKv<'_>,
    heads: usize,
    mask: Option<&[f32]>,
    probs: &mut [f32],
    ctx: &mut [f32],
) {
    let m = src.m;
    if m == 0 {
        ctx.fill(0.0);
        return;
    }
    let d = src.kt.len() / m;
    let (n, dh) = (q.len() / d, d / heads);
    let scale = 1.0 / (dh as f32).sqrt();
    let probs = &mut probs[..n * heads * m];
    for h in 0..heads {
        let (qh, kth) = (
            Strided::new(&q[h * dh..], d),
            Strided::new(&src.kt[h * dh * m..], m),
        );
        tile_gemm(qh, kth, n, dh, m, &mut probs[h * m..], heads * m);
    }
    for (i, row) in probs.chunks_exact_mut(heads * m).enumerate() {
        for s in row.iter_mut() {
            *s *= scale;
        }
        if let Some(mask) = mask {
            for head in row.chunks_exact_mut(m) {
                for (s, &mk) in head.iter_mut().zip(&mask[i * m..(i + 1) * m]) {
                    *s += mk;
                }
            }
        }
    }
    softmax_rows_in_place(probs, m);
    for h in 0..heads {
        let (p, vh) = (
            Strided::new(&probs[h * m..], heads * m),
            Strided::new(&src.v[h * dh..], d),
        );
        tile_gemm(p, vh, n, m, dh, &mut ctx[h * dh..], d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::causal_mask;
    use crate::params::{forward_eval, Params};
    use qrec_tensor::init;
    use rand::SeedableRng;

    fn setup(d: usize, heads: usize) -> (Params, MultiHeadAttention, StdRng) {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mha = MultiHeadAttention::new(&mut params, "attn", d, heads, &mut rng);
        (params, mha, rng)
    }

    #[test]
    fn output_shape_matches_query_rows() {
        let (params, mha, mut rng) = setup(8, 2);
        let shape = forward_eval(&params, &mut rng, |fwd| {
            let qt = init::uniform(3, 8, -1.0, 1.0, fwd.rng);
            let q = fwd.constant(qt);
            let kvt = init::uniform(5, 8, -1.0, 1.0, fwd.rng);
            let kv = fwd.constant(kvt);
            let y = mha.forward(fwd, q, kv, None);
            fwd.graph.value(y).shape()
        });
        assert_eq!(shape, (3, 8));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_bad_head_count() {
        let _ = setup(6, 4);
    }

    #[test]
    fn causal_mask_makes_prefix_invariant() {
        // With a causal mask, output row 0 must not change when later
        // key/value rows change.
        let (params, mha, _) = setup(8, 2);
        let x1 = init::uniform(4, 8, -1.0, 1.0, &mut StdRng::seed_from_u64(10));
        let mut x2 = x1.clone();
        for c in 0..8 {
            x2.set(3, c, 9.0); // perturb the last position only
        }
        let run = |x: Tensor| {
            let mut rng = StdRng::seed_from_u64(0);
            forward_eval(&params, &mut rng, |fwd| {
                let xn = fwd.constant(x);
                let y = mha.forward(fwd, xn, xn, Some(&causal_mask(4)));
                fwd.graph.value(y).row(0).to_vec()
            })
        };
        let r1 = run(x1);
        let r2 = run(x2);
        for (a, b) in r1.iter().zip(&r2) {
            assert!((a - b).abs() < 1e-5, "row 0 leaked future info");
        }
    }

    #[test]
    fn without_mask_future_does_leak() {
        // Sanity check of the previous test's sensitivity: unmasked
        // attention DOES see the perturbation.
        let (params, mha, _) = setup(8, 2);
        let x1 = init::uniform(4, 8, -1.0, 1.0, &mut StdRng::seed_from_u64(10));
        let mut x2 = x1.clone();
        for c in 0..8 {
            x2.set(3, c, 9.0);
        }
        let run = |x: Tensor| {
            let mut rng = StdRng::seed_from_u64(0);
            forward_eval(&params, &mut rng, |fwd| {
                let xn = fwd.constant(x);
                let y = mha.forward(fwd, xn, xn, None);
                fwd.graph.value(y).row(0).to_vec()
            })
        };
        let r1 = run(x1);
        let r2 = run(x2);
        let diff: f32 = r1.iter().zip(&r2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "unmasked attention should see the change");
    }

    /// The per-row form [`attend_source`] replaced: one query row over the
    /// transposed keys, each head's logits as a serial fold per position
    /// lane, the context as one sweep over the value rows. The oracle the
    /// rows form is held to, bit for bit.
    fn attend_source_row(
        q: &[f32],
        kt: &[f32],
        v: &[f32],
        heads: usize,
        mask: Option<&[f32]>,
        scores: &mut [f32],
        ctx: &mut [f32],
    ) {
        let d = q.len();
        let m = kt.len() / d;
        ctx.fill(0.0);
        if m == 0 {
            return;
        }
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let scores = &mut scores[..heads * m];
        let head_keys = q.chunks_exact(dh).zip(kt.chunks_exact(dh * m));
        for (head_scores, (qh, kth)) in scores.chunks_exact_mut(m).zip(head_keys) {
            head_scores.fill(0.0);
            for (&qv, krow) in qh.iter().zip(kth.chunks_exact(m)) {
                for (s, &kv) in head_scores.iter_mut().zip(krow) {
                    *s = fmadd(qv, kv, *s);
                }
            }
            for s in head_scores.iter_mut() {
                *s *= scale;
            }
            if let Some(mask) = mask {
                for (s, &mk) in head_scores.iter_mut().zip(mask) {
                    *s += mk;
                }
            }
            softmax_rows_in_place(head_scores, m);
        }
        for (p, vrow) in v.chunks_exact(d).enumerate() {
            let heads_out = ctx.chunks_exact_mut(dh).zip(vrow.chunks_exact(dh));
            for ((out, vh), head_scores) in heads_out.zip(scores.chunks_exact(m)) {
                let w = head_scores[p];
                for (o, &vv) in out.iter_mut().zip(vh) {
                    *o = fmadd(w, vv, *o);
                }
            }
        }
    }

    /// Both fused kernels against the graph ops they replace, on the same
    /// projected q/k/v: bit for bit, for a batch of query rows over a
    /// shared K/V (the cross-attention shape) — [`attend_fused`] per row
    /// over the row-major keys, [`attend_source`] over all rows at once
    /// and the keys' transpose, with scratch longer than it needs and full
    /// of stale values.
    #[test]
    fn fused_attention_matches_the_graph_ops_bitwise() {
        for (d, heads, t) in [(8, 2, 1), (48, 4, 7), (48, 4, 20), (48, 4, 33), (16, 1, 5)] {
            let (params, mha, mut rng) = setup(d, heads);
            let q = init::uniform(3, d, -1.0, 1.0, &mut rng);
            let k = init::uniform(t, d, -1.0, 1.0, &mut rng);
            let v = init::uniform(t, d, -1.0, 1.0, &mut rng);
            let want = forward_eval(&params, &mut rng, |fwd| {
                let (qn, kn, vn) = (
                    fwd.constant(q.clone()),
                    fwd.constant(k.clone()),
                    fwd.constant(v.clone()),
                );
                let ctx = mha.attend_op_by_op(fwd, qn, kn, vn, None);
                fwd.graph.value(ctx).clone()
            });
            let mut kt = vec![f32::NAN; 3];
            transpose_into(k.data(), d, &mut kt);
            assert_eq!(kt.len(), t * d);
            assert_eq!(kt[(d - 1) * t], k.get(0, d - 1), "kt is d × t");
            let mut scores = vec![0.0; heads * t];
            let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for r in 0..3 {
                let mut ctx = vec![f32::NAN; d];
                attend_fused(
                    q.row(r),
                    KvPair::F32 {
                        k: k.data(),
                        v: v.data(),
                    },
                    heads,
                    &mut scores,
                    &mut ctx,
                );
                assert_eq!(bits(want.row(r)), bits(&ctx), "d {d} heads {heads} t {t}");
            }
            let mut ctx = vec![f32::NAN; 3 * d];
            let mut probs = vec![7.5; 3 * heads * t + 3];
            let src = SourceKv {
                kt: &kt,
                v: v.data(),
                m: t,
            };
            attend_source(q.data(), src, heads, None, &mut probs, &mut ctx);
            assert_eq!(
                bits(want.data()),
                bits(&ctx),
                "transposed keys, d {d} heads {heads} t {t}"
            );
        }
    }

    /// `n × m` additive mask blocking the positions after each row's own
    /// (`c > r`): the causal mask, stretched to a rectangle.
    fn causal_rect(n: usize, m: usize) -> Vec<f32> {
        (0..n * m)
            .map(|i| if i % m > i / m { -1e9 } else { 0.0 })
            .collect()
    }

    /// The rows form against the per-row form it replaced, bit for bit —
    /// context and every softmax weight — on every query count up to 8,
    /// every source length up to 40 and 1, 2 and 4 heads, unmasked,
    /// causally masked and under an additive mask of ordinary logit
    /// magnitudes, with q/k/v projected through f32 weights and through
    /// the same weights' int8 sidecar.
    #[test]
    fn rows_form_matches_the_per_row_form_bitwise() {
        let d = 48;
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for heads in [1, 2, 4] {
            let (f32_params, mha, mut rng) = setup(d, heads);
            let mut int8_params = f32_params.clone();
            int8_params.quantize();
            let xq = init::uniform(8, d, -1.5, 1.5, &mut rng);
            let xkv = init::uniform(40, d, -1.5, 1.5, &mut rng);
            for params in [&f32_params, &int8_params] {
                let project = |lin: &Linear, x: &Tensor| {
                    let mut out = vec![0.0; x.len()];
                    lin.apply(params, x.data(), x.rows(), &mut out);
                    out
                };
                let (q, k, v) = (
                    project(&mha.q, &xq),
                    project(&mha.k, &xkv),
                    project(&mha.v, &xkv),
                );
                for m in 1..=40 {
                    let (k, v) = (&k[..m * d], &v[..m * d]);
                    let mut kt = Vec::new();
                    transpose_into(k, d, &mut kt);
                    for n in 1..=8 {
                        let q = &q[..n * d];
                        let causal = causal_rect(n, m);
                        // Additive terms of the logits' own size, so that the
                        // order of scale and add shows in the bits.
                        let bias: Vec<f32> = (0..n * m)
                            .map(|i| ((i * 7919) % 61) as f32 * 0.037 - 1.1)
                            .collect();
                        for mask in [None, Some(&causal[..]), Some(&bias[..])] {
                            let case = format!(
                                "int8 {} heads {heads} n {n} m {m} masked {}",
                                params.is_quantized(),
                                mask.is_some()
                            );
                            let mut want = vec![f32::NAN; n * d];
                            let mut want_probs = vec![f32::NAN; n * heads * m];
                            let mut scores = vec![7.5; heads * m];
                            for (i, (qi, ctx)) in
                                q.chunks_exact(d).zip(want.chunks_exact_mut(d)).enumerate()
                            {
                                let mask = mask.map(|mk| &mk[i * m..(i + 1) * m]);
                                attend_source_row(qi, &kt, v, heads, mask, &mut scores, ctx);
                                want_probs[i * heads * m..][..heads * m].copy_from_slice(&scores);
                            }
                            let mut got = vec![f32::NAN; n * d];
                            let mut probs = vec![7.5; n * heads * m + 5];
                            let src = SourceKv { kt: &kt, v, m };
                            attend_source(q, src, heads, mask, &mut probs, &mut got);
                            assert_eq!(bits(&want), bits(&got), "context, {case}");
                            let probs = &probs[..n * heads * m];
                            assert_eq!(bits(&want_probs), bits(probs), "weights, {case}");
                        }
                    }
                }
            }
        }
    }

    /// No source rows: the context is zeros, as the row-major kernel
    /// leaves it.
    #[test]
    fn attending_an_empty_source_yields_a_zero_context() {
        let mut ctx = vec![f32::NAN; 16];
        let src = SourceKv {
            kt: &[],
            v: &[],
            m: 0,
        };
        attend_source(&[1.0; 16], src, 2, None, &mut [], &mut ctx);
        assert_eq!(ctx, vec![0.0; 16]);
    }

    /// Dequantizing int8 rows on the fly inside the folds equals
    /// attending over a dequantized f32 copy of the same rows.
    #[test]
    fn fused_attention_over_int8_rows_equals_dequantize_then_attend() {
        use qrec_tensor::qi8;
        let (d, heads, t) = (48, 4, 9);
        let mut rng = StdRng::seed_from_u64(4);
        let q = init::uniform(1, d, -1.0, 1.0, &mut rng);
        let quantize = |x: &Tensor| {
            let mut data = Vec::new();
            let mut scales = Vec::new();
            for r in 0..t {
                // Row magnitudes differ so per-row scales do.
                let row: Vec<f32> = x.row(r).iter().map(|v| v * (r + 1) as f32).collect();
                let s = qi8::calibrate(&row);
                scales.push(s);
                data.extend(qi8::quantize(&row, s));
            }
            (data, scales)
        };
        let (kq, ks) = quantize(&init::uniform(t, d, -1.0, 1.0, &mut rng));
        let (vq, vs) = quantize(&init::uniform(t, d, -1.0, 1.0, &mut rng));
        let dequant = |data: &[i8], scales: &[f32]| -> Vec<f32> {
            data.chunks_exact(d)
                .zip(scales)
                .flat_map(|(row, &s)| row.iter().map(move |&x| f32::from(x) * s))
                .collect()
        };
        let mut scores = vec![0.0; heads * t];
        let mut want = vec![0.0; d];
        attend_fused(
            q.row(0),
            KvPair::F32 {
                k: &dequant(&kq, &ks),
                v: &dequant(&vq, &vs),
            },
            heads,
            &mut scores,
            &mut want,
        );
        let mut got = vec![0.0; d];
        attend_fused(
            q.row(0),
            KvPair::I8 {
                k: &kq,
                k_scales: &ks,
                v: &vq,
                v_scales: &vs,
            },
            heads,
            &mut scores,
            &mut got,
        );
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&want), bits(&got));
    }

    /// Record attention over the leaves `q`, `k`, `v` — fused, or op by
    /// op — reduce the context to a scalar through fixed non-uniform
    /// weights and backpropagate: the context and the three gradients.
    fn attend_and_backprop(
        mha: &MultiHeadAttention,
        params: &Params,
        [q, k, v]: [&Tensor; 3],
        mask: Option<&Tensor>,
        op_by_op: bool,
    ) -> (Tensor, [Tensor; 3]) {
        let mut graph = qrec_tensor::Graph::new();
        let mut bind = crate::params::Binding::new(params.len());
        let mut rng = StdRng::seed_from_u64(0);
        let mut fwd = Fwd {
            graph: &mut graph,
            params,
            bind: &mut bind,
            rng: &mut rng,
            training: true,
        };
        let leaves = [q, k, v].map(|t| fwd.constant(t.clone()));
        let [qn, kn, vn] = leaves;
        let ctx = if op_by_op {
            mha.attend_op_by_op(&mut fwd, qn, kn, vn, mask)
        } else {
            mha.attend(&mut fwd, qn, kn, vn, mask)
        };
        let (n, d) = graph.value(ctx).shape();
        let w = graph.input(reduction_weights(d));
        let rows = graph.matmul(ctx, w);
        let ones = graph.input(Tensor::ones(1, n));
        let loss = graph.matmul(ones, rows);
        graph.backward(loss);
        let grads = leaves.map(|id| graph.grad(id).expect("gradient reaches q, k and v").clone());
        (graph.value(ctx).clone(), grads)
    }

    /// The `d × 1` weights that reduce a context to a scalar. One is the
    /// smallest negative subnormal, so one column of the context's
    /// gradient underflows, against every softmax weight under a half,
    /// to `-0.0`.
    fn reduction_weights(d: usize) -> Tensor {
        let mut w = init::uniform(d, 1, -1.0, 1.0, &mut StdRng::seed_from_u64(42));
        w.data_mut()[1] = -1e-45;
        w
    }

    /// An additive mask that is neither causal nor square: about a third
    /// of the positions blocked, never a whole row.
    fn ragged_mask(n: usize, m: usize) -> Tensor {
        let mut mask = Tensor::zeros(n, m);
        for r in 0..n {
            for c in 0..m {
                if (r * 5 + c * 3) % 7 < 2 && c != r % m {
                    mask.set(r, c, -1e9);
                }
            }
        }
        mask
    }

    /// The (heads, n, m) grid of the fused-node tests: one head and
    /// several, more queries than keys and fewer, a single key.
    const NODE_SHAPES: [(usize, usize, usize, usize); 5] = [
        (16, 1, 3, 5),
        (48, 4, 7, 4),
        (48, 4, 20, 23),
        (8, 2, 4, 1),
        (16, 4, 5, 5),
    ];

    /// The one-node attention against the op-by-op tape it replaced:
    /// context and all three gradients bit for bit, masked and not, with
    /// zeros of both signs and subnormals among the inputs, and a column
    /// of the smallest negative subnormal in `q`, in `k` and in the
    /// context's gradient, so that some `dK`, `dQ` and `dV` folds end on
    /// `-0.0` — a zero's sign is the one thing the tape's summation of
    /// per-head slices changes, and the node has to change it too.
    #[test]
    fn fused_node_matches_the_op_by_op_tape_bitwise() {
        for (d, heads, n, m) in NODE_SHAPES {
            let (params, mha, mut rng) = setup(d, heads);
            let mut sample = |rows: usize| {
                let mut t = init::uniform(rows, d, -1.0, 1.0, &mut rng);
                for (i, x) in t.data_mut().iter_mut().enumerate() {
                    match i % 13 {
                        0 => *x = 0.0,
                        1 => *x = -0.0,
                        2 => *x = 1e-40,
                        3 => *x = -1e-30,
                        _ => {}
                    }
                    if i % d == 5 {
                        *x = -1e-45;
                    }
                }
                t
            };
            let (q, k, v) = (sample(n), sample(m), sample(m));
            let mask = ragged_mask(n, m);
            for mask in [None, Some(&mask)] {
                let want = attend_and_backprop(&mha, &params, [&q, &k, &v], mask, true);
                let got = attend_and_backprop(&mha, &params, [&q, &k, &v], mask, false);
                let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let ctx = format!("d {d} heads {heads} n {n} m {m} masked {}", mask.is_some());
                assert_eq!(bits(&want.0), bits(&got.0), "context, {ctx}");
                for (name, (w, g)) in ["dq", "dk", "dv"].iter().zip(want.1.iter().zip(&got.1)) {
                    assert_eq!(bits(w), bits(g), "{name}, {ctx}");
                }
            }
        }
    }

    /// Central finite differences through the fused node's forward against
    /// its hand-written backward, for each of q, k and v.
    #[test]
    fn fused_node_gradients_pass_a_finite_difference_check() {
        for (d, heads, n, m) in NODE_SHAPES {
            let (params, mha, mut rng) = setup(d, heads);
            let inputs = [
                init::uniform(n, d, -1.0, 1.0, &mut rng),
                init::uniform(m, d, -1.0, 1.0, &mut rng),
                init::uniform(m, d, -1.0, 1.0, &mut rng),
            ];
            let mask = ragged_mask(n, m);
            for mask in [None, Some(&mask)] {
                let loss = |x: &[Tensor; 3]| -> f32 {
                    let (ctx, _) = attend_and_backprop(&mha, &params, x.each_ref(), mask, false);
                    ctx.matmul(&reduction_weights(d)).sum()
                };
                let (_, analytic) =
                    attend_and_backprop(&mha, &params, inputs.each_ref(), mask, false);
                let eps = 1e-2f32;
                for (which, grad) in analytic.iter().enumerate() {
                    // Every element of the small shapes, a stride of the rest.
                    let step = (grad.len() / 40).max(1);
                    for i in (0..grad.len()).step_by(step) {
                        let mut plus = inputs.clone();
                        plus[which].data_mut()[i] += eps;
                        let mut minus = inputs.clone();
                        minus[which].data_mut()[i] -= eps;
                        let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                        let a = grad.data()[i];
                        assert!(
                            (a - numeric).abs() <= 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                            "input {which} element {i}: analytic {a} vs numeric {numeric} \
                             (d {d} heads {heads} n {n} m {m} masked {})",
                            mask.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gradients_flow_through_attention() {
        let (mut params, mha, mut rng) = setup(8, 4);
        let loss = crate::params::forward_backward(&mut params, &mut rng, |fwd| {
            let xt = init::uniform(3, 8, -1.0, 1.0, fwd.rng);
            let x = fwd.constant(xt);
            let y = mha.forward(fwd, x, x, None);
            let m = fwd.graph.mean_rows(y);
            let ones = fwd.constant(Tensor::ones(8, 1));
            fwd.graph.matmul(m, ones)
        });
        assert!(loss.is_finite());
        let norm = params.grad_norm();
        assert!(norm > 0.0, "gradients must reach the projections");
    }
}
