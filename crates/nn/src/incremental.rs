//! Incremental decode state: per-architecture caches that turn the
//! O(L²)-per-token full-prefix decode into O(L) steps. Every
//! architecture owns one; there is no cache-free state.
//!
//! A [`DecodeState`] is created once per source sequence by
//! [`crate::seq2seq::Seq2Seq::begin_decode`] and advanced one target
//! position at a time by [`crate::seq2seq::Seq2Seq::step_logits`], which
//! runs **one batched `B × d` forward** across all live hypotheses
//! instead of `B` separate full-prefix forwards. What each architecture
//! caches:
//!
//! * **Transformer** — per layer, one contiguous arena of the
//!   self-attention K/V rows of every hypothesis and every position
//!   decoded so far (`KvArena`, one row appended per hypothesis per
//!   step), the cross-attention K/V of the source projected *once* in
//!   `begin_decode` instead of once per step (the keys stored
//!   transposed, the layout [`crate::attention::attend_source`] reads),
//!   and the scratch buffers every step writes its intermediates into
//!   (`StepScratch`) — the transformer step builds no autograd graph
//!   and allocates nothing but the logits it returns.
//! * **ConvS2S** — per decoder layer, the rolling window of the last
//!   `kernel - 1` block-input rows per hypothesis (what the causal
//!   convolution at the next position will see).
//! * **GRU** — the hidden state, carried forward as a `B × d` matrix.
//!
//! Every cached value is bitwise identical to the value the full-prefix
//! recompute ([`crate::seq2seq::Seq2Seq::decode`] over the whole prefix)
//! produces, because the GEMM kernel folds each output element in a fixed
//! ascending-`k` order regardless of batching (see `qrec_tensor::kernel`)
//! and masked softmax columns contribute exact `0.0` terms. The
//! `decode_equivalence` test suite enforces this.
//!
//! After beam pruning, [`DecodeState::reorder`] gathers the state rows
//! of the surviving hypotheses (indices may repeat when one parent
//! spawns several children) so caches follow their hypotheses. The
//! transformer's arenas gather into a second buffer they keep and swap,
//! so a reorder allocates nothing once both buffers have their size.

use crate::attention::KvPair;
use qrec_tensor::qi8;
use qrec_tensor::Tensor;
use std::sync::Arc;

/// Incremental decoding state for one source sequence and a batch of
/// live hypotheses. Created by
/// [`crate::seq2seq::Seq2Seq::begin_decode`]; advanced by
/// [`crate::seq2seq::Seq2Seq::step_logits`]; reordered after beam
/// pruning with [`DecodeState::reorder`].
///
/// Cloning copies the caches (a one-hypothesis transformer arena is a
/// few KiB per layer; source-side tensors are behind [`Arc`]s).
/// Stochastic decoding clones the post-first-step state once per rollout
/// so the first-step distribution is computed exactly once per source.
#[derive(Debug, Clone)]
pub struct DecodeState {
    pub(crate) kind: StateKind,
    /// The frozen encoder output this state decodes against.
    pub(crate) enc: Arc<Tensor>,
    /// Live hypothesis rows.
    pub(crate) batch: usize,
    /// Steps consumed so far (target positions fed in).
    pub(crate) steps: usize,
    /// The architecture's positional capacity: every model truncates
    /// target ids with `take(max_len)`, so last-row logits freeze once
    /// `steps` reaches it and further steps replay [`Self::last_logits`].
    pub(crate) arch_max_len: usize,
    /// Logits of the step at the last position the architecture can
    /// compute (`B × vocab`), replayed verbatim by every later step.
    /// `None` until `steps` reaches `arch_max_len`.
    pub(crate) last_logits: Option<Tensor>,
}

/// Architecture-specific cache payload.
#[derive(Debug, Clone)]
pub(crate) enum StateKind {
    /// Transformer per-layer K/V arenas and step scratch (boxed: an
    /// order of magnitude larger than the other variants).
    Transformer(Box<TransformerState>),
    /// ConvS2S per-layer causal-convolution windows.
    ConvS2S(ConvState),
    /// GRU hidden state.
    Gru(GruState),
}

/// Transformer decoder caches and per-decode scratch.
#[derive(Debug, Clone)]
pub(crate) struct TransformerState {
    pub(crate) layers: Vec<TransformerLayerState>,
    /// Buffers every step writes its intermediates into.
    pub(crate) scratch: StepScratch,
    /// The sinusoidal encoding's per-column divisors
    /// ([`crate::layers::positional_divisors`]), computed once per decode
    /// instead of one `powf` per column per step.
    pub(crate) pe_div: Vec<f32>,
}

/// One Transformer decoder layer's caches.
#[derive(Debug, Clone)]
pub(crate) struct TransformerLayerState {
    /// Self-attention keys and values, full width (heads are column
    /// ranges, exactly as in the full path).
    pub(crate) self_kv: KvArena,
    /// Cross-attention keys of the source, projected once per source in
    /// `begin_decode`, shared by every step and every hypothesis, and
    /// stored **transposed** (`d_model × m`): fixed for the whole decode,
    /// so the transpose is paid once and every query's scores for all
    /// `m` positions are lanes of one fold
    /// ([`crate::attention::attend_source`]).
    pub(crate) cross_kt: Arc<Tensor>,
    /// Cross-attention values of the source (`m × d_model`).
    pub(crate) cross_v: Arc<Tensor>,
}

/// Scratch of one transformer decode: every intermediate of a step is
/// written into these buffers, sized on the first step (and again only
/// when a reorder grows the batch), so a step allocates nothing but the
/// logits tensor it returns.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepScratch {
    /// Residual stream, `B × d_model`.
    pub(crate) x: Vec<f32>,
    /// Queries, `B × d_model`.
    pub(crate) q: Vec<f32>,
    /// This step's key rows, `B × d_model`.
    pub(crate) k: Vec<f32>,
    /// This step's value rows, `B × d_model`.
    pub(crate) v: Vec<f32>,
    /// Concatenated head contexts, `B × d_model`.
    pub(crate) ctx: Vec<f32>,
    /// A sub-layer's output before the residual add, `B × d_model`.
    pub(crate) y: Vec<f32>,
    /// Feed-forward hidden activations, `B × d_ff`.
    pub(crate) h: Vec<f32>,
    /// Attention distributions: every head's of one query row over its
    /// decoded positions, or every row's and every head's over the source
    /// (`max(heads · positions, B · heads · source length)` values).
    pub(crate) scores: Vec<f32>,
    /// An encoder layer's keys, transposed (`d_model × m`).
    pub(crate) kt: Vec<f32>,
    /// This step's positional-encoding row, `d_model` values.
    pub(crate) pe: Vec<f32>,
}

impl StepScratch {
    /// Size every buffer for a `batch`-row step with room for `scores`
    /// attention weights (no-op, and no allocation, when already that
    /// size).
    pub(crate) fn ensure(&mut self, batch: usize, d: usize, d_ff: usize, scores: usize) {
        for buf in [
            &mut self.x,
            &mut self.q,
            &mut self.k,
            &mut self.v,
            &mut self.ctx,
            &mut self.y,
        ] {
            buf.resize(batch * d, 0.0);
        }
        self.h.resize(batch * d_ff, 0.0);
        self.pe.resize(d, 0.0);
        if self.scores.len() < scores {
            self.scores.resize(scores, 0.0);
        }
    }
}

/// Positions a [`KvArena`] hypothesis has room for before its first
/// regrow. Serving decodes average 14 steps (cap 32): most never regrow.
const KV_INITIAL_POSITIONS: usize = 16;

/// One layer's self-attention K and V rows for every live hypothesis, in
/// contiguous buffers laid out `[hypothesis][position][d_model]`: a
/// hypothesis's history is one contiguous run the fused attention kernel
/// walks in place, and a step appends one row per hypothesis at the
/// shared fill position. Each hypothesis has room for `cap` positions;
/// the buffers double (one re-layout copy) when they run out.
///
/// Two resident forms, chosen for the whole decode at `begin_decode`:
/// full-precision rows — bitwise what the full-prefix path recomputes —
/// or, when the parameter store carries an int8 sidecar, int8 rows with
/// one scale per row (~4× smaller), dequantized on attention read.
///
/// Every re-layout (beam gather, regrow) copies the filled rows into a
/// second set of buffers the arena keeps, then swaps the two: a gather
/// allocates nothing once both sets have reached their size, and the
/// capacity past the fill position — never read before `append`
/// overwrites it — is neither zeroed nor copied.
#[derive(Debug, Clone)]
pub(crate) struct KvArena {
    d: usize,
    batch: usize,
    /// Filled positions (the same for every hypothesis).
    len: usize,
    /// Positions each hypothesis has room for.
    cap: usize,
    rows: KvRows,
    /// The buffers the next re-layout writes into (then `rows`).
    spare: KvRows,
}

#[derive(Debug, Clone)]
enum KvRows {
    F32 {
        k: Vec<f32>,
        v: Vec<f32>,
    },
    /// Int8 values `[hypothesis][position][d]` and their per-row scales
    /// `[hypothesis][position]`.
    I8 {
        k: Vec<i8>,
        k_scales: Vec<f32>,
        v: Vec<i8>,
        v_scales: Vec<f32>,
    },
}

impl KvRows {
    /// Buffers for `rows` hypothesis-positions of `d`-wide rows.
    fn new(quantized: bool, rows: usize, d: usize) -> KvRows {
        if quantized {
            KvRows::I8 {
                k: vec![0; rows * d],
                k_scales: vec![0.0; rows],
                v: vec![0; rows * d],
                v_scales: vec![0.0; rows],
            }
        } else {
            KvRows::F32 {
                k: vec![0.0; rows * d],
                v: vec![0.0; rows * d],
            }
        }
    }
}

/// Make `dst` a `[row][position][width]` buffer with room for `cap`
/// positions per row whose row `i` holds the first `len` positions of row
/// `parents[i]` of `src` (row capacity `src_cap`). Positions past `len`
/// keep whatever `dst` held (zeros where it grew).
fn relay_into<T: Copy + Default>(
    src: &[T],
    src_cap: usize,
    width: usize,
    len: usize,
    parents: impl ExactSizeIterator<Item = usize>,
    cap: usize,
    dst: &mut Vec<T>,
) {
    dst.resize(parents.len() * cap * width, T::default());
    for (row, p) in dst.chunks_exact_mut((cap * width).max(1)).zip(parents) {
        row[..len * width].copy_from_slice(&src[p * src_cap * width..][..len * width]);
    }
}

impl KvArena {
    /// An empty arena of `batch` hypotheses with `d`-wide rows, in the
    /// representation `quantized` selects.
    pub(crate) fn new(batch: usize, d: usize, quantized: bool) -> KvArena {
        let cap = KV_INITIAL_POSITIONS;
        KvArena {
            d,
            batch,
            len: 0,
            cap,
            rows: KvRows::new(quantized, batch * cap, d),
            spare: KvRows::new(quantized, 0, d),
        }
    }

    /// Filled positions per hypothesis.
    pub(crate) fn positions(&self) -> usize {
        self.len
    }

    /// Append row `i` of `k_rows` / `v_rows` (`batch × d` each) at
    /// hypothesis `i`'s next position. Quantized arenas quantize each
    /// row on append, under its own scale.
    pub(crate) fn append(&mut self, k_rows: &[f32], v_rows: &[f32]) {
        assert_eq!(
            k_rows.len(),
            self.batch * self.d,
            "one key row per hypothesis"
        );
        assert_eq!(
            v_rows.len(),
            self.batch * self.d,
            "one value row per hypothesis"
        );
        if self.len == self.cap {
            // Out of room: re-lay every hypothesis out at twice the capacity.
            self.relay(0..self.batch, 2 * self.cap);
        }
        let (d, cap, pos) = (self.d, self.cap, self.len);
        let store_f32 = |dst: &mut [f32], rows: &[f32]| {
            for (i, row) in rows.chunks_exact(d).enumerate() {
                dst[(i * cap + pos) * d..][..d].copy_from_slice(row);
            }
        };
        let store_i8 = |dst: &mut [i8], scales: &mut [f32], rows: &[f32]| {
            for (i, row) in rows.chunks_exact(d).enumerate() {
                scales[i * cap + pos] =
                    qi8::quantize_row(row, &mut dst[(i * cap + pos) * d..][..d]);
            }
        };
        match &mut self.rows {
            KvRows::F32 { k, v } => {
                store_f32(k, k_rows);
                store_f32(v, v_rows);
            }
            KvRows::I8 {
                k,
                k_scales,
                v,
                v_scales,
            } => {
                store_i8(k, k_scales, k_rows);
                store_i8(v, v_scales, v_rows);
            }
        }
        self.len += 1;
    }

    /// Re-lay the arena out with room for `cap` positions per hypothesis,
    /// hypothesis `i` holding the filled rows of the current hypothesis
    /// `parents[i]` — the one re-layout behind regrow and gather: into
    /// the spare buffers, which then become the rows.
    fn relay(&mut self, parents: impl ExactSizeIterator<Item = usize> + Clone, cap: usize) {
        let (d, len, src_cap, batch) = (self.d, self.len, self.cap, parents.len());
        match (&self.rows, &mut self.spare) {
            (KvRows::F32 { k, v }, KvRows::F32 { k: k2, v: v2 }) => {
                relay_into(k, src_cap, d, len, parents.clone(), cap, k2);
                relay_into(v, src_cap, d, len, parents, cap, v2);
            }
            (
                KvRows::I8 {
                    k,
                    k_scales,
                    v,
                    v_scales,
                },
                KvRows::I8 {
                    k: k2,
                    k_scales: ks2,
                    v: v2,
                    v_scales: vs2,
                },
            ) => {
                relay_into(k, src_cap, d, len, parents.clone(), cap, k2);
                relay_into(k_scales, src_cap, 1, len, parents.clone(), cap, ks2);
                relay_into(v, src_cap, d, len, parents.clone(), cap, v2);
                relay_into(v_scales, src_cap, 1, len, parents, cap, vs2);
            }
            // `new` builds both sets with one `quantized`.
            _ => debug_assert!(false, "arena buffers of two representations"),
        }
        std::mem::swap(&mut self.rows, &mut self.spare);
        self.batch = batch;
        self.cap = cap;
    }

    /// Hypothesis `i`'s filled key and value rows, for the attention
    /// kernel.
    pub(crate) fn history(&self, i: usize) -> KvPair<'_> {
        let (d, cap, len) = (self.d, self.cap, self.len);
        match &self.rows {
            KvRows::F32 { k, v } => KvPair::F32 {
                k: &k[i * cap * d..][..len * d],
                v: &v[i * cap * d..][..len * d],
            },
            KvRows::I8 {
                k,
                k_scales,
                v,
                v_scales,
            } => KvPair::I8 {
                k: &k[i * cap * d..][..len * d],
                k_scales: &k_scales[i * cap..][..len],
                v: &v[i * cap * d..][..len * d],
                v_scales: &v_scales[i * cap..][..len],
            },
        }
    }

    /// Gather hypotheses by `parents` (beam pruning): hypothesis `i`
    /// becomes a copy of the filled rows of hypothesis `parents[i]`.
    pub(crate) fn gather(&mut self, parents: &[usize]) {
        self.relay(parents.iter().copied(), self.cap);
    }

    /// Resident bytes of the filled K and V rows across all hypotheses
    /// (f32 values, or int8 values plus one f32 scale per row).
    pub(crate) fn resident_bytes(&self) -> usize {
        let rows = 2 * self.batch * self.len;
        match self.rows {
            KvRows::F32 { .. } => rows * self.d * 4,
            KvRows::I8 { .. } => rows * (self.d + 4),
        }
    }
}

/// Per-layer ConvS2S rolling windows.
#[derive(Debug, Clone)]
pub(crate) struct ConvState {
    /// One `B × ((kernel-1) · d_model)` matrix per decoder layer: the
    /// last `kernel - 1` block-input rows of each hypothesis, oldest
    /// first, zero-padded before position 0.
    pub(crate) windows: Vec<Tensor>,
}

/// GRU carry.
#[derive(Debug, Clone)]
pub(crate) struct GruState {
    /// Hidden state, one row per hypothesis (`B × d_model`).
    pub(crate) h: Tensor,
}

impl DecodeState {
    /// A fresh state carrying an architecture's caches.
    pub(crate) fn with_kind(
        kind: StateKind,
        enc: &Arc<Tensor>,
        batch: usize,
        arch_max_len: usize,
    ) -> Self {
        DecodeState {
            kind,
            enc: Arc::clone(enc),
            batch,
            steps: 0,
            arch_max_len,
            last_logits: None,
        }
    }

    /// Number of live hypothesis rows.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Target positions consumed so far.
    pub fn positions(&self) -> usize {
        self.steps
    }

    /// Count this step's tokens (one per row) and return the 0-based position the new row
    /// occupies, or `None` when the architecture's positional capacity
    /// has frozen the logits (the caller replays
    /// [`Self::frozen_logits`]).
    pub(crate) fn advance(&mut self, last_toks: &[usize]) -> Option<usize> {
        assert_eq!(
            last_toks.len(),
            self.batch,
            "step_logits batch mismatch: {} tokens for {} state rows",
            last_toks.len(),
            self.batch
        );
        let pos = self.steps;
        self.steps += 1;
        if pos >= self.arch_max_len {
            None
        } else {
            Some(pos)
        }
    }

    /// The replayed distribution once the position cap is reached: the
    /// full-prefix path truncates target ids at `max_len`, so its
    /// last-row logits stop changing — replaying the stored step is
    /// bitwise identical.
    pub(crate) fn frozen_logits(&self) -> Tensor {
        match &self.last_logits {
            Some(t) => t.clone(),
            None => Tensor::zeros(self.batch(), 0),
        }
    }

    /// Hand this step's logits back to the caller, keeping a copy for
    /// the freeze replay only when the step just taken was the last the
    /// architecture can compute — serving decodes stop at 32–64 steps
    /// and never reach a 160-position cap, so they never pay the copy.
    pub(crate) fn remember_logits(&mut self, logits: Tensor) -> Tensor {
        if self.steps >= self.arch_max_len {
            self.last_logits = Some(logits.clone());
        }
        logits
    }

    /// Resident bytes of the architecture's decode caches — the
    /// transformer's filled KV rows (f32 or int8 depending on the
    /// representation chosen at `begin_decode`), the ConvS2S windows, or
    /// the GRU carry. Cross-attention K/V and the encoder output are
    /// shared per source and excluded, as are unfilled arena capacity
    /// and step scratch.
    pub fn resident_cache_bytes(&self) -> usize {
        match &self.kind {
            StateKind::Transformer(ts) => {
                ts.layers.iter().map(|l| l.self_kv.resident_bytes()).sum()
            }
            StateKind::ConvS2S(cs) => cs.windows.iter().map(|w| w.len() * 4).sum(),
            StateKind::Gru(gs) => gs.h.len() * 4,
        }
    }

    /// Keep the state rows listed in `parents`, in that order: row `i`
    /// of the reordered state is row `parents[i]` of the current state.
    /// Indices may repeat (one parent spawning several children) and the
    /// batch may grow or shrink — beam pruning, diverse-group fan-out,
    /// and sampling clones all route through here.
    pub fn reorder(&mut self, parents: &[usize]) {
        assert!(
            parents.iter().all(|&p| p < self.batch),
            "reorder parents {parents:?} out of range for batch {}",
            self.batch
        );
        self.batch = parents.len();
        if let Some(logits) = &self.last_logits {
            self.last_logits = Some(logits.gather_rows(parents));
        }
        match &mut self.kind {
            StateKind::Transformer(ts) => {
                for layer in &mut ts.layers {
                    layer.self_kv.gather(parents);
                }
            }
            StateKind::ConvS2S(cs) => {
                for window in &mut cs.windows {
                    *window = window.gather_rows(parents);
                }
            }
            StateKind::Gru(gs) => {
                gs.h = gs.h.gather_rows(parents);
            }
        }
    }
}

/// `count` stacked copies of a single row (the GRU's initial hidden
/// state, one copy of the final encoder row per hypothesis).
pub(crate) fn repeat_row(row: &[f32], count: usize) -> Tensor {
    let mut data = Vec::with_capacity(row.len() * count);
    for _ in 0..count {
        data.extend_from_slice(row);
    }
    Tensor::from_vec(count, row.len(), data)
}

/// Advance a `B × ((k-1)·d)` rolling window: drop the oldest `d`-wide
/// slot of each row and append the matching row of `incoming` (`B × d`).
/// With `k == 1` the window is zero-width and stays empty.
pub(crate) fn shift_window(window: &Tensor, incoming: &Tensor) -> Tensor {
    let d = incoming.cols();
    let rows = window.rows();
    assert_eq!(rows, incoming.rows(), "shift_window batch mismatch");
    if window.cols() == 0 {
        return window.clone();
    }
    assert!(window.cols() >= d, "shift_window slot mismatch");
    let mut data = Vec::with_capacity(rows * window.cols());
    for r in 0..rows {
        data.extend_from_slice(&window.row(r)[d..]);
        data.extend_from_slice(incoming.row(r));
    }
    Tensor::from_vec(rows, window.cols(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(kind: StateKind, batch: usize, max_len: usize) -> DecodeState {
        let enc = Arc::new(Tensor::zeros(2, 4));
        DecodeState::with_kind(kind, &enc, batch, max_len)
    }

    /// A GRU state of `batch` one-column hidden rows with a position cap.
    fn gru_state(batch: usize, max_len: usize) -> DecodeState {
        let h = Tensor::from_vec(batch, 1, (0..batch).map(|i| i as f32).collect());
        state_with(StateKind::Gru(GruState { h }), batch, max_len)
    }

    #[test]
    fn advance_tracks_positions_and_freezes_at_capacity() {
        let mut s = gru_state(2, 2);
        assert_eq!(s.advance(&[1, 1]), Some(0));
        assert_eq!(s.advance(&[4, 5]), Some(1));
        assert_eq!(s.advance(&[6, 7]), None, "position 2 is past max_len 2");
        assert_eq!(s.positions(), 3);
    }

    #[test]
    #[should_panic(expected = "batch mismatch")]
    fn advance_rejects_wrong_batch() {
        let mut s = gru_state(2, 8);
        let _ = s.advance(&[1]);
    }

    #[test]
    fn reorder_gathers_logits() {
        let mut s = gru_state(3, 8);
        let _ = s.advance(&[7, 8, 9]);
        s.last_logits = Some(Tensor::from_vec(3, 1, vec![0.7, 0.8, 0.9]));
        s.reorder(&[2, 0, 2, 1]);
        assert_eq!(s.batch(), 4);
        let logits = s.last_logits.clone().map(Tensor::into_data);
        assert_eq!(logits, Some(vec![0.9, 0.7, 0.9, 0.8]));
    }

    #[test]
    fn reorder_gathers_gru_hidden_rows() {
        let mut s = state_with(
            StateKind::Gru(GruState {
                h: Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]),
            }),
            2,
            8,
        );
        s.reorder(&[1, 1, 0]);
        assert_eq!(s.batch(), 3, "the row count is stored, not derived");
        match &s.kind {
            StateKind::Gru(gs) => {
                assert_eq!(gs.h.shape(), (3, 2));
                assert_eq!(gs.h.row(0), &[3., 4.]);
                assert_eq!(gs.h.row(2), &[1., 2.]);
            }
            other => unreachable!("kind changed: {other:?}"),
        }
    }

    /// `[hypothesis][position]` (key row, value row) pairs of an arena,
    /// dequantized.
    fn arena_rows(arena: &KvArena) -> Vec<Vec<(Vec<f32>, Vec<f32>)>> {
        let d = arena.d;
        let dequant = |data: &[i8], scales: &[f32]| -> Vec<Vec<f32>> {
            data.chunks_exact(d)
                .zip(scales)
                .map(|(row, &s)| row.iter().map(|&q| f32::from(q) * s).collect())
                .collect()
        };
        (0..arena.batch)
            .map(|i| {
                let (k, v) = match arena.history(i) {
                    KvPair::F32 { k, v } => (
                        k.chunks_exact(d).map(<[f32]>::to_vec).collect(),
                        v.chunks_exact(d).map(<[f32]>::to_vec).collect(),
                    ),
                    KvPair::I8 {
                        k,
                        k_scales,
                        v,
                        v_scales,
                    } => (dequant(k, k_scales), dequant(v, v_scales)),
                };
                Vec::into_iter(k).zip(v).collect()
            })
            .collect()
    }

    /// The `batch × d` key rows of step `step` (values are their
    /// negation): distinct per (step, hypothesis, column), magnitudes
    /// drifting upward across steps.
    fn step_rows(step: usize, batch: usize, d: usize) -> Vec<f32> {
        (0..batch * d)
            .map(|j| ((step * 100 + j) as f32 * 0.25 - 3.0) * (step + 1) as f32)
            .collect()
    }

    fn append_step(arena: &mut KvArena, step: usize, batch: usize, d: usize) {
        let k = step_rows(step, batch, d);
        let v: Vec<f32> = k.iter().map(|x| -x).collect();
        arena.append(&k, &v);
    }

    #[test]
    fn kv_arena_appends_regrows_gathers_and_clones_filled_rows() {
        let d = 3;
        let mut arena = KvArena::new(2, d, false);
        // Past the initial capacity, so one regrow re-lays the rows out.
        let steps = KV_INITIAL_POSITIONS + 3;
        for step in 0..steps {
            append_step(&mut arena, step, 2, d);
        }
        assert_eq!(arena.positions(), steps);
        assert_eq!(arena.cap, 2 * KV_INITIAL_POSITIONS);
        assert_eq!(arena.resident_bytes(), 2 * 2 * steps * d * 4);
        let rows = arena_rows(&arena);
        for (i, hyp) in rows.iter().enumerate() {
            for (step, (k, v)) in hyp.iter().enumerate() {
                let want = &step_rows(step, 2, d)[i * d..(i + 1) * d];
                assert_eq!(k, want, "hypothesis {i} step {step} key");
                let negated: Vec<f32> = want.iter().map(|x| -x).collect();
                assert_eq!(v, &negated, "hypothesis {i} step {step} value");
            }
        }

        // Duplicate, permute and grow the batch; then shrink it.
        let snapshot = arena.clone();
        arena.gather(&[1, 0, 1]);
        assert_eq!(
            arena_rows(&arena),
            vec![rows[1].clone(), rows[0].clone(), rows[1].clone()]
        );
        append_step(&mut arena, 99, 3, d);
        arena.gather(&[2]);
        let shrunk = arena_rows(&arena);
        assert_eq!(shrunk.len(), 1);
        assert_eq!(shrunk[0][..steps], rows[1][..]);
        assert_eq!(shrunk[0][steps].0, step_rows(99, 3, d)[2 * d..]);

        // The clone took the filled rows and is unaffected by all that.
        assert_eq!(arena_rows(&snapshot), rows);
        assert_eq!(snapshot.resident_bytes(), 2 * 2 * steps * d * 4);
    }

    #[test]
    fn kv_arena_int8_rows_round_trip_within_half_a_step_at_a_quarter_of_the_bytes() {
        let d = 16;
        let mut arena = KvArena::new(2, d, true);
        let steps = KV_INITIAL_POSITIONS + 1;
        // Magnitudes drift upward across steps: per-row scales must keep
        // early rows accurate anyway.
        for step in 0..steps {
            append_step(&mut arena, step, 2, d);
        }
        arena.gather(&[1, 1, 0]);
        for (hyp, parent) in arena_rows(&arena).iter().zip([1usize, 1, 0]) {
            for (step, (k, v)) in hyp.iter().enumerate() {
                let rows = step_rows(step, 2, d);
                let want = &rows[parent * d..(parent + 1) * d];
                let scale = qi8::calibrate(want);
                for ((a, k), v) in want.iter().zip(k).zip(v) {
                    assert!(
                        (a - k).abs() <= scale * 0.5 + 1e-6,
                        "step {step}: {a} vs {k}"
                    );
                    assert_eq!(*v, -k, "values are the negated keys");
                }
            }
        }
        // int8 values + one f32 scale per row, vs 4 bytes per f32 value.
        assert_eq!(arena.resident_bytes(), 2 * 3 * steps * (d + 4));
        assert!(arena.resident_bytes() * 3 < 2 * 3 * steps * d * 4);
    }

    #[test]
    fn logits_are_kept_only_at_the_positional_cap() {
        let mut s = gru_state(1, 2);
        let _ = s.advance(&[1]);
        let _ = s.remember_logits(Tensor::scalar(0.5));
        assert!(
            s.last_logits.is_none(),
            "position 0 of 2 cannot be the last"
        );
        let _ = s.advance(&[4]);
        let _ = s.remember_logits(Tensor::scalar(0.75));
        assert_eq!(
            s.frozen_logits().item(),
            0.75,
            "position 1 of 2 is the last"
        );
    }

    #[test]
    fn repeat_row_broadcasts() {
        let t = repeat_row(&[1., 2.], 3);
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.row(2), &[1., 2.]);
    }

    #[test]
    fn shift_window_rolls_oldest_slot_out() {
        // kernel 3, d 2: window holds two slots per row.
        let w = Tensor::from_vec(1, 4, vec![1., 2., 3., 4.]);
        let x = Tensor::from_vec(1, 2, vec![5., 6.]);
        let w2 = shift_window(&w, &x);
        assert_eq!(w2.row(0), &[3., 4., 5., 6.]);
        // kernel 1: zero-width window stays empty.
        let w0 = Tensor::zeros(1, 0);
        assert_eq!(shift_window(&w0, &x).cols(), 0);
    }
}
