//! Parameter storage and the forward-pass context.
//!
//! Model architectures in this crate do not own their weights: they hold
//! [`ParamId`]s into a [`Params`] store. This split is what makes the
//! paper's fine-tuning step natural — a classifier clones the trained
//! seq2seq parameter store, appends its head parameters, and keeps using
//! the encoder's original ids (Section 4.1.2).
//!
//! During a forward pass a [`Binding`] lazily registers each referenced
//! parameter as a graph leaf exactly once per graph, so a mini-batch of
//! sequences shares one leaf per parameter and gradients accumulate
//! across the batch for free. The leaf is a shared handle on the store's
//! own tensor — no weight is copied into a graph — and a [`Tape`] clears
//! and reuses one graph and binding for all the passes of a run.

use qrec_tensor::{Graph, NodeId, Tensor};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to one parameter tensor in a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

/// A named collection of parameter tensors with gradient buffers.
///
/// Each weight tensor sits behind an `Arc`: a graph binds it as a leaf by
/// cloning the handle ([`Fwd::param`]), a clone of the store shares the
/// tensors until one side writes, and every mutable access
/// ([`Params::value_mut`], the optimizer step) goes through
/// `Arc::make_mut` — in place when the store holds the only handle, which
/// it does whenever no graph is alive, a copy otherwise.
///
/// A store may additionally carry an int8 quantization sidecar
/// ([`crate::quant::QuantParams`], built by [`Params::quantize`]):
/// inference-time layers consult it to run their projections through the
/// int8 GEMM. The sidecar is runtime-only — it serialises as `null` and
/// is rebuilt (from f32 weights or from the zoo's explicit int8
/// sections) rather than round-tripped.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Params {
    data: Vec<Arc<Tensor>>,
    grad: Vec<Tensor>,
    names: Vec<String>,
    #[serde(default)]
    quant: Option<crate::quant::QuantParams>,
}

impl Params {
    /// An empty store.
    pub fn new() -> Self {
        Params::default()
    }

    /// Register a parameter tensor under a diagnostic name.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.data.len());
        self.grad.push(Tensor::zeros(value.rows(), value.cols()));
        self.data.push(Arc::new(value));
        self.names.push(name.into());
        id
    }

    /// Number of parameters tensors.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total number of scalar parameters (the paper's Table 3 `#params`).
    pub fn scalar_count(&self) -> usize {
        self.data.iter().map(|t| t.len()).sum()
    }

    /// The value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.data[id.0]
    }

    /// Mutable value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.data[id.0])
    }

    /// The accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grad[id.0]
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Zero every gradient buffer (start of an optimizer step).
    pub fn zero_grad(&mut self) {
        for g in &mut self.grad {
            g.fill(0.0);
        }
    }

    /// Pull gradients out of a finished graph into the store's buffers.
    /// Call after [`Graph::backward`].
    pub fn accumulate_grads(&mut self, graph: &Graph, binding: &Binding) {
        for (acc, node) in self.grad.iter_mut().zip(&binding.nodes) {
            if let Some(g) = node.and_then(|node| graph.grad(node)) {
                acc.add_assign(g);
            }
        }
    }

    /// Iterate `(value, grad)` pairs (optimizer internals). Each value is
    /// written in place unless something else still holds its handle.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (&mut Tensor, &Tensor)> {
        self.data
            .iter_mut()
            .map(Arc::make_mut)
            .zip(self.grad.iter())
    }

    /// The weights alone — no gradient buffers, no sidecar — as shared
    /// handles: what early stopping keeps of its best epoch. Nothing is
    /// copied here; the optimizer's next step copies the tensors the
    /// snapshot still shares.
    pub(crate) fn weights(&self) -> Vec<Arc<Tensor>> {
        self.data.clone()
    }

    /// Put back weights taken by [`Params::weights`] from this store.
    pub(crate) fn set_weights(&mut self, weights: Vec<Arc<Tensor>>) {
        assert_eq!(weights.len(), self.data.len(), "snapshot of another store");
        self.data = weights;
    }

    /// Iterate `(name, value)` pairs in id order — the serialisation
    /// surface for model persistence. Ids are positional, so a store
    /// rebuilt by feeding this iterator's output to
    /// [`Params::from_named_tensors`] preserves every [`ParamId`].
    pub fn named_tensors(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        let values = self.data.iter().map(Arc::as_ref);
        self.names.iter().map(String::as_str).zip(values)
    }

    /// Rebuild a store from `(name, value)` pairs in id order (the
    /// inverse of [`Params::named_tensors`]), with freshly zeroed
    /// gradient buffers.
    pub fn from_named_tensors(tensors: Vec<(String, Tensor)>) -> Params {
        let mut params = Params::new();
        for (name, value) in tensors {
            params.add(name, value);
        }
        params
    }

    /// Build (or rebuild) the int8 quantization sidecar from the current
    /// f32 weights: every `*.w` matmul weight is calibrated per-tensor,
    /// quantized, and packed for the int8 GEMM. Inference-time layers
    /// take the quantized path whenever the sidecar is present; training
    /// passes and stores without a sidecar are bitwise unaffected.
    ///
    /// Deterministic: the same weights always produce the same sidecar.
    pub fn quantize(&mut self) {
        self.quant = Some(crate::quant::QuantParams::build(self.named_tensors()));
    }

    /// Drop the quantization sidecar, restoring the pure-f32 path.
    pub fn dequantize(&mut self) {
        self.quant = None;
    }

    /// The quantization sidecar, if [`Params::quantize`] built one.
    pub fn quant(&self) -> Option<&crate::quant::QuantParams> {
        self.quant.as_ref()
    }

    /// True when an int8 sidecar is active.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Install an externally built sidecar (the zoo's int8-section load
    /// path). The sidecar must have been built for this store's id space.
    pub fn set_quant(&mut self, quant: crate::quant::QuantParams) {
        self.quant = Some(quant);
    }

    /// Global L2 norm of all gradients (for clipping).
    pub fn grad_norm(&self) -> f32 {
        self.grad.iter().map(Tensor::sq_norm).sum::<f32>().sqrt()
    }

    /// Scale all gradients by `c` (for clipping), in place.
    pub fn scale_grads(&mut self, c: f32) {
        for g in &mut self.grad {
            for x in g.data_mut() {
                *x *= c;
            }
        }
    }
}

/// What a run of forward passes keeps besides the tape itself: the graph
/// leaf of each parameter, so each is registered once per graph, and the
/// constants that depend on nothing but a length (positional tables,
/// causal masks), so each is computed once per run.
#[derive(Debug, Default)]
pub struct Binding {
    nodes: Vec<Option<NodeId>>,
    constants: HashMap<(&'static str, usize, usize), Arc<Tensor>>,
}

impl Binding {
    /// A binding for a store with `len` parameters.
    pub fn new(len: usize) -> Self {
        Binding {
            nodes: vec![None; len],
            constants: HashMap::new(),
        }
    }
}

/// Everything a layer needs during one forward pass.
pub struct Fwd<'a> {
    /// The autodiff tape being built.
    pub graph: &'a mut Graph,
    /// The parameter store (read-only during forward).
    pub params: &'a Params,
    /// Parameter-to-leaf cache for this graph.
    pub bind: &'a mut Binding,
    /// RNG for dropout masks.
    pub rng: &'a mut StdRng,
    /// Training mode (enables dropout).
    pub training: bool,
}

impl Fwd<'_> {
    /// The graph leaf for a parameter, registering it on first use: a
    /// shared handle on the store's tensor, so binding copies no weight.
    pub fn param(&mut self, id: ParamId) -> NodeId {
        if let Some(node) = self.bind.nodes[id.0] {
            return node;
        }
        #[cfg_attr(not(test), allow(unused_mut))]
        let mut value = Arc::clone(&self.params.data[id.0]);
        #[cfg(test)]
        if oracle::active() {
            value = Arc::new(Tensor::clone(&value));
        }
        let node = self.graph.input_shared(value);
        self.bind.nodes[id.0] = Some(node);
        node
    }

    /// Register a non-parameter constant (dropout masks, gathered rows).
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.graph.input(t)
    }

    /// Register a shared constant without copying its data. The decoder
    /// feeds the cached encoder output into every step graph through
    /// this, so beam search never clones the encoder state per step.
    pub fn constant_shared(&mut self, t: Arc<Tensor>) -> NodeId {
        self.graph.input_shared(t)
    }

    /// A constant that is a pure function of its key — `(what, len, d)`:
    /// the positional table or the causal mask of a length — built on
    /// first use and kept by the binding, so a run that reuses its
    /// binding computes it once however many passes ask for it.
    pub fn cached_constant(
        &mut self,
        key: (&'static str, usize, usize),
        build: impl FnOnce() -> Tensor,
    ) -> Arc<Tensor> {
        Arc::clone(
            self.bind
                .constants
                .entry(key)
                .or_insert_with(|| Arc::new(build())),
        )
    }
}

/// One graph and one binding, cleared and reused by every pass of a run
/// — the examples of a training run, the pairs of a validation sweep, the
/// steps of a graph-based decode — instead of being built and freed per
/// pass: the arena keeps its allocations and the binding its constants.
///
/// After each pass the graph is cleared, which returns every weight
/// handle to the store; the optimizer step that follows therefore writes
/// the weights in place.
pub struct Tape {
    graph: Graph,
    bind: Binding,
}

impl Tape {
    /// A tape for passes that run backward ([`Tape::forward_backward`]).
    pub fn recording() -> Self {
        Tape {
            graph: Graph::new(),
            bind: Binding::default(),
        }
    }

    /// A tape for passes that never run backward: its graph keeps values
    /// and no backward closures.
    pub fn forward_only() -> Self {
        Tape {
            graph: Graph::forward_only(),
            bind: Binding::default(),
        }
    }

    /// The forward context of the next pass, on the cleared tape.
    fn fwd<'a>(&'a mut self, params: &'a Params, rng: &'a mut StdRng, training: bool) -> Fwd<'a> {
        #[cfg(test)]
        if oracle::active() {
            // The oracle builds a graph and a binding per pass.
            let recording = self.graph.is_recording();
            *self = if recording {
                Tape::recording()
            } else {
                Tape::forward_only()
            };
        }
        self.bind.nodes.resize(params.len(), None);
        Fwd {
            graph: &mut self.graph,
            params,
            bind: &mut self.bind,
            rng,
            training,
        }
    }

    /// Clear what a pass recorded — nothing, after a tape-free call — so
    /// that every weight handle is back with the store and the next pass
    /// binds afresh.
    fn clear(&mut self) {
        if !self.graph.is_empty() {
            self.graph.clear();
            self.bind.nodes.fill(None);
        }
    }

    /// Run one forward-backward pass: record `f`, backprop from the
    /// scalar loss it returns, and accumulate parameter gradients.
    /// Returns the loss value.
    pub fn forward_backward(
        &mut self,
        params: &mut Params,
        rng: &mut StdRng,
        f: impl FnOnce(&mut Fwd<'_>) -> NodeId,
    ) -> f32 {
        let loss = f(&mut self.fwd(params, rng, true));
        let loss_val = self.graph.value(loss).item();
        self.graph.backward(loss);
        params.accumulate_grads(&self.graph, &self.bind);
        self.clear();
        loss_val
    }

    /// Run a forward pass without gradients (evaluation / inference).
    /// Returns whatever `f` computes from the finished graph.
    pub fn forward<T>(
        &mut self,
        params: &Params,
        rng: &mut StdRng,
        f: impl FnOnce(&mut Fwd<'_>) -> T,
    ) -> T {
        let out = f(&mut self.fwd(params, rng, false));
        self.clear();
        out
    }
}

/// One forward-backward pass on a tape of its own
/// ([`Tape::forward_backward`]); a run of many passes keeps a [`Tape`].
pub fn forward_backward(
    params: &mut Params,
    rng: &mut StdRng,
    f: impl FnOnce(&mut Fwd<'_>) -> NodeId,
) -> f32 {
    Tape::recording().forward_backward(params, rng, f)
}

/// One forward pass without gradients on a tape of its own
/// ([`Tape::forward`]); a run of many passes keeps a [`Tape`].
pub fn forward_eval<T>(params: &Params, rng: &mut StdRng, f: impl FnOnce(&mut Fwd<'_>) -> T) -> T {
    Tape::forward_only().forward(params, rng, f)
}

/// The training path as it was before parameters were bound by handle,
/// the tape reused and attention fused — every weight copied into a graph
/// built and freed per pass, attention recorded op by op — kept as the
/// oracle the weight-equality test trains against.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cell::Cell;

    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
    }

    /// True while [`with`] runs on this thread.
    pub(crate) fn active() -> bool {
        ACTIVE.with(Cell::get)
    }

    /// Run `f` with every pass on this thread taking the oracle path.
    pub(crate) fn with<T>(f: impl FnOnce() -> T) -> T {
        ACTIVE.with(|a| a.set(true));
        let out = f();
        ACTIVE.with(|a| a.set(false));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn params_add_and_count() {
        let mut p = Params::new();
        let a = p.add("w", Tensor::zeros(2, 3));
        let b = p.add("b", Tensor::zeros(1, 3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.scalar_count(), 9);
        assert_eq!(p.name(a), "w");
        assert_eq!(p.value(b).shape(), (1, 3));
    }

    #[test]
    fn named_tensor_round_trip_preserves_ids_and_values() {
        let mut p = Params::new();
        let a = p.add("w", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = p.add("b", Tensor::from_vec(1, 2, vec![-0.5, 0.25]));
        let rebuilt = Params::from_named_tensors(
            p.named_tensors()
                .map(|(n, t)| (n.to_string(), t.clone()))
                .collect(),
        );
        assert_eq!(rebuilt.len(), p.len());
        assert_eq!(rebuilt.name(a), "w");
        assert_eq!(rebuilt.value(a).data(), p.value(a).data());
        assert_eq!(rebuilt.value(b).data(), p.value(b).data());
        assert_eq!(rebuilt.grad(a).data(), vec![0.0; 4], "grads start zeroed");
    }

    #[test]
    fn binding_registers_param_once() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::scalar(2.0));
        let mut g = Graph::new();
        let mut bind = Binding::new(p.len());
        let mut rng = StdRng::seed_from_u64(0);
        let mut fwd = Fwd {
            graph: &mut g,
            params: &p,
            bind: &mut bind,
            rng: &mut rng,
            training: true,
        };
        let n1 = fwd.param(w);
        let n2 = fwd.param(w);
        assert_eq!(n1, n2);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn forward_backward_accumulates_grads() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::scalar(3.0));
        let mut rng = StdRng::seed_from_u64(0);
        // loss = w * w  →  dloss/dw = 2w = 6
        let loss = forward_backward(&mut p, &mut rng, |fwd| {
            let wn = fwd.param(w);
            fwd.graph.mul(wn, wn)
        });
        assert_eq!(loss, 9.0);
        assert_eq!(p.grad(w).item(), 6.0);
        // A second pass accumulates.
        forward_backward(&mut p, &mut rng, |fwd| {
            let wn = fwd.param(w);
            fwd.graph.mul(wn, wn)
        });
        assert_eq!(p.grad(w).item(), 12.0);
        p.zero_grad();
        assert_eq!(p.grad(w).item(), 0.0);
    }

    /// A tape that has been cleared is as good as a new one — same loss,
    /// same gradients, bit for bit — and keeps no handle on a weight: while
    /// a pass records, the graph shares the bound tensors; once it
    /// returns, the store is their only owner again and a write goes to
    /// the same buffer.
    #[test]
    fn reused_tape_matches_a_fresh_one_and_returns_every_weight_handle() {
        use crate::transformer::{Transformer, TransformerConfig};
        use crate::Seq2Seq;
        let cfg = TransformerConfig {
            dropout: 0.1,
            ..TransformerConfig::test(12)
        };
        let mut fresh = Params::new();
        let model = Transformer::new(&mut fresh, cfg, &mut StdRng::seed_from_u64(5));
        // A deep copy: a clone would share the tensors with `fresh`.
        let copies = fresh
            .named_tensors()
            .map(|(n, t)| (n.to_string(), t.clone()));
        let mut reused = Params::from_named_tensors(copies.collect());
        let examples: [(&[usize], &[usize]); 3] = [
            (&[1, 4, 5, 2], &[1, 6, 7, 2]),
            (&[1, 9, 2], &[1, 8, 8, 5, 2]),
            (&[1, 4, 5, 2], &[1, 6, 7, 2]),
        ];
        let mut tape = Tape::recording();
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        for (src, tgt) in examples {
            let pass = |fwd: &mut Fwd<'_>| {
                let enc = model.encode(fwd, src);
                let logits = model.decode(fwd, enc, &tgt[..tgt.len() - 1]);
                let shared = fwd.params.data.iter().filter(|t| Arc::strong_count(t) > 1);
                assert!(shared.count() > 20, "a recording graph shares the weights");
                fwd.graph.cross_entropy(logits, &tgt[1..])
            };
            let want = forward_backward(&mut fresh, &mut rng_a, pass);
            let got = tape.forward_backward(&mut reused, &mut rng_b, pass);
            assert_eq!(want.to_bits(), got.to_bits());
            assert!(tape.graph.is_empty(), "the tape is left cleared");
            for i in 0..fresh.len() {
                let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let id = ParamId(i);
                assert_eq!(
                    bits(fresh.grad(id)),
                    bits(reused.grad(id)),
                    "{}",
                    fresh.name(id)
                );
                assert_eq!(Arc::strong_count(&reused.data[i]), 1, "{}", fresh.name(id));
                let before = reused.value(id).data().as_ptr();
                let after = reused.value_mut(id).data().as_ptr();
                assert_eq!(before, after, "a write after the pass copies nothing");
            }
        }
    }

    /// A forward-only tape runs the same forward and records nothing to
    /// run backward from.
    #[test]
    fn forward_only_tape_keeps_values_and_no_gradients() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::scalar(3.0));
        let mut rng = StdRng::seed_from_u64(0);
        let mut tape = Tape::forward_only();
        for _ in 0..2 {
            let y = tape.forward(&p, &mut rng, |fwd| {
                assert!(!fwd.graph.is_recording());
                let wn = fwd.param(w);
                let y = fwd.graph.mul(wn, wn);
                assert!(fwd.graph.grad(wn).is_none());
                fwd.graph.value(y).item()
            });
            assert_eq!(y, 9.0);
            assert_eq!(Arc::strong_count(&p.data[0]), 1);
        }
    }

    #[test]
    fn grad_norm_and_scaling() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::scalar(1.0));
        let mut rng = StdRng::seed_from_u64(0);
        forward_backward(&mut p, &mut rng, |fwd| {
            let wn = fwd.param(w);
            fwd.graph.scale(wn, 3.0)
        });
        assert_eq!(p.grad_norm(), 3.0);
        p.scale_grads(0.5);
        assert_eq!(p.grad(w).item(), 1.5);
    }

    #[test]
    fn shared_param_across_batch_sums_gradients() {
        // Two "examples" in one graph: loss = w*x1 + w*x2.
        let mut p = Params::new();
        let w = p.add("w", Tensor::scalar(1.0));
        let mut rng = StdRng::seed_from_u64(0);
        forward_backward(&mut p, &mut rng, |fwd| {
            let wn = fwd.param(w);
            let a = fwd.graph.scale(wn, 2.0);
            let b = fwd.graph.scale(wn, 5.0);
            fwd.graph.add(a, b)
        });
        assert_eq!(p.grad(w).item(), 7.0);
    }
}
