//! Decoding strategies for online recommendation (Section 4.2.2):
//! greedy decoding for fragment-*set* prediction, and beam search /
//! diverse beam search / stochastic sampling for *N-fragments*
//! prediction.
//!
//! All strategies run **incrementally**: the encoder output is computed
//! once per source (and cached across calls in an [`EncCache`]), each
//! architecture carries a [`DecodeState`] of per-layer caches (see
//! [`crate::incremental`]), and every step runs **one batched
//! `B × vocab` forward** across all live hypotheses instead of one
//! full-prefix forward per hypothesis. For the transformer neither the
//! encoder pass nor the step builds an autograd graph at all
//! ([`Seq2Seq::encoder_output`], [`Seq2Seq::step_logits`]); ConvS2S and
//! GRU record theirs on a graph the decoder rebuilds after each use. The
//! batched logits are bitwise identical to the serial full-prefix path —
//! [`decode_reference`] keeps that graph-based path alive as the
//! equivalence-suite ground truth and the pre-optimisation benchmark
//! baseline.
//!
//! All strategies return [`Hypothesis`] lists carrying per-token
//! probabilities, from which the recommender aggregates fragment
//! probabilities over the partial search tree exactly as the paper
//! describes.

use crate::incremental::DecodeState;
use crate::params::{Binding, Fwd, Params};
use crate::seq2seq::Seq2Seq;
use qrec_tensor::tensor::softmax_in_place;
use qrec_tensor::{Graph, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Padding token id (never emitted).
pub const PAD: usize = 0;
/// Start-of-sequence id, mirroring `qrec_workload::vocab` (never emitted).
pub const SOS: usize = 1;
/// End-of-sequence id.
pub const EOS: usize = 2;

static DECODE_STEPS: AtomicU64 = AtomicU64::new(0);
static ENC_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static ENC_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Per-step decode-forward duration histogram, registered lazily in the
/// global obs registry. Timed only while the obs spine is enabled.
fn step_hist() -> &'static Arc<qrec_obs::Histogram> {
    static H: std::sync::OnceLock<Arc<qrec_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| qrec_obs::global().histogram_log2("nn.decode.step_us"))
}

/// Encoder-pass duration histogram (paid only on an [`EncCache`] miss).
fn encode_hist() -> &'static Arc<qrec_obs::Histogram> {
    static H: std::sync::OnceLock<Arc<qrec_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| qrec_obs::global().histogram_log2("nn.decode.encode_us"))
}

/// Process-wide decode activity counters (monotonic, relaxed ordering),
/// surfaced by qrec-serve's STATS verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeCounters {
    /// Batched decode-step forwards executed (one per step across all
    /// live hypotheses, not one per hypothesis).
    pub steps: u64,
    /// Encoder-output cache hits across every [`EncCache`].
    pub enc_cache_hits: u64,
    /// Encoder-output cache misses (each one paid a full encoder pass).
    pub enc_cache_misses: u64,
}

/// Read the current decode counters.
pub fn counters() -> DecodeCounters {
    DecodeCounters {
        steps: DECODE_STEPS.load(Ordering::Relaxed),
        enc_cache_hits: ENC_CACHE_HITS.load(Ordering::Relaxed),
        enc_cache_misses: ENC_CACHE_MISSES.load(Ordering::Relaxed),
    }
}

/// A small keyed LRU over encoder outputs.
///
/// qrec-serve's decode workers interleave sessions through one decode
/// engine, so a single-entry cache thrashes on every interleave; a few
/// slots keyed by source tokens keep each session's encoder pass warm.
/// Entries are `Arc`-shared with decode graphs, so a hit costs a
/// refcount bump. Hits and misses feed the process-wide [`counters`].
///
/// The `generation` tag guards hot-swap: a cache must never serve
/// encoder outputs computed under old weights, so bump the generation
/// (qrec-serve uses the model-registry epoch) to invalidate wholesale.
#[derive(Debug)]
pub struct EncCache {
    capacity: usize,
    generation: u64,
    /// Most-recently used last.
    entries: Vec<(Vec<usize>, Arc<Tensor>)>,
}

impl EncCache {
    /// Create with room for `capacity` encoder outputs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EncCache {
            capacity: capacity.max(1),
            generation: 0,
            entries: Vec::new(),
        }
    }

    /// Tag the cache with the weights' generation, dropping every entry
    /// when it changes.
    pub fn set_generation(&mut self, generation: u64) {
        if self.generation != generation {
            self.entries.clear();
            self.generation = generation;
        }
    }

    /// Number of cached encoder outputs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the encoder output for `src`, refreshing its recency.
    pub fn lookup(&mut self, src: &[usize]) -> Option<Arc<Tensor>> {
        match self.entries.iter().position(|(key, _)| key == src) {
            Some(pos) => {
                let entry = self.entries.remove(pos);
                let enc = Arc::clone(&entry.1);
                self.entries.push(entry);
                ENC_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                qrec_obs::trace::note_enc_cache(true);
                Some(enc)
            }
            None => {
                ENC_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
                qrec_obs::trace::note_enc_cache(false);
                None
            }
        }
    }

    /// Insert an encoder output, evicting the least-recently used entry
    /// at capacity.
    pub fn insert(&mut self, src: Vec<usize>, enc: Arc<Tensor>) {
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((src, enc));
    }
}

/// Zero out tokens a decoder must never emit (`<PAD>`, `<SOS>`).
fn suppress_specials(probs: &mut [f32]) {
    if probs.len() > PAD {
        probs[PAD] = 0.0;
    }
    if probs.len() > SOS {
        probs[SOS] = 0.0;
    }
}

/// Select one group's `group_width` beam slots for a single step.
///
/// `rows` holds, per live hypothesis, its suppressed next-token
/// distribution and accumulated log-prob. Returns the winning
/// `(score, live idx, token)` triples in slot order.
///
/// Rather than scoring all `live × vocab` candidates, each row is first
/// pruned to a shortlist by raw probability, which within a row orders
/// candidates exactly like the log-score: a candidate outside its own
/// row's top `group_width` is beaten by `group_width` same-row
/// candidates and can never win a slot. Under a diversity penalty the
/// shortlist is widened by the number of distinct penalized tokens
/// `P`: a candidate below its row's unpenalized top `group_width + P`
/// still has `group_width` unpenalized same-row candidates above it
/// after penalties are applied (penalties only lower scores, and only
/// `P` tokens carry one). `ln` and the sorts therefore touch only the
/// shortlist. Ties break by (probability desc, token asc) while
/// pruning and (score desc, token asc, then row order) when ranking.
/// Both decoders route their beam steps through this function, so
/// incremental and reference selections stay identical.
fn select_beam_slots(
    rows: &[(&[f32], f32)],
    group_width: usize,
    penalty: f32,
    chosen_counts: &HashMap<usize, usize>,
) -> Vec<(f32, usize, usize)> {
    let shortlist = group_width
        + if penalty > 0.0 {
            chosen_counts.len()
        } else {
            0
        };
    let mut merged: Vec<(f32, usize, usize)> = Vec::with_capacity(rows.len() * group_width);
    let mut idx: Vec<usize> = Vec::new();
    let mut scored: Vec<(f32, usize)> = Vec::new();
    for (li, &(probs, base)) in rows.iter().enumerate() {
        idx.clear();
        idx.extend((0..probs.len()).filter(|&t| probs[t] > 0.0));
        if idx.len() > shortlist {
            idx.select_nth_unstable_by(shortlist - 1, |&a, &b| {
                probs[b]
                    .partial_cmp(&probs[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            idx.truncate(shortlist);
        }
        scored.clear();
        scored.extend(idx.iter().map(|&tok| {
            let mut score = base + probs[tok].max(1e-12).ln();
            if penalty > 0.0 {
                let count = chosen_counts.get(&tok).copied().unwrap_or(0);
                score -= penalty * count as f32;
            }
            (score, tok)
        }));
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        scored.truncate(group_width);
        merged.extend(scored.iter().map(|&(s, tok)| (s, li, tok)));
    }
    merged.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    merged.truncate(group_width);
    merged
}

/// One decoded candidate sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hypothesis {
    /// Emitted token ids (no `<SOS>`, no `<EOS>`).
    pub ids: Vec<usize>,
    /// Probability of each emitted token at its step, aligned with `ids`.
    pub token_probs: Vec<f32>,
    /// Sum of log-probabilities (including the final `<EOS>` if finished).
    pub log_prob: f32,
    /// Whether the hypothesis emitted `<EOS>` before the length cap.
    pub finished: bool,
}

impl Hypothesis {
    fn empty() -> Self {
        Hypothesis {
            ids: Vec::new(),
            token_probs: Vec::new(),
            log_prob: 0.0,
            finished: false,
        }
    }
}

/// The decoding strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Pick the argmax token each step; returns one hypothesis.
    Greedy,
    /// Standard beam search with the given width.
    Beam {
        /// Beam width `B`.
        width: usize,
    },
    /// Diverse beam search: `groups` groups, Hamming diversity penalty
    /// subtracted from the log-score of tokens earlier groups picked at
    /// the same step (Vijayakumar et al.).
    DiverseBeam {
        /// Total beam width (divided across groups).
        width: usize,
        /// Number of diversity groups.
        groups: usize,
        /// Penalty strength λ.
        penalty: f32,
    },
    /// Stochastic decoding: `samples` independent rollouts, sampling each
    /// step from the distribution with low-probability tokens zeroed
    /// (the paper's variant of nucleus-style filtering).
    Sampling {
        /// Number of rollouts.
        samples: usize,
        /// Tokens with probability below this are never sampled.
        min_prob: f32,
    },
}

/// Decode candidate next-query token sequences for `src`.
///
/// `max_len` caps emitted length. Returns hypotheses sorted by
/// descending log-probability (deduplicated on token ids).
#[must_use]
pub fn decode<M: Seq2Seq + ?Sized>(
    model: &M,
    params: &Params,
    src: &[usize],
    strategy: Strategy,
    max_len: usize,
    rng: &mut StdRng,
) -> Vec<Hypothesis> {
    let mut cache = EncCache::new(1);
    decode_with_cache(model, params, src, strategy, max_len, rng, &mut cache)
}

/// [`decode`] against a caller-owned [`EncCache`], so repeated decodes
/// over interleaved sources (qrec-serve's decode workers) reuse encoder
/// passes across calls.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors decode() plus the cache
pub fn decode_with_cache<M: Seq2Seq + ?Sized>(
    model: &M,
    params: &Params,
    src: &[usize],
    strategy: Strategy,
    max_len: usize,
    rng: &mut StdRng,
    cache: &mut EncCache,
) -> Vec<Hypothesis> {
    let mut dec = Decoder {
        model,
        params,
        rng,
        cache,
        graph: Graph::new(),
        bind: Binding::new(params.len()),
    };
    let hyps = match strategy {
        Strategy::Greedy => vec![dec.greedy(src, max_len)],
        Strategy::Beam { width } => dec.beam(src, max_len, width, 1, 0.0),
        Strategy::DiverseBeam {
            width,
            groups,
            penalty,
        } => dec.beam(src, max_len, width, groups.max(1), penalty),
        Strategy::Sampling { samples, min_prob } => dec.sample(src, max_len, samples, min_prob),
    };
    rank(hyps)
}

/// The serial full-prefix decode path this module had before the
/// incremental rewrite: every step re-runs the decoder over the entire
/// prefix, once per live hypothesis. Kept verbatim as the ground truth
/// the equivalence suite compares [`decode`] against bitwise, and as
/// the baseline `bench_decode` measures the speedup from.
#[must_use]
pub fn decode_reference<M: Seq2Seq + ?Sized>(
    model: &M,
    params: &Params,
    src: &[usize],
    strategy: Strategy,
    max_len: usize,
    rng: &mut StdRng,
) -> Vec<Hypothesis> {
    let mut dec = ReferenceDecoder {
        model,
        params,
        rng,
        enc_cache: None,
    };
    let hyps = match strategy {
        Strategy::Greedy => vec![dec.greedy(src, max_len)],
        Strategy::Beam { width } => dec.beam(src, max_len, width, 1, 0.0),
        Strategy::DiverseBeam {
            width,
            groups,
            penalty,
        } => dec.beam(src, max_len, width, groups.max(1), penalty),
        Strategy::Sampling { samples, min_prob } => dec.sample(src, max_len, samples, min_prob),
    };
    rank(hyps)
}

/// Shared ranking: sort by descending log-probability, deduplicate on
/// token ids.
fn rank(mut hyps: Vec<Hypothesis>) -> Vec<Hypothesis> {
    hyps.sort_by(|a, b| {
        b.log_prob
            .partial_cmp(&a.log_prob)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    hyps.dedup_by(|a, b| a.ids == b.ids);
    hyps
}

/// Incremental decoder: one [`DecodeState`] per source, one batched
/// forward per step across all live hypotheses, encoder outputs shared
/// through an [`EncCache`].
struct Decoder<'m, M: Seq2Seq + ?Sized> {
    model: &'m M,
    params: &'m Params,
    rng: &'m mut StdRng,
    cache: &'m mut EncCache,
    /// The tape the model's graph-based calls record on: the ConvS2S and
    /// GRU encoder passes and steps. The transformer's tape-free calls
    /// read only the parameter store and leave it empty, so it is
    /// replaced only after a call that used it — a transformer decode
    /// builds this one graph and binding, not a pair per step.
    graph: Graph,
    bind: Binding,
}

impl<'m, M: Seq2Seq + ?Sized> Decoder<'m, M> {
    /// Run one inference call of the model with a forward context.
    fn with_fwd<T>(&mut self, call: impl FnOnce(&M, &mut Fwd<'_>) -> T) -> T {
        let mut fwd = Fwd {
            graph: &mut self.graph,
            params: self.params,
            bind: &mut self.bind,
            rng: self.rng,
            training: false,
        };
        let out = call(self.model, &mut fwd);
        if !self.graph.is_empty() {
            self.graph = Graph::new();
            self.bind = Binding::new(self.params.len());
        }
        out
    }

    fn encoder_output(&mut self, src: &[usize]) -> Arc<Tensor> {
        if let Some(enc) = self.cache.lookup(src) {
            return enc; // refcount bump, no data copy
        }
        let _span = qrec_obs::Span::enter_with("encode", encode_hist());
        let out = self.with_fwd(|model, fwd| model.encoder_output(fwd, src));
        self.cache.insert(src.to_vec(), Arc::clone(&out));
        out
    }

    /// Start a decode state for `batch` hypothesis rows.
    fn begin(&mut self, enc: &Arc<Tensor>, batch: usize) -> DecodeState {
        self.with_fwd(|model, fwd| model.begin_decode(fwd, enc, batch))
    }

    /// One batched decode step: feed one token per live row, return the
    /// per-row next-token *probability* rows (softmax over the batched
    /// logits — row-independent, so identical to per-row softmax).
    fn step_probs(&mut self, state: &mut DecodeState, last_toks: &[usize]) -> Tensor {
        DECODE_STEPS.fetch_add(1, Ordering::Relaxed);
        // Explicit gated timing instead of a span: per-step granularity
        // would flood the 32-stage trace cap, so steps are attributed as
        // a count plus a histogram sample.
        let t0 = qrec_obs::enabled().then(std::time::Instant::now);
        let mut probs = self.with_fwd(|model, fwd| model.step_logits(fwd, state, last_toks));
        for r in 0..probs.rows() {
            softmax_in_place(probs.row_mut(r));
        }
        if let Some(t0) = t0 {
            step_hist().record_duration(t0.elapsed());
            qrec_obs::trace::note_decode_step();
        }
        probs
    }

    fn greedy(&mut self, src: &[usize], max_len: usize) -> Hypothesis {
        let mut hyp = Hypothesis::empty();
        if max_len == 0 {
            return hyp;
        }
        let enc = self.encoder_output(src);
        let mut state = self.begin(&enc, 1);
        let mut last = SOS;
        for _ in 0..max_len {
            let probs = self.step_probs(&mut state, &[last]);
            let mut probs = probs.into_data();
            suppress_specials(&mut probs);
            let (tok, p) = argmax(&probs);
            hyp.log_prob += p.max(1e-12).ln();
            if tok == EOS {
                hyp.finished = true;
                break;
            }
            hyp.ids.push(tok);
            hyp.token_probs.push(p);
            last = tok;
        }
        hyp
    }

    /// Beam search; with `groups > 1` runs diverse beam search.
    ///
    /// All groups' live hypotheses occupy one [`DecodeState`], rows laid
    /// out group by group, so every step is a single batched forward;
    /// after pruning, [`DecodeState::reorder`] gathers the survivors'
    /// cache rows (a parent spawning several children duplicates its
    /// rows). Slot selection and retirement go through
    /// [`select_beam_slots`], the same routine the reference path uses,
    /// so selections are identical.
    fn beam(
        &mut self,
        src: &[usize],
        max_len: usize,
        width: usize,
        groups: usize,
        penalty: f32,
    ) -> Vec<Hypothesis> {
        let width = width.max(1);
        let groups = groups.min(width);
        let group_width = width.div_ceil(groups);

        if max_len == 0 {
            return vec![Hypothesis::empty(); groups];
        }
        let enc = self.encoder_output(src);
        // Every group starts from the same `<SOS>` root: `groups`
        // identical rows whose first step is computed in one forward.
        let mut state = self.begin(&enc, groups);
        let mut group_hyps: Vec<Vec<Hypothesis>> = vec![vec![Hypothesis::empty()]; groups];
        let mut pending: Vec<usize> = vec![SOS; groups];
        let mut done: Vec<Hypothesis> = Vec::new();

        for _step in 0..max_len {
            let probs = self.step_probs(&mut state, &pending);
            let vocab = probs.cols();
            let total_rows = probs.rows();
            let mut flat = probs.into_data();
            for r in 0..total_rows {
                suppress_specials(&mut flat[r * vocab..(r + 1) * vocab]);
            }
            // Hamming diversity bookkeeping: token → times chosen this
            // step by earlier groups (and earlier slots of this group).
            let mut chosen_counts: HashMap<usize, usize> = HashMap::new();
            let mut parents: Vec<usize> = Vec::new();
            let mut next_tokens: Vec<usize> = Vec::new();
            let mut next_group_hyps: Vec<Vec<Hypothesis>> = Vec::with_capacity(groups);
            let mut row_base = 0usize;
            for hyps in &group_hyps {
                if hyps.is_empty() {
                    next_group_hyps.push(Vec::new());
                    continue;
                }
                let rows: Vec<(&[f32], f32)> = hyps
                    .iter()
                    .enumerate()
                    .map(|(li, hyp)| {
                        let r = row_base + li;
                        (&flat[r * vocab..(r + 1) * vocab], hyp.log_prob)
                    })
                    .collect();
                let winners = select_beam_slots(&rows, group_width, penalty, &chosen_counts);
                // Standard beam step: the top `group_width` candidates each
                // take one slot; an EOS candidate retires its hypothesis.
                let mut next: Vec<Hypothesis> = Vec::with_capacity(group_width);
                for (_score, li, tok) in winners {
                    let p = rows[li].0[tok];
                    let mut hyp = hyps[li].clone();
                    hyp.log_prob += p.max(1e-12).ln();
                    if tok == EOS {
                        hyp.finished = true;
                        done.push(hyp);
                        continue;
                    }
                    hyp.ids.push(tok);
                    hyp.token_probs.push(p);
                    *chosen_counts.entry(tok).or_insert(0) += 1;
                    parents.push(row_base + li);
                    next_tokens.push(tok);
                    next.push(hyp);
                }
                next_group_hyps.push(next);
                row_base += hyps.len();
            }
            group_hyps = next_group_hyps;
            state.reorder(&parents);
            pending = next_tokens;
            if group_hyps.iter().all(|g| g.is_empty()) || done.len() >= width * 2 {
                break;
            }
        }
        // Unfinished survivors still count as candidates.
        for hyps in group_hyps {
            for hyp in hyps {
                done.push(hyp);
            }
        }
        done
    }

    /// Stochastic rollouts. The first-step distribution depends only on
    /// the source, so it is computed once and shared across all samples
    /// (each rollout clones the post-first-step state).
    fn sample(
        &mut self,
        src: &[usize],
        max_len: usize,
        samples: usize,
        min_prob: f32,
    ) -> Vec<Hypothesis> {
        if max_len == 0 {
            return vec![Hypothesis::empty(); samples];
        }
        let enc = self.encoder_output(src);
        let mut root = self.begin(&enc, 1);
        let first = self.step_probs(&mut root, &[SOS]);
        let mut first_probs = first.into_data();
        suppress_specials(&mut first_probs);

        let mut out = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut state = root.clone();
            let mut suppressed = first_probs.clone();
            let mut hyp = Hypothesis::empty();
            let mut picks = 0usize;
            loop {
                // The paper zeroes low-score tokens before sampling.
                let mut filtered = suppressed.clone();
                let mut total = 0.0f32;
                for p in filtered.iter_mut() {
                    if *p < min_prob {
                        *p = 0.0;
                    }
                    total += *p;
                }
                let (tok, p) = if total <= 0.0 {
                    // Degenerate distribution: fall back to argmax over
                    // the unfiltered (suppressed) distribution.
                    argmax(&suppressed)
                } else {
                    let mut u = self.rng.gen_range(0.0..total);
                    let mut tok = filtered.len() - 1;
                    for (i, &p) in filtered.iter().enumerate() {
                        if u < p {
                            tok = i;
                            break;
                        }
                        u -= p;
                    }
                    (tok, filtered[tok] / total)
                };
                hyp.log_prob += p.max(1e-12).ln();
                if tok == EOS {
                    hyp.finished = true;
                    break;
                }
                hyp.ids.push(tok);
                hyp.token_probs.push(p);
                picks += 1;
                if picks >= max_len {
                    break;
                }
                let next = self.step_probs(&mut state, &[tok]);
                suppressed = next.into_data();
                suppress_specials(&mut suppressed);
            }
            out.push(hyp);
        }
        out
    }
}

/// The pre-incremental decoder: one graph per step per hypothesis,
/// recomputing the full prefix each time (O(L²) per emitted token), with
/// the original single-slot encoder cache. See [`decode_reference`].
struct ReferenceDecoder<'m, M: Seq2Seq + ?Sized> {
    model: &'m M,
    params: &'m Params,
    rng: &'m mut StdRng,
    enc_cache: Option<(Vec<usize>, Arc<Tensor>)>,
}

impl<'m, M: Seq2Seq + ?Sized> ReferenceDecoder<'m, M> {
    fn encoder_output(&mut self, src: &[usize]) -> Arc<Tensor> {
        if let Some((cached_src, enc)) = &self.enc_cache {
            if cached_src == src {
                return Arc::clone(enc); // refcount bump, no data copy
            }
        }
        let mut graph = Graph::new();
        let mut bind = Binding::new(self.params.len());
        let mut fwd = Fwd {
            graph: &mut graph,
            params: self.params,
            bind: &mut bind,
            rng: self.rng,
            training: false,
        };
        let enc = self.model.encode(&mut fwd, src);
        let out = graph.value_shared(enc);
        self.enc_cache = Some((src.to_vec(), Arc::clone(&out)));
        out
    }

    /// Next-token probability distribution after `prefix` (which starts
    /// with `<SOS>`).
    fn next_probs(&mut self, src: &[usize], prefix: &[usize]) -> Vec<f32> {
        let enc_val = self.encoder_output(src);
        let mut graph = Graph::new();
        let mut bind = Binding::new(self.params.len());
        let mut fwd = Fwd {
            graph: &mut graph,
            params: self.params,
            bind: &mut bind,
            rng: self.rng,
            training: false,
        };
        let enc = fwd.constant_shared(enc_val);
        let logits = self.model.decode_last_logits(&mut fwd, enc, prefix);
        graph.value(logits).softmax_rows().into_data()
    }

    fn greedy(&mut self, src: &[usize], max_len: usize) -> Hypothesis {
        let mut prefix = vec![SOS];
        let mut hyp = Hypothesis::empty();
        for _ in 0..max_len {
            let mut probs = self.next_probs(src, &prefix);
            suppress_specials(&mut probs);
            let (tok, p) = argmax(&probs);
            hyp.log_prob += p.max(1e-12).ln();
            if tok == EOS {
                hyp.finished = true;
                break;
            }
            hyp.ids.push(tok);
            hyp.token_probs.push(p);
            prefix.push(tok);
        }
        hyp
    }

    /// Beam search; with `groups > 1` runs diverse beam search.
    fn beam(
        &mut self,
        src: &[usize],
        max_len: usize,
        width: usize,
        groups: usize,
        penalty: f32,
    ) -> Vec<Hypothesis> {
        let width = width.max(1);
        let groups = groups.min(width);
        let group_width = width.div_ceil(groups);

        #[derive(Clone)]
        struct Live {
            prefix: Vec<usize>, // starts with SOS
            hyp: Hypothesis,
        }
        let root = Live {
            prefix: vec![SOS],
            hyp: Hypothesis::empty(),
        };
        // One beam per group.
        let mut beams: Vec<Vec<Live>> = vec![vec![root]; groups];
        let mut done: Vec<Hypothesis> = Vec::new();

        for _step in 0..max_len {
            // Hamming diversity bookkeeping: token → times chosen this
            // step by earlier groups (and earlier slots of this group).
            let mut chosen_counts: HashMap<usize, usize> = HashMap::new();
            for beam in beams.iter_mut() {
                if beam.is_empty() {
                    continue;
                }
                let mut probs_cache: Vec<Vec<f32>> = Vec::with_capacity(beam.len());
                for live in beam.iter() {
                    let mut probs = self.next_probs(src, &live.prefix);
                    suppress_specials(&mut probs);
                    probs_cache.push(probs);
                }
                let rows: Vec<(&[f32], f32)> = probs_cache
                    .iter()
                    .zip(beam.iter())
                    .map(|(probs, live)| (probs.as_slice(), live.hyp.log_prob))
                    .collect();
                let winners = select_beam_slots(&rows, group_width, penalty, &chosen_counts);
                // Standard beam step: the top `group_width` candidates each
                // take one slot; an EOS candidate retires its hypothesis.
                let mut next: Vec<Live> = Vec::with_capacity(group_width);
                for (_score, li, tok) in winners {
                    let live = &beam[li];
                    let p = probs_cache[li][tok];
                    let mut hyp = live.hyp.clone();
                    hyp.log_prob += p.max(1e-12).ln();
                    if tok == EOS {
                        hyp.finished = true;
                        done.push(hyp);
                        continue;
                    }
                    hyp.ids.push(tok);
                    hyp.token_probs.push(p);
                    let mut prefix = live.prefix.clone();
                    prefix.push(tok);
                    *chosen_counts.entry(tok).or_insert(0) += 1;
                    next.push(Live { prefix, hyp });
                }
                *beam = next;
            }
            if beams.iter().all(|b| b.is_empty()) || done.len() >= width * 2 {
                break;
            }
        }
        // Unfinished survivors still count as candidates.
        for beam in beams {
            for live in beam {
                done.push(live.hyp);
            }
        }
        done
    }

    fn sample(
        &mut self,
        src: &[usize],
        max_len: usize,
        samples: usize,
        min_prob: f32,
    ) -> Vec<Hypothesis> {
        let mut out = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut prefix = vec![SOS];
            let mut hyp = Hypothesis::empty();
            for _ in 0..max_len {
                let mut probs = self.next_probs(src, &prefix);
                suppress_specials(&mut probs);
                // The paper zeroes low-score tokens before sampling.
                let mut total = 0.0f32;
                for p in probs.iter_mut() {
                    if *p < min_prob {
                        *p = 0.0;
                    }
                    total += *p;
                }
                if total <= 0.0 {
                    // Degenerate distribution: fall back to argmax.
                    probs = self.next_probs(src, &prefix);
                    suppress_specials(&mut probs);
                    let (tok, p) = argmax(&probs);
                    hyp.log_prob += p.max(1e-12).ln();
                    if tok == EOS {
                        hyp.finished = true;
                        break;
                    }
                    hyp.ids.push(tok);
                    hyp.token_probs.push(p);
                    prefix.push(tok);
                    continue;
                }
                let mut u = self.rng.gen_range(0.0..total);
                let mut tok = probs.len() - 1;
                for (i, &p) in probs.iter().enumerate() {
                    if u < p {
                        tok = i;
                        break;
                    }
                    u -= p;
                }
                let p = probs[tok] / total;
                hyp.log_prob += p.max(1e-12).ln();
                if tok == EOS {
                    hyp.finished = true;
                    break;
                }
                hyp.ids.push(tok);
                hyp.token_probs.push(p);
                prefix.push(tok);
            }
            out.push(hyp);
        }
        out
    }
}

fn argmax(probs: &[f32]) -> (usize, f32) {
    let mut best = 0;
    let mut best_p = f32::NEG_INFINITY;
    for (i, &p) in probs.iter().enumerate() {
        if p > best_p {
            best_p = p;
            best = i;
        }
    }
    (best, best_p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::{Adam, AdamConfig};
    use crate::params::forward_backward;
    use crate::transformer::{Transformer, TransformerConfig};
    use rand::SeedableRng;

    /// Train a tiny model to copy its input; decoding should then emit
    /// the source sequence.
    fn trained_copy_model() -> (Params, Transformer) {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(8);
        let model = Transformer::new(&mut params, TransformerConfig::test(10), &mut rng);
        let mut adam = Adam::new(
            AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            &params,
        );
        let seqs: Vec<Vec<usize>> = vec![
            vec![SOS, 4, 5, 6, EOS],
            vec![SOS, 7, 8, EOS],
            vec![SOS, 9, 4, 7, EOS],
        ];
        for _ in 0..60 {
            for s in &seqs {
                let src = s.clone();
                let tgt_in = &s[..s.len() - 1];
                let tgt_out = &s[1..];
                forward_backward(&mut params, &mut StdRng::seed_from_u64(0), |fwd| {
                    let enc = model.encode(fwd, &src);
                    let logits = model.decode(fwd, enc, tgt_in);
                    fwd.graph.cross_entropy(logits, tgt_out)
                });
                adam.step(&mut params, 1.0);
            }
        }
        (params, model)
    }

    #[test]
    fn greedy_decodes_copy_task() {
        let (params, model) = trained_copy_model();
        let mut rng = StdRng::seed_from_u64(0);
        let hyps = decode(
            &model,
            &params,
            &[SOS, 4, 5, 6, EOS],
            Strategy::Greedy,
            10,
            &mut rng,
        );
        assert_eq!(hyps.len(), 1);
        assert_eq!(hyps[0].ids, vec![4, 5, 6]);
        assert!(hyps[0].finished);
        assert_eq!(hyps[0].ids.len(), hyps[0].token_probs.len());
        assert!(hyps[0]
            .token_probs
            .iter()
            .all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn beam_width_one_matches_greedy() {
        let (params, model) = trained_copy_model();
        let src = [SOS, 7, 8, EOS];
        let g = decode(
            &model,
            &params,
            &src,
            Strategy::Greedy,
            10,
            &mut StdRng::seed_from_u64(0),
        );
        let b = decode(
            &model,
            &params,
            &src,
            Strategy::Beam { width: 1 },
            10,
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(g[0].ids, b[0].ids);
    }

    #[test]
    fn beam_returns_multiple_ranked_hypotheses() {
        let (params, model) = trained_copy_model();
        let hyps = decode(
            &model,
            &params,
            &[SOS, 9, 4, 7, EOS],
            Strategy::Beam { width: 4 },
            10,
            &mut StdRng::seed_from_u64(0),
        );
        assert!(hyps.len() >= 2, "beam should keep alternatives");
        for w in hyps.windows(2) {
            assert!(w[0].log_prob >= w[1].log_prob, "must be sorted");
        }
        // The top hypothesis is the copy.
        assert_eq!(hyps[0].ids, vec![9, 4, 7]);
    }

    #[test]
    fn diverse_beam_spreads_tokens() {
        let (params, model) = trained_copy_model();
        let plain = decode(
            &model,
            &params,
            &[SOS, 4, 5, 6, EOS],
            Strategy::Beam { width: 4 },
            10,
            &mut StdRng::seed_from_u64(0),
        );
        let diverse = decode(
            &model,
            &params,
            &[SOS, 4, 5, 6, EOS],
            Strategy::DiverseBeam {
                width: 4,
                groups: 2,
                penalty: 2.0,
            },
            10,
            &mut StdRng::seed_from_u64(0),
        );
        let first_tokens = |hs: &[Hypothesis]| {
            hs.iter()
                .filter_map(|h| h.ids.first().copied())
                .collect::<std::collections::HashSet<_>>()
        };
        assert!(
            first_tokens(&diverse).len() >= first_tokens(&plain).len(),
            "diversity penalty should not reduce first-token variety"
        );
    }

    #[test]
    fn sampling_respects_min_prob() {
        let (params, model) = trained_copy_model();
        // With a very high min_prob only the argmax survives, so sampling
        // degenerates to greedy.
        let hyps = decode(
            &model,
            &params,
            &[SOS, 4, 5, 6, EOS],
            Strategy::Sampling {
                samples: 3,
                min_prob: 0.9,
            },
            10,
            &mut StdRng::seed_from_u64(1),
        );
        // After dedup all samples collapse to the same (greedy) sequence.
        assert_eq!(hyps.len(), 1);
        assert_eq!(hyps[0].ids, vec![4, 5, 6]);
    }

    #[test]
    fn sampling_produces_variety_with_low_threshold() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(3);
        // Untrained model → near-uniform distributions → diverse samples.
        let model = Transformer::new(&mut params, TransformerConfig::test(30), &mut rng);
        let hyps = decode(
            &model,
            &params,
            &[SOS, 4, EOS],
            Strategy::Sampling {
                samples: 6,
                min_prob: 0.0,
            },
            6,
            &mut rng,
        );
        assert!(
            hyps.len() >= 2,
            "expected varied samples, got {}",
            hyps.len()
        );
    }

    #[test]
    fn max_len_caps_unfinished_hypotheses() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(3);
        let model = Transformer::new(&mut params, TransformerConfig::test(30), &mut rng);
        let hyps = decode(
            &model,
            &params,
            &[SOS, 4, EOS],
            Strategy::Greedy,
            4,
            &mut rng,
        );
        assert!(hyps[0].ids.len() <= 4);
    }

    #[test]
    fn enc_cache_lru_evicts_oldest_and_refreshes_on_hit() {
        let mut cache = EncCache::new(2);
        let t = |v: f32| Arc::new(Tensor::full(1, 1, v));
        cache.insert(vec![1], t(1.0));
        cache.insert(vec![2], t(2.0));
        // Hit on [1] refreshes it, so inserting [3] evicts [2].
        assert!(cache.lookup(&[1]).is_some());
        cache.insert(vec![3], t(3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&[2]).is_none());
        assert!(cache.lookup(&[1]).is_some());
        assert!(cache.lookup(&[3]).is_some());
    }

    #[test]
    fn enc_cache_generation_change_invalidates() {
        let mut cache = EncCache::new(4);
        cache.insert(vec![1, 2], Arc::new(Tensor::ones(1, 1)));
        cache.set_generation(0); // unchanged generation keeps entries
        assert_eq!(cache.len(), 1);
        cache.set_generation(7);
        assert!(cache.is_empty());
        assert!(cache.lookup(&[1, 2]).is_none());
    }

    #[test]
    fn enc_cache_counters_track_hits_and_misses() {
        let before = counters();
        let mut cache = EncCache::new(2);
        assert!(cache.lookup(&[9, 9]).is_none());
        cache.insert(vec![9, 9], Arc::new(Tensor::ones(1, 1)));
        assert!(cache.lookup(&[9, 9]).is_some());
        let after = counters();
        // Other tests run concurrently, so deltas are lower bounds.
        assert!(after.enc_cache_misses > before.enc_cache_misses);
        assert!(after.enc_cache_hits > before.enc_cache_hits);
    }

    #[test]
    fn cached_decode_reuses_encoder_output_across_calls() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(3);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let mut cache = EncCache::new(4);
        let src = [SOS, 4, 5, EOS];
        let a = decode_with_cache(
            &model,
            &params,
            &src,
            Strategy::Greedy,
            4,
            &mut StdRng::seed_from_u64(0),
            &mut cache,
        );
        assert_eq!(cache.len(), 1);
        let before = counters();
        let b = decode_with_cache(
            &model,
            &params,
            &src,
            Strategy::Greedy,
            4,
            &mut StdRng::seed_from_u64(0),
            &mut cache,
        );
        let after = counters();
        assert!(after.enc_cache_hits > before.enc_cache_hits);
        assert_eq!(a, b, "cached encoder output must not change results");
    }

    /// The first-step distribution is shared across sampling rollouts:
    /// `n` rollouts of a deterministic (degenerate min_prob) sample take
    /// `n·d − (n−1)` batched steps where one rollout takes `d`.
    #[test]
    fn sampling_shares_first_step_across_rollouts() {
        let (params, model) = trained_copy_model();
        let src = [SOS, 7, 8, EOS];
        let run = |samples: usize| {
            let before = counters().steps;
            let hyps = decode(
                &model,
                &params,
                &src,
                Strategy::Sampling {
                    samples,
                    min_prob: 0.9,
                },
                10,
                &mut StdRng::seed_from_u64(1),
            );
            assert_eq!(hyps[0].ids, vec![7, 8]);
            counters().steps - before
        };
        let d1 = run(1);
        let d3 = run(3);
        assert!(d1 >= 2, "one rollout must take at least two steps");
        assert_eq!(
            d3,
            3 * d1 - 2,
            "three rollouts must reuse the first-step distribution twice"
        );
    }
}
