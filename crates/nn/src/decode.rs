//! Decoding strategies for online recommendation (Section 4.2.2):
//! greedy decoding for fragment-*set* prediction, and beam search /
//! diverse beam search / stochastic sampling for *N-fragments*
//! prediction.
//!
//! There is one decode path, [`decode_with_cache`] ([`decode`] is it with
//! a fresh one-slot cache), and every strategy runs on it
//! **incrementally**: the encoder output is computed once per source (and
//! cached across calls in an [`EncCache`]), each architecture carries a
//! [`DecodeState`] of its own per-layer caches (see
//! [`crate::incremental`]; no architecture decodes without one), and
//! every step runs **one batched `B × vocab` forward** across all live
//! hypotheses instead of one full-prefix forward per hypothesis. For the
//! transformer neither the encoder pass nor the step builds an autograd
//! graph at all ([`Seq2Seq::encoder_output`], [`Seq2Seq::step_logits`]);
//! ConvS2S and GRU record theirs on a graph the decoder rebuilds after
//! each use. The batched logits are bitwise identical to the serial
//! full-prefix recompute — the last row of [`Seq2Seq::decode`] over each
//! hypothesis's prefix — which lives only in the decode equivalence
//! suite (`crates/nn/tests/decode_equivalence.rs`), as the oracle this
//! path is held to.
//!
//! Decode activity (steps, encoder-cache hits and misses) is counted in
//! the global obs registry as `nn.decode_steps`, `nn.enc_cache_hits` and
//! `nn.enc_cache_misses`; [`counters`] reads them.
//!
//! All strategies return [`Hypothesis`] lists carrying per-token
//! probabilities, from which the recommender aggregates fragment
//! probabilities over the partial search tree exactly as the paper
//! describes.

use crate::incremental::DecodeState;
use crate::params::{Fwd, Params, Tape};
use crate::seq2seq::Seq2Seq;
use qrec_tensor::tensor::softmax_rows_in_place;
use qrec_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Padding token id (never emitted).
pub const PAD: usize = 0;
/// Start-of-sequence id, mirroring `qrec_workload::vocab` (never emitted).
pub const SOS: usize = 1;
/// End-of-sequence id.
pub const EOS: usize = 2;

/// The decode activity counters behind [`counters`], in the global obs
/// registry (registered on first use), so the `DUMP` exposition renders
/// them as `qrec_nn_*`.
struct Activity {
    steps: Arc<qrec_obs::Counter>,
    enc_cache_hits: Arc<qrec_obs::Counter>,
    enc_cache_misses: Arc<qrec_obs::Counter>,
}

fn activity() -> &'static Activity {
    static A: std::sync::OnceLock<Activity> = std::sync::OnceLock::new();
    A.get_or_init(|| Activity {
        steps: qrec_obs::global().counter("nn.decode_steps"),
        enc_cache_hits: qrec_obs::global().counter("nn.enc_cache_hits"),
        enc_cache_misses: qrec_obs::global().counter("nn.enc_cache_misses"),
    })
}

/// Encoder-pass duration histogram (paid only on an [`EncCache`] miss).
fn encode_hist() -> &'static Arc<qrec_obs::Histogram> {
    static H: std::sync::OnceLock<Arc<qrec_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| qrec_obs::global().histogram_log2("nn.decode.encode_us"))
}

/// Process-wide decode activity counters (monotonic, relaxed ordering),
/// surfaced by qrec-serve's STATS verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    let a = activity();
    DecodeCounters {
        steps: a.steps.get(),
        enc_cache_hits: a.enc_cache_hits.get(),
        enc_cache_misses: a.enc_cache_misses.get(),
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
                activity().enc_cache_hits.inc();
                qrec_obs::trace::note_enc_cache(true);
                Some(enc)
            }
            None => {
                activity().enc_cache_misses.inc();
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

/// Tokens already chosen at the current step by earlier groups (and
/// earlier slots of this group), each with how many times — the Hamming
/// diversity bookkeeping. At most one entry per slot of the step, so a
/// scanned list; it is only kept under a diversity penalty.
type ChosenCounts = Vec<(usize, usize)>;

/// Count one more choice of `tok`.
fn note_chosen(chosen: &mut ChosenCounts, tok: usize) {
    match chosen.iter_mut().find(|(t, _)| *t == tok) {
        Some((_, count)) => *count += 1,
        None => chosen.push((tok, 1)),
    }
}

/// Insert `item` into `list` — best first, at most `cap` long — behind
/// every entry it does not strictly outrank (`outranks(a, b)`: `a` goes
/// before `b`), so entries that tie stay in arrival order; whatever falls
/// off the end is dropped.
fn insert_bounded<T>(list: &mut Vec<T>, cap: usize, item: T, outranks: impl Fn(&T, &T) -> bool) {
    let at = list.partition_point(|entry| !outranks(&item, entry));
    if at < cap {
        list.truncate(cap - 1);
        list.insert(at, item);
    }
}

/// Beam-slot selection ([`BeamSelector::select`]) and the buffers it
/// reuses from one step to the next, so that a step's selection
/// allocates nothing once they have grown. The selection routine it
/// replaced (index list, `select_nth_unstable_by`, sorts) is its oracle,
/// in `crates/nn/tests/select_oracle/mod.rs`: the unit tests below hold
/// the two bitwise equal, and the decode equivalence suite's full-prefix
/// decoder selects with it.
#[derive(Debug, Default)]
struct BeamSelector {
    /// The current row's shortlist, (probability desc, token asc).
    shortlist: Vec<(f32, usize)>,
    /// The current row's slots, `(score, token)` by (score desc, token asc).
    ranked: Vec<(f32, usize)>,
    /// The winners so far: `(score, live idx, token)`, score desc.
    winners: Vec<(f32, usize, usize)>,
}

impl BeamSelector {
    /// Select one group's `group_width` beam slots for a single step.
    ///
    /// `rows` yields, per live hypothesis, its suppressed next-token
    /// distribution and accumulated log-prob. Returns the winning
    /// `(score, live idx, token)` triples in slot order.
    ///
    /// Rather than scoring all `live × vocab` candidates, each row is
    /// first pruned to a shortlist by raw probability, which within a
    /// row orders candidates exactly like the log-score: a candidate
    /// outside its own row's top `group_width` is beaten by
    /// `group_width` same-row candidates and can never win a slot. Under
    /// a diversity penalty the shortlist is widened by the number of
    /// distinct penalized tokens `P`: a candidate below its row's
    /// unpenalized top `group_width + P` still has `group_width`
    /// unpenalized same-row candidates above it after penalties are
    /// applied (penalties only lower scores, and only `P` tokens carry
    /// one). `ln` therefore touches only the shortlist.
    ///
    /// The shortlist is found in **one ascending scan** of the row: a
    /// token enters a list of at most `group_width + P` entries only if
    /// its probability is positive and strictly above the list's last
    /// once that is full — for all but a handful of tokens one
    /// comparison — and sits behind the entries of equal probability,
    /// which are the smaller tokens. That is the top of the row under
    /// (probability desc, token asc), the order the argument above
    /// needs, with no index list, selection or sort. The shortlist is
    /// then scored and ranked by (score desc, token asc) into the row's
    /// `group_width` slots, and the rows' slots are merged by score
    /// alone, **stably**: equal scores keep row order, then the rank
    /// order within a row.
    fn select<'r>(
        &mut self,
        rows: impl Iterator<Item = (&'r [f32], f32)>,
        group_width: usize,
        penalty: f32,
        chosen: &[(usize, usize)],
    ) -> &[(f32, usize, usize)] {
        let keep = group_width + if penalty > 0.0 { chosen.len() } else { 0 };
        self.winners.clear();
        for (li, (probs, base)) in rows.enumerate() {
            self.shortlist.clear();
            // What a token's probability must exceed to be listed.
            let mut floor = 0.0f32;
            for (tok, &p) in probs.iter().enumerate() {
                if p > floor {
                    insert_bounded(&mut self.shortlist, keep, (p, tok), |a, b| a.0 > b.0);
                    if self.shortlist.len() == keep {
                        floor = self.shortlist[keep - 1].0;
                    }
                }
            }
            self.ranked.clear();
            for &(p, tok) in &self.shortlist {
                let mut score = base + p.max(1e-12).ln();
                if penalty > 0.0 {
                    let count = chosen.iter().find(|(t, _)| *t == tok).map_or(0, |c| c.1);
                    score -= penalty * count as f32;
                }
                insert_bounded(&mut self.ranked, group_width, (score, tok), |a, b| {
                    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
                });
            }
            for &(score, tok) in &self.ranked {
                insert_bounded(&mut self.winners, group_width, (score, li, tok), |a, b| {
                    a.0 > b.0
                });
            }
        }
        &self.winners
    }
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

/// A live hypothesis of the incremental beam search. During the search
/// a hypothesis is not a [`Hypothesis`]: it is its accumulated log-prob
/// and the index of its last token in a tree of [`TokenNode`]s that the
/// whole search shares, so extending one — several times over, when a
/// parent wins several slots — copies no token list. The survivors and
/// the retired become [`Hypothesis`] values once, when the search ends.
#[derive(Debug, Clone, Copy)]
struct LiveHyp {
    /// Index of the last emitted token's node; [`NO_TOKEN`] at the root.
    last: usize,
    log_prob: f32,
}

/// One emitted token of the search tree: its parent token (or
/// [`NO_TOKEN`]), its id and its probability at its step.
#[derive(Debug, Clone, Copy)]
struct TokenNode {
    parent: usize,
    tok: usize,
    prob: f32,
}

/// The parent of a first token, and the last token of the empty prefix.
const NO_TOKEN: usize = usize::MAX;

impl LiveHyp {
    /// Walk the parent pointers into the [`Hypothesis`] this stands for.
    fn materialize(self, nodes: &[TokenNode], finished: bool) -> Hypothesis {
        let path = || std::iter::successors(nodes.get(self.last), |n| nodes.get(n.parent));
        let len = path().count();
        let mut ids = vec![0; len];
        let mut token_probs = vec![0.0; len];
        for (node, at) in path().zip((0..len).rev()) {
            ids[at] = node.tok;
            token_probs[at] = node.prob;
        }
        Hypothesis {
            ids,
            token_probs,
            log_prob: self.log_prob,
            finished,
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
        tape: Tape::forward_only(),
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

/// Ranking: sort by descending log-probability, deduplicate on
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
    /// The tape the model's graph-based calls run on: the ConvS2S and
    /// GRU encoder passes and steps. Forward-only — it keeps values, no
    /// backward closures — and cleared, not rebuilt, between calls. The
    /// transformer's tape-free calls read only the parameter store and
    /// leave it empty.
    tape: Tape,
}

impl<'m, M: Seq2Seq + ?Sized> Decoder<'m, M> {
    /// Run one inference call of the model with a forward context.
    fn with_fwd<T>(&mut self, call: impl FnOnce(&M, &mut Fwd<'_>) -> T) -> T {
        let model = self.model;
        self.tape
            .forward(self.params, self.rng, |fwd| call(model, fwd))
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
        // Counted, not timed: the decode stage's time over its step count
        // is the step time, and two clock reads per step cost a decoded
        // request about half of the spine's 3 % budget (`bench_obs`).
        activity().steps.inc();
        qrec_obs::trace::note_decode_step();
        let mut probs = self.with_fwd(|model, fwd| model.step_logits(fwd, state, last_toks));
        let vocab = probs.cols();
        softmax_rows_in_place(probs.data_mut(), vocab);
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
    /// rows). Slot selection goes through [`BeamSelector::select`].
    ///
    /// Everything an iteration writes besides the logits — the selector's
    /// lists, the survivors ([`LiveHyp`]), their token tree, the parent
    /// and token lists handed to the next step — lives in buffers sized
    /// before the loop and swapped or cleared per step: an iteration
    /// allocates the `B × vocab` logits and nothing else.
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
        let slots = groups * group_width;

        if max_len == 0 {
            return vec![Hypothesis::empty(); groups];
        }
        let enc = self.encoder_output(src);
        // Every group starts from the same `<SOS>` root: `groups`
        // identical rows whose first step is computed in one forward.
        let mut state = self.begin(&enc, groups);
        let root = LiveHyp {
            last: NO_TOKEN,
            log_prob: 0.0,
        };
        let mut live: Vec<Vec<LiveHyp>> = vec![vec![root]; groups];
        let mut next_live: Vec<Vec<LiveHyp>> = vec![Vec::with_capacity(group_width); groups];
        // Room for a serving-length search; a longer one regrows it.
        let mut nodes: Vec<TokenNode> = Vec::with_capacity(max_len.min(64) * slots);
        // The search stops once `2·width` have retired; one step can
        // retire `slots` more.
        let mut done: Vec<LiveHyp> = Vec::with_capacity(2 * width + slots);
        let mut pending: Vec<usize> = vec![SOS; groups];
        let mut next_tokens: Vec<usize> = Vec::with_capacity(slots);
        let mut parents: Vec<usize> = Vec::with_capacity(slots);
        let mut chosen = ChosenCounts::new();
        let mut selector = BeamSelector::default();

        for _step in 0..max_len {
            let probs = self.step_probs(&mut state, &pending);
            let vocab = probs.cols();
            let total_rows = probs.rows();
            let mut flat = probs.into_data();
            for r in 0..total_rows {
                suppress_specials(&mut flat[r * vocab..(r + 1) * vocab]);
            }
            chosen.clear();
            parents.clear();
            next_tokens.clear();
            let mut row_base = 0usize;
            for (hyps, next) in live.iter().zip(&mut next_live) {
                next.clear();
                let rows = hyps.iter().enumerate().map(|(li, hyp)| {
                    let r = row_base + li;
                    (&flat[r * vocab..(r + 1) * vocab], hyp.log_prob)
                });
                // Standard beam step: the top `group_width` candidates each
                // take one slot; an EOS candidate retires its hypothesis.
                for &(_score, li, tok) in selector.select(rows, group_width, penalty, &chosen) {
                    let p = flat[(row_base + li) * vocab + tok];
                    let parent = hyps[li];
                    let log_prob = parent.log_prob + p.max(1e-12).ln();
                    if tok == EOS {
                        done.push(LiveHyp { log_prob, ..parent });
                        continue;
                    }
                    if penalty > 0.0 {
                        note_chosen(&mut chosen, tok);
                    }
                    parents.push(row_base + li);
                    next_tokens.push(tok);
                    next.push(LiveHyp {
                        last: nodes.len(),
                        log_prob,
                    });
                    nodes.push(TokenNode {
                        parent: parent.last,
                        tok,
                        prob: p,
                    });
                }
                row_base += hyps.len();
            }
            std::mem::swap(&mut live, &mut next_live);
            std::mem::swap(&mut pending, &mut next_tokens);
            state.reorder(&parents);
            if live.iter().all(|g| g.is_empty()) || done.len() >= width * 2 {
                break;
            }
        }
        // Unfinished survivors still count as candidates.
        let mut hyps = Vec::with_capacity(done.len() + slots);
        hyps.extend(done.iter().map(|hyp| hyp.materialize(&nodes, true)));
        let survivors = live.iter().flatten();
        hyps.extend(survivors.map(|hyp| hyp.materialize(&nodes, false)));
        hyps
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
#[path = "../tests/select_oracle/mod.rs"]
mod select_oracle;

#[cfg(test)]
mod tests {
    use super::select_oracle::select_beam_slots_oracle;
    use super::*;
    use crate::adam::{Adam, AdamConfig};
    use crate::params::forward_backward;
    use crate::transformer::{Transformer, TransformerConfig};
    use proptest::prelude::{any, prop_oneof, proptest, Just, ProptestConfig};
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Both selections of one case, winners compared bit for bit.
    fn assert_selection_matches_oracle(
        rows: &[(Vec<f32>, f32)],
        group_width: usize,
        penalty: f32,
        chosen: &[(usize, usize)],
        selector: &mut BeamSelector,
    ) {
        let borrowed: Vec<(&[f32], f32)> = rows.iter().map(|(p, b)| (p.as_slice(), *b)).collect();
        let counts: HashMap<usize, usize> = chosen.iter().copied().collect();
        let want = select_beam_slots_oracle(&borrowed, group_width, penalty, &counts);
        let got = selector.select(borrowed.iter().copied(), group_width, penalty, chosen);
        let bits = |w: &[(f32, usize, usize)]| -> Vec<(u32, usize, usize)> {
            w.iter()
                .map(|&(s, li, tok)| (s.to_bits(), li, tok))
                .collect()
        };
        assert_eq!(
            bits(&want),
            bits(got),
            "width {group_width} penalty {penalty} chosen {chosen:?} rows {rows:?}"
        );
    }

    /// A row's probabilities from a handful of levels, so exact ties are
    /// the rule: zeros, repeated small and large values, and one level
    /// that is a different float with the same `ln` neighbourhood.
    fn tied_row() -> impl proptest::strategy::Strategy<Value = Vec<f32>> {
        let level = prop_oneof![
            Just(0.0f32),
            Just(0.0f32),
            Just(0.125f32),
            Just(0.25f32),
            Just(0.250_000_03f32),
            Just(1e-13f32),
            0.0f32..1.0,
        ];
        proptest::collection::vec(level, 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass selection against the oracle: rows full of exact
        /// ties and zeros (so often fewer positive entries than slots),
        /// widths 1–8, 1–6 rows, equal and distinct bases, and — under a
        /// penalty — chosen tokens that widen the shortlist. One selector
        /// serves every case of a run, so stale buffers would show.
        #[test]
        fn one_pass_selection_matches_the_oracle(
            rows in proptest::collection::vec((tied_row(), prop_oneof![Just(-1.5f32), -4.0f32..0.0]), 1..7),
            group_width in 1usize..9,
            penalised in any::<bool>(),
            penalty in 0.1f32..3.0,
            chosen in proptest::collection::vec((0usize..40, 1usize..4), 0..6),
        ) {
            // One entry per token, as the decoders keep it.
            let mut distinct = ChosenCounts::new();
            for (tok, count) in chosen {
                if distinct.iter().all(|&(t, _)| t != tok) {
                    distinct.push((tok, count));
                }
            }
            let penalty = if penalised { penalty } else { 0.0 };
            let mut selector = BeamSelector::default();
            // Twice through one selector: the second call starts from
            // the first one's leftovers.
            for _ in 0..2 {
                assert_selection_matches_oracle(&rows, group_width, penalty, &distinct, &mut selector);
            }
        }
    }

    /// The shapes a random draw rarely produces, pinned: a single
    /// positive entry, an all-zero row among live ones, a row shorter
    /// than the width, every entry tied, and a penalty that reorders a
    /// row's top.
    #[test]
    fn one_pass_selection_matches_the_oracle_on_degenerate_rows() {
        let mut selector = BeamSelector::default();
        let single = vec![(vec![0.0, 0.0, 0.7, 0.0], -0.5)];
        let with_dead_row = vec![
            (vec![0.0; 6], -0.1),
            (vec![0.2, 0.0, 0.2, 0.2, 0.0, 0.4], -0.7),
            (vec![0.0, 0.5, 0.0, 0.0, 0.5, 0.0], -0.7),
        ];
        let short = vec![(vec![0.5, 0.5], 0.0), (vec![0.25], 0.0)];
        let all_tied = vec![(vec![0.1; 12], -1.0), (vec![0.1; 12], -1.0)];
        for rows in [&single, &with_dead_row, &short, &all_tied] {
            for group_width in 1..=8 {
                for (penalty, chosen) in [
                    (0.0, vec![]),
                    (0.0, vec![(2, 1)]),
                    (1.5, vec![]),
                    (1.5, vec![(2, 1), (5, 3)]),
                    (0.4, vec![(0, 2), (1, 1), (4, 1)]),
                ] {
                    assert_selection_matches_oracle(
                        rows,
                        group_width,
                        penalty,
                        &chosen,
                        &mut selector,
                    );
                }
            }
        }
    }

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
