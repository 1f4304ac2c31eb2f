//! Allocation bounds of the transformer's tape-free decode step, of a
//! whole beam-search iteration around it, and of the encoder pass.
//!
//! The step's contract (DESIGN.md §11) is that it builds no autograd
//! graph, copies no weight and writes every intermediate into scratch
//! owned by the `DecodeState` — so the only heap allocation inside one
//! `step_logits` call is the `B × vocab` logits tensor it returns,
//! whatever the batch, the position or the depth of the model. The
//! encoder pass makes the same promise per source: its scratch buffers
//! and nothing that grows with the source length or the layer count.
//! And a beam-search iteration — the step, the `B × vocab` softmax, slot
//! selection, the survivors' bookkeeping and the cache reorder — adds
//! nothing to the step's one allocation: its lists are sized before the
//! loop and the KV arenas gather into buffers they keep.
//! This binary installs a counting global allocator (which is why it is
//! a test binary of its own) and holds both to that.

mod common;

use qrec_nn::decode::{decode_with_cache, EncCache, Strategy, EOS};
use qrec_nn::params::{forward_eval, Params};
use qrec_nn::Seq2Seq;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread while `COUNTING` is set. Per
    /// thread, so the harness's own threads cannot disturb the count.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-locals of `Cell<usize>`/`Cell<bool>`, which
// have no destructor and never allocate, so the allocator cannot recurse
// into itself, and `try_with` tolerates a thread that is tearing down.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, who
        // guarantees `ptr` came from this allocator (i.e. from `System`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (i.e. from `System`)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note_allocation() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (incl. reallocations) made by `f` on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCATIONS.with(Cell::get), out)
}

/// Allocations inside the `step_logits` call at position `t` of a
/// `batch`-row decode on a `layers`-deep serving-shape transformer.
fn step_allocations(layers: usize, batch: usize, t: usize, quantized: bool) -> usize {
    let vocab = 130;
    let (mut params, model) = common::perturbed_small(vocab, layers, 5);
    if quantized {
        params.quantize();
    }
    let src: Vec<usize> = (0..20).map(|i| 3 + (i * 7) % (vocab - 3)).collect();
    let mut rng = StdRng::seed_from_u64(0);
    let enc = forward_eval(&params, &mut rng, |fwd| {
        let e = model.encode(fwd, &src);
        fwd.graph.value_shared(e)
    });
    let mut state = forward_eval(&params, &mut rng, |fwd| {
        model.begin_decode(fwd, &enc, batch)
    });
    let toks = |pos: usize| -> Vec<usize> { (0..batch).map(|r| 3 + (pos + 5 * r) % 100).collect() };
    for pos in 0..t {
        forward_eval(&params, &mut rng, |fwd| {
            model.step_logits(fwd, &mut state, &toks(pos))
        });
    }
    let feed = toks(t);
    // `forward_eval` builds the (unused) graph and binding outside the
    // measured region; only the step itself is counted.
    let (count, logits) = forward_eval(&params, &mut rng, |fwd| {
        allocations_in(|| model.step_logits(fwd, &mut state, &feed))
    });
    assert_eq!(logits.shape(), (batch, vocab));
    count
}

/// One test for every step case, so nothing else allocates on the
/// measuring thread mid-count (counts are per thread).
///
/// Positions 1 and 30 sit off the doubling boundaries where amortised
/// growth legitimately allocates: the KV arena re-lays its rows out at
/// positions 16 and 32.
#[test]
fn a_transformer_step_allocates_only_its_logits() {
    let mut counts = Vec::new();
    for quantized in [false, true] {
        for layers in [1, 2] {
            for batch in [1, 5, 8] {
                for t in [1, 30] {
                    let n = step_allocations(layers, batch, t, quantized);
                    counts.push((
                        n,
                        format!("int8 {quantized} layers {layers} B {batch} t {t}"),
                    ));
                }
            }
        }
    }
    let (first, _) = counts[0];
    for (n, case) in &counts {
        assert!(*n <= 4, "{case}: {n} allocations in one step (bound 4)");
        assert_eq!(
            *n, first,
            "{case}: {n} allocations, but {} has {first} — the count must not depend on \
             batch, position, depth or precision",
            counts[0].1
        );
    }
    println!("allocations per transformer step: {first}");
}

/// The serving-shape fixture with `<EOS>` priced out of every beam (its
/// output bias far below the rest), so a search never retires a
/// hypothesis: every decode runs exactly `max_len` iterations and ends
/// with `width` hypotheses of `max_len` tokens.
fn never_finishing(vocab: usize, layers: usize) -> (Params, qrec_nn::Transformer) {
    let (params, model) = common::perturbed_small(vocab, layers, 5);
    let tensors = params
        .named_tensors()
        .map(|(name, value)| {
            let mut value = value.clone();
            if name == "tfm.out.b" {
                value.set(0, EOS, -50.0);
            }
            (name.to_string(), value)
        })
        .collect();
    (Params::from_named_tensors(tensors), model)
}

/// Allocations inside one whole beam decode capped at `max_len`
/// iterations, the encoder output already cached.
fn beam_decode_allocations(
    params: &Params,
    model: &qrec_nn::Transformer,
    cache: &mut EncCache,
    width: usize,
    max_len: usize,
) -> usize {
    let src: Vec<usize> = (0..20).map(|i| 3 + (i * 7) % 127).collect();
    let mut rng = StdRng::seed_from_u64(0);
    let (count, hyps) = allocations_in(|| {
        decode_with_cache(
            model,
            params,
            &src,
            Strategy::Beam { width },
            max_len,
            &mut rng,
            cache,
        )
    });
    assert_eq!(hyps.len(), width, "no hypothesis retires or merges");
    assert!(hyps.iter().all(|h| h.ids.len() == max_len && !h.finished));
    count
}

/// A decode capped at `i` iterations does everything a decode capped at
/// `i − 1` does, bit for bit, and then one more iteration; everything
/// outside the loop allocates the same number of times whatever the cap
/// (the lists are sized once, each returned hypothesis owns two exact
/// vectors). So the difference of the two counts is what iteration `i`
/// allocates — and from the third on that is the step's logits tensor
/// alone: the first iteration runs one row and the second is the first
/// at the full beam, so those two size the scratch, the selector's lists
/// and both buffer sets of every KV arena. The one exception is the
/// iteration that appends position 16, where an arena is out of room:
/// both of its buffer sets regrow, the rows at the append and the spare
/// set at the gather that follows (K and V, and their scales when int8).
#[test]
fn a_beam_iteration_allocates_only_the_step_logits() {
    for quantized in [false, true] {
        for layers in [1, 2] {
            let (mut params, model) = never_finishing(130, layers);
            if quantized {
                params.quantize();
            }
            let mut cache = EncCache::new(1);
            for width in [1, 5, 8] {
                let case = format!("int8 {quantized} layers {layers} B {width}");
                let mut count =
                    |max_len| beam_decode_allocations(&params, &model, &mut cache, width, max_len);
                count(1); // pays the encoder pass; every later decode hits the cache
                let mut before = count(2);
                for i in 3..=20 {
                    let after = count(i);
                    let buffers_per_set = if quantized { 4 } else { 2 };
                    let regrow = if i == 17 {
                        2 * buffers_per_set * layers
                    } else {
                        0
                    };
                    assert_eq!(
                        after - before,
                        1 + regrow,
                        "{case}: allocations in iteration {i}"
                    );
                    before = after;
                }
                assert_eq!(count(32) - count(31), 1, "{case}: iteration 32");
            }
        }
    }
}

/// Allocations inside one `encoder_output` call over an `m`-token source
/// on a `layers`-deep serving-shape transformer.
fn encoder_allocations(layers: usize, m: usize, quantized: bool) -> usize {
    let vocab = 130;
    let (mut params, model) = common::perturbed_small(vocab, layers, 5);
    if quantized {
        params.quantize();
    }
    let src: Vec<usize> = (0..m).map(|i| 3 + (i * 7) % (vocab - 3)).collect();
    let mut rng = StdRng::seed_from_u64(0);
    let (count, enc) = forward_eval(&params, &mut rng, |fwd| {
        allocations_in(|| model.encoder_output(fwd, &src))
    });
    assert_eq!(enc.shape(), (m, 48));
    count
}

/// A graph encoder pass allocates per layer (every weight it binds is
/// copied, every op output is a fresh tensor) and per head; the
/// tape-free pass allocates its scratch once, whatever the source length
/// or the depth. Lengths sit on both sides of the switches from the
/// small-product tile to the blocked kernel (15 rows for the `d_ff`
/// products, 29 for the `d_model` ones): the blocked kernel packs `B`
/// into a buffer its thread keeps, so after the first pass at the longest
/// length has sized that buffer it allocates nothing either. An int8 pass
/// allocates exactly what an f32 one does.
#[test]
fn a_transformer_encoder_pass_allocates_only_its_scratch() {
    let per_precision = [false, true].map(|quantized| {
        encoder_allocations(2, 64, quantized);
        let counts: Vec<usize> = [1, 2]
            .iter()
            .flat_map(|&layers| {
                [1, 5, 25, 29, 64].map(|m| encoder_allocations(layers, m, quantized))
            })
            .collect();
        assert!(
            counts.iter().all(|&n| n == counts[0] && n <= 16),
            "int8 {quantized}: {counts:?} allocations — the count must not depend on the \
             source length or the depth"
        );
        println!(
            "allocations per encoder pass (int8 {quantized}): {}",
            counts[0]
        );
        counts[0]
    });
    // Int8 weights are read through the same tile into the same scratch:
    // nothing is quantized, packed or buffered on their account.
    assert_eq!(per_precision[0], per_precision[1], "f32 vs int8");
}
