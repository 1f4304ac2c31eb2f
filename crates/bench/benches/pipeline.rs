//! Micro-benchmarks for the hot paths of the pipeline:
//! parsing/tokenisation, template extraction, a training step per
//! architecture, greedy/beam inference, and baseline prediction.
//!
//! These back Table 3's timing columns (`cargo bench -p qrec-bench`).
//! Each group's functions are timed round-robin by
//! [`qrec_bench::timing::time_stats`], so load drift hits them equally;
//! every function prints its best and median rep.

use qrec_bench::timing::time_stats;
use qrec_core::prelude::*;
use qrec_nn::params::forward_backward;
use qrec_nn::seq2seq::Seq2Seq;
use qrec_nn::trainer::EncodedPair;
use qrec_nn::Strategy;
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const SQL: &str = "SELECT TOP 10 s.ra, s.z, COUNT(p.objid) FROM SpecObj s \
                   JOIN PhotoObj p ON s.objid = p.objid \
                   WHERE s.z BETWEEN 0.3 AND 0.4 AND p.mode = 'PRIMARY' \
                   GROUP BY s.ra, s.z HAVING COUNT(p.objid) > 5 ORDER BY s.z DESC";

/// Wall-clock budget per group, seconds.
const BUDGET_S: f64 = 2.0;
/// Rep cap per function.
const MAX_REPS: usize = 10_000;

/// Time one group of functions and print a line per function.
fn run_group(group: &str, names: &[&str], fns: &mut [&mut dyn FnMut()]) {
    let stats = time_stats(fns, BUDGET_S, MAX_REPS);
    for (name, s) in names.iter().zip(stats) {
        println!(
            "{:<32} best {:>12.3} µs   p50 {:>12.3} µs   ({} reps)",
            format!("{group}/{name}"),
            s.best_s * 1e6,
            s.p50_s * 1e6,
            s.reps
        );
    }
}

fn bench_sql() {
    let q = qrec_sql::parse(SQL).unwrap();
    run_group(
        "sql",
        &["parse", "template", "fragments", "tokens", "record"],
        &mut [
            &mut || drop(black_box(qrec_sql::parse(black_box(SQL)).unwrap())),
            &mut || drop(black_box(qrec_sql::template(black_box(&q)))),
            &mut || drop(black_box(qrec_sql::extract_fragments(black_box(&q)))),
            &mut || drop(black_box(qrec_sql::query_tokens(black_box(&q)))),
            &mut || {
                drop(black_box(
                    qrec_workload::QueryRecord::new(black_box(SQL)).unwrap(),
                ))
            },
        ],
    );
}

fn bench_workload_gen() {
    let profile = WorkloadProfile::tiny();
    run_group(
        "workload",
        &["generate-tiny"],
        &mut [&mut || drop(black_box(generate(black_box(&profile), 7)))],
    );
}

fn setup_training() -> (Vec<EncodedPair>, qrec_workload::Vocab) {
    let (w, _) = generate(&WorkloadProfile::tiny(), 5);
    let mut rng = StdRng::seed_from_u64(1);
    let split = Split::paper(w.pairs(), &mut rng);
    let vocab = qrec_core::data::build_vocab(&split.train, 1);
    let pairs = qrec_core::data::encode_pairs(&split.train, &vocab, SeqMode::Aware);
    (pairs, vocab)
}

/// One forward/backward pass per rep. Gradients accumulate into one
/// parameter set per architecture; the weights never change, so every
/// rep runs the same arithmetic.
fn bench_train_step() {
    let (pairs, vocab) = setup_training();
    let pair = pairs.first().expect("training pairs").clone();
    let archs = [Arch::Transformer, Arch::ConvS2S, Arch::Gru];
    let mut steps: Vec<Box<dyn FnMut()>> = archs
        .into_iter()
        .map(|arch| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut params = qrec_nn::Params::new();
            let model = AnyModel::build(arch, SizePreset::Test, vocab.len(), &mut params, &mut rng);
            let pair = pair.clone();
            Box::new(move || {
                black_box(forward_backward(&mut params, &mut rng, |fwd| {
                    let enc = model.encode(fwd, &pair.src);
                    let tgt_in = &pair.tgt[..pair.tgt.len() - 1];
                    let tgt_out = &pair.tgt[1..];
                    let logits = model.decode(fwd, enc, tgt_in);
                    let rows = fwd.graph.value(logits).rows();
                    fwd.graph.cross_entropy(logits, &tgt_out[..rows])
                }));
            }) as Box<dyn FnMut()>
        })
        .collect();
    let mut fns: Vec<&mut dyn FnMut()> = steps.iter_mut().map(|step| &mut **step as _).collect();
    run_group("train_step", &archs.map(|arch| arch.label()), &mut fns);
}

fn bench_inference() {
    let (w, _) = generate(&WorkloadProfile::tiny(), 5);
    let mut rng = StdRng::seed_from_u64(1);
    let split = Split::paper(w.pairs(), &mut rng);
    let cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    let (rec, _) = Recommender::train(&split, &w, cfg);
    let q = split.test.first().expect("test pairs").current.clone();
    // Each closure needs the recommender mutably; they run one at a time.
    let rec = std::cell::RefCell::new(rec);
    let decode = |strategy: Strategy| {
        let rec = &rec;
        let tokens = &q.tokens;
        move || {
            drop(black_box(
                rec.borrow_mut()
                    .decode_candidates(black_box(tokens), strategy),
            ))
        }
    };
    let diverse = Strategy::DiverseBeam {
        width: 4,
        groups: 2,
        penalty: 1.0,
    };
    run_group(
        "inference",
        &["greedy", "beam5", "diverse-beam", "predict_n5"],
        &mut [
            &mut decode(Strategy::Greedy),
            &mut decode(Strategy::Beam { width: 5 }),
            &mut decode(diverse),
            &mut || drop(black_box(rec.borrow_mut().predict_n(black_box(&q), 5))),
        ],
    );
}

fn bench_baselines() {
    let (w, _) = generate(&WorkloadProfile::tiny(), 5);
    let mut rng = StdRng::seed_from_u64(1);
    let split = Split::paper(w.pairs(), &mut rng);
    let q = split.test.first().expect("test pairs").current.clone();
    let mut popular = PopularBaseline::fit(&split.train);
    let mut naive = NaiveQi::fit(&split.train);
    let mut querie = Querie::fit(&split.train, 10);
    run_group(
        "baselines",
        &[
            "popular/predict_n",
            "naive/predict_set",
            "querie/predict_set",
        ],
        &mut [
            &mut || drop(black_box(popular.predict_n(black_box(&q), 5))),
            &mut || drop(black_box(naive.predict_set(black_box(&q)))),
            &mut || drop(black_box(querie.predict_set(black_box(&q)))),
        ],
    );
}

fn main() {
    bench_sql();
    bench_workload_gen();
    bench_train_step();
    bench_inference();
    bench_baselines();
}
