//! Criterion micro-benchmarks for the hot paths of the pipeline:
//! parsing/tokenisation, template extraction, a training step per
//! architecture, greedy/beam inference, and baseline prediction.
//!
//! These back Table 3's timing columns with statistically sound
//! measurements (`cargo bench -p qrec-bench`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
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

fn bench_sql(c: &mut Criterion) {
    c.bench_function("sql/parse", |b| {
        b.iter(|| qrec_sql::parse(black_box(SQL)).unwrap())
    });
    let q = qrec_sql::parse(SQL).unwrap();
    c.bench_function("sql/template", |b| {
        b.iter(|| qrec_sql::template(black_box(&q)))
    });
    c.bench_function("sql/fragments", |b| {
        b.iter(|| qrec_sql::extract_fragments(black_box(&q)))
    });
    c.bench_function("sql/tokens", |b| {
        b.iter(|| qrec_sql::query_tokens(black_box(&q)))
    });
    c.bench_function("sql/record", |b| {
        b.iter(|| qrec_workload::QueryRecord::new(black_box(SQL)).unwrap())
    });
}

fn bench_workload_gen(c: &mut Criterion) {
    let profile = WorkloadProfile::tiny();
    c.bench_function("workload/generate-tiny", |b| {
        b.iter(|| generate(black_box(&profile), 7))
    });
}

fn setup_training() -> (Vec<EncodedPair>, qrec_workload::Vocab) {
    let (w, _) = generate(&WorkloadProfile::tiny(), 5);
    let mut rng = StdRng::seed_from_u64(1);
    let split = Split::paper(w.pairs(), &mut rng);
    let vocab = qrec_core::data::build_vocab(&split.train, 1);
    let pairs = qrec_core::data::encode_pairs(&split.train, &vocab, SeqMode::Aware);
    (pairs, vocab)
}

fn bench_train_step(c: &mut Criterion) {
    let (pairs, vocab) = setup_training();
    let mut group = c.benchmark_group("train_step");
    group.sample_size(20);
    for arch in [Arch::Transformer, Arch::ConvS2S, Arch::Gru] {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = qrec_nn::Params::new();
        let model = AnyModel::build(arch, SizePreset::Test, vocab.len(), &mut params, &mut rng);
        let pair = pairs.first().expect("training pairs").clone();
        group.bench_function(arch.label(), |b| {
            b.iter_batched(
                || params.clone(),
                |mut p| {
                    forward_backward(&mut p, &mut rng, |fwd| {
                        let enc = model.encode(fwd, &pair.src);
                        let tgt_in = &pair.tgt[..pair.tgt.len() - 1];
                        let tgt_out = &pair.tgt[1..];
                        let logits = model.decode(fwd, enc, tgt_in);
                        let rows = fwd.graph.value(logits).rows();
                        fwd.graph.cross_entropy(logits, &tgt_out[..rows])
                    })
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let (w, _) = generate(&WorkloadProfile::tiny(), 5);
    let mut rng = StdRng::seed_from_u64(1);
    let split = Split::paper(w.pairs(), &mut rng);
    let cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    let (mut rec, _) = Recommender::train(&split, &w, cfg);
    let q = split.test.first().expect("test pairs").current.clone();

    let mut group = c.benchmark_group("inference");
    group.sample_size(20);
    group.bench_function("greedy", |b| {
        b.iter(|| rec.decode_candidates(black_box(&q.tokens), Strategy::Greedy))
    });
    group.bench_function("beam5", |b| {
        b.iter(|| rec.decode_candidates(black_box(&q.tokens), Strategy::Beam { width: 5 }))
    });
    group.bench_function("diverse-beam", |b| {
        b.iter(|| {
            rec.decode_candidates(
                black_box(&q.tokens),
                Strategy::DiverseBeam {
                    width: 4,
                    groups: 2,
                    penalty: 1.0,
                },
            )
        })
    });
    group.bench_function("predict_n5", |b| b.iter(|| rec.predict_n(black_box(&q), 5)));
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let (w, _) = generate(&WorkloadProfile::tiny(), 5);
    let mut rng = StdRng::seed_from_u64(1);
    let split = Split::paper(w.pairs(), &mut rng);
    let q = split.test.first().expect("test pairs").current.clone();
    let mut popular = PopularBaseline::fit(&split.train);
    let mut naive = NaiveQi::fit(&split.train);
    let mut querie = Querie::fit(&split.train, 10);

    let mut group = c.benchmark_group("baselines");
    group.bench_function("popular/predict_n", |b| {
        b.iter(|| popular.predict_n(black_box(&q), 5))
    });
    group.bench_function("naive/predict_set", |b| {
        b.iter(|| naive.predict_set(black_box(&q)))
    });
    group.bench_function("querie/predict_set", |b| {
        b.iter(|| querie.predict_set(black_box(&q)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sql,
    bench_workload_gen,
    bench_train_step,
    bench_inference,
    bench_baselines
);
criterion_main!(benches);
