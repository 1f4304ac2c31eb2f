//! **Ablation: preceding-query context** — does `Q_i` alone carry the
//! predictive signal, as the paper argues in Section 2 ("the immediate
//! successor encodes most of the necessary information")?
//!
//! We compare three context variants for next template prediction:
//!  * `none`       — the popular baseline (no input at all);
//!  * `Q_i`        — the paper's choice (our standard classifier);
//!  * `Q_{i-1}+Q_i` — two preceding queries concatenated, the extension
//!    the paper sketches for seq2seq inputs.
//!
//! Expected shape: `Q_i` ≫ `none`; adding `Q_{i-1}` helps only
//! marginally (or hurts, with longer inputs and fixed capacity),
//! supporting the single-preceding-query design.

use crate::{
    clf_config, f3, print_table, trained_classifier, write_results, Datasets, ExpData, Reporter,
};
use qrec_core::data::TemplateClasses;
use qrec_core::prelude::*;
use qrec_nn::classifier::{classify, ClassifierHead};
use qrec_nn::params::Params;
use qrec_nn::seq2seq::Seq2Seq;
use qrec_nn::trainer::{train_classifier, LabeledSeq};
use qrec_workload::{OwnedPair, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

/// Two-query context pairs: for each session, triples
/// `(Q_{i-1}, Q_i) → template(Q_{i+1})`.
struct TwoQueryData {
    train: Vec<LabeledSeq>,
    val: Vec<LabeledSeq>,
    /// `(tokens of Q_{i-1}+Q_i, true template)` for the test pairs.
    test: Vec<(Vec<usize>, qrec_sql::Template)>,
}

fn two_query_context(data: &ExpData, vocab: &Vocab, classes: &TemplateClasses) -> TwoQueryData {
    // Rebuild triples from sessions, then split by the same pair
    // membership as the standard split (train pairs stay train).
    let mut member = std::collections::HashMap::new();
    for (tag, part) in [
        (0u8, &data.split.train),
        (1, &data.split.val),
        (2, &data.split.test),
    ] {
        for p in part.iter() {
            member.insert(
                (
                    p.session_id,
                    p.current.canonical.clone(),
                    p.next.canonical.clone(),
                ),
                tag,
            );
        }
    }
    let mut out = TwoQueryData {
        train: Vec::new(),
        val: Vec::new(),
        test: Vec::new(),
    };
    for s in &data.workload.sessions {
        for w in s.queries.windows(3) {
            let (prev, cur, next) = (&w[0], &w[1], &w[2]);
            let key = (s.id, cur.canonical.clone(), next.canonical.clone());
            let Some(&tag) = member.get(&key) else {
                continue;
            };
            let mut tokens = prev.tokens.clone();
            tokens.push("<SEP>".to_string());
            tokens.extend(cur.tokens.iter().cloned());
            let src = vocab.encode(&tokens);
            match tag {
                2 => out.test.push((src, next.template.clone())),
                t => {
                    if let Some(label) = classes.index_of(&next.template) {
                        let ex = LabeledSeq { src, label };
                        if t == 0 {
                            out.train.push(ex);
                        } else {
                            out.val.push(ex);
                        }
                    }
                }
            }
        }
    }
    out
}

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let mut results = Vec::new();
    for data in datasets.both() {
        let test: Vec<OwnedPair> = data.split.test.clone();
        let mut rows = Vec::new();

        // none: popular baseline.
        let mut popular = PopularBaseline::fit(&data.split.train);
        let none_acc = eval_templates(&mut popular, &test, 1).accuracy();
        rows.push(vec!["none (popular)".into(), f3(none_acc)]);

        // Q_i: the standard fine-tuned transformer classifier.
        let (mut clf, _) = trained_classifier(r, data, Arch::Transformer, SeqMode::Aware, true);
        let qi_acc = eval_templates(&mut clf, &test, 1).accuracy();
        rows.push(vec!["Q_i (paper)".into(), f3(qi_acc)]);

        // Q_{i-1}+Q_i: a fresh classifier over concatenated contexts.
        let cfg = clf_config(&data.name);
        let vocab = qrec_core::data::build_vocab(&data.split.train, 2);
        let classes = TemplateClasses::from_pairs(&data.split.train, cfg.min_support);
        let two = two_query_context(data, &vocab, &classes);
        r.note(&format!(
            "  training two-query-context classifier on {} ({} triples) …",
            data.name,
            two.train.len()
        ));
        let mut rng = StdRng::seed_from_u64(cfg.train.seed);
        let mut params = Params::new();
        let model = AnyModel::build(
            Arch::Transformer,
            SizePreset::Small,
            vocab.len(),
            &mut params,
            &mut rng,
        );
        let head = ClassifierHead::new(
            &mut params,
            model.d_model(),
            cfg.hidden,
            classes.len().max(1),
            cfg.dropout,
            &mut rng,
        );
        let _ = train_classifier(&model, &head, &mut params, &two.train, &two.val, &cfg.train);
        let mut hits = 0usize;
        for (src, actual) in &two.test {
            let ranked = classify(&model, &head, &params, src, &mut rng);
            if let Some(&(class, _)) = ranked.first() {
                if classes.template(class) == actual {
                    hits += 1;
                }
            }
        }
        let two_acc = hits as f64 / two.test.len().max(1) as f64;
        rows.push(vec![
            format!("Q_i-1 + Q_i ({} triples)", two.test.len()),
            f3(two_acc),
        ]);

        print_table(
            r,
            &format!("Context ablation ({}): top-1 template accuracy", data.name),
            &["context", "accuracy"],
            &rows,
        );
        results.push(json!({
            "dataset": data.name,
            "none": none_acc,
            "qi": qi_acc,
            "two_query": two_acc,
            "two_query_test_size": two.test.len(),
        }));
    }
    write_results(r, "ablation_context", &json!(results));
}
