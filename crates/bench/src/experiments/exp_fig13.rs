//! **Figure 13** — N-templates prediction: accuracy, MRR, and NDCG for
//! N ∈ [1, 5] for every template predictor, on both datasets. (The
//! paper's figure shows accuracy and MRR and defers NDCG to its full
//! version due to similarity; we print all three.)
//!
//! Reproduction targets (Section 6.4.2): on SDSS the seq-aware
//! fine-tuned Transformer dominates both metrics; on SQLShare seq-aware
//! models pick up as N grows (the sequence effect becomes more relevant
//! when the user asks for more than one recommendation); the rank-aware
//! MRR separates the tuned Transformer further from ConvS2S.

use crate::{f3, print_table, trained_classifier, write_results, Datasets, Reporter};
use qrec_core::prelude::*;
use serde_json::json;

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let ns = [1usize, 2, 3, 4, 5];
    let mut results = Vec::new();
    for data in datasets.both() {
        let test = &data.split.test;

        let mut methods: Vec<(String, Box<dyn TemplatePredictor>)> = vec![
            ("naive-Qi".into(), Box::new(NaiveQi::fit(&data.split.train))),
            (
                "popular".into(),
                Box::new(PopularBaseline::fit(&data.split.train)),
            ),
            (
                "querie".into(),
                Box::new(Querie::fit(&data.split.train, 10)),
            ),
        ];
        for seq_mode in [SeqMode::Less, SeqMode::Aware] {
            for arch in [Arch::ConvS2S, Arch::Transformer] {
                let (clf, _) = trained_classifier(r, data, arch, seq_mode, true);
                methods.push((clf.name(), Box::new(clf)));
            }
        }

        for metric in ["accuracy", "MRR", "NDCG"] {
            let mut rows = Vec::new();
            for (name, m) in methods.iter_mut() {
                let mut row = vec![name.clone()];
                let mut series = Vec::new();
                for &n in &ns {
                    let metrics = eval_templates(m.as_mut(), test, n);
                    let v = match metric {
                        "accuracy" => metrics.accuracy(),
                        "MRR" => metrics.mrr(),
                        _ => metrics.ndcg(),
                    };
                    row.push(f3(v));
                    series.push(v);
                }
                rows.push(row);
                results.push(json!({
                    "dataset": data.name,
                    "method": name,
                    "metric": metric,
                    "n": ns,
                    "values": series,
                }));
            }
            print_table(
                r,
                &format!(
                    "Figure 13 ({}, {metric}): N-templates prediction over {} test pairs",
                    data.name,
                    test.len()
                ),
                &["method", "N=1", "N=2", "N=3", "N=4", "N=5"],
                &rows,
            );
        }
    }
    write_results(r, "fig13", &json!(results));
}
