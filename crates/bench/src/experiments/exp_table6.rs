//! **Table 6** — top-1 next-template prediction accuracy for every
//! method on both datasets.
//!
//! Reproduction targets (Section 6.4.1): every deep model beats the
//! baselines; on SDSS the seq-aware variants clearly beat their seq-less
//! counterparts (strong sequence effect); the fine-tuned Transformer is
//! the best model overall; `naive Q_i`'s accuracy equals the
//! template-same rate of the test pairs (the anchor).

use crate::{f3, print_table, trained_classifier, write_results, Datasets, Reporter};
use qrec_core::prelude::*;
use serde_json::json;

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let mut results = Vec::new();
    for data in datasets.both() {
        let test = &data.split.test;
        let mut rows = Vec::new();

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
        // Untuned classifiers (one per architecture; encoder from scratch).
        for arch in [Arch::ConvS2S, Arch::Transformer] {
            let (clf, _) = trained_classifier(r, data, arch, SeqMode::Aware, false);
            methods.push((clf.name(), Box::new(clf)));
        }
        // Fine-tuned classifiers on top of each trained seq2seq encoder.
        for seq_mode in [SeqMode::Less, SeqMode::Aware] {
            for arch in [Arch::ConvS2S, Arch::Transformer] {
                let (clf, _) = trained_classifier(r, data, arch, seq_mode, true);
                methods.push((clf.name(), Box::new(clf)));
            }
        }

        for (name, mut m) in methods {
            let metrics = eval_templates(m.as_mut(), test, 1);
            rows.push(vec![name.clone(), f3(metrics.accuracy())]);
            results.push(json!({
                "dataset": data.name,
                "method": name,
                "top1_accuracy": metrics.accuracy(),
            }));
        }

        // The anchor identity from Section 5.4.2.
        let same_rate = test
            .iter()
            .filter(|p| p.current.template == p.next.template)
            .count() as f64
            / test.len().max(1) as f64;

        print_table(
            r,
            &format!(
                "Table 6 ({}): top-1 template prediction accuracy over {} test pairs",
                data.name,
                test.len()
            ),
            &["method", "accuracy"],
            &rows,
        );
        r.out(&format!(
            "  (test template-same rate = {:.3}; naive-Qi must equal it)",
            same_rate
        ));
    }
    write_results(r, "table6", &json!(results));
}
