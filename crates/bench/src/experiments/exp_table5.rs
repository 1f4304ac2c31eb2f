//! **Table 5** — fragment-*set* prediction: micro F-measure per fragment
//! type (table / column / function / literal) for every method on both
//! datasets.
//!
//! Reproduction targets (Section 6.3.1): on SDSS the seq-aware deep
//! models beat the baselines on tables/columns/functions (strong
//! sequence effect); on SQLShare the seq-less models lead (weak sequence
//! effect — `Q_{i+1}` is closer to `Q_i` and there is far less data);
//! `naive Q_i` is a strong anchor everywhere; the Transformer generally
//! edges out ConvS2S.

use crate::{f3, print_table, trained_recommender, write_results, Datasets, Reporter};
use qrec_core::prelude::*;
use serde_json::json;

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let mut results = Vec::new();
    for data in datasets.both() {
        let test = &data.split.test;
        let mut rows = Vec::new();

        // Baselines.
        let mut methods: Vec<(String, Box<dyn FragmentPredictor>)> = vec![
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
        // Deep models.
        for seq_mode in [SeqMode::Less, SeqMode::Aware] {
            for arch in [Arch::ConvS2S, Arch::Transformer] {
                let (rec, _) = trained_recommender(r, data, arch, seq_mode);
                methods.push((rec.name(), Box::new(rec)));
            }
        }

        for (name, mut m) in methods {
            let metrics = eval_fragment_set(m.as_mut(), test);
            rows.push(vec![
                name.clone(),
                f3(metrics.table.f1()),
                f3(metrics.column.f1()),
                f3(metrics.function.f1()),
                f3(metrics.literal.f1()),
            ]);
            results.push(json!({
                "dataset": data.name,
                "method": name,
                "f1": {
                    "table": metrics.table.f1(),
                    "column": metrics.column.f1(),
                    "function": metrics.function.f1(),
                    "literal": metrics.literal.f1(),
                },
                "precision": {
                    "table": metrics.table.precision(),
                    "column": metrics.column.precision(),
                    "function": metrics.function.precision(),
                    "literal": metrics.literal.precision(),
                },
                "recall": {
                    "table": metrics.table.recall(),
                    "column": metrics.column.recall(),
                    "function": metrics.function.recall(),
                    "literal": metrics.literal.recall(),
                },
            }));
        }

        print_table(
            r,
            &format!(
                "Table 5 ({}): fragment-set prediction, micro F1 over {} test pairs",
                data.name,
                test.len()
            ),
            &["method", "table", "column", "function", "literal"],
            &rows,
        );
    }
    write_results(r, "table5", &json!(results));
}
