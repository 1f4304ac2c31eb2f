//! **Ablation: architecture** — Transformer vs ConvS2S vs GRU (the RNN
//! variant the paper defers to its full version) on fragment-set
//! prediction and validation loss, seq-aware, both datasets.
//!
//! Expected shape (Section 6.3.3): the Transformer leads overall; the
//! GRU is competitive on short queries but trails on long ones where
//! relating distant tokens matters.

use crate::{f3, print_table, rec_config, trained_recommender, write_results, Datasets, Reporter};
use qrec_core::prelude::*;
use serde_json::json;

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let mut results = Vec::new();
    for data in datasets.both() {
        let test = &data.split.test;
        let mut rows = Vec::new();
        for arch in [Arch::Transformer, Arch::ConvS2S, Arch::Gru] {
            // Transformer/ConvS2S come from the shared cache; the GRU is
            // trained here with the same per-dataset budget.
            let (mut rec, report) = if arch == Arch::Gru {
                let cfg = rec_config(&data.name, arch, SeqMode::Aware);
                r.note(&format!("  training seq-aware gru on {} …", data.name));
                Recommender::train(&data.split, &data.workload, cfg)
            } else {
                trained_recommender(r, data, arch, SeqMode::Aware)
            };
            let metrics = eval_fragment_set(&mut rec, test);
            rows.push(vec![
                arch.label().to_string(),
                f3(metrics.table.f1()),
                f3(metrics.column.f1()),
                f3(metrics.function.f1()),
                f3(metrics.literal.f1()),
                format!("{:.3}", report.best_val_loss()),
                rec.param_count().to_string(),
            ]);
            results.push(json!({
                "dataset": data.name,
                "arch": arch.label(),
                "f1": {
                    "table": metrics.table.f1(),
                    "column": metrics.column.f1(),
                    "function": metrics.function.f1(),
                    "literal": metrics.literal.f1(),
                },
                "val_loss": report.best_val_loss(),
                "params": rec.param_count(),
            }));
        }
        print_table(
            r,
            &format!(
                "Architecture ablation ({}): seq-aware fragment-set F1 over {} pairs",
                data.name,
                test.len()
            ),
            &[
                "arch", "table", "column", "function", "literal", "val loss", "#params",
            ],
            &rows,
        );
    }
    write_results(r, "ablation_arch", &json!(results));
}
