//! **Ablation: decoding strategy** — the three beam-search strategies of
//! Section 4.2.2 (beam, diverse beam, stochastic sampling) plus greedy,
//! compared on N-fragments prediction (N = 5) with the seq-aware
//! Transformer.
//!
//! Expected shape: the multi-candidate strategies beat greedy on recall
//! at N=5 (greedy explores a single path); diverse beam trades a little
//! precision for coverage; sampling sits between, depending on the
//! probability floor.

use crate::{f3, print_table, trained_recommender, write_results, Datasets, Reporter};
use qrec_core::prelude::*;
use qrec_nn::Strategy;
use qrec_sql::FragmentKind;
use serde_json::json;
use std::collections::BTreeSet;

const MAX_EVAL_PAIRS: usize = 120;
const N: usize = 5;

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let strategies: Vec<(&str, Strategy)> = vec![
        ("greedy", Strategy::Greedy),
        ("beam-5", Strategy::Beam { width: 5 }),
        (
            "diverse-beam-5x2",
            Strategy::DiverseBeam {
                width: 5,
                groups: 2,
                penalty: 1.0,
            },
        ),
        (
            "sampling-8@0.05",
            Strategy::Sampling {
                samples: 8,
                min_prob: 0.05,
            },
        ),
    ];

    let mut results = Vec::new();
    for data in datasets.both() {
        let test: Vec<_> = data
            .split
            .test
            .iter()
            .take(MAX_EVAL_PAIRS)
            .cloned()
            .collect();
        let (mut rec, _) = trained_recommender(r, data, Arch::Transformer, SeqMode::Aware);
        r.out(&format!(
            "\n### decoding ablation ({}): seq-aware transformer, N={N}, {} pairs",
            data.name,
            test.len()
        ));

        let mut rows = Vec::new();
        for (name, strategy) in &strategies {
            let mut metrics: PerKind<SetMetrics> = PerKind::default();
            for p in &test {
                let ranked = rec.ranked_fragments(&p.current.tokens, *strategy);
                for kind in FragmentKind::ALL {
                    let pred: BTreeSet<String> = ranked.get(kind).iter().take(N).cloned().collect();
                    metrics
                        .get_mut(kind)
                        .record(&pred, p.next.fragments.of(kind));
                }
            }
            rows.push(vec![
                name.to_string(),
                f3(metrics.table.f1()),
                f3(metrics.column.f1()),
                f3(metrics.function.f1()),
                f3(metrics.literal.f1()),
                f3(metrics.column.recall()),
            ]);
            results.push(json!({
                "dataset": data.name,
                "strategy": name,
                "f1": {
                    "table": metrics.table.f1(),
                    "column": metrics.column.f1(),
                    "function": metrics.function.f1(),
                    "literal": metrics.literal.f1(),
                },
                "column_recall": metrics.column.recall(),
            }));
        }
        print_table(
            r,
            &format!("Decoding-strategy ablation ({}), F1 at N={N}", data.name),
            &[
                "strategy",
                "table",
                "column",
                "function",
                "literal",
                "col-recall",
            ],
            &rows,
        );
    }
    write_results(r, "ablation_decode", &json!(results));
}
