//! **Figure 12** — N-fragments prediction: micro F1 per fragment type
//! for N ∈ [1, 5], for the deep models (beam-search decoding) and the
//! `popular` baseline, on both datasets.
//!
//! Reproduction targets (Section 6.3.2): on SDSS seq-aware models vastly
//! outperform seq-less and `popular`; `popular` performs drastically
//! better on SDSS than on SQLShare (shared schema vs per-user datasets);
//! the Transformer generally beats ConvS2S.

use crate::{f3, print_table, trained_recommender, write_results, Datasets, Reporter};
use qrec_core::eval::eval_n_fragments_curve;
use qrec_core::prelude::*;
use qrec_sql::FragmentKind;
use serde_json::json;

/// Cap the pairs scored per configuration: beam decoding costs a model
/// forward per step per live hypothesis, and the curves stabilise well
/// before the full test split (the cap is printed, nothing is silent).
const MAX_EVAL_PAIRS: usize = 150;

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let ns = [1usize, 2, 3, 4, 5];
    let mut results = Vec::new();
    for data in datasets.both() {
        let test: Vec<_> = data
            .split
            .test
            .iter()
            .take(MAX_EVAL_PAIRS)
            .cloned()
            .collect();
        r.out(&format!(
            "\n### Figure 12 ({}): scoring {} of {} test pairs",
            data.name,
            test.len(),
            data.split.test.len()
        ));

        let mut methods: Vec<(String, Box<dyn FragmentPredictor>)> = vec![
            (
                "popular".into(),
                Box::new(PopularBaseline::fit(&data.split.train)),
            ),
            ("naive-Qi".into(), Box::new(NaiveQi::fit(&data.split.train))),
        ];
        for seq_mode in [SeqMode::Less, SeqMode::Aware] {
            for arch in [Arch::ConvS2S, Arch::Transformer] {
                let (rec, _) = trained_recommender(r, data, arch, seq_mode);
                methods.push((rec.name(), Box::new(rec)));
            }
        }

        // Compute every method's full curve with one ranking per pair.
        let mut curves = Vec::new();
        for (name, m) in methods.iter_mut() {
            curves.push((name.clone(), eval_n_fragments_curve(m.as_mut(), &test, &ns)));
        }
        for kind in FragmentKind::ALL {
            let mut rows = Vec::new();
            for (name, curve) in &curves {
                let series: Vec<f64> = curve.iter().map(|m| m.get(kind).f1()).collect();
                let mut row = vec![name.clone()];
                row.extend(series.iter().map(|&v| f3(v)));
                rows.push(row);
                results.push(json!({
                    "dataset": data.name,
                    "method": name,
                    "kind": kind.label(),
                    "n": ns,
                    "f1": series,
                }));
            }
            print_table(
                r,
                &format!(
                    "Figure 12 ({}, {} prediction): F1 at N",
                    data.name,
                    kind.label()
                ),
                &["method", "N=1", "N=2", "N=3", "N=4", "N=5"],
                &rows,
            );
        }
    }
    write_results(r, "fig12", &json!(results));
}
