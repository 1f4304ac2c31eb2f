//! **Figure 9** — the long-tailed template popularity distribution.
//!
//! The paper plots template frequency against popularity rank for both
//! workloads and uses the long tail to motivate the `popular` baseline
//! and the min-support-3 template classes. We print the rank/frequency
//! series (log-bucketed) and an ASCII rendering of the tail.

use crate::{print_table, write_results, Datasets, Reporter};
use qrec_workload::stats::{template_classes, template_frequencies};
use serde_json::json;

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let mut results = serde_json::Map::new();
    for data in datasets.both() {
        let freqs = template_frequencies(&data.workload);
        let counts: Vec<usize> = freqs.iter().map(|(_, c)| *c).collect();
        let total: usize = counts.iter().sum();
        let classes3 = template_classes(&data.workload, 3).len();

        // Log-spaced rank sample points, like reading values off Figure 9.
        let mut rows = Vec::new();
        let mut rank = 1usize;
        while rank <= counts.len() {
            let freq = counts[rank - 1];
            let cum: usize = counts[..rank].iter().sum();
            rows.push(vec![
                rank.to_string(),
                freq.to_string(),
                format!("{:.1}%", 100.0 * cum as f64 / total as f64),
            ]);
            rank = if rank < 10 { rank + 3 } else { rank * 2 };
        }
        print_table(r,
            &format!(
                "Figure 9 ({}): template frequency by popularity rank ({} templates, {} occurrences)",
                data.name,
                counts.len(),
                total
            ),
            &["rank", "frequency", "cumulative share"],
            &rows,
        );

        // ASCII long-tail sketch.
        r.out("\n  frequency (log bars):");
        let max = counts[0] as f64;
        let mut rank = 1usize;
        while rank <= counts.len() {
            let f = counts[rank - 1] as f64;
            let bar = ((f.ln_1p() / max.ln_1p()) * 48.0).round() as usize;
            r.out(&format!(
                "  rank {:>5} | {:<48} {}",
                rank,
                "#".repeat(bar),
                counts[rank - 1]
            ));
            rank *= 4;
        }

        let head_share = counts.iter().take(10).sum::<usize>() as f64 / total as f64;
        let singleton_share =
            counts.iter().filter(|&&c| c == 1).count() as f64 / counts.len() as f64;
        r.out(&format!(
            "\n  top-10 templates cover {:.1}% of queries; {:.1}% of templates occur once; \
             {} classes survive min-support 3 (paper: 830 SDSS / 552 SQLShare)",
            100.0 * head_share,
            100.0 * singleton_share,
            classes3
        ));

        results.insert(
            data.name.clone(),
            json!({
                "templates": counts.len(),
                "occurrences": total,
                "frequencies_head": counts.iter().take(50).collect::<Vec<_>>(),
                "top10_share": head_share,
                "singleton_share": singleton_share,
                "classes_min_support_3": classes3,
            }),
        );
    }
    write_results(r, "fig9", &serde_json::Value::Object(results));
}
