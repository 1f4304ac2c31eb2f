//! **Table 2** — workload statistics for the SDSS-like and SQLShare-like
//! synthetic workloads, printed next to the paper's reference values.
//!
//! Reproduction target (shape, not absolutes — our corpora are scaled
//! down): SDSS ≫ SQLShare in pairs; near-equal unique-query counts;
//! SDSS has 1 dataset and 56 tables vs SQLShare's 64 datasets and many
//! more tables; fragment-diversity orderings per Section 5.3.1.

use crate::{print_table, write_results, Datasets, Reporter};
use qrec_workload::stats::workload_stats;
use serde_json::json;

/// The paper's Table 2, for the side-by-side print-out.
const PAPER: [(&str, u64, u64); 11] = [
    ("Total pairs", 814_855, 16_452),
    ("Unique pairs", 187_762, 15_710),
    ("Unique queries", 15_094, 15_792),
    ("Sessions", 28_395, 2_697),
    ("Datasets", 1, 64),
    ("Vocabulary", 4_648, 7_761),
    ("Tables", 56, 1_722),
    ("Columns", 3_756, 4_564),
    ("Functions", 110, 455),
    ("Literals", 636, 685),
    ("Templates", 2_975, 3_485),
];

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let sdss = &workload_stats(&datasets.sdss.workload);
    let sqlshare = &workload_stats(&datasets.sqlshare.workload);

    let ours = [
        ("Total pairs", sdss.total_pairs, sqlshare.total_pairs),
        ("Unique pairs", sdss.unique_pairs, sqlshare.unique_pairs),
        (
            "Unique queries",
            sdss.unique_queries,
            sqlshare.unique_queries,
        ),
        ("Sessions", sdss.sessions, sqlshare.sessions),
        ("Datasets", sdss.datasets, sqlshare.datasets),
        ("Vocabulary", sdss.vocabulary, sqlshare.vocabulary),
        ("Tables", sdss.tables, sqlshare.tables),
        ("Columns", sdss.columns, sqlshare.columns),
        ("Functions", sdss.functions, sqlshare.functions),
        ("Literals", sdss.literals, sqlshare.literals),
        ("Templates", sdss.templates, sqlshare.templates),
    ];

    let rows: Vec<Vec<String>> = ours
        .iter()
        .zip(PAPER.iter())
        .map(|((name, s, q), (_, ps, pq))| {
            vec![
                name.to_string(),
                s.to_string(),
                q.to_string(),
                ps.to_string(),
                pq.to_string(),
            ]
        })
        .collect();

    print_table(
        r,
        "Table 2: workload statistics (ours vs paper)",
        &[
            "Statistic",
            "SDSS (ours)",
            "SQLShare (ours)",
            "SDSS (paper)",
            "SQLShare (paper)",
        ],
        &rows,
    );

    r.out("\nshape checks:");
    let checks = [
        (
            "SDSS has many times more pairs than SQLShare",
            sdss.total_pairs > 3 * sqlshare.total_pairs,
        ),
        ("SDSS is single-dataset", sdss.datasets == 1),
        ("SDSS uses (almost) all 56 tables", sdss.tables >= 54),
        (
            "SQLShare has many more tables than SDSS",
            sqlshare.tables > 2 * sdss.tables,
        ),
        (
            "SDSS diversity: columns > literals > functions > tables",
            sdss.columns > sdss.literals
                && sdss.literals > sdss.functions
                && sdss.functions > sdss.tables,
        ),
        (
            "SQLShare diversity: columns > tables > literals > functions",
            sqlshare.columns > sqlshare.tables
                && sqlshare.tables > sqlshare.literals
                && sqlshare.literals > sqlshare.functions,
        ),
        (
            "duplicate pairs exist (total > unique), SDSS-dominant",
            sdss.total_pairs - sdss.unique_pairs > sqlshare.total_pairs - sqlshare.unique_pairs,
        ),
    ];
    let mut ok = true;
    for (label, passed) in checks {
        r.out(&format!(
            "  [{}] {}",
            if passed { "ok" } else { "MISS" },
            label
        ));
        ok &= passed;
    }

    write_results(
        r,
        "table2",
        &json!({
            "sdss": sdss,
            "sqlshare": sqlshare,
            "all_shape_checks_pass": ok,
        }),
    );
}
