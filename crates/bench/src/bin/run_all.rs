//! Reproduce the paper's evaluation section in one process: every
//! experiment, or the named ones, over datasets generated once.
//!
//! ```text
//! cargo run --release -p qrec-bench --bin run_all [-- exp_table5 …]
//! ```
//!
//! The names are those of `qrec_bench::experiments::EXPERIMENTS`
//! (`exp_table2` … `ablation_tuning`); the experiments run in that
//! table's order whatever order the names are given in. An unknown name
//! exits 2, listing the valid ones, before anything runs. The seq2seq
//! models and template classifiers are cached under `target/qrec-cache/`
//! and shared by every experiment and every later run; only the
//! ablations that train variants of their own retrain. An experiment
//! that panics is reported and the rest still run; the exit status is
//! then 1. Each experiment's wall time is printed to stderr after it.

use qrec_bench::experiments::EXPERIMENTS;
use qrec_bench::{Datasets, Reporter, StdioReporter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let r = StdioReporter;
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known = |name: &str| EXPERIMENTS.iter().any(|(exp, _)| *exp == name);
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|name| !known(name))
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(exp, _)| *exp).collect();
        r.note(&format!(
            "unknown experiment {}; valid names: {}",
            unknown.join(", "),
            valid.join(" ")
        ));
        return ExitCode::from(2);
    }

    let t0 = Instant::now();
    let datasets = Datasets::generate();
    r.note(&format!(
        "datasets generated in {:.2} s",
        t0.elapsed().as_secs_f64()
    ));
    let mut ran = 0;
    let mut failures = Vec::new();
    for (exp, run) in EXPERIMENTS {
        if !names.is_empty() && !names.iter().any(|name| name == exp) {
            continue;
        }
        r.out(&format!("\n{0}\n###  {exp}\n{0}", "#".repeat(72)));
        let t0 = Instant::now();
        let ok = catch_unwind(AssertUnwindSafe(|| run(&r, &datasets))).is_ok();
        let secs = t0.elapsed().as_secs_f64();
        r.note(&format!("{exp}: {secs:.2} s"));
        ran += 1;
        if !ok {
            r.note(&format!("!! {exp} panicked"));
            failures.push(exp);
        }
    }
    r.out(&format!("\n{}", "#".repeat(72)));
    if failures.is_empty() {
        r.out(&format!("all {ran} experiments completed"));
        ExitCode::SUCCESS
    } else {
        r.out(&format!("failed experiments: {failures:?}"));
        ExitCode::FAILURE
    }
}
