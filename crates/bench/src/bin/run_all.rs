//! Run every experiment in sequence: the full reproduction of the
//! paper's evaluation section. Each sub-experiment also runs standalone
//! (`cargo run --release -p qrec-bench --bin exp_table5` etc.); trained
//! models are shared through `target/qrec-cache/`.
//!
//! `run_all` launches the experiment binaries that sit beside it, and
//! `cargo run --bin run_all` builds only `run_all`, so build them all
//! first:
//!
//! ```text
//! cargo build --release -p qrec-bench --bins
//! cargo run --release -p qrec-bench --bin run_all
//! ```

use std::process::Command;

const EXPERIMENTS: [&str; 13] = [
    "exp_table2",
    "exp_fig9",
    "exp_fig10",
    "exp_fig11",
    "exp_table3",
    "exp_table5",
    "exp_table6",
    "exp_fig12",
    "exp_fig13",
    "ablation_decode",
    "ablation_arch",
    "ablation_context",
    "ablation_tuning",
];

fn main() {
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");
    let missing: Vec<&str> = EXPERIMENTS
        .into_iter()
        .filter(|exp| {
            !bin_dir
                .join(format!("{exp}{}", std::env::consts::EXE_SUFFIX))
                .is_file()
        })
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "missing experiment binaries in {}: {}\n\
             build them first: cargo build --release -p qrec-bench --bins",
            bin_dir.display(),
            missing.join(", ")
        );
        std::process::exit(2);
    }
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n{0}\n###  {exp}\n{0}", "#".repeat(72));
        let status = Command::new(bin_dir.join(exp))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e}"));
        if !status.success() {
            eprintln!("!! {exp} failed with {status}");
            failures.push(exp);
        }
    }
    println!("\n{}", "#".repeat(72));
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("failed experiments: {failures:?}");
        std::process::exit(1);
    }
}
