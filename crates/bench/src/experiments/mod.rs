//! The paper's experiments, one function per table, figure or ablation.
//! `run_all` runs them in one process over one [`Datasets`]; each
//! prints its table through the [`Reporter`] and writes its results JSON
//! under `target/qrec-cache/results/`.

use crate::{Datasets, Reporter};

mod ablation_arch;
mod ablation_context;
mod ablation_decode;
mod ablation_tuning;
mod exp_fig10;
mod exp_fig11;
mod exp_fig12;
mod exp_fig13;
mod exp_fig9;
mod exp_table2;
mod exp_table3;
mod exp_table5;
mod exp_table6;

/// One experiment: print its tables, write its results JSON.
pub type Experiment = fn(&dyn Reporter, &Datasets);

/// Every experiment under the name `run_all` takes, in the order it
/// runs them: the workload analyses, which train nothing, first; then
/// Table 3, which trains and caches the seq2seq models later
/// experiments load.
pub const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("exp_table2", exp_table2::run),
    ("exp_fig9", exp_fig9::run),
    ("exp_fig10", exp_fig10::run),
    ("exp_fig11", exp_fig11::run),
    ("exp_table3", exp_table3::run),
    ("exp_table5", exp_table5::run),
    ("exp_table6", exp_table6::run),
    ("exp_fig12", exp_fig12::run),
    ("exp_fig13", exp_fig13::run),
    ("ablation_decode", ablation_decode::run),
    ("ablation_arch", ablation_arch::run),
    ("ablation_context", ablation_context::run),
    ("ablation_tuning", ablation_tuning::run),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn experiment_names_are_unique() {
        let names: HashSet<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }
}
