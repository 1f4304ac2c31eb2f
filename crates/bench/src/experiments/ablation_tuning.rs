//! **Ablation: hyper-parameter tuning** — the paper's per-dataset grid
//! search (Section 6.2.4) run on the SQLShare-scale workload (cheap
//! enough to retrain per candidate): batch size × learning rate,
//! selected by best validation loss with early stopping.

use crate::{print_table, write_results, Datasets, Reporter};
use qrec_core::prelude::*;
use qrec_core::tuning::{grid_search, paper_grid};
use serde_json::json;

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let data = &datasets.sqlshare;
    let mut base = crate::rec_config("sqlshare", Arch::Transformer, SeqMode::Aware);
    base.train.patience = 2;
    let grid = paper_grid(8);
    r.note(&format!(
        "grid-searching {} candidates on {} ({} train pairs) …",
        grid.len(),
        data.name,
        data.split.train.len()
    ));
    let result = grid_search(base, &grid, &data.split, &data.workload);

    let rows: Vec<Vec<String>> = result
        .trials
        .iter()
        .enumerate()
        .map(|(i, t)| {
            vec![
                format!(
                    "batch={} lr={:.0e}{}",
                    t.candidate.batch_size,
                    t.candidate.lr,
                    if i == result.best { "  ← best" } else { "" }
                ),
                format!("{:.3}", t.val_loss),
                t.epochs_run.to_string(),
            ]
        })
        .collect();
    print_table(
        r,
        "Hyper-parameter grid search (sqlshare, seq-aware transformer)",
        &["candidate", "best val loss", "epochs run"],
        &rows,
    );
    r.out(&format!(
        "\nwinner: batch={} lr={:.0e} (val loss {:.3}) — the paper likewise found the best \
         settings dataset-dependent.",
        result.best_candidate().batch_size,
        result.best_candidate().lr,
        result.best_val_loss()
    ));
    write_results(
        r,
        "ablation_tuning",
        &json!({
            "trials": result.trials,
            "best": result.best,
        }),
    );
}
