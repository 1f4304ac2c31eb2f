//! Hyper-parameter tuning (Section 6.2.4).
//!
//! The paper tunes each dataset separately: batch size in `[16, 64]`,
//! dropout in `[0.0, 0.3]`, learning rate in `[1e-4, 1e-6]` (at GPU
//! scale), selecting by best validation loss with early stopping.
//! [`grid_search`] reproduces that protocol over a caller-supplied
//! candidate grid.

use crate::recommender::{Recommender, RecommenderConfig};
use qrec_nn::trainer::TrainReport;
use qrec_workload::{Split, Workload};
use serde::{Deserialize, Serialize};

/// One candidate in the tuning grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Epoch cap for the trial.
    pub epochs: usize,
}

/// The outcome of one tuning trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trial {
    /// The candidate evaluated.
    pub candidate: Candidate,
    /// Best validation loss it reached.
    pub val_loss: f32,
    /// Epochs actually run (early stopping).
    pub epochs_run: usize,
}

/// Result of a grid search: all trials plus the winning configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridSearchResult {
    /// Every trial, in grid order.
    pub trials: Vec<Trial>,
    /// Index of the best trial (lowest validation loss).
    pub best: usize,
}

impl GridSearchResult {
    /// The winning candidate.
    pub fn best_candidate(&self) -> Candidate {
        self.trials[self.best].candidate
    }

    /// The winning validation loss.
    pub fn best_val_loss(&self) -> f32 {
        self.trials[self.best].val_loss
    }
}

/// The paper's default grid, scaled to our training budgets: batch size
/// in {16, 64} and three learning rates.
pub fn paper_grid(epochs: usize) -> Vec<Candidate> {
    let mut grid = Vec::new();
    for batch_size in [16usize, 64] {
        for lr in [5e-4f32, 1.5e-3, 4e-3] {
            grid.push(Candidate {
                batch_size,
                lr,
                epochs,
            });
        }
    }
    grid
}

/// Run every candidate and select by validation loss. Each trial trains
/// a fresh model from the same base configuration with the candidate's
/// overrides applied.
pub fn grid_search(
    base: RecommenderConfig,
    grid: &[Candidate],
    split: &Split,
    workload: &Workload,
) -> GridSearchResult {
    assert!(!grid.is_empty(), "tuning grid must not be empty");
    let mut trials = Vec::with_capacity(grid.len());
    let mut best = 0usize;
    for (i, cand) in grid.iter().enumerate() {
        let mut cfg = base;
        cfg.train.batch_size = cand.batch_size;
        cfg.train.adam.lr = cand.lr;
        cfg.train.epochs = cand.epochs;
        let (_, report): (Recommender, TrainReport) = Recommender::train(split, workload, cfg);
        let trial = Trial {
            candidate: *cand,
            val_loss: report.best_val_loss(),
            epochs_run: report.epoch_losses.len(),
        };
        if trial.val_loss
            < trials
                .get(best)
                .map_or(f32::INFINITY, |t: &Trial| t.val_loss)
        {
            best = i;
        }
        trials.push(trial);
    }
    GridSearchResult { trials, best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SeqMode;
    use crate::model::Arch;
    use qrec_workload::gen::{generate, WorkloadProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_split() -> (Workload, Split) {
        let mut p = WorkloadProfile::tiny();
        p.sessions = 24;
        let (w, _) = generate(&p, 55);
        let mut rng = StdRng::seed_from_u64(1);
        let split = Split::paper(w.pairs(), &mut rng);
        (w, split)
    }

    #[test]
    fn grid_search_selects_lowest_val_loss() {
        let (w, split) = tiny_split();
        let base = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
        // An absurdly high LR candidate must lose to a sane one.
        let grid = vec![
            Candidate {
                batch_size: 8,
                lr: 3e-3,
                epochs: 3,
            },
            Candidate {
                batch_size: 8,
                lr: 5.0,
                epochs: 3,
            },
        ];
        let result = grid_search(base, &grid, &split, &w);
        assert_eq!(result.trials.len(), 2);
        assert_eq!(result.best, 0, "{result:?}");
        assert!(result.best_val_loss() <= result.trials[1].val_loss);
        assert_eq!(result.best_candidate().lr, 3e-3);
    }

    #[test]
    fn paper_grid_has_expected_shape() {
        let grid = paper_grid(5);
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().all(|c| c.epochs == 5));
        assert!(grid.iter().any(|c| c.batch_size == 16));
        assert!(grid.iter().any(|c| c.batch_size == 64));
    }

    #[test]
    #[should_panic(expected = "grid must not be empty")]
    fn empty_grid_panics() {
        let (w, split) = tiny_split();
        let base = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
        let _ = grid_search(base, &[], &split, &w);
    }
}
