//! Model registry with atomic hot-swap.
//!
//! The serving model lives behind an `Arc`; workers take a clone of
//! that `Arc` per job, so a [`ModelRegistry::swap`] — installing a
//! freshly trained [`Recommender`] — never blocks or invalidates
//! in-flight decodes. Requests that already hold the old `Arc` finish
//! against the old weights; the next job picks up the new model. Each
//! swap bumps a monotonically increasing *epoch* that the
//! recommendation cache keys on, so stale entries die with their model.

use parking_lot::RwLock;
use qrec_core::Recommender;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared handle to the current serving model.
pub struct ModelRegistry {
    current: RwLock<Arc<Recommender>>,
    epoch: AtomicU64,
}

impl ModelRegistry {
    /// Register the initial model at epoch 1.
    pub fn new(model: Recommender) -> Self {
        ModelRegistry::with_epoch(model, 1)
    }

    /// Register the initial model at a specific epoch — used when the
    /// model zoo restores a persisted model across a restart, so the
    /// epoch sequence (and everything keyed on it, like the
    /// recommendation cache) continues instead of resetting to 1.
    pub fn with_epoch(model: Recommender, epoch: u64) -> Self {
        ModelRegistry {
            current: RwLock::new(Arc::new(model)),
            epoch: AtomicU64::new(epoch.max(1)),
        }
    }

    /// The current epoch and a clone of the serving model's `Arc`.
    ///
    /// The pair is read under one lock so the epoch always matches the
    /// returned model — callers can cache results keyed on the epoch.
    pub fn current(&self) -> (u64, Arc<Recommender>) {
        let g = self.current.read();
        (self.epoch.load(Ordering::Acquire), Arc::clone(&g))
    }

    /// Atomically replace the serving model and return the new epoch.
    ///
    /// In-flight requests holding the previous `Arc` are unaffected; the
    /// old model is dropped once the last of them finishes.
    pub fn swap(&self, model: Recommender) -> u64 {
        let mut g = self.current.write();
        *g = Arc::new(model);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The current epoch (1 after construction, +1 per swap).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}
