//! **Figure 10** — SDSS session-level ((a)–(e)) and pair-level ((f)–(l))
//! workload analysis.
//!
//! Reproduction targets (Section 5.3.2/5.3.3): >70% of sessions have ≥2
//! unique queries, 79%-ish use ≥2 templates, 64%-ish change templates at
//! least twice; at the pair level >40% of pairs change template while
//! over 50% keep it, and increases in the six syntactic properties sit
//! in the 8–16% band of the paper (direction preserved at our scale).

use crate::{session_pair_figure, write_results, Datasets, Reporter};

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let results = session_pair_figure(r, &datasets.sdss, "Figure 10");
    write_results(r, "fig10", &results);
}
