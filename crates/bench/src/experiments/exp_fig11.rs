//! **Figure 11** — SQLShare session-level ((a)–(e)) and pair-level
//! ((f)–(l)) workload analysis.
//!
//! Reproduction targets (Section 5.3.2/5.3.3): ~68% of sessions use ≥2
//! templates and ~55% change templates twice; at the pair level ~62% of
//! pairs change template (clearly above SDSS), with smaller per-property
//! increase rates than SDSS.

use crate::{session_pair_figure, write_results, Datasets, Reporter};

pub fn run(r: &dyn Reporter, datasets: &Datasets) {
    let results = session_pair_figure(r, &datasets.sqlshare, "Figure 11");
    write_results(r, "fig11", &results);
}
