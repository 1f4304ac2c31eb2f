//! Small numeric helpers: percentiles, the median over segments, and
//! the served-answer F1 scorer.

use qrec_core::metrics::SetMetrics;
use qrec_core::predict::PerKind;
use qrec_sql::{FragmentKind, FragmentSet};
use std::collections::BTreeSet;

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample by the nearest-rank rule on
/// the sorted values; 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A sorted copy of a sample.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `q`-quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    percentile(&sorted(values), q)
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of a sample; the mean of the two middle values when the
/// length is even; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Micro-averaged fragment F1 of served top-n lists against the
/// fragments of the query the analyst actually issued next — the
/// paper's §5 N-fragments metric, pooled over all four fragment kinds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct F1Scorer {
    total: SetMetrics,
}

impl F1Scorer {
    /// Score one served answer against the next query's fragments.
    pub fn record(&mut self, served: &PerKind<Vec<String>>, next: &FragmentSet) {
        for kind in FragmentKind::ALL {
            let predicted: BTreeSet<String> = served.get(kind).iter().cloned().collect();
            self.total.record(&predicted, next.of(kind));
        }
    }

    /// The pooled F1.
    pub fn f1(&self) -> f64 {
        self.total.f1()
    }

    /// Answers scored so far, counted in predicted fragments (used only
    /// to tell "nothing was scored" from "everything was wrong").
    pub fn predicted(&self) -> usize {
        self.total.predicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 6.0); // round(4.5) = 5 → sixth value
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(1, 0), 0.0);
    }

    #[test]
    fn median_of_segments_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        // One disturbed segment does not move the median.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 90.0]), 10.0);
    }

    fn served(table: &[&str], column: &[&str]) -> PerKind<Vec<String>> {
        PerKind {
            table: table.iter().map(|s| s.to_string()).collect(),
            column: column.iter().map(|s| s.to_string()).collect(),
            function: vec![],
            literal: vec![],
        }
    }

    #[test]
    fn f1_on_a_hand_built_example() {
        let next = qrec_workload::QueryRecord::new("SELECT ra, z FROM SpecObj WHERE z > 1")
            .expect("parses")
            .fragments;
        // Actual: table {SpecObj}, columns {ra, z}, literal {<NUM>}.
        assert_eq!(next.len(), 4);
        let mut s = F1Scorer::default();
        // Served: the right table, one right and one wrong column.
        s.record(&served(&["SpecObj"], &["ra", "dec"]), &next);
        // hits 2, predicted 3, actual 4 → P = 2/3, R = 1/2, F1 = 4/7.
        assert!((s.f1() - 4.0 / 7.0).abs() < 1e-12, "{}", s.f1());
        // Micro-averaging pools counts across answers.
        s.record(&served(&["SpecObj"], &["ra", "z"]), &next);
        // hits 5, predicted 6, actual 8 → P = 5/6, R = 5/8, F1 = 5/7.
        assert!((s.f1() - 5.0 / 7.0).abs() < 1e-12, "{}", s.f1());
        assert_eq!(s.predicted(), 6);
    }
}
