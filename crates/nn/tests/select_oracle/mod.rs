//! The beam-slot selection oracle, in one test-only file that two test
//! targets compile: `qrec_nn::decode`'s unit tests, which hold the shipped
//! one-pass `BeamSelector` bitwise equal to it, and the decode
//! equivalence suite, whose full-prefix decoder selects with it so that
//! the oracle shares no search code with the decoder it checks.

use std::collections::HashMap;

/// The selection routine `BeamSelector::select` replaced, kept verbatim
/// as its oracle: an index list of the positive tokens,
/// `select_nth_unstable_by` down to the shortlist, a sort of the scored
/// shortlist, and a stable sort of the rows' slots by score.
///
/// `rows` holds, per live hypothesis, its suppressed next-token
/// distribution and accumulated log-prob; `chosen_counts` maps each token
/// earlier slots of the step chose to how many times. Returns the winning
/// `(score, row, token)` triples in slot order.
pub fn select_beam_slots_oracle(
    rows: &[(&[f32], f32)],
    group_width: usize,
    penalty: f32,
    chosen_counts: &HashMap<usize, usize>,
) -> Vec<(f32, usize, usize)> {
    let shortlist = group_width
        + if penalty > 0.0 {
            chosen_counts.len()
        } else {
            0
        };
    let mut merged: Vec<(f32, usize, usize)> = Vec::with_capacity(rows.len() * group_width);
    let mut idx: Vec<usize> = Vec::new();
    let mut scored: Vec<(f32, usize)> = Vec::new();
    for (li, &(probs, base)) in rows.iter().enumerate() {
        idx.clear();
        idx.extend((0..probs.len()).filter(|&t| probs[t] > 0.0));
        if idx.len() > shortlist {
            idx.select_nth_unstable_by(shortlist - 1, |&a, &b| {
                probs[b]
                    .partial_cmp(&probs[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            idx.truncate(shortlist);
        }
        scored.clear();
        scored.extend(idx.iter().map(|&tok| {
            let mut score = base + probs[tok].max(1e-12).ln();
            if penalty > 0.0 {
                let count = chosen_counts.get(&tok).copied().unwrap_or(0);
                score -= penalty * count as f32;
            }
            (score, tok)
        }));
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        scored.truncate(group_width);
        merged.extend(scored.iter().map(|&(s, tok)| (s, li, tok)));
    }
    merged.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    merged.truncate(group_width);
    merged
}
