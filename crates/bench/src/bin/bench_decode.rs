//! `bench_decode` — wall-clock timing of the incremental, KV-cached,
//! step-batched decoder (DESIGN.md §11).
//!
//! ```text
//! bench_decode [--smoke] [--out PATH]
//! ```
//!
//! Every scenario decodes with an untrained model, so hypotheses run to
//! the length cap. Greedy is timed at several length caps to expose
//! per-token scaling — a cached step's cost must stay flat as the prefix
//! grows — and beam-8 at the longest cap times the batched step. One more
//! row times the serving shape itself (beam 5 on
//! `TransformerConfig::small` at the bench_e2e model's vocabulary and mean
//! source length, cap 32), the in-process counterpart of `bench_e2e`'s
//! `nn.decode_us`. That the decoder's answers equal the full-prefix
//! recompute is the `decode_equivalence` suite's job, not this binary's.
//! Results go to `BENCH_decode.json` at the repo root (or
//! `target/BENCH_decode_smoke.json` under `--smoke`).

use qrec_bench::cli::{bench_main, BenchArgs};
use qrec_bench::timing::{time_stats, RepStats};
use qrec_nn::decode::{decode, Strategy, SOS};
use qrec_nn::params::Params;
use qrec_nn::transformer::{Transformer, TransformerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::hint::black_box;
use std::process::ExitCode;

/// An untrained model with near-uniform output distributions: decodes
/// run to the length cap (EOS is almost never the argmax of 500 logits),
/// which is exactly what a scaling benchmark needs. The shape mirrors
/// the serving configuration's decode load.
fn bench_model(smoke: bool) -> (Params, Transformer) {
    let cfg = if smoke {
        TransformerConfig::test(30)
    } else {
        TransformerConfig {
            vocab: 500,
            d_model: 48,
            heads: 4,
            layers: 2,
            d_ff: 96,
            dropout: 0.0,
            max_len: 96,
        }
    };
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(42);
    let model = Transformer::new(&mut params, cfg, &mut rng);
    (params, model)
}

/// The serving configuration's decode load (`bench_e2e`'s model):
/// `TransformerConfig::small` over a ≈ 130-token vocabulary.
fn serving_model() -> (Params, Transformer) {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(42);
    let model = Transformer::new(&mut params, TransformerConfig::small(130), &mut rng);
    (params, model)
}

struct Scenario {
    label: &'static str,
    strategy: Strategy,
    max_len: usize,
    /// Run on [`serving_model`] with a 20-token source instead of on
    /// [`bench_model`] with the 7-token one.
    serving_shape: bool,
}

fn scenarios(smoke: bool) -> Vec<Scenario> {
    if smoke {
        return vec![
            Scenario {
                label: "smoke greedy",
                strategy: Strategy::Greedy,
                max_len: 4,
                serving_shape: false,
            },
            Scenario {
                label: "smoke beam-4",
                strategy: Strategy::Beam { width: 4 },
                max_len: 6,
                serving_shape: false,
            },
        ];
    }
    vec![
        Scenario {
            label: "greedy len 16",
            strategy: Strategy::Greedy,
            max_len: 16,
            serving_shape: false,
        },
        Scenario {
            label: "greedy len 32",
            strategy: Strategy::Greedy,
            max_len: 32,
            serving_shape: false,
        },
        Scenario {
            label: "greedy len 64",
            strategy: Strategy::Greedy,
            max_len: 64,
            serving_shape: false,
        },
        Scenario {
            label: "beam-8 len 64",
            strategy: Strategy::Beam { width: 8 },
            max_len: 64,
            serving_shape: false,
        },
        Scenario {
            label: "beam-5 small len 32",
            strategy: Strategy::Beam { width: 5 },
            max_len: 32,
            serving_shape: true,
        },
    ]
}

struct Row {
    label: &'static str,
    strategy: String,
    max_len: usize,
    /// Longest emitted hypothesis (the step count the decode executed).
    tokens: usize,
    incremental: RepStats,
}

impl Row {
    fn per_token_s(&self) -> f64 {
        self.incremental.best_s / self.tokens.max(1) as f64
    }

    fn to_json(&self) -> serde_json::Value {
        json!({
            "label": self.label,
            "strategy": self.strategy,
            "max_len": self.max_len,
            "tokens": self.tokens,
            "incremental_s": self.incremental.best_s,
            "incremental_percentiles": self.incremental.to_json(),
            "incremental_per_token_s": self.per_token_s(),
        })
    }
}

fn bench_scenario(s: &Scenario, params: &Params, model: &Transformer, smoke: bool) -> Row {
    let src: Vec<usize> = if s.serving_shape {
        (0..20).map(|i| 3 + (i * 7) % 100).collect()
    } else {
        vec![SOS, 4, 9, 5, 7, 3, 2]
    };
    let seed = 17u64;
    let run = || {
        decode(
            model,
            params,
            &src,
            s.strategy,
            s.max_len,
            &mut StdRng::seed_from_u64(seed),
        )
    };
    let tokens = run().iter().map(|h| h.ids.len()).max().unwrap_or(0);

    let budget = if smoke { 0.2 } else { 6.0 };
    let reps = if smoke { 4 } else { 40 };
    let times = time_stats(
        &mut [&mut || {
            black_box(run());
        }],
        budget,
        reps,
    );
    Row {
        label: s.label,
        strategy: format!("{:?}", s.strategy),
        max_len: s.max_len,
        tokens,
        incremental: times[0],
    }
}

fn run(args: &BenchArgs) -> Result<(), String> {
    let smoke = args.smoke;
    eprintln!(
        "bench_decode: mode={}",
        if smoke { "smoke" } else { "full" }
    );
    let bench = bench_model(smoke);
    let serving = serving_model();

    let mut rows = Vec::new();
    for s in scenarios(smoke) {
        eprintln!("  timing {} ...", s.label);
        let (params, model) = if s.serving_shape { &serving } else { &bench };
        rows.push(bench_scenario(&s, params, model, smoke));
    }

    // Per-token growth from the shortest to the longest greedy cap: a
    // cached step costs the same at every prefix length, so this stays
    // near 1.
    let greedy: Vec<&Row> = rows
        .iter()
        .filter(|r| r.label.starts_with("greedy"))
        .collect();
    let growth = match (greedy.first(), greedy.last()) {
        (Some(first), Some(last)) => Some(last.per_token_s() / first.per_token_s()),
        _ => None,
    };

    let report = json!({
        "benchmark": "qrec-nn incremental decode",
        "mode": if smoke { "smoke" } else { "full" },
        "rows": rows.iter().map(Row::to_json).collect::<Vec<_>>(),
        "greedy_per_token_growth_incremental": growth,
    });
    if rows.is_empty() {
        return Err("no scenario rows in the report".into());
    }

    println!(
        "{:<20} {:>6} {:>12} {:>12} {:>14}",
        "scenario", "tokens", "best (s)", "p50 (s)", "per token (s)"
    );
    for r in &rows {
        println!(
            "{:<20} {:>6} {:>12.6} {:>12.6} {:>14.8}",
            r.label,
            r.tokens,
            r.incremental.best_s,
            r.incremental.p50_s,
            r.per_token_s(),
        );
    }
    if let Some(g) = growth {
        println!(
            "greedy per-token growth {}→{} tokens: {g:.2}x",
            greedy.first().map_or(0, |r| r.tokens),
            greedy.last().map_or(0, |r| r.tokens)
        );
    }
    args.write(&report)
}

fn main() -> ExitCode {
    bench_main("decode", run)
}
