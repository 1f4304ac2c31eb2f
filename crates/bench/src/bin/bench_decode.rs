//! `bench_decode` — wall-clock comparison of the incremental, KV-cached,
//! step-batched decoder against the pre-optimisation full-prefix path
//! (DESIGN.md §11).
//!
//! ```text
//! bench_decode [--smoke] [--out PATH]
//! ```
//!
//! Both paths run the *same* strategies on the *same* untrained model
//! and produce bitwise-identical hypotheses (enforced by the
//! `decode_equivalence` suite and re-checked here per scenario), so the
//! timings isolate the cost of re-running the decoder over the whole
//! prefix every step versus carrying per-layer caches forward. Greedy is
//! timed at several length caps to expose per-token scaling — the
//! reference path's per-token cost grows with the prefix, the
//! incremental path's stays flat — and beam-8 at the serving length cap
//! is the headline batched-speedup number. One more row times the
//! serving shape itself (beam 5 on `TransformerConfig::small` at the
//! bench_e2e model's vocabulary and mean source length, cap 32), the
//! in-process counterpart of `bench_e2e`'s `nn.decode_us`. Results go to
//! `BENCH_decode.json` at the repo root (or
//! `target/BENCH_decode_smoke.json` under `--smoke`).

use qrec_bench::timing::{time_stats, RepStats};
use qrec_nn::decode::{decode, decode_reference, Strategy, SOS};
use qrec_nn::params::Params;
use qrec_nn::transformer::{Transformer, TransformerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::hint::black_box;
use std::path::PathBuf;
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
    /// Longest emitted hypothesis (the step count both paths executed).
    tokens: usize,
    reference: RepStats,
    incremental: RepStats,
}

impl Row {
    fn reference_s(&self) -> f64 {
        self.reference.best_s
    }

    fn incremental_s(&self) -> f64 {
        self.incremental.best_s
    }

    fn speedup(&self) -> f64 {
        self.reference.best_s / self.incremental.best_s
    }

    fn to_json(&self) -> serde_json::Value {
        let per_tok = |s: f64| s / self.tokens.max(1) as f64;
        json!({
            "label": self.label,
            "strategy": self.strategy,
            "max_len": self.max_len,
            "tokens": self.tokens,
            "reference_s": self.reference.best_s,
            "incremental_s": self.incremental.best_s,
            "reference_percentiles": self.reference.to_json(),
            "incremental_percentiles": self.incremental.to_json(),
            "reference_per_token_s": per_tok(self.reference.best_s),
            "incremental_per_token_s": per_tok(self.incremental.best_s),
            "speedup": self.speedup(),
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

    // One checked run of each path: identical hypothesis ids or the
    // timings compare different work.
    let want = decode_reference(
        model,
        params,
        &src,
        s.strategy,
        s.max_len,
        &mut StdRng::seed_from_u64(seed),
    );
    let got = decode(
        model,
        params,
        &src,
        s.strategy,
        s.max_len,
        &mut StdRng::seed_from_u64(seed),
    );
    assert_eq!(
        want.iter().map(|h| &h.ids).collect::<Vec<_>>(),
        got.iter().map(|h| &h.ids).collect::<Vec<_>>(),
        "{}: paths diverged",
        s.label
    );
    let tokens = want.iter().map(|h| h.ids.len()).max().unwrap_or(0);

    let budget = if smoke { 0.2 } else { 6.0 };
    let reps = if smoke { 4 } else { 40 };
    let times = time_stats(
        &mut [
            &mut || {
                black_box(decode_reference(
                    model,
                    params,
                    &src,
                    s.strategy,
                    s.max_len,
                    &mut StdRng::seed_from_u64(seed),
                ));
            },
            &mut || {
                black_box(decode(
                    model,
                    params,
                    &src,
                    s.strategy,
                    s.max_len,
                    &mut StdRng::seed_from_u64(seed),
                ));
            },
        ],
        budget,
        reps,
    );
    Row {
        label: s.label,
        strategy: format!("{:?}", s.strategy),
        max_len: s.max_len,
        tokens,
        reference: times[0],
        incremental: times[1],
    }
}

fn run(smoke: bool, out: Option<PathBuf>) -> Result<(), String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = out.unwrap_or_else(|| {
        if smoke {
            root.join("target/BENCH_decode_smoke.json")
        } else {
            root.join("BENCH_decode.json")
        }
    });

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

    // Headline numbers the acceptance gate reads: the beam-8 speedup at
    // the serving length cap, and per-token growth from the shortest to
    // the longest greedy cap (the reference path grows with prefix
    // length; the incremental path must not).
    let beam8_speedup = rows
        .iter()
        .filter(|r| r.label.starts_with("beam-8"))
        .map(Row::speedup)
        .fold(f64::NAN, f64::max);
    let greedy: Vec<&Row> = rows
        .iter()
        .filter(|r| r.label.starts_with("greedy"))
        .collect();
    let per_token_growth = |pick: &dyn Fn(&Row) -> f64| -> Option<f64> {
        let first = greedy.first()?;
        let last = greedy.last()?;
        Some((pick(last) / last.tokens.max(1) as f64) / (pick(first) / first.tokens.max(1) as f64))
    };
    let ref_growth = per_token_growth(&|r: &Row| r.reference_s());
    let inc_growth = per_token_growth(&|r: &Row| r.incremental_s());

    let report = json!({
        "benchmark": "qrec-nn incremental decode vs full-prefix reference",
        "mode": if smoke { "smoke" } else { "full" },
        "rows": rows.iter().map(Row::to_json).collect::<Vec<_>>(),
        "beam8_speedup_vs_reference": if smoke { json!(null) } else { json!(beam8_speedup) },
        "greedy_per_token_growth_reference": ref_growth,
        "greedy_per_token_growth_incremental": inc_growth,
    });

    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let bytes = serde_json::to_vec_pretty(&report).map_err(|e| format!("serialise: {e}"))?;
    std::fs::write(&out, bytes).map_err(|e| format!("write {}: {e}", out.display()))?;

    // Re-read and parse: the file on disk must be well-formed JSON with
    // at least one scenario row.
    let text = std::fs::read_to_string(&out).map_err(|e| format!("read back: {e}"))?;
    let parsed: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("round-trip parse: {e}"))?;
    let row_count = parsed
        .as_object()
        .and_then(|o| o.get("rows"))
        .and_then(|s| s.as_array())
        .map_or(0, <[serde_json::Value]>::len);
    if row_count == 0 {
        return Err("no scenario rows in the written report".into());
    }

    println!(
        "{:<20} {:>6} {:>12} {:>14} {:>9}",
        "scenario", "tokens", "ref (s)", "incr (s)", "speedup"
    );
    for r in &rows {
        println!(
            "{:<20} {:>6} {:>12.6} {:>14.6} {:>8.2}x",
            r.label,
            r.tokens,
            r.reference_s(),
            r.incremental_s(),
            r.speedup(),
        );
    }
    if !smoke {
        println!("beam-8 speedup vs reference: {beam8_speedup:.2}x");
    }
    if let (Some(rg), Some(ig)) = (ref_growth, inc_growth) {
        println!(
            "greedy per-token growth {}→{} tokens: reference {rg:.2}x, incremental {ig:.2}x",
            greedy.first().map_or(0, |r| r.tokens),
            greedy.last().map_or(0, |r| r.tokens)
        );
    }
    println!("[results written to {}]", out.display());
    Ok(())
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("missing value for --out");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: bench_decode [--smoke] [--out PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    match run(smoke, out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_decode failed: {msg}");
            ExitCode::FAILURE
        }
    }
}
