//! The metric tables, the run report, and `compare`.

use crate::run::RunOptions;
use crate::stats::median;
use crate::workloads::Workload;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen before it is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The seven end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "recommend_rps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "recommend_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "recommend_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_req",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "resident_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.06,
    },
    EndToEnd {
        name: "next_fragment_f1",
        unit: "ratio",
        better: "higher",
        bound: 0.20,
    },
];

/// A per-layer metric of the traced run: name, unit, direction.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The per-layer metrics, layer = crate. Reported on every workload; a
/// layer a workload does not reach reports 0.
pub const PER_LAYER: [PerLayer; 63] = [
    ("client.p99_ms", "ms", "lower"),
    ("client.hit_p50_ms", "ms", "lower"),
    ("client.miss_p50_ms", "ms", "lower"),
    ("client.segment_spread", "ratio", "lower"),
    ("client.whole_run_rps", "1/s", "higher"),
    ("client.ping_p50_us", "us", "lower"),
    ("client.trace_overhead_share", "ratio", "lower"),
    ("client.samples", "count", "higher"),
    ("sql.record_us", "us", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("sql.tokenize_us", "us", "lower"),
    ("sql.template_us", "us", "lower"),
    ("serve.frame_us", "us", "lower"),
    ("serve.json_decode_us", "us", "lower"),
    ("serve.json_encode_us", "us", "lower"),
    ("serve.session_push_us", "us", "lower"),
    ("serve.cache_get_us", "us", "lower"),
    ("serve.cache_put_us", "us", "lower"),
    ("serve.engine_roundtrip_us", "us", "lower"),
    ("serve.start_ms", "ms", "lower"),
    ("serve.session_push_durable_us", "us", "lower"),
    ("serve.session_rehydrate_us", "us", "lower"),
    ("serve.sessions_rehydrated", "count", "higher"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.batch_wait_p50_us", "us", "lower"),
    ("serve.stage_decode_p50_us", "us", "lower"),
    ("serve.overloaded", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("serve.unaccounted_share", "ratio", "lower"),
    ("core.fragment_rank_us", "us", "lower"),
    ("core.vocab_encode_us", "us", "lower"),
    ("nn.decode_us", "us", "lower"),
    ("nn.steps_per_decode", "count", "lower"),
    ("nn.step_us", "us", "lower"),
    ("nn.enc_cache_hit_ratio", "ratio", "higher"),
    ("nn.decode_steps", "count", "lower"),
    ("nn.train_s", "s", "lower"),
    ("nn.kv_resident_kb", "KiB", "lower"),
    ("tensor.gemm_calls_per_decode", "count", "lower"),
    ("tensor.gemm_parallel_share", "ratio", "higher"),
    ("tensor.gemm_proj_us", "us", "lower"),
    ("tensor.gemm_vocab_us", "us", "lower"),
    ("tensor.gemm_flops_per_decode", "count", "lower"),
    ("tensor.qgemm_proj_us", "us", "lower"),
    ("tensor.qgemm_vocab_us", "us", "lower"),
    ("tensor.qgemm_calls_per_decode", "count", "lower"),
    ("tensor.gemm_train_us", "us", "lower"),
    ("store.put_us", "us", "lower"),
    ("store.get_mem_us", "us", "lower"),
    ("store.get_run_us", "us", "lower"),
    ("store.get_miss_us", "us", "lower"),
    ("store.wal_appends", "count", "lower"),
    ("store.wal_bytes_per_put", "count", "lower"),
    ("store.flushes", "count", "lower"),
    ("store.live_runs", "count", "lower"),
    ("store.bloom_negatives_per_get", "count", "lower"),
    ("store.run_block_reads", "count", "lower"),
    ("store.recover_ms", "ms", "lower"),
    ("obs.span_record_ns", "ns", "lower"),
    ("workload.generate_s", "s", "lower"),
    ("workload.requests", "count", "higher"),
    ("workload.distinct_windows", "count", "higher"),
];

/// Why each workload exists, one line each (also in `BENCHMARK.json`).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::ExploreDecode => {
            "exploratory sessions, every window new to the cache: decode, GEMM, beam and ranking do the work; front end, SQL and store almost none"
        }
        Workload::ScriptedWarm => {
            "scripted pipelines re-run under fresh session ids, over 99% cache hits: framing, JSON, SQL parse, session push, batcher hand-off are the request; the decoder idles"
        }
        Workload::DurableChurn => {
            "scripted_warm traffic with a data directory: every request a WAL append, old sessions rehydrate from runs after a restart, memtable flushes; recovery is in setup_s"
        }
        Workload::ExploreDecodeInt8 => {
            "the explore_decode stream against int8 weights and KV: the other kernel path, and the only place the f32/int8 quality and memory gaps show end to end"
        }
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest(run_seconds: u64) -> Value {
    json!({
        "command": ["cargo", "run", "--offline", "--release", "--quiet",
                    "--manifest-path", "bench_e2e/Cargo.toml", "--"],
        "paths": ["bench_e2e"],
        "run_seconds": run_seconds,
        "workloads": Workload::ALL.iter().map(|&w| json!({"name": w.name(), "why": why(w)})).collect::<Vec<_>>(),
        "end_to_end": END_TO_END.iter().map(|m| json!({
            "name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound,
        })).collect::<Vec<_>>(),
        "per_layer": PER_LAYER.iter().map(|&(name, unit, better)| json!({
            "name": name, "unit": unit, "better": better,
        })).collect::<Vec<_>>(),
    })
}

/// Where and how a run was made.
#[derive(Debug, Clone, Default)]
pub struct Env {
    pub nproc: usize,
    pub pool_threads: u64,
    pub git_rev: String,
    pub data_dir_fs: Option<String>,
}

/// One output check; any failing check makes the run incorrect.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    pub seconds: f64,
    pub stream_hash: String,
    pub env: Env,
    pub attempted: usize,
    pub failed: usize,
    pub checks: Vec<Check>,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
    /// Every per-segment (or per-set-up) value behind a median.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Counts over the counted window; they repeat exactly for a seed.
    pub counts: BTreeMap<String, u64>,
}

impl Report {
    pub fn new(opts: &RunOptions) -> Report {
        Report {
            workload: opts.workload,
            seed: opts.seed,
            trace: opts.trace,
            smoke: opts.scale.smoke,
            seconds: opts.seconds,
            stream_hash: String::new(),
            env: Env {
                nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
                pool_threads: 0,
                git_rev: git_rev(),
                data_dir_fs: None,
            },
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Vec::new(),
            series: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn series(&mut self, name: &str, values: &[f64]) {
        self.series.insert(name.to_string(), values.to_vec());
    }

    pub fn check(&mut self, name: &str, pass: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            pass,
            detail,
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    fn metrics_json(&self) -> BTreeMap<String, Value> {
        self.metrics
            .iter()
            .map(|(n, v, u)| (n.clone(), json!({"value": *v, "unit": u})))
            .collect()
    }

    /// The full record of the run, one JSON object.
    pub fn to_json(&self) -> Value {
        json!({
            "workload": self.workload.name(),
            "seed": self.seed,
            "trace": self.trace,
            "smoke": self.smoke,
            "seconds": self.seconds,
            "stream_hash": self.stream_hash,
            "nproc": self.env.nproc,
            "pool_threads": self.env.pool_threads,
            "git_rev": self.env.git_rev,
            "data_dir_fs": self.env.data_dir_fs,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks.iter().map(|c| json!({
                "name": c.name, "pass": c.pass, "detail": c.detail,
            })).collect::<Vec<_>>(),
            "metrics": self.metrics_json(),
            "series": self.series,
            "counts": self.counts,
        })
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        to_line(&json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_json(),
        }))
    }

    /// Every metric by name with its unit, the checks, the counts.
    pub fn print_human(&self) {
        println!(
            "# {} seed {} trace {}{} — nproc {}, pool threads {}, rev {}, stream {}{}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            if self.smoke { " (smoke)" } else { "" },
            self.env.nproc,
            self.env.pool_threads,
            self.env.git_rev,
            self.stream_hash,
            self.env
                .data_dir_fs
                .as_ref()
                .map(|fs| format!(", data dir on {fs}"))
                .unwrap_or_default(),
        );
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>14.4} {unit}");
        }
        for (name, value) in &self.counts {
            println!("count {name:<28} {value:>14}");
        }
        for c in &self.checks {
            println!(
                "check {:<28} {} ({})",
                c.name,
                if c.pass { "ok" } else { "FAILED" },
                c.detail
            );
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
    }
}

pub fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value serialises")
}

/// The checked-out commit, read from `.git` beside the bench's parent
/// directory; "unknown" outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

// ---------------------------------------------------------------- compare

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.get(key)
}

/// The untraced runs a JSON-lines report file holds.
fn untraced_runs(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (n, l) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value =
            serde_json::from_str(l).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if !matches!(field(&v, "trace"), Some(Value::Bool(true))) {
            runs.push(v);
        }
    }
    Ok(runs)
}

/// Per workload, per end-to-end metric: the median over the runs.
fn medians(runs: &[Value]) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut values: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for v in runs {
        let Some(w) = field(v, "workload").and_then(Value::as_str) else {
            continue;
        };
        for m in &END_TO_END {
            if let Some(x) = field(v, "metrics")
                .and_then(|ms| field(ms, m.name))
                .and_then(|mv| field(mv, "value"))
                .and_then(Value::as_f64)
            {
                values
                    .entry(w.to_string())
                    .or_default()
                    .entry(m.name.to_string())
                    .or_default()
                    .push(x);
            }
        }
    }
    values
        .into_iter()
        .map(|(w, ms)| (w, ms.into_iter().map(|(m, v)| (m, median(&v))).collect()))
        .collect()
}

/// What should repeat exactly among runs of one workload and seed —
/// every count, the request-stream hash, `next_fragment_f1` — and does
/// not: `(workload, seed, name, the values seen)`.
fn inexact(runs: &[Value]) -> Vec<(String, i128, String, Vec<String>)> {
    let mut seen: BTreeMap<(String, i128, String), Vec<String>> = BTreeMap::new();
    let mut note = |v: &Value, name: &str, value: Option<&Value>| {
        let (Some(w), Some(seed), Some(value)) = (
            field(v, "workload").and_then(Value::as_str),
            field(v, "seed").and_then(Value::as_i128),
            value,
        ) else {
            return;
        };
        let values = seen
            .entry((w.to_string(), seed, name.to_string()))
            .or_default();
        let text = to_line(value);
        if !values.contains(&text) {
            values.push(text);
        }
    };
    for v in runs {
        if let Some(counts) = field(v, "counts").and_then(Value::as_object) {
            for (name, value) in counts.iter() {
                note(v, name, Some(value));
            }
        }
        note(v, "stream_hash", field(v, "stream_hash"));
        let f1 = field(v, "metrics")
            .and_then(|m| field(m, "next_fragment_f1"))
            .and_then(|m| field(m, "value"));
        note(v, "next_fragment_f1", f1);
    }
    seen.into_iter()
        .filter(|(_, values)| values.len() > 1)
        .map(|((w, seed, name), values)| (w, seed, name, values))
        .collect()
}

/// How B stands against A on one metric: the relative worsening (positive
/// = worse), and the verdict under the metric's bound.
pub fn verdict(m: &EndToEnd, a: f64, b: f64) -> (f64, &'static str) {
    let worse_by = match m.better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    };
    let word = if worse_by > m.bound {
        "worse"
    } else if worse_by < -m.bound {
        "better"
    } else {
        "within"
    };
    (worse_by, word)
}

/// `compare A B`: print the table; true when nothing is beyond its bound.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (untraced_runs(a)?, untraced_runs(b)?);
    let (ma, mb) = (medians(&runs_a), medians(&runs_b));
    let mut all_within = true;
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for (w, metrics_a) in &ma {
        let Some(metrics_b) = mb.get(w) else {
            println!("{w:<20} only in {}", a.display());
            all_within = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(&x), Some(&y)) = (metrics_a.get(m.name), metrics_b.get(m.name)) else {
                continue;
            };
            let (_, word) = verdict(m, x, y);
            if word == "worse" {
                all_within = false;
            }
            println!(
                "{w:<20} {:<18} {x:>12.4} {y:>12.4} {:>9.4} {:>7.2}  {word}",
                m.name,
                y / x,
                m.bound
            );
        }
    }
    for w in mb.keys().filter(|w| !ma.contains_key(*w)) {
        println!("{w:<20} only in {}", b.display());
        all_within = false;
    }
    // Counts, the stream hash and F1 are exact for a seed; say so when
    // the runs of the two files disagree (expected only when the code
    // between them changed what the server does).
    let all: Vec<Value> = runs_a.into_iter().chain(runs_b).collect();
    let differing = inexact(&all);
    for (w, seed, name, values) in &differing {
        println!("not exact: {w} seed {seed} {name}: {}", values.join(" / "));
    }
    if differing.is_empty() {
        println!(
            "counts, stream hash and next_fragment_f1 repeat exactly for every workload and seed"
        );
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_and_bound() {
        let rps = &END_TO_END[1];
        assert_eq!(rps.name, "recommend_rps");
        assert_eq!(rps.bound, 0.25);
        assert_eq!(verdict(rps, 100.0, 90.0).1, "within");
        assert_eq!(verdict(rps, 100.0, 70.0).1, "worse");
        assert_eq!(verdict(rps, 100.0, 130.0).1, "better");
        let p50 = &END_TO_END[2];
        assert_eq!(verdict(p50, 2.0, 2.2).1, "within");
        assert_eq!(verdict(p50, 2.0, 2.6).1, "worse");
        assert_eq!(verdict(p50, 2.0, 1.4).1, "better");
    }

    #[test]
    fn inexact_flags_a_count_that_moved_for_one_seed() {
        let run = |seed: u64, steps: u64, f1: f64| {
            json!({
                "workload": "explore_decode", "seed": seed, "trace": false,
                "stream_hash": "abc", "counts": {"nn.decode_steps": steps},
                "metrics": {"next_fragment_f1": {"value": f1, "unit": "ratio"}},
            })
        };
        assert!(inexact(&[run(1, 10, 0.5), run(1, 10, 0.5), run(2, 11, 0.4)]).is_empty());
        let moved = inexact(&[run(1, 10, 0.5), run(1, 12, 0.5)]);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].2, "nn.decode_steps");
        assert_eq!(moved[0].3, ["10", "12"]);
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let run_seconds = field(&on_disk, "run_seconds")
            .and_then(Value::as_i128)
            .expect("run_seconds") as u64;
        // Compared as text: the parser reads 15 as signed, `json!` makes
        // it unsigned, and the two `Value`s are otherwise equal.
        assert_eq!(to_line(&on_disk), to_line(&manifest(run_seconds)));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().all(|m| m.bound <= END_TO_END[0].bound));
    }
}
