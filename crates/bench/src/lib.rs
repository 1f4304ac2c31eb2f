//! # qrec-bench — experiment drivers and benchmarks
//!
//! One experiment per table / figure of the paper (see DESIGN.md §4),
//! all run by one binary:
//!
//! ```text
//! cargo run --release -p qrec-bench --bin run_all [-- exp_table5 …]
//! ```
//!
//! | experiment   | reproduces |
//! |--------------|------------|
//! | `exp_table2` | Table 2 — workload statistics |
//! | `exp_table3` | Table 3 — model statistics (train/infer time, #params) |
//! | `exp_table5` | Table 5 — fragment-set prediction F-measure |
//! | `exp_table6` | Table 6 — top-1 template prediction accuracy |
//! | `exp_fig9`   | Figure 9 — template popularity long tail |
//! | `exp_fig10`  | Figure 10 — SDSS session/pair-level analysis |
//! | `exp_fig11`  | Figure 11 — SQLShare session/pair-level analysis |
//! | `exp_fig12`  | Figure 12 — N-fragments prediction, N ∈ 1..5 |
//! | `exp_fig13`  | Figure 13 — N-templates accuracy and MRR, N ∈ 1..5 |
//! | `ablation_*` | design-choice ablations (decoding, architecture, context, tuning) |
//!
//! `run_all` with no names runs all of them in sequence. Trained models
//! are cached under `target/qrec-cache/` so experiments can be re-run
//! (or run individually) without retraining them (the ablations still
//! train their own variants); delete the cache directory to force
//! retraining. Each experiment prints its table and also
//! writes a JSON result file next to the cache for EXPERIMENTS.md.
//!
//! The six `bench_*` binaries share one command line ([`cli`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod timing;

use qrec_core::prelude::*;
use qrec_nn::trainer::TrainReport;
use qrec_nn::{ClassifierHead, Params};
use qrec_workload::gen::{generate, Catalog, WorkloadProfile};
use qrec_workload::{Split, Vocab, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{de::DeserializeOwned, Deserialize, Serialize};
use std::path::PathBuf;

/// Workload-generation seed shared by every experiment.
pub const GEN_SEED: u64 = 1234;
/// Split seed shared by every experiment.
pub const SPLIT_SEED: u64 = 5678;

// ---------------------------------------------------------------------
// Output sink
// ---------------------------------------------------------------------

/// Where experiment output goes. Library code never prints directly —
/// the binaries pass [`StdioReporter`] and tests pass
/// [`SilentReporter`], so running the suite stays quiet and the one
/// sanctioned stdout sink is this trait's stdio implementation.
pub trait Reporter {
    /// A result line: tables, figures, summary rows (stdout channel).
    fn out(&self, line: &str);
    /// A progress/diagnostic note: training started, cache misses
    /// (stderr channel).
    fn note(&self, line: &str);
}

/// Reporter for the binaries: results to stdout, notes to stderr.
pub struct StdioReporter;

impl Reporter for StdioReporter {
    fn out(&self, line: &str) {
        // qrec-lint: allow(no-stdout-in-lib) -- the one sanctioned stdout sink; every other lib fn goes through Reporter
        println!("{line}");
    }

    fn note(&self, line: &str) {
        // qrec-lint: allow(no-stdout-in-lib) -- the one sanctioned stderr sink; every other lib fn goes through Reporter
        eprintln!("{line}");
    }
}

/// Reporter that swallows all output (used by tests).
pub struct SilentReporter;

impl Reporter for SilentReporter {
    fn out(&self, _line: &str) {}
    fn note(&self, _line: &str) {}
}

/// A fully prepared experiment dataset.
pub struct ExpData {
    /// `"sdss"` or `"sqlshare"`.
    pub name: String,
    /// The generated workload.
    pub workload: Workload,
    /// Its catalog.
    pub catalog: Catalog,
    /// The 80/10/10 pair split.
    pub split: Split,
}

/// Generate one of the two benchmark datasets deterministically.
pub fn dataset(name: &str) -> ExpData {
    let profile = match name {
        "sdss" => WorkloadProfile::sdss(),
        "sqlshare" => WorkloadProfile::sqlshare(),
        other => panic!("unknown dataset {other:?} (use \"sdss\" or \"sqlshare\")"),
    };
    let (workload, catalog) = generate(&profile, GEN_SEED);
    let mut rng = StdRng::seed_from_u64(SPLIT_SEED);
    let split = Split::paper(workload.pairs(), &mut rng);
    ExpData {
        name: name.to_string(),
        workload,
        catalog,
        split,
    }
}

/// Both benchmark datasets, generated once and shared by every
/// experiment.
pub struct Datasets {
    /// The SDSS-like workload.
    pub sdss: ExpData,
    /// The SQLShare-like workload.
    pub sqlshare: ExpData,
}

impl Datasets {
    /// Generate both datasets deterministically.
    pub fn generate() -> Self {
        Datasets {
            sdss: dataset("sdss"),
            sqlshare: dataset("sqlshare"),
        }
    }

    /// Both, in the paper's order.
    pub fn both(&self) -> [&ExpData; 2] {
        [&self.sdss, &self.sqlshare]
    }
}

/// Cache-format version: bump when the generator or configs change so
/// stale trained models are not reused.
pub const CACHE_VERSION: u32 = 4;

/// The experiment-scale recommender configuration. Budgets are
/// per-dataset: SQLShare is ~5x smaller, so it affords many more epochs
/// at the same wall-clock cost (mirroring the paper's per-dataset
/// hyper-parameter tuning, Section 6.2.4).
pub fn rec_config(dataset: &str, arch: Arch, seq_mode: SeqMode) -> RecommenderConfig {
    let mut cfg = RecommenderConfig::new(arch, seq_mode);
    cfg.train.batch_size = 16;
    cfg.train.adam.lr = 1.5e-3;
    match dataset {
        "sdss" => {
            cfg.train.epochs = 14;
            cfg.train.patience = 2;
        }
        _ => {
            cfg.train.epochs = 40;
            cfg.train.patience = 4;
        }
    }
    cfg
}

/// The experiment-scale classifier configuration (per-dataset budget).
/// Fine-tuning uses a gentler learning rate than pre-training so the
/// encoder's learned query representation is adapted, not destroyed.
pub fn clf_config(dataset: &str) -> TemplateClfConfig {
    let mut cfg = TemplateClfConfig::default();
    cfg.train.batch_size = 16;
    cfg.train.adam.lr = 6e-4;
    match dataset {
        "sdss" => {
            cfg.train.epochs = 16;
            cfg.train.patience = 3;
        }
        _ => {
            cfg.train.epochs = 60;
            cfg.train.patience = 8;
        }
    }
    cfg
}

// ---------------------------------------------------------------------
// Model cache
// ---------------------------------------------------------------------

fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/qrec-cache");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

fn load_cached<T: DeserializeOwned>(r: &dyn Reporter, file: &str) -> Option<T> {
    let path = cache_dir().join(file);
    let bytes = std::fs::read(&path).ok()?;
    match serde_json::from_slice(&bytes) {
        Ok(v) => Some(v),
        Err(e) => {
            r.note(&format!("  (cache {file} unreadable: {e}; retraining)"));
            None
        }
    }
}

fn store_cached<T: Serialize>(r: &dyn Reporter, file: &str, value: &T) {
    let path = cache_dir().join(file);
    match serde_json::to_vec(value) {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(&path, bytes) {
                r.note(&format!("  (could not write cache {file}: {e})"));
            }
        }
        Err(e) => r.note(&format!("  (could not serialise cache {file}: {e})")),
    }
}

#[derive(Serialize, Deserialize)]
struct RecBundle {
    cfg: RecommenderConfig,
    model: AnyModel,
    params: Params,
    vocab: Vocab,
    lexicon: FragmentLexicon,
    report: TrainReport,
}

/// Load a trained recommender from cache, or train and cache it.
pub fn trained_recommender(
    r: &dyn Reporter,
    data: &ExpData,
    arch: Arch,
    seq_mode: SeqMode,
) -> (Recommender, TrainReport) {
    let cfg = rec_config(&data.name, arch, seq_mode);
    let file = format!(
        "v{CACHE_VERSION}-{}-{}-{}.json",
        data.name,
        arch.label(),
        seq_mode.label()
    );
    if let Some(bundle) = load_cached::<RecBundle>(r, &file) {
        if bundle.cfg == cfg {
            let rec = Recommender::from_parts(
                bundle.cfg,
                bundle.model,
                bundle.params,
                bundle.vocab,
                bundle.lexicon,
            );
            return (rec, bundle.report);
        }
    }
    r.note(&format!(
        "  training {} {} on {} …",
        seq_mode.label(),
        arch.label(),
        data.name
    ));
    let (rec, report) = Recommender::train(&data.split, &data.workload, cfg);
    let bundle = RecBundle {
        cfg: *rec.config(),
        model: rec.model().clone(),
        params: rec.params().clone(),
        vocab: rec.vocab().clone(),
        lexicon: rec.lexicon().clone(),
        report: report.clone(),
    };
    store_cached(r, &file, &bundle);
    (rec, report)
}

#[derive(Serialize, Deserialize)]
struct ClfBundle {
    name: String,
    model: AnyModel,
    head: ClassifierHead,
    params: Params,
    vocab: Vocab,
    classes: TemplateClasses,
    report: TrainReport,
}

/// Load a trained template classifier from cache, or train and cache it.
/// `tuned` selects the fine-tuned construction (from the cached seq2seq
/// recommender) versus the from-scratch ablation.
pub fn trained_classifier(
    r: &dyn Reporter,
    data: &ExpData,
    arch: Arch,
    seq_mode: SeqMode,
    tuned: bool,
) -> (TemplateModel, TrainReport) {
    let kind = if tuned { "tuned" } else { "untuned" };
    let file = format!(
        "v{CACHE_VERSION}-{}-clf-{}-{}-{}.json",
        data.name,
        arch.label(),
        seq_mode.label(),
        kind
    );
    if let Some(bundle) = load_cached::<ClfBundle>(r, &file) {
        let clf = TemplateModel::from_parts(
            bundle.name,
            bundle.model,
            bundle.head,
            bundle.params,
            bundle.vocab,
            bundle.classes,
            clf_config(&data.name).train.seed,
        );
        return (clf, bundle.report);
    }
    let cfg = clf_config(&data.name);
    let (clf, report) = if tuned {
        let (rec, _) = trained_recommender(r, data, arch, seq_mode);
        r.note(&format!(
            "  fine-tuning classifier for {} {} on {} …",
            seq_mode.label(),
            arch.label(),
            data.name
        ));
        TemplateModel::train_fine_tuned(&rec, &data.split, cfg)
    } else {
        r.note(&format!(
            "  training untuned classifier for {} on {} …",
            arch.label(),
            data.name
        ));
        TemplateModel::train_from_scratch(
            arch,
            SizePreset::Small,
            seq_mode,
            &data.split,
            cfg,
            2,
            cfg.train.seed,
        )
    };
    let (name, model, head, params, vocab, classes) = clf.parts();
    let bundle = ClfBundle {
        name: name.to_string(),
        model: model.clone(),
        head: head.clone(),
        params: params.clone(),
        vocab: vocab.clone(),
        classes: classes.clone(),
        report: report.clone(),
    };
    store_cached(r, &file, &bundle);
    (clf, report)
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// Print an aligned text table through the reporter.
pub fn print_table(r: &dyn Reporter, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    r.out(&format!("\n== {title} =="));
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let w = widths.get(i).copied().unwrap_or(c.len());
                if i == 0 {
                    format!("{c:<w$}")
                } else {
                    format!("{c:>w$}")
                }
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    r.out(&fmt_row(&header_cells));
    r.out(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        r.out(&fmt_row(row));
    }
}

/// Persist experiment results as JSON under `target/qrec-cache/results/`.
pub fn write_results(r: &dyn Reporter, experiment: &str, value: &serde_json::Value) {
    let dir = cache_dir().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{experiment}.json"));
    std::fs::write(&path, serde_json::to_vec_pretty(value).expect("serialise"))
        .expect("write results");
    r.out(&format!("\n[results written to {}]", path.display()));
}

/// Shared implementation of Figures 10 and 11: the session-level (a)–(e)
/// and pair-level (f)–(l) analysis of one workload, printed as
/// histograms and summary fractions.
pub fn session_pair_figure(r: &dyn Reporter, data: &ExpData, figure: &str) -> serde_json::Value {
    use qrec_workload::stats::{pair_stats, session_stats};

    let ss = session_stats(&data.workload);
    let ps = pair_stats(&data.workload);

    // (a)-(e): histograms of per-session measures.
    let hist = |take: &dyn Fn(&qrec_workload::stats::SessionRow) -> usize| {
        let mut buckets = [0usize; 7]; // 0,1,2,3,4,5-9,10+
        for row in &ss.rows {
            let v = take(row);
            let b = match v {
                0..=4 => v,
                5..=9 => 5,
                _ => 6,
            };
            buckets[b] += 1;
        }
        buckets
    };
    let labels = ["0", "1", "2", "3", "4", "5-9", "10+"];
    let measures: Vec<(&str, [usize; 7])> = vec![
        ("(a) queries", hist(&|r| r.queries)),
        ("(b) unique queries", hist(&|r| r.unique_queries)),
        ("(c) sequential changes", hist(&|r| r.sequential_changes)),
        ("(d) unique templates", hist(&|r| r.unique_templates)),
        ("(e) template changes", hist(&|r| r.template_changes)),
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, buckets) in &measures {
        let mut row = vec![name.to_string()];
        row.extend(buckets.iter().map(|b| b.to_string()));
        rows.push(row);
    }
    let mut headers = vec!["per-session measure"];
    headers.extend(labels);
    print_table(
        r,
        &format!(
            "{figure} ({}) session-level histograms (#sessions per bucket)",
            data.name
        ),
        &headers,
        &rows,
    );
    r.out(&format!(
        "  ≥2 unique queries: {}   ≥2 unique templates: {}   ≥2 template changes: {}",
        pct(ss.frac_ge2_unique_queries),
        pct(ss.frac_ge2_unique_templates),
        pct(ss.frac_ge2_template_changes)
    ));

    // (f)-(l): pair-level template change + syntactic deltas.
    let mut rows: Vec<Vec<String>> = vec![vec![
        "(f) template".into(),
        pct(ps.template_change_rate),
        pct(1.0 - ps.template_change_rate),
        "-".into(),
    ]];
    for (i, (name, inc, same, dec)) in ps.property_deltas.iter().enumerate() {
        let tag = (b'g' + i as u8) as char;
        rows.push(vec![
            format!("({tag}) {name}"),
            pct(*inc),
            pct(*same),
            pct(*dec),
        ]);
    }
    print_table(
        r,
        &format!(
            "{figure} ({}) pair-level deltas over {} pairs (f: changed/same; g-l: +/=/-)",
            data.name, ps.pairs
        ),
        &["pair-level measure", "increase/changed", "same", "decrease"],
        &rows,
    );

    serde_json::json!({
        "session": {
            "frac_ge2_unique_queries": ss.frac_ge2_unique_queries,
            "frac_ge2_unique_templates": ss.frac_ge2_unique_templates,
            "frac_ge2_template_changes": ss.frac_ge2_template_changes,
            "mean_sequential_changes": ss.mean_sequential_changes,
            "histograms": measures.iter().map(|(n, b)| (n.to_string(), b.to_vec())).collect::<Vec<_>>(),
        },
        "pair": {
            "pairs": ps.pairs,
            "template_change_rate": ps.template_change_rate,
            "property_deltas": ps.property_deltas,
        },
    })
}

/// Format a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.4567), "45.7%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = dataset("sdss");
        let b = dataset("sdss");
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.split.train.len(), b.split.train.len());
        assert_eq!(
            a.split.train.first().map(|p| p.current.canonical.clone()),
            b.split.train.first().map(|p| p.current.canonical.clone())
        );
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        let _ = dataset("tpch");
    }

    #[test]
    fn configs_differ_per_dataset() {
        let sdss = rec_config("sdss", Arch::Transformer, SeqMode::Aware);
        let ss = rec_config("sqlshare", Arch::Transformer, SeqMode::Aware);
        assert!(ss.train.epochs > sdss.train.epochs);
        let c_sdss = clf_config("sdss");
        let c_ss = clf_config("sqlshare");
        assert!(c_ss.train.epochs > c_sdss.train.epochs);
    }

    #[test]
    fn cache_roundtrip() {
        #[derive(Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Probe {
            x: u32,
        }
        store_cached(&SilentReporter, "test-probe.json", &Probe { x: 7 });
        let back: Option<Probe> = load_cached(&SilentReporter, "test-probe.json");
        assert_eq!(back, Some(Probe { x: 7 }));
        let missing: Option<Probe> = load_cached(&SilentReporter, "no-such-file.json");
        assert!(missing.is_none());
    }
}
