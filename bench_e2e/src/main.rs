//! `bench_e2e` — session-replay benchmark of the qrec serving path.
//!
//! ```text
//! bench_e2e --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1] [--out <file>]
//! bench_e2e --smoke                      all four workloads, tiny counts
//! bench_e2e compare A.jsonl B.jsonl      A/A or before/after table
//! bench_e2e manifest                     print BENCHMARK.json
//! bench_e2e --server-child ...           (internal: the program under test)
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

// The vendored `json!` recurses once per key of an object literal.
#![recursion_limit = "256"]

mod client;
mod layers;
mod report;
mod run;
mod server;
mod stats;
mod workloads;

use run::RunOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Scale, Workload};

/// Seconds one run measures when `--seconds` is absent; also
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 15;

fn flag(argv: &[String], name: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(argv: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(argv, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
    }
}

fn scale_of(argv: &[String]) -> Scale {
    if argv.iter().any(|a| a == "--smoke") {
        Scale::smoke()
    } else {
        Scale::full()
    }
}

/// Run the asked workloads; the last line printed is the driver's JSON
/// object of the last workload run.
fn bench(argv: &[String]) -> Result<bool, String> {
    let scale = scale_of(argv);
    let smoke = scale.smoke;
    let which = flag(argv, "--workload").unwrap_or_else(|| "all".into());
    let workloads: Vec<Workload> = match which.as_str() {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?],
    };
    let trace = match parsed(argv, "--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let seed = parsed(argv, "--seed", 1u64)?;
    let seconds = parsed(
        argv,
        "--seconds",
        if smoke { 0.0 } else { RUN_SECONDS as f64 },
    )?;
    let out = flag(argv, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| run::out_dir().join("runs.jsonl"));

    let mut all_correct = true;
    for workload in workloads {
        let opts = RunOptions {
            workload,
            seed,
            seconds,
            trace,
            scale,
        };
        let report = run::run(&opts)?;
        report.print_human();
        append_line(&out, &report::to_line(&report.to_json()))?;
        all_correct &= report.correct();
        println!("{}", report.driver_line());
    }
    Ok(all_correct)
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let e = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(e)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(e)?;
    writeln!(f, "{line}").map_err(e)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.iter().any(|a| a == "--server-child") {
        let workload = flag(&argv, "--workload").and_then(|w| Workload::parse(&w));
        let Some(workload) = workload else {
            eprintln!("bench_e2e child: --workload missing or unknown");
            return ExitCode::FAILURE;
        };
        let scale = scale_of(&argv);
        let restarts = parsed(&argv, "--restarts", 0usize).unwrap_or(0);
        let data_dir = flag(&argv, "--data-dir").map(PathBuf::from);
        return server::run_child(workload, &scale, data_dir, restarts);
    } else if argv.first().map(String::as_str) == Some("compare") {
        match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => report::compare(Path::new(a), Path::new(b)),
            _ => Err("usage: bench_e2e compare A.jsonl B.jsonl".into()),
        }
    } else if argv.first().map(String::as_str) == Some("manifest") {
        let text = serde_json::to_string_pretty(&report::manifest(RUN_SECONDS));
        println!("{}", text.expect("a Value serialises"));
        Ok(true)
    } else {
        bench(&argv)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
