//! The one command line of the `bench_*` binaries:
//!
//! ```text
//! bench_<name> [--smoke] [--out PATH]
//! ```
//!
//! A full run writes `BENCH_<name>.json` at the repo root, the committed
//! baseline; `--smoke` shrinks every count for CI schema checks and
//! writes `target/BENCH_<name>_smoke.json`. `--out` overrides either
//! path. Nothing else is read from the command line or the environment:
//! a gate's budget is a constant of its binary.

use crate::{Reporter, StdioReporter};
use std::path::PathBuf;
use std::process::ExitCode;

/// A parsed bench command line.
#[derive(Debug, PartialEq)]
pub struct BenchArgs {
    /// Small counts, for schema checks.
    pub smoke: bool,
    /// Where the JSON report goes.
    pub out: PathBuf,
}

/// What a command line asks for.
#[derive(Debug, PartialEq)]
enum Invocation {
    /// Run the benchmark.
    Run(BenchArgs),
    /// Print the usage line and exit successfully.
    Help,
}

/// The usage line of `bench_<name>`.
fn usage(name: &str) -> String {
    format!("usage: bench_{name} [--smoke] [--out PATH]")
}

/// The report path of `bench_<name>` when no `--out` is given.
fn default_out(name: &str, smoke: bool) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if smoke {
        root.join(format!("target/BENCH_{name}_smoke.json"))
    } else {
        root.join(format!("BENCH_{name}.json"))
    }
}

/// Parse the arguments after the program name.
fn parse(name: &str, args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut smoke = false;
    let mut out = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(it.next().ok_or("missing value for --out")?)),
            "--help" | "-h" => return Ok(Invocation::Help),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let out = out.unwrap_or_else(|| default_out(name, smoke));
    Ok(Invocation::Run(BenchArgs { smoke, out }))
}

impl BenchArgs {
    /// Write `report` as pretty JSON to the report path (creating its
    /// directory), read it back to check it parses, and say where it
    /// went.
    pub fn write(&self, report: &serde_json::Value) -> Result<(), String> {
        let out = &self.out;
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let bytes = serde_json::to_vec_pretty(report).map_err(|e| format!("serialise: {e}"))?;
        std::fs::write(out, bytes).map_err(|e| format!("write {}: {e}", out.display()))?;
        let text = std::fs::read_to_string(out).map_err(|e| format!("read back: {e}"))?;
        serde_json::from_str::<serde_json::Value>(&text)
            .map_err(|e| format!("round-trip parse: {e}"))?;
        StdioReporter.out(&format!("[results written to {}]", out.display()));
        Ok(())
    }
}

/// The `main` of `bench_<name>`: parse the process's arguments, run
/// `run`, and exit non-zero on a bad command line or a failed run.
pub fn bench_main(name: &str, run: impl FnOnce(&BenchArgs) -> Result<(), String>) -> ExitCode {
    let r = StdioReporter;
    match parse(name, std::env::args().skip(1)) {
        Ok(Invocation::Help) => {
            r.note(&usage(name));
            ExitCode::SUCCESS
        }
        Ok(Invocation::Run(args)) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                r.note(&format!("bench_{name} failed: {msg}"));
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            r.note(&format!("bench_{name}: {msg}\n{}", usage(name)));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shared_command_line() {
        let run = |smoke, out: PathBuf| Ok(Invocation::Run(BenchArgs { smoke, out }));
        let unknown = |flag: &str| Err(format!("unknown flag {flag:?}"));
        let cases: [(&[&str], Result<Invocation, String>); 9] = [
            (&[], run(false, default_out("demo", false))),
            (&["--smoke"], run(true, default_out("demo", true))),
            (&["--out", "x.json"], run(false, "x.json".into())),
            (&["--out", "x.json", "--smoke"], run(true, "x.json".into())),
            (&["--smoke", "--out"], Err("missing value for --out".into())),
            (&["--budget", "0.5"], unknown("--budget")),
            (&["--smoke", "smoke"], unknown("smoke")),
            (&["-h"], Ok(Invocation::Help)),
            (&["--smoke", "--help"], Ok(Invocation::Help)),
        ];
        for (argv, want) in cases {
            let got = parse("demo", argv.iter().map(|a| a.to_string()));
            assert_eq!(got, want, "{argv:?}");
        }
        assert!(default_out("demo", false).ends_with("BENCH_demo.json"));
        assert!(default_out("demo", true).ends_with("target/BENCH_demo_smoke.json"));
        assert_eq!(usage("demo"), "usage: bench_demo [--smoke] [--out PATH]");
    }
}
