//! `qrec-serve` — train a demo recommender and serve it over TCP.
//!
//! ```text
//! qrec-serve [--addr HOST:PORT] [--seed N] [--profile tiny|sqlshare|sdss]
//!            [--data-dir PATH] [--quant f32|int8] [--max-conns N] [--profiler]
//! ```
//!
//! Generates a synthetic workload, trains a small transformer
//! recommender, and serves it with the JSON-lines protocol until a
//! client sends `{"verb":"SHUTDOWN"}`.
//!
//! With `--data-dir`, sessions and hot-swapped models persist to a
//! WAL-backed store under that directory and survive restarts; if the
//! directory already holds a model zoo, the persisted model is served
//! instead of training a fresh one.
//!
//! `--quant int8` is weight-only quantisation: projection weights,
//! embedding tables and KV rows are held int8 (~4× smaller), activations
//! stay f32, and decodes run at the f32 path's speed within a few percent.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_serve::{QuantMode, Server, ServerConfig};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

struct Args {
    addr: String,
    seed: u64,
    profile: String,
    data_dir: Option<std::path::PathBuf>,
    quant: QuantMode,
    max_conns: usize,
    profiler: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        seed: 1,
        profile: "tiny".into(),
        data_dir: None,
        quant: QuantMode::F32,
        max_conns: ServerConfig::default().max_connections,
        profiler: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--profile" => args.profile = value("--profile")?,
            "--data-dir" => args.data_dir = Some(value("--data-dir")?.into()),
            "--quant" => args.quant = QuantMode::parse(&value("--quant")?)?,
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("bad --max-conns: {e}"))?;
            }
            "--profiler" => args.profiler = true,
            "--help" | "-h" => {
                return Err("usage: qrec-serve [--addr HOST:PORT] [--seed N] \
                     [--profile tiny|sqlshare|sdss] [--data-dir PATH] \
                     [--quant f32|int8] [--max-conns N] [--profiler]"
                    .into());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn profile(name: &str) -> Result<WorkloadProfile, String> {
    match name {
        "tiny" => Ok(WorkloadProfile::tiny()),
        "sqlshare" => Ok(WorkloadProfile::sqlshare()),
        "sdss" => Ok(WorkloadProfile::sdss()),
        other => Err(format!("unknown profile {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let prof = match profile(&args.profile) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "generating {} workload (seed {})...",
        args.profile, args.seed
    );
    let (workload, _catalog) = generate(&prof, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let split = Split::paper(workload.pairs(), &mut rng);

    eprintln!("training recommender...");
    let cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    let (model, report) = match Recommender::try_train(&split, &workload, cfg) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "trained: {} epochs, final loss {:?}",
        report.epoch_losses.len(),
        report.final_train_loss()
    );

    let server_cfg = ServerConfig {
        data_dir: args.data_dir.clone(),
        quant: args.quant,
        max_connections: args.max_conns,
        profiler: args.profiler,
        ..ServerConfig::default()
    };
    let mut server = match Server::start(model, args.addr.as_str(), server_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("serving on {}", server.local_addr());
    if args.quant == QuantMode::Int8 {
        eprintln!("int8 weight-only quantization on (int8 weights and KV rows, f32 activations)");
    }
    if args.profiler {
        eprintln!(r#"sampling profiler on; fetch folded stacks with {{"verb":"PROF"}}"#);
    }
    if let Some(dir) = &args.data_dir {
        eprintln!(
            "durable store at {} (epoch {})",
            dir.display(),
            server.model_epoch()
        );
    }
    eprintln!(r#"send {{"verb":"SHUTDOWN"}} to stop"#);

    server.wait_for_shutdown_request(None);
    eprintln!("shutdown requested; draining...");
    server.shutdown();
    eprintln!("bye");
    ExitCode::SUCCESS
}
