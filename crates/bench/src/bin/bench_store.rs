//! `bench_store` — durability cost baselines for the qrec-store WAL
//! (README "Durability", DESIGN.md §13).
//!
//! ```text
//! bench_store [--smoke] [--out PATH]
//! ```
//!
//! Two questions, answered with wall-clock numbers:
//!
//! - **What does an acknowledged write cost?** Per-append latency of
//!   session-record-sized WAL appends under each fsync policy
//!   (`always` pays a disk sync per write, `every-64` amortises it,
//!   `never` leaves syncing to the OS). Reported as best/p50/p95/p99
//!   from the individual timings, alongside the store's own
//!   instrumented log2-histogram quantiles so the `STATS` numbers can
//!   be sanity-checked against ground truth.
//! - **What does recovery cost?** Time for `Store::open` to replay a
//!   WAL holding N session records back into the memtable, for growing
//!   N — the startup tax a SIGKILL'd server pays.
//!
//! Full runs write `BENCH_store.json` at the repo root; `--smoke` uses
//! small counts and writes `target/BENCH_store_smoke.json`.

use qrec_bench::cli::{bench_main, BenchArgs};
use qrec_store::{FsyncPolicy, Store, StoreConfig};
use serde_json::json;
use std::process::ExitCode;
use std::time::Instant;

/// A session-record-sized value: what the serve tier actually persists
/// per acknowledged write (a JSON list of recent SQL statements).
fn value(i: u64) -> Vec<u8> {
    format!(
        "[\"SELECT a, b FROM t{} WHERE id = {} ORDER BY a\",\"SELECT count(*) FROM t{}\"]",
        i % 23,
        i,
        i % 23
    )
    .into_bytes()
}

fn key(i: u64) -> Vec<u8> {
    format!("session/user-{:06}", i % 512).into_bytes()
}

fn quantile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] * 1e6
}

struct AppendRow {
    policy: &'static str,
    appends: u64,
    best_us: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    appends_per_s: f64,
    instrumented_p50_us: u64,
    instrumented_p99_us: u64,
    wal_bytes: u64,
}

struct RecoveryRow {
    records: u64,
    recovery_ms: f64,
    records_per_s: f64,
    recovered_records: u64,
    instrumented_recovery_us: u64,
}

/// Time `n` appends under `policy` into a fresh store; returns the
/// report row.
fn bench_appends(
    scratch: &std::path::Path,
    label: &'static str,
    policy: FsyncPolicy,
    n: u64,
) -> Result<AppendRow, String> {
    let dir = scratch.join(format!("append-{label}"));
    let cfg = StoreConfig {
        fsync: policy,
        // Large budget: measure the WAL, not flush interference.
        memtable_bytes: 1 << 26,
        ..StoreConfig::default()
    };
    let store = Store::open(&dir, cfg).map_err(|e| format!("open {label}: {e}"))?;
    let mut lat = Vec::with_capacity(n as usize);
    let t0 = Instant::now();
    for i in 0..n {
        let t = Instant::now();
        store
            .put(&key(i), &value(i))
            .map_err(|e| format!("put {label}: {e}"))?;
        lat.push(t.elapsed().as_secs_f64());
    }
    let total = t0.elapsed().as_secs_f64();
    lat.sort_by(f64::total_cmp);
    let stats = store.stats();
    Ok(AppendRow {
        policy: label,
        appends: n,
        best_us: quantile_us(&lat, 0.0),
        p50_us: quantile_us(&lat, 0.50),
        p95_us: quantile_us(&lat, 0.95),
        p99_us: quantile_us(&lat, 0.99),
        appends_per_s: n as f64 / total,
        instrumented_p50_us: stats.wal_append_p50_us,
        instrumented_p99_us: stats.wal_append_p99_us,
        wal_bytes: stats.wal_bytes,
    })
}

/// Write `n` records, drop the store, and time the WAL replay a fresh
/// `Store::open` performs.
fn bench_recovery(scratch: &std::path::Path, n: u64) -> Result<RecoveryRow, String> {
    let dir = scratch.join(format!("recovery-{n}"));
    let cfg = StoreConfig {
        fsync: FsyncPolicy::Never,
        memtable_bytes: 1 << 26,
        ..StoreConfig::default()
    };
    {
        let store = Store::open(&dir, cfg).map_err(|e| format!("open for load: {e}"))?;
        for i in 0..n {
            // Distinct keys: recovery replays every record into the
            // memtable rather than collapsing overwrites.
            let k = format!("session/user-{i:08}").into_bytes();
            store
                .put(&k, &value(i))
                .map_err(|e| format!("load put: {e}"))?;
        }
        store.sync().map_err(|e| format!("sync: {e}"))?;
    }
    let t0 = Instant::now();
    let store = Store::open(&dir, cfg).map_err(|e| format!("recovering open: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    let stats = store.stats();
    if stats.recovered_records != n {
        return Err(format!(
            "recovery replayed {} of {} records",
            stats.recovered_records, n
        ));
    }
    Ok(RecoveryRow {
        records: n,
        recovery_ms: wall * 1e3,
        records_per_s: n as f64 / wall,
        recovered_records: stats.recovered_records,
        instrumented_recovery_us: stats.recovery_us,
    })
}

fn run(args: &BenchArgs) -> Result<(), String> {
    let appends = if args.smoke { 300 } else { 2000 };
    let recovery_counts: &[u64] = if args.smoke {
        &[200, 1000]
    } else {
        &[1000, 5000, 20000]
    };

    let scratch = std::env::temp_dir().join(format!("qrec-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("scratch dir: {e}"))?;

    let policies = [
        ("always", FsyncPolicy::Always),
        ("every-64", FsyncPolicy::EveryN(64)),
        ("never", FsyncPolicy::Never),
    ];
    let mut append_rows = Vec::new();
    for (label, policy) in policies {
        eprintln!("bench_store: {appends} appends, fsync {label} ...");
        let row = bench_appends(&scratch, label, policy, appends)?;
        println!(
            "append fsync={:<9} p50 {:>9.1}us  p99 {:>9.1}us  ({:.0}/s)",
            label, row.p50_us, row.p99_us, row.appends_per_s,
        );
        append_rows.push(row);
    }

    let mut recovery_rows = Vec::new();
    for &n in recovery_counts {
        eprintln!("bench_store: recovery of {n} records ...");
        let row = bench_recovery(&scratch, n)?;
        println!(
            "recovery {:>6} records  {:>8.2} ms  ({:.0}/s)",
            n, row.recovery_ms, row.records_per_s,
        );
        recovery_rows.push(row);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let report = json!({
        "benchmark": "qrec-store WAL append latency and recovery time",
        "smoke": args.smoke,
        "value_bytes": value(0).len(),
        "append": append_rows.iter().map(|r| json!({
            "policy": r.policy,
            "appends": r.appends,
            "best_us": r.best_us,
            "p50_us": r.p50_us,
            "p95_us": r.p95_us,
            "p99_us": r.p99_us,
            "appends_per_s": r.appends_per_s,
            "instrumented_p50_us": r.instrumented_p50_us,
            "instrumented_p99_us": r.instrumented_p99_us,
            "wal_bytes": r.wal_bytes,
        })).collect::<Vec<_>>(),
        "recovery": recovery_rows.iter().map(|r| json!({
            "records": r.records,
            "recovery_ms": r.recovery_ms,
            "records_per_s": r.records_per_s,
            "recovered_records": r.recovered_records,
            "instrumented_recovery_us": r.instrumented_recovery_us,
        })).collect::<Vec<_>>(),
    });
    args.write(&report)
}

fn main() -> ExitCode {
    bench_main("store", run)
}
