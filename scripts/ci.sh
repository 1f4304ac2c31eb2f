#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test suite.
# Everything runs offline against the vendored shims in shims/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> qrec-lint (with baseline staleness gate)"
cargo run --offline -q -p qrec-lint -- --check-baseline

echo "==> qrec-lint findings artifact (target/lint-findings.json)"
cargo run --offline -q -p qrec-lint -- --json > target/lint-findings.json
python3 -m json.tool target/lint-findings.json >/dev/null \
    || { echo "lint-findings.json is not well-formed JSON"; exit 1; }

echo "==> cargo build --release"
cargo build --offline --release

echo "==> cargo test -q"
cargo test --offline -q

echo "==> cargo test -q (workspace, QREC_LOCK_ORDER_CHECK=1)"
# Runtime lock-order sanitizer: every blocking acquisition in the whole
# suite is checked against the global acquisition-order graph; an ABBA
# inversion panics with both witness stacks instead of deadlocking.
QREC_LOCK_ORDER_CHECK=1 cargo test --offline -q --workspace

echo "==> store recovery smoke (SIGKILL mid-write, torn tails, restart)"
cargo test --offline -q -p qrec-store --test crash_recovery
cargo test --offline -q -p qrec-serve --test restart_recovery

echo "==> int8 quant equivalence smoke (agreement gate + QREC_THREADS 1/2/8 reruns)"
cargo test --offline -q -p qrec-nn --test quant_equivalence

echo "==> decode equivalence under the release profile"
# The suite above ran it unoptimised; the bitwise contract must also hold
# for the code that ships: optimised and autovectorised.
cargo test --offline -q --release -p qrec-nn --test decode_equivalence

echo "==> bench_e2e: unit tests + smoke (its own package, outside the workspace)"
# `cargo test --workspace` and clippy never compile bench_e2e, so an API
# break in qrec-nn/qrec-tensor/qrec-serve would otherwise first surface in
# the benchmark run itself.
cargo test --offline -q --manifest-path bench_e2e/Cargo.toml
cargo run --offline --release --quiet --manifest-path bench_e2e/Cargo.toml -- --smoke >/dev/null

echo "==> serve front-end suites vs the event loop (incl. lock-order sanitizer)"
# The event loop is the default front end, so these suites exercise it
# end-to-end: protocol integration, framing robustness (partial frames,
# pipelining, slowloris, slow consumers), tracing, and crash recovery.
cargo test --offline -q -p qrec-serve --test serve_integration
cargo test --offline -q -p qrec-serve --test frontend_robustness
QREC_LOCK_ORDER_CHECK=1 cargo test --offline -q -p qrec-serve \
    --test serve_integration --test frontend_robustness \
    --test trace_e2e --test restart_recovery

echo "==> bench --smoke"
./scripts/bench.sh --smoke >/dev/null
python3 -m json.tool target/BENCH_tensor_smoke.json >/dev/null \
    || { echo "BENCH_tensor_smoke.json is not well-formed JSON"; exit 1; }
python3 -m json.tool target/BENCH_decode_smoke.json >/dev/null \
    || { echo "BENCH_decode_smoke.json is not well-formed JSON"; exit 1; }
python3 -m json.tool target/BENCH_store_smoke.json >/dev/null \
    || { echo "BENCH_store_smoke.json is not well-formed JSON"; exit 1; }
python3 -m json.tool target/BENCH_quant_smoke.json >/dev/null \
    || { echo "BENCH_quant_smoke.json is not well-formed JSON"; exit 1; }
python3 -m json.tool target/BENCH_serve_smoke.json >/dev/null \
    || { echo "BENCH_serve_smoke.json is not well-formed JSON"; exit 1; }
if [ -f BENCH_tensor.json ]; then
    python3 -m json.tool BENCH_tensor.json >/dev/null \
        || { echo "BENCH_tensor.json is not well-formed JSON"; exit 1; }
fi
if [ -f BENCH_decode.json ]; then
    python3 -m json.tool BENCH_decode.json >/dev/null \
        || { echo "BENCH_decode.json is not well-formed JSON"; exit 1; }
fi
if [ -f BENCH_store.json ]; then
    python3 -m json.tool BENCH_store.json >/dev/null \
        || { echo "BENCH_store.json is not well-formed JSON"; exit 1; }
fi
if [ -f BENCH_quant.json ]; then
    python3 -m json.tool BENCH_quant.json >/dev/null \
        || { echo "BENCH_quant.json is not well-formed JSON"; exit 1; }
fi
if [ -f BENCH_serve.json ]; then
    python3 -m json.tool BENCH_serve.json >/dev/null \
        || { echo "BENCH_serve.json is not well-formed JSON"; exit 1; }
fi
if [ -f BENCH_obs.json ]; then
    python3 -m json.tool BENCH_obs.json >/dev/null \
        || { echo "BENCH_obs.json is not well-formed JSON"; exit 1; }
fi

echo "==> obs overhead gate (bench_obs, budget ${QREC_OBS_OVERHEAD_MAX:-0.03})"
cargo build --offline --release -q -p qrec-bench --bin bench_obs
# Exits non-zero when the geomean on/off overhead exceeds the budget.
./target/release/bench_obs --out target/BENCH_obs_smoke.json
python3 -m json.tool target/BENCH_obs_smoke.json >/dev/null \
    || { echo "BENCH_obs_smoke.json is not well-formed JSON"; exit 1; }

echo "CI green."
