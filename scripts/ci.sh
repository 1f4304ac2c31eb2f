#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test suite.
# Everything runs offline against the vendored shims in shims/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> every shim is a workspace dependency some crate uses"
# Every directory under shims/ is a workspace member, so a shim nothing
# depends on still builds, lints and tests green and would be carried
# unnoticed. Each must be the path of a [workspace.dependencies] entry
# that some manifest (root, crates/*, shims/*) takes with
# `workspace = true`.
python3 - <<'PY'
import glob, os, sys, tomllib

def load(path):
    with open(path, "rb") as f:
        return tomllib.load(f)

deps = load("Cargo.toml")["workspace"]["dependencies"]
by_dir = {os.path.normpath(spec["path"]): name
          for name, spec in deps.items() if isinstance(spec, dict) and "path" in spec}
used = set()
for manifest in ["Cargo.toml"] + glob.glob("crates/*/Cargo.toml") + glob.glob("shims/*/Cargo.toml"):
    doc = load(manifest)
    for table in ("dependencies", "dev-dependencies", "build-dependencies"):
        for name, spec in doc.get(table, {}).items():
            if isinstance(spec, dict) and spec.get("workspace"):
                used.add(name)
dead = [d for d in sorted(glob.glob("shims/*/"))
        if by_dir.get(os.path.normpath(d)) not in used]
for d in dead:
    print(f"{d}: not a [workspace.dependencies] path that any manifest uses")
sys.exit(1 if dead else 0)
PY

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace (deny warnings)"
# Public docs must build without a warning: a link to a private item or
# an ambiguous one renders as dead text in the published docs.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

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

echo "==> int8 quant equivalence smoke (agreement gate, golden int8 decode)"
cargo test --offline -q -p qrec-nn --test quant_equivalence

echo "==> decode equivalence, int8 oracles and beam selection under the release profile"
# The suites above ran unoptimised; the contracts must also hold for the
# code that ships. The register tile — which reads f32 and int8 weights
# alike (int8 is weight-only: widened on load, activations stay f32) —
# and the row quantizer only exist as vector code in an optimised build;
# a debug build runs their scalar reading. So the int8 product's oracle
# (qi8_properties: bit-equal to kernel::naive over the widened weights,
# one fold order per element), the quantizer's, the golden int8 decode
# and agreement gate (quant_equivalence) and the one-pass beam selection
# against its oracle are run again here.
cargo test --offline -q --release -p qrec-nn --test decode_equivalence
# The step contract each architecture owns (zero-row steps, foreign
# states refused) and the recommender's internal-RNG calls against the
# cached path on a cloned RNG.
cargo test --offline -q --release -p qrec-nn --test step_contract
cargo test --offline -q --release -p qrec-core --lib internal_rng_calls
cargo test --offline -q --release -p qrec-nn --test quant_equivalence
cargo test --offline -q --release -p qrec-tensor --test qi8_properties
# The zoo persists f32 weights only and a restart quantizes them again:
# the re-quantized model must decode bit for bit what the saved one did
# in the shipped build too.
cargo test --offline -q --release -p qrec-serve --test restart_recovery
cargo test --offline -q --release -p qrec-nn --lib one_pass_selection

echo "==> serving parse, cache key and reply bytes against their oracles (release)"
# A warm RECOMMEND is parsed by qrec_sql::prepare, keyed by CacheKey and
# answered by a reply written straight to bytes. Each has an oracle: the
# parse is held to QueryRecord::new (tokens, template id, errors), the
# key to injectivity over token windows, the reply and the durable
# session record to serde_json's bytes. They run again in the build that
# ships, as decode_equivalence does. A repeated statement is not parsed
# at all but looked up in the session store's statement table: its
# answers are held to prepare's, its bounds to 4 MiB and second-sighting
# admission, and a push of a stored statement to zero allocations.
cargo test --offline -q --release -p qrec-workload --test serving_parse
cargo test --offline -q --release -p qrec-serve --test statement_table --test push_allocations
cargo test --offline -q --release -p qrec-serve --test cache_key --test reply_bytes
cargo test --offline -q --release -p qrec-serve --lib session_record_bytes

echo "==> training-step contracts under the release profile"
# The register tile behind gemm_nt / gemm_tn and the fused attention
# node's folds are autovectorised code a debug build does not exercise:
# the products against their naive references, the node against the
# op-by-op tape, and the trained weights against the oracle path are
# held bit for bit in the build that ships too.
cargo test --offline -q --release -p qrec-tensor --test gemm_equivalence
cargo test --offline -q --release -p qrec-nn --lib -- \
    trained_weights_equal_the_oracle_path fused_node reused_tape
# The benchmark model's trained weights, pinned as one hash (ignored in
# debug builds: training it unoptimised takes minutes).
cargo test --offline -q --release -p qrec-core --test trained_weights_hash

echo "==> exp, softmax and attention kernels against their oracles (release; native and baseline x86-64)"
# The softmax's exp is a vector port of glibc's expf that must return
# f32::exp's bits for every f32 (the exhaustive sweep runs only in an
# optimised build); the softmax row kernel is held to the per-row scalar
# loop, the rows-form source attention to the per-row form, and the
# strided register tile behind both to the references — bit for bit. A
# build for the baseline x86-64 target (no FMA instruction: mul_add calls
# libm's fma, the kernel's fmadd is unfused) is a different program with
# the same contracts, and runs them too, in its own target directory.
attention_oracles() {
    cargo test --offline -q --release -p qrec-tensor --lib -- expf:: softmax_rows_match strided_tiles
    cargo test --offline -q --release -p qrec-nn --lib -- rows_form fused_attention fused_node
}
attention_oracles
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/x86-64 attention_oracles
# The register tile runs every product, so its bitwise suite runs in the
# baseline build too (the native release build ran it above).
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/x86-64 \
    cargo test --offline -q --release -p qrec-tensor --test gemm_equivalence

echo "==> bench_e2e: unit tests + smoke (its own package, outside the workspace)"
# `cargo test --workspace` and clippy never compile bench_e2e, so an API
# break in qrec-nn/qrec-tensor/qrec-serve would otherwise first surface in
# the benchmark run itself.
cargo test --offline -q --manifest-path bench_e2e/Cargo.toml
cargo run --offline --release --quiet --manifest-path bench_e2e/Cargo.toml -- --smoke >/dev/null

echo "==> qrec-serve suites (protocol, framing robustness, tracing, telemetry, recovery)"
cargo test --offline -q -p qrec-serve

echo "==> serve_integration, telemetry_stream and frontend_robustness under the lock-order sanitizer"
# The loop thread takes a session-shard lock and the cache mutex (a cache
# hit is answered there) while workers take the same two: name the suite
# that drives both sides, so an ordering slip fails here by name and not
# somewhere inside the workspace-wide sanitizer run above.
QREC_LOCK_ORDER_CHECK=1 cargo test --offline -q -p qrec-serve --test serve_integration
# The statement table's lock is taken by the loop and the workers alike,
# and never together with a session shard: name the suite that drives it.
QREC_LOCK_ORDER_CHECK=1 cargo test --offline -q -p qrec-serve --test statement_table
# The housekeeping thread takes the session-shard write locks (sweep) and
# the telemetry lock (seal) on one thread, while the loop reads both for
# WATCH and the workers push sessions: name the suites that drive it.
QREC_LOCK_ORDER_CHECK=1 cargo test --offline -q -p qrec-serve --test telemetry_stream
QREC_LOCK_ORDER_CHECK=1 cargo test --offline -q -p qrec-serve --test frontend_robustness

echo "==> bench --smoke"
./scripts/bench.sh --smoke >/dev/null
# Every smoke report, and every committed baseline, must be well-formed.
for name in tensor decode store quant serve obs; do
    for f in "target/BENCH_${name}_smoke.json" "BENCH_${name}.json"; do
        python3 -m json.tool "$f" >/dev/null \
            || { echo "$f is not well-formed JSON"; exit 1; }
    done
done

echo "==> paper reproduction harness (run_all, the four experiments that train nothing)"
# One process runs the named experiments over datasets generated once;
# each must write a well-formed results file (stale ones removed first).
cargo build --offline --release -q -p qrec-bench --bin run_all
results=target/qrec-cache/results
for name in table2 fig9 fig10 fig11; do rm -f "$results/$name.json"; done
target/release/run_all exp_table2 exp_fig9 exp_fig10 exp_fig11 >/dev/null
for name in table2 fig9 fig10 fig11; do
    python3 -m json.tool "$results/$name.json" >/dev/null \
        || { echo "$results/$name.json is missing or not well-formed JSON"; exit 1; }
done

echo "==> obs overhead gate (bench_obs, budget 0.03)"
cargo build --offline --release -q -p qrec-bench --bin bench_obs
# Exits non-zero when the geomean on/off overhead exceeds the budget.
./target/release/bench_obs --out target/BENCH_obs_smoke.json
python3 -m json.tool target/BENCH_obs_smoke.json >/dev/null \
    || { echo "BENCH_obs_smoke.json is not well-formed JSON"; exit 1; }

echo "CI green."
