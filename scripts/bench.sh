#!/usr/bin/env bash
# Reproducible GEMM + decode + durability + serving baselines (README
# "Performance", "Durability" and "Serving").
#
#   scripts/bench.sh              full run, writes BENCH_tensor.json,
#                                 BENCH_decode.json, BENCH_store.json,
#                                 BENCH_quant.json, BENCH_serve.json and
#                                 BENCH_obs.json at the repo root
#   scripts/bench.sh --smoke      tiny shapes, writes target/BENCH_*_smoke.json
#   QREC_THREADS=4 scripts/bench.sh   size the serving pool (bench pools stay 1 and 8)
#
# Everything builds offline against the vendored shims in shims/.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --offline --release -q -p qrec-bench \
    --bin bench_tensor --bin bench_decode --bin bench_store --bin bench_quant \
    --bin bench_serve --bin bench_obs
./target/release/bench_tensor "$@"
./target/release/bench_decode "$@"
./target/release/bench_store "$@"
./target/release/bench_quant "$@"
./target/release/bench_serve "$@"
./target/release/bench_obs "$@"

# The blocked GEMM kernel's narrow shapes (one full panel and an edge:
# the model's own widths) must stay within 1.5x of the small-product
# tile, in the report this run wrote and in the committed baseline — the
# right-edge panel once ran a scalar loop 7-14x slower, unnoticed. Rows
# of under 48 rows are reported but not held to it: there the one-off
# packing of B (0.2-0.5 us) is a visible share of a 1-4 us product, the
# ratio measures the packing rather than the tile, and `kernel::select`
# sends most of them to the small-product tile anyway.
python3 - "$@" <<'PYEOF'
import json, sys

smoke = "--smoke" in sys.argv[1:]
for path in (["target/BENCH_tensor_smoke.json"] if smoke else []) + ["BENCH_tensor.json"]:
    rows = [r for r in json.load(open(path))["shapes"]
            if r.get("narrow_shape") and r["n"] >= 48]
    if not rows:
        sys.exit(f"{path}: no narrow-shape rows (re-take it with bench_tensor)")
    for r in rows:
        ratio = r["blocked_s"] / r["small_tile_s"]
        if ratio > 1.5:
            sys.exit(f"{path}: {r['n']}x{r['k']}x{r['m']}: blocked kernel is "
                     f"{ratio:.2f}x the small-product tile (limit 1.5x)")
PYEOF

# The backward pass's two product forms at the shape a training example
# emits most (20 rows against d_model 48) must stay near the forward
# product of the same shape, in the baseline a full run writes and the
# repository commits: A.Bt within 2x (it pays one transpose of B into a
# per-thread scratch), At.B within 1.5x (it reads A as it lies). They read
# 16x and 3x when the small A.Bt ran one serial dot product per output
# element and the small At.B reloaded its output row on every k. (Smoke
# reps are too few to hold the smoke report to a ratio; its rows are
# schema-checked below.)
python3 - <<'PYEOF'
import json, sys

rows = {(r["form"], r["n"], r["k"], r["m"]): r
        for r in json.load(open("BENCH_tensor.json")).get("backward_shapes", [])}
for key, limit in ((("nt", 20, 48, 48), 2.0), (("tn", 48, 20, 48), 1.5)):
    row = rows.get(key)
    if row is None:
        sys.exit(f"BENCH_tensor.json: no backward_shapes row {key} (re-take it with bench_tensor)")
    if row["product_over_nn"] > limit:
        form, n, k, m = key
        sys.exit(f"BENCH_tensor.json: {form} at {n}x{k}x{m} is {row['product_over_nn']:.2f}x "
                 f"the nn product of the same shape (limit {limit}x)")
PYEOF

# The softmax row kernel (vector exp lanes, rows summed in lockstep) must
# stay clearly ahead of the per-row scalar loop it replaced at the rows a
# decode runs: a cross-attention's heads over a 20-token source (4x20) and
# the beam-5 vocabulary rows (5x130), within 0.7x of the loop in the
# baseline a full run writes and the repository commits. The loop's libm
# exp per value was the half of attention the per-row form spent.
python3 - <<'PYEOF'
import json, sys

rows = {(r["rows"], r["m"]): r
        for r in json.load(open("BENCH_tensor.json")).get("softmax_rows", [])}
for key in ((5, 130), (4, 20)):
    row = rows.get(key)
    if row is None:
        sys.exit(f"BENCH_tensor.json: no softmax_rows row {key} (re-take it with bench_tensor)")
    if row["kernel_over_scalar"] > 0.7:
        sys.exit(f"BENCH_tensor.json: softmax kernel at {key[0]}x{key[1]} is "
                 f"{row['kernel_over_scalar']:.2f}x the scalar loop (limit 0.7x)")
PYEOF

# A right edge must not cost more than the columns it holds: the beam-5
# vocabulary projection (5x48x130, an edge of two columns) within 1.2x of
# the same product rounded up to whole tiles (5x48x144), for f32 weights
# (BENCH_tensor.json, small_tile_s) and int8 ones (BENCH_quant.json) —
# one tile serves both. It read 1.65x when the edge tile zero-padded a
# segment and copied a variable length on every k step. And reading int8
# weights through that tile must stay near the f32 product at the served
# projection shape (5x48x48: within 1.35x; the integer product it
# replaced read 3.4-4x) and ahead of it where the weight no longer fits
# the near cache (5x160x4000). Checked in the baselines a full run writes
# and the repository commits. (Smoke reps are too few to hold the smoke
# report to a ratio; its rows are schema-checked below.)
python3 - <<'PYEOF'
import json, sys

EDGE_MAX = 1.2
shapes = {(r["n"], r["k"], r["m"]): r for r in json.load(open("BENCH_tensor.json"))["shapes"]}
rows = {r["shape"]: r for r in json.load(open("BENCH_quant.json")).get("kernel_rows", [])}
for name in ("5x48x48", "5x48x130", "5x48x144", "5x160x4000"):
    if name not in rows:
        sys.exit(f"BENCH_quant.json: no {name} kernel row (re-take it with bench_quant)")
edge, whole = shapes.get((5, 48, 130)), shapes.get((5, 48, 144))
if edge is None or whole is None:
    sys.exit("BENCH_tensor.json: no 5x48x130 / 5x48x144 pair (re-take it with bench_tensor)")
pairs = [("BENCH_tensor.json small tile", edge["small_tile_s"], whole["small_tile_s"])] + [
    (f"BENCH_quant.json {key}", rows["5x48x130"][key], rows["5x48x144"][key])
    for key in ("f32_gemm_ns", "qgemm_ns")]
for what, e, w in pairs:
    if e > EDGE_MAX * w:
        sys.exit(f"{what}: 5x48x130 takes {e / w:.2f}x the 5x48x144 product (limit {EDGE_MAX}x)")
ratio = rows["5x48x48"]["int8_over_f32"]
if ratio > 1.35:
    sys.exit(f"BENCH_quant.json: int8 qgemm at 5x48x48 is {ratio:.2f}x "
             f"the f32 gemm_into (limit 1.35x)")
ratio = rows["5x160x4000"]["int8_over_f32"]
if ratio >= 1.0:
    sys.exit(f"BENCH_quant.json: int8 qgemm at 5x160x4000 is {ratio:.2f}x "
             f"the f32 gemm_into (must be faster)")
PYEOF

# In smoke mode, validate the extended report schema: every row must
# carry the per-rep latency distribution (best/p50/p95/p99/reps)
# alongside the legacy best-of-N keys.
if [[ " $* " == *" --smoke "* || "${1:-}" == "--smoke" ]]; then
    python3 - <<'PYEOF'
import json, sys

PCT_KEYS = {"best_s", "p50_s", "p95_s", "p99_s", "reps"}

def check_pct(obj, where):
    missing = PCT_KEYS - set(obj)
    if missing:
        sys.exit(f"{where}: missing percentile keys {sorted(missing)}")
    if not all(obj[k] >= 0 for k in PCT_KEYS):
        sys.exit(f"{where}: negative timing values: {obj}")
    if not obj["p50_s"] <= obj["p95_s"] <= obj["p99_s"]:
        sys.exit(f"{where}: percentiles not monotone: {obj}")

tensor = json.load(open("target/BENCH_tensor_smoke.json"))
for row in tensor["shapes"]:
    pct = row.get("percentiles")
    if pct is None:
        sys.exit(f"tensor shape {row.get('shape')}: no 'percentiles' object")
    for case, obj in pct.items():
        check_pct(obj, f"tensor shape {row.get('shape')} case {case}")

if not tensor.get("backward_shapes"):
    sys.exit("tensor report: no 'backward_shapes' rows")
for row in tensor["backward_shapes"]:
    where = f"tensor backward shape {row.get('form')} {row.get('n')}x{row.get('k')}x{row.get('m')}"
    if row.get("form") not in ("nt", "tn"):
        sys.exit(f"{where}: form must be 'nt' or 'tn'")
    for case in ("product", "reference", "nn"):
        check_pct(row["percentiles"][case], f"{where} case {case}")
for key, cases in (("softmax_rows", ("scalar", "kernel")), ("attention_rows", ("per_row", "rows"))):
    if not tensor.get(key):
        sys.exit(f"tensor report: no {key!r} rows")
    for row in tensor[key]:
        for case in cases:
            check_pct(row["percentiles"][case], f"tensor {key} {row.get('rows', row.get('n'))}x{row['m']} case {case}")
train = tensor.get("train") or {}
if not train.get("epochs") or not all(
        e["seconds"] > 0 and e["tokens_per_sec"] > 0 for e in train["epochs"]):
    sys.exit(f"tensor report: malformed 'train' row: {train}")

decode = json.load(open("target/BENCH_decode_smoke.json"))
for row in decode["rows"]:
    for key in ("reference_percentiles", "incremental_percentiles"):
        obj = row.get(key)
        if obj is None:
            sys.exit(f"decode row {row.get('label')}: no {key!r} object")
        check_pct(obj, f"decode row {row.get('label')} {key}")

store = json.load(open("target/BENCH_store_smoke.json"))
STORE_APPEND_KEYS = {"policy", "p50_us", "p99_us", "appends_per_s"}
policies = set()
for row in store["append"]:
    missing = STORE_APPEND_KEYS - set(row)
    if missing:
        sys.exit(f"store append row {row.get('policy')}: missing keys {sorted(missing)}")
    if not 0 <= row["p50_us"] <= row["p99_us"]:
        sys.exit(f"store append row {row['policy']}: quantiles not monotone: {row}")
    policies.add(row["policy"])
if not {"always", "never"} <= policies:
    sys.exit(f"store append rows must cover the fsync policy range, got {sorted(policies)}")
for row in store["recovery"]:
    if row.get("recovery_ms", -1) < 0 or "records" not in row:
        sys.exit(f"store recovery row malformed: {row}")
    if row.get("recovered_records") != row["records"]:
        sys.exit(f"store recovery dropped records: {row}")

quant = json.load(open("target/BENCH_quant_smoke.json"))
QUANT_ROW_KEYS = {"speedup", "topk_agreement", "mem_ratio"}
if not quant["rows"]:
    sys.exit("quant report has no rows")
for row in quant["rows"]:
    missing = QUANT_ROW_KEYS - set(row)
    if missing:
        sys.exit(f"quant row {row.get('label')}: missing keys {sorted(missing)}")
    if not 0.0 <= row["topk_agreement"] <= 1.0:
        sys.exit(f"quant row {row['label']}: agreement out of range: {row['topk_agreement']}")
    if row["speedup"] <= 0 or row["mem_ratio"] <= 0:
        sys.exit(f"quant row {row['label']}: non-positive ratio: {row}")
    for key in ("f32_percentiles", "quant_percentiles"):
        obj = row.get(key)
        if obj is None:
            sys.exit(f"quant row {row.get('label')}: no {key!r} object")
        check_pct(obj, f"quant row {row.get('label')} {key}")
KERNEL_ROW_KEYS = {"shape", "f32_gemm_ns", "qgemm_ns", "int8_over_f32"}
if len(quant.get("kernel_rows", [])) < 10:
    sys.exit("quant report: fewer than 10 kernel rows")
for row in quant["kernel_rows"]:
    missing = KERNEL_ROW_KEYS - set(row)
    if missing:
        sys.exit(f"quant kernel row {row.get('shape')}: missing keys {sorted(missing)}")
    if not all(row[k] > 0 for k in KERNEL_ROW_KEYS - {"shape"}):
        sys.exit(f"quant kernel row {row['shape']}: non-positive timing: {row}")

SERVE_ROW_KEYS = {"mode", "conns", "throughput_rps",
                  "p50_us", "p95_us", "p99_us", "server_threads",
                  "sent", "received", "errors"}

def check_serve(path, closed_conns):
    """Closed-loop rows at exactly `closed_conns`, plus one open-loop row."""
    serve = json.load(open(path))
    for row in serve["rows"]:
        where = f"{path} row {row.get('mode')}/{row.get('conns')}"
        missing = SERVE_ROW_KEYS - set(row)
        if missing:
            sys.exit(f"{where}: missing keys {sorted(missing)}")
        if not 0 <= row["p50_us"] <= row["p95_us"] <= row["p99_us"]:
            sys.exit(f"{where}: quantiles not monotone: {row}")
        if row["mode"] == "closed" and row["received"] == 0:
            sys.exit(f"{where}: no responses")
    closed = sorted(r["conns"] for r in serve["rows"] if r["mode"] == "closed")
    opened = [r for r in serve["rows"] if r["mode"] == "open"]
    if closed != closed_conns or len(opened) != 1:
        sys.exit(f"{path}: want closed rows at {closed_conns} and one open row, "
                 f"got closed {closed} and {len(opened)} open")
    idle = serve["idle"]
    if idle["held"] < idle["conns"]:
        sys.exit(f"{path}: idle herd dropped connections: {idle}")
    if idle["server_threads_held"] > idle["server_threads_before"] + 2:
        sys.exit(f"{path}: idle herd grew the thread count: {idle}")
    if not serve["slow_client"]["disconnected"]:
        sys.exit(f"{path}: slow client was not disconnected: {serve['slow_client']}")
    return serve

serve = check_serve("target/BENCH_serve_smoke.json", [4])
# The committed baseline is a full run: the connection-scaling ladder.
check_serve("BENCH_serve.json", [16, 64, 256, 1024])

obs = json.load(open("target/BENCH_obs_smoke.json"))
OBS_TOP_KEYS = {"scenarios", "geomean_ratio", "overhead", "pass", "micro", "threshold"}
missing = OBS_TOP_KEYS - set(obs)
if missing:
    sys.exit(f"obs report: missing keys {sorted(missing)}")
if not obs["scenarios"]:
    sys.exit("obs report has no scenarios")
OBS_SCENARIO_KEYS = {"label", "median_ratio", "round_ratios",
                     "last_round_fast_half_mean_on_s",
                     "last_round_fast_half_mean_off_s"}
for row in obs["scenarios"]:
    missing = OBS_SCENARIO_KEYS - set(row)
    if missing:
        sys.exit(f"obs scenario {row.get('label')}: missing keys {sorted(missing)}")
    if not row["round_ratios"]:
        sys.exit(f"obs scenario {row['label']}: no round ratios")
    if row["median_ratio"] <= 0:
        sys.exit(f"obs scenario {row['label']}: non-positive median ratio: {row}")
for name in ("window_record", "sketch_update"):
    m = obs["micro"].get(name)
    if m is None:
        sys.exit(f"obs micro section missing {name!r}")
    if m.get("best_ns_per_op", -1) <= 0 or m.get("p50_ns_per_op", -1) <= 0:
        sys.exit(f"obs micro {name}: non-positive ns/op: {m}")
    pct_obj = m.get("percentiles")
    if pct_obj is None:
        sys.exit(f"obs micro {name}: no 'percentiles' object")
    check_pct(pct_obj, f"obs micro {name}")
if not obs["pass"]:
    sys.exit(f"obs overhead gate failed: overhead {obs['overhead']:.4f} "
             f"> threshold {obs['threshold']:.4f}")

print("bench.sh: extended schema OK "
      f"({len(tensor['shapes'])} tensor shapes, {len(decode['rows'])} decode rows, "
      f"{len(store['append'])}+{len(store['recovery'])} store rows, "
      f"{len(quant['rows'])} quant rows, {len(serve['rows'])} serve rows, "
      f"{len(obs['scenarios'])} obs scenarios)")
PYEOF
fi
