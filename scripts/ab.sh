#!/usr/bin/env bash
# A/B benchmark of two revisions under the measurement rule.
#
#   scripts/ab.sh <parent-rev> [<change-rev>]      (change-rev: HEAD)
#
# Each revision is exported once (`git archive`) into a temporary
# directory and its bench_e2e is built there once. Then, per seed, PAIRS
# alternating pairs run the unmodified BENCHMARK.json command with
# `--workload`, `--seed` and an `--out` of their own (parent first in odd
# pairs, change first in even ones). Host steal is read from /proc/stat
# around every run. A pair with a run above STEAL_MAX is discarded and
# re-run as a whole; every discarded pair is printed. Each kept run's
# record goes to <out>/<side>-<workload>-seed<seed>.jsonl, and each
# workload and seed ends with a summary (quartiles, pair wins, the gain
# rule) and `bench_e2e compare parent change`.
#
# Environment (fixed before the batch, printed at its start):
#   WORKLOAD   bench workloads, space-separated  (default durable_churn)
#   SEEDS      seeds, space-separated            (default "1 11")
#   PAIRS      kept pairs per seed               (default 10)
#   STEAL_MAX  highest steal share a kept run may read (default 0.05)
#   DISCARDS   discarded pairs after which a seed gives up (default 10)
#   METRIC     end-to-end metric tabulated per pair (default cpu_ms_per_req)
#   AB_OUT     where the records go              (default: a new temp dir)
#
# The checkout it runs from is never written to: the revisions are
# exports, not worktrees, so the repository's worktree list, its working
# tree and bench_e2e/ (Cargo.lock included) are left byte-identical —
# checked at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

[[ $# -ge 1 && $# -le 2 ]] || { echo "usage: scripts/ab.sh <parent-rev> [<change-rev>]" >&2; exit 2; }
parent_rev=$(git rev-parse --verify "$1^{commit}")
change_rev=$(git rev-parse --verify "${2:-HEAD}^{commit}")

WORKLOAD=${WORKLOAD:-durable_churn}
SEEDS=${SEEDS:-1 11}
PAIRS=${PAIRS:-10}
STEAL_MAX=${STEAL_MAX:-0.05}
DISCARDS=${DISCARDS:-10}
METRIC=${METRIC:-cpu_ms_per_req}

work=$(mktemp -d "${TMPDIR:-/tmp}/qrec-ab.XXXXXX")
out=${AB_OUT:-$work/out}
mkdir -p "$out"
# The exports and their builds go however the batch ends; records stay.
trap 'rm -rf "$work/parent" "$work/change" "$work"/*-run.jsonl "$work"/*-pending.jsonl' EXIT

# The checkout's state, to prove it untouched at the end.
fingerprint() {
    { git status --porcelain=v1 --untracked-files=all -- . ':!bench_e2e/out' ':!bench_e2e/target'
      git ls-files -s bench_e2e
      find bench_e2e -path bench_e2e/target -prune -o -path bench_e2e/out -prune -o -type f -print0 \
          | sort -z | xargs -0 sha256sum
      git worktree list --porcelain; } | sha256sum
}
before=$(fingerprint)

# The command BENCHMARK.json declares, as a bash array.
mapfile -t bench_cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')

echo "ab: parent $parent_rev"
echo "ab: change $change_rev"
echo "ab: WORKLOAD=$WORKLOAD SEEDS=\"$SEEDS\" PAIRS=$PAIRS STEAL_MAX=$STEAL_MAX DISCARDS=$DISCARDS METRIC=$METRIC"
echo "ab: records in $out"

for side in parent change; do
    rev_var="${side}_rev"
    mkdir -p "$work/$side"
    git archive "${!rev_var}" | tar -x -C "$work/$side"
    echo "ab: building $side"
    (cd "$work/$side" && cargo build --offline --release --quiet --manifest-path bench_e2e/Cargo.toml)
done

# `cpu user nice system idle iowait irq softirq steal ...`: steal is the
# eighth counter; the share is over the first eight.
cpu_counters() { awk '/^cpu /{print $2+$3+$4+$5+$6+$7+$8+$9, $9; exit}' /proc/stat; }

# run_side <side> <workload> <seed> <record-file>: one run; prints its
# steal share.
run_side() {
    local side=$1 workload=$2 seed=$3 record=$4 t0 s0 t1 s1
    read -r t0 s0 < <(cpu_counters)
    (cd "$work/$side" && "${bench_cmd[@]}" --workload "$workload" --seed "$seed" --out "$record" >/dev/null) \
        || { echo "ab: $side run of $workload at seed $seed failed (record: $record)" >&2; exit 1; }
    read -r t1 s1 < <(cpu_counters)
    python3 -c "print(f'{($s1 - $s0) / max(1, $t1 - $t0):.4f}')"
}

# metric_of <record-file>: METRIC of the run in the record.
metric_of() {
    python3 -c 'import json,sys; print(json.loads(open(sys.argv[1]).read().splitlines()[-1])["metrics"][sys.argv[2]]["value"])' "$1" "$METRIC"
}

# summarize <parent.jsonl> <change.jsonl>: per workload and end-to-end
# metric, each side's median and quartiles over its runs, the change's
# pair wins (ties count for neither), and whether the gain rule holds:
# wins in at least nine tenths of the pairs and medians further apart
# than the parent's interquartile distance.
summarize() {
    python3 - "$1" "$2" <<'PY'
import json, statistics, sys
spec = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
def runs(path):
    by = {}
    for line in open(path):
        r = json.loads(line)
        by.setdefault(r["workload"], []).append(r["metrics"])
    return by
def quart(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], statistics.median(xs), q[2]
parent, change = runs(sys.argv[1]), runs(sys.argv[2])
print(f"{'workload':<20} {'metric':<18} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} {'c/p':>7} {'wins':>6}  gain rule")
for w in parent:
    for m, better in spec.items():
        ps = [r[m]["value"] for r in parent[w]]
        cs = [r[m]["value"] for r in change.get(w, [])]
        if not cs:
            continue
        sign = 1 if better == "higher" else -1
        wins = sum(1 for p, c in zip(ps, cs) if sign * (c - p) > 0)
        (p1, pm, p3), (c1, cm, c3) = quart(ps), quart(cs)
        holds = wins * 10 >= 9 * len(cs) and sign * (cm - pm) > (p3 - p1)
        print(f"{w:<20} {m:<18} {p1:>9.4f}/{pm:>8.4f}/{p3:>8.4f} {c1:>9.4f}/{cm:>8.4f}/{c3:>8.4f} "
              f"{cm / pm if pm else float('nan'):>7.3f} {wins:>3}/{len(cs):<2}  {'holds' if holds else '-'}")
PY
}

for seed in $SEEDS; do
for workload in $WORKLOAD; do
    records=("$out/parent-$workload-seed$seed.jsonl" "$out/change-$workload-seed$seed.jsonl")
    : > "${records[0]}"
    : > "${records[1]}"
    printf '%-20s %-5s %-6s %-7s %-9s %-9s %-12s %-12s\n' workload seed pair first steal_p steal_c "p.$METRIC" "c.$METRIC"
    kept=0 discarded=0 attempt=0
    while (( kept < PAIRS )); do
        attempt=$((attempt + 1))
        pair=$((kept + 1))
        if (( pair % 2 == 1 )); then order=(parent change); else order=(change parent); fi
        declare -A steal=()
        for side in "${order[@]}"; do
            steal[$side]=$(run_side "$side" "$workload" "$seed" "$work/$side-run.jsonl")
            mv "$work/$side-run.jsonl" "$work/$side-pending.jsonl"
        done
        vp=$(metric_of "$work/parent-pending.jsonl")
        vc=$(metric_of "$work/change-pending.jsonl")
        over=$(python3 -c "print(int(max(${steal[parent]}, ${steal[change]}) > $STEAL_MAX))")
        if (( over )); then
            discarded=$((discarded + 1))
            printf 'DISCARDED %s seed %s pair %s (attempt %s): steal parent %s change %s > %s; %s %s / %s\n' \
                "$workload" "$seed" "$pair" "$attempt" "${steal[parent]}" "${steal[change]}" "$STEAL_MAX" "$METRIC" "$vp" "$vc"
            rm -f "$work/parent-pending.jsonl" "$work/change-pending.jsonl"
            if (( discarded >= DISCARDS )); then
                echo "ab: $workload seed $seed: $discarded pairs discarded for steal; the batch is not taken" >&2
                exit 3
            fi
            continue
        fi
        cat "$work/parent-pending.jsonl" >> "${records[0]}"
        cat "$work/change-pending.jsonl" >> "${records[1]}"
        rm -f "$work/parent-pending.jsonl" "$work/change-pending.jsonl"
        kept=$pair
        printf '%-20s %-5s %-6s %-7s %-9s %-9s %-12.5f %-12.5f\n' "$workload" "$seed" "$pair" "${order[0]}" \
            "${steal[parent]}" "${steal[change]}" "$vp" "$vc"
    done
    echo "ab: $workload seed $seed: $kept pairs kept, $discarded discarded"
    summarize "${records[@]}"
    (cd "$work/change" && "${bench_cmd[@]}" compare "${records[@]}") \
        || echo "ab: $workload seed $seed: compare reports a metric beyond its bound"
done
done

after=$(fingerprint)
if [[ "$before" != "$after" ]]; then
    echo "ab: the checkout changed during the batch" >&2
    exit 1
fi
echo "ab: done; records in $out"
