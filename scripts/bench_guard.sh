#!/usr/bin/env bash
# Guard the committed benchmark baseline: take a fresh snapshot and compare
# it against BENCH_pcu.json, failing if any shared bench regressed beyond
# the tolerance. Machine-to-machine noise makes absolute comparisons on a
# different box meaningless — run this on the same machine that produced
# the committed baseline (or use it for before/after checks on one box).
#
# Usage: scripts/bench_guard.sh [--tolerance PCT] [--smoke] [--baseline F]
#
#   --tolerance PCT  allowed slowdown in percent before failing (default 50;
#                    generous because the simulated world runs on whatever
#                    cores the host has)
#   --smoke          skip the full snapshot; run only a 64-rank small-payload
#                    pcu_weak_scaling pass and check that it completes and
#                    emits sane medians. This is the CI mode: it proves the
#                    runtime sustains a 64-rank world and that the report
#                    plumbing works, without timing-sensitive assertions.
#   --baseline F     compare against F instead of BENCH_pcu.json
set -euo pipefail

cd "$(dirname "$0")/.."

tolerance=50
smoke=0
baseline="BENCH_pcu.json"
while [ $# -gt 0 ]; do
    case "$1" in
        --tolerance) tolerance="$2"; shift 2 ;;
        --smoke) smoke=1; shift ;;
        --baseline) baseline="$2"; shift 2 ;;
        *) echo "unknown flag $1" >&2; exit 2 ;;
    esac
done

export PUMI_RESULTS_DIR="$PWD/results"

if [ "$smoke" = 1 ]; then
    # CI smoke: one 64-rank, small-payload weak-scaling pass. Asserts the
    # world completes and every emitted median is a positive integer; no
    # wall-clock thresholds (shared runners make those flaky).
    cargo run --release -p pumi-bench --bin pcu_weak_scaling --locked -- \
        --max-ranks 64 --bytes-per-rank 512 --reps 2 --rounds 2
    python3 - "$PUMI_RESULTS_DIR/pcu_weak_scaling.json" <<'EOF'
import json, sys

rows = json.load(open(sys.argv[1])).get("medians", [])
want = {"pcu_weak_scaling/ring/32", "pcu_weak_scaling/a2a/32",
        "pcu_weak_scaling/ring/64", "pcu_weak_scaling/a2a/64"}
got = {r["bench"] for r in rows}
missing = want - got
if missing:
    sys.exit(f"smoke: missing medians: {sorted(missing)}")
bad = [r for r in rows if not (isinstance(r["median_ns"], int) and r["median_ns"] > 0)]
if bad:
    sys.exit(f"smoke: non-positive medians: {bad}")
print(f"smoke ok: {len(rows)} medians, 64-rank world sustained")
EOF
    # Checkpoint-service smoke: a tiny mesh through every leg — base and
    # delta writes, compression win, and 8 clients through the shared chunk
    # cache (the bin asserts disk < raw section bytes and that the slices
    # tile the mesh).
    cargo run --release -p pumi-bench --bin checkpoint_service --locked -- \
        --nx 40 --reps 2 --clients 8
    python3 - "$PUMI_RESULTS_DIR/io_checkpoint.json" <<'EOF'
import json, sys

rows = json.load(open(sys.argv[1])).get("medians", [])
want = {"io_checkpoint/write_v2@smoke", "io_checkpoint/delta@smoke",
        "io_checkpoint/serve8@smoke"}
got = {r["bench"] for r in rows}
missing = want - got
if missing:
    sys.exit(f"smoke: missing medians: {sorted(missing)}")
bad = [r for r in rows if not (isinstance(r["median_ns"], int) and r["median_ns"] > 0)]
if bad:
    sys.exit(f"smoke: non-positive medians: {bad}")
print(f"smoke ok: checkpoint service legs present and positive")
EOF
    # Adaptive-loop smoke: a small predict → balance → adapt run with both
    # the topology-blind and hierarchy-aware legs on a 2-node machine
    # model (4 ranks so the model is non-flat). The bin itself asserts
    # ParMA never worsens the predicted imbalance; here we assert the
    # calibrated-trajectory and off-node traffic rows land in the report.
    cargo run --release -p pumi-bench --bin adaptive_loop --locked -- \
        --n 16 --parts 8 --ranks 4 --rounds 3 --topo
    python3 - "$PUMI_RESULTS_DIR/adaptive_loop.json" <<'EOF'
import json, sys

rows = json.load(open(sys.argv[1])).get("medians", [])
want = {"adaptive_loop/final_imbalance_bp@smoke",
        "adaptive_loop/pred_err_last_bp@smoke",
        "adaptive_loop/elements_moved@smoke",
        "adaptive_loop/offnode_bytes@smoke",
        "adaptive_loop/offnode_bytes_blind@smoke"}
got = {r["bench"] for r in rows}
missing = want - got
if missing:
    sys.exit(f"smoke: missing medians: {sorted(missing)}")
bad = [r for r in rows if not (isinstance(r["median_ns"], int) and r["median_ns"] > 0)]
if bad:
    sys.exit(f"smoke: non-positive medians: {bad}")
print(f"smoke ok: adaptive loop trajectory + off-node traffic rows present and positive")
EOF
    exit 0
fi

fresh="$(mktemp --suffix=.json)"
trap 'rm -f "$fresh"' EXIT
scripts/bench_snapshot.sh "$fresh"

python3 - "$baseline" "$fresh" "$tolerance" <<'EOF'
import json, sys

base_p, fresh_p, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
base = json.load(open(base_p))["benches"]
fresh = json.load(open(fresh_p))["benches"]
shared = sorted(base.keys() & fresh.keys())
if not shared:
    sys.exit("no shared benches between baseline and fresh snapshot")

failed = []
for k in shared:
    b, f = base[k]["median_ns"], fresh[k]["median_ns"]
    ratio = f / b if b else float("inf")
    marker = ""
    if ratio > 1 + tol / 100:
        marker = "  <-- REGRESSED"
        failed.append(k)
    print(f"{k}: {b} -> {f} ns ({ratio:.2f}x){marker}")

only_base = sorted(base.keys() - fresh.keys())
if only_base:
    print(f"note: {len(only_base)} baseline benches not in fresh snapshot: {only_base}")

if failed:
    sys.exit(f"{len(failed)}/{len(shared)} benches regressed beyond +{tol:.0f}%: {failed}")
print(f"ok: {len(shared)} benches within +{tol:.0f}% of {base_p}")
EOF
