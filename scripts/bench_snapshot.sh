#!/usr/bin/env bash
# Snapshot the PCU hot-path benchmarks into a machine-readable baseline.
#
# Runs the `pcu_exchange` criterion bench with
# CRITERION_JSON pointing at a scratch file, plus the `checkpoint_restart`,
# `checkpoint_service`, `halo_exchange`, `weak_scaling`,
# `pcu_weak_scaling`, and `adaptive_loop` experiment binaries (whose
# reports land under results/), then folds every median into
# BENCH_pcu.json at the repository root:
#
#   { "schema": 1, "unix_time": ..., "benches": { "<group>/<id>": {"median_ns": N, "samples": S}, ... } }
#
# Usage: scripts/bench_snapshot.sh [output.json]
# Compare two snapshots with e.g.
#   python3 - old.json new.json <<'EOF'
#   import json, sys
#   a, b = (json.load(open(p))["benches"] for p in sys.argv[1:3])
#   for k in sorted(a.keys() & b.keys()):
#       print(f"{k}: {a[k]['median_ns'] / b[k]['median_ns']:.2f}x")
#   EOF
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_pcu.json}"
scratch="$(mktemp)"
trap 'rm -f "$scratch"' EXIT

export CRITERION_JSON="$scratch"
export PUMI_RESULTS_DIR="$PWD/results"
cargo bench -p pumi-bench --bench pcu_exchange
cargo run --release -p pumi-bench --bin checkpoint_restart
# --large adds the 10^7-element pass (~10 extra minutes): the scale the
# streaming v2 writer exists for, and the rows EXPERIMENTS.md quotes.
cargo run --release -p pumi-bench --bin checkpoint_service -- --large
cargo run --release -p pumi-bench --bin halo_exchange
cargo run --release -p pumi-bench --bin weak_scaling
cargo run --release -p pumi-bench --bin pcu_weak_scaling
cargo run --release -p pumi-bench --bin adaptive_loop

python3 - "$scratch" "$out" \
    "$PUMI_RESULTS_DIR/io_restart.json" \
    "$PUMI_RESULTS_DIR/io_checkpoint.json" \
    "$PUMI_RESULTS_DIR/halo_exchange.json" \
    "$PUMI_RESULTS_DIR/weak_scaling.json" \
    "$PUMI_RESULTS_DIR/pcu_weak_scaling.json" \
    "$PUMI_RESULTS_DIR/adaptive_loop.json" <<'EOF'
import json, sys, time

lines, out, reports = sys.argv[1], sys.argv[2], sys.argv[3:]
benches = {}
with open(lines) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        benches[row["bench"]] = {
            "median_ns": row["median_ns"],
            "samples": row["samples"],
        }
# The experiment binaries emit the same row shape under "medians".
for report in reports:
    try:
        with open(report) as f:
            for row in json.load(f).get("medians", []):
                benches[row["bench"]] = {
                    "median_ns": row["median_ns"],
                    "samples": row["samples"],
                }
    except (OSError, json.JSONDecodeError) as e:
        print(f"warning: skipping medians from {report}: {e}", file=sys.stderr)
if not benches:
    sys.exit("no bench lines collected — did the benches run?")
snapshot = {
    "schema": 1,
    "unix_time": int(time.time()),
    "benches": dict(sorted(benches.items())),
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out} ({len(benches)} benches)")
EOF
