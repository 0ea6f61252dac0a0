#!/usr/bin/env bash
# Offline smoke check of the benchmark: builds it, runs its unit tests,
# runs every workload on shrunken inputs (about a second each, untraced
# and traced), and checks that each run succeeds and prints exactly the
# metrics BENCHMARK.json lists. Run from anywhere inside the checkout:
#
#   benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
manifest=benchmark/Cargo.toml

echo "== build =="
cargo build --release --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/mtk-perfbench"

echo "== unit tests =="
cargo test --manifest-path "$manifest"

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for w in $workloads; do
  for trace in 0 1; do
    echo "== smoke: $w --trace $trace =="
    out="$("$bin" --workload "$w" --seed 1 --smoke --trace "$trace")" || {
      echo "$out"
      echo "check: $w --trace $trace failed"
      exit 1
    }
    tail -n 1 <<<"$out" | python3 -c '
import json, sys
trace = sys.argv[1] == "1"
want = [m["name"] for m in json.load(open("BENCHMARK.json"))["per_layer" if trace else "end_to_end"]]
line = json.loads(sys.stdin.read())
assert sorted(line) == ["attempted", "correct", "failed", "metrics"], sorted(line)
got = list(line["metrics"])
assert got == want, f"metrics differ: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
print("ok:", len(got), "metrics,", line["attempted"], "operations")
' "$trace"
  done
done

test ! -e .bench_tmp || { echo "check: .bench_tmp was left behind"; exit 1; }
echo "check: all green"
