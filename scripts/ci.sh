#!/usr/bin/env bash
# Tier-1 verification, run with zero network access. Fails on any test
# failure, on a workspace build failure, and on any clippy warning
# anywhere in the workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== formatting =="
cargo fmt --check

echo "== tier 1: release build =="
cargo build --release

echo "== test suite: every crate in the workspace =="
cargo test -q --workspace

echo "== fault-tolerance contract (quarantine/panic isolation) =="
cargo test -q --test fault_injection

echo "== trace determinism & golden schema contract =="
cargo test -q --test trace_determinism

echo "== mc determinism contract (thread invariance + warm store) =="
cargo test -q --test mc_determinism

echo "== numeric edge cases stay hard errors in the release profile =="
# `next_f64_in` once guarded its interval with debug_assert!, so the
# release build silently extrapolated on reversed bounds. Pin the
# release-profile behaviour of the hardened PRNG module.
cargo test -q --release -p mtk-num prng

echo "== whole workspace must be clippy-clean =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs must build warning-free =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== experiment harness (release) =="
cargo build --release -p mtk-bench

echo "== mtk cluster smoke: thread invariance, never-worse gate, warm replay =="
clu_store="$(mktemp /tmp/ci_clu_store.XXXXXX.bin)"
clu_a="$(mktemp /tmp/ci_clu_a.XXXXXX.json)"
clu_b="$(mktemp /tmp/ci_clu_b.XXXXXX.json)"
trap 'rm -rf "$clu_store" "$clu_store.lock" "$clu_a" "$clu_b"' EXIT
# Deterministic cluster traces must be byte-identical at any thread count.
cargo run --release -p mtk-bench --bin mtk -- cluster examples/mul16.mtk \
  --smoke --clusters 4 --threads 1 --trace-deterministic --trace-json "$clu_a" >/dev/null
for t in 2 8; do
  target/release/mtk cluster examples/mul16.mtk \
    --smoke --clusters 4 --threads "$t" --trace-deterministic --trace-json "$clu_b" >/dev/null
  cmp "$clu_a" "$clu_b" || { echo "ci: cluster trace differs at threads=$t"; exit 1; }
done
cargo run --release -p mtk-bench --bin trace_check -- "$clu_a"
# EXT-CLUSTER width gate on the 16x16 multiplier: the returned solution
# must use no more total sleep width than the single shared device (the
# never-worse rule, DESIGN.md §15.3).
clu_cold="$(target/release/mtk cluster examples/mul16.mtk \
  --smoke --clusters 4 --threads 2 --store "$clu_store")"
clu_summary="$(grep 'single-device W/L' <<<"$clu_cold")" || {
  echo "ci: cluster smoke printed no never-worse summary: $clu_cold"; exit 1; }
clu_total="$(sed -n 's/^clustered total W\/L = \([0-9.]*\).*/\1/p' <<<"$clu_summary")"
clu_single="$(sed -n 's/.*single-device W\/L = \([0-9.]*\).*/\1/p' <<<"$clu_summary")"
[ -n "$clu_single" ] || { echo "ci: single-device solution infeasible in cluster smoke"; exit 1; }
if grep -q 'returned the single-device solution' <<<"$clu_summary"; then
  clu_returned="$clu_single"
else
  clu_returned="$clu_total"
fi
awk -v r="$clu_returned" -v s="$clu_single" 'BEGIN { exit !(r <= s + 1e-9) }' || {
  echo "ci: never-worse rule violated — returned $clu_returned vs single $clu_single"
  exit 1
}
# The warm rerun must replay every evaluation from the store.
clu_warm="$(target/release/mtk cluster examples/mul16.mtk \
  --smoke --clusters 4 --threads 8 --store "$clu_store")"
grep -q ", 0 simulated" <<<"$clu_warm" || {
  echo "ci: warm cluster rerun did simulator work: $clu_warm"
  exit 1
}

echo "== paper reproduction: every experiment runs and its claims hold =="
# Runs every experiment of the mtk_bench::repro ledger and prints its
# tables and a check table; exits 1 when any claim leaves its committed
# band (a check marked as a known defect must keep missing).
target/release/mtk repro --all

echo "== bench smoke: kernel speed file regenerates, validates, and gates =="
# Regenerates BENCH_speed.json (schema-validated by the writer itself),
# then fails on any regression beyond the tolerance vs the committed
# baseline or an event-vs-dense speedup below the gate floor. Timings on
# loaded or slow hosts are noisy — skip with MTK_SKIP_BENCH=1.
if [[ "${MTK_SKIP_BENCH:-0}" == "1" ]]; then
  echo "bench smoke skipped (MTK_SKIP_BENCH=1)"
else
  bench_json="$(mktemp /tmp/ci_bench.XXXXXX.json)"
  trap 'rm -rf "$clu_store" "$clu_store.lock" "$clu_a" "$clu_b" "$bench_json"' EXIT
  cargo run --release -p mtk-bench --bin speed_comparison -- \
    --samples 3 --warmup 1 \
    --json "$bench_json" --check-against BENCH_speed.json
fi

echo "== benchmark smoke: builds, unit tests, every workload's gates =="
benchmark/check.sh

echo "ci: all green"
