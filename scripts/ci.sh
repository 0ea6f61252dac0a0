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
# The root package is a workspace member, so this also runs its
# contract tests (fault_injection, trace_determinism, mc_determinism).
cargo test -q --workspace

echo "== numeric edge cases stay hard errors in the release profile =="
# `next_f64_in` once guarded its interval with debug_assert!, so the
# release build silently extrapolated on reversed bounds. Pin the
# release-profile behaviour of the hardened PRNG module.
cargo test -q --release -p mtk-num prng

echo "== whole workspace must be clippy-clean =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs must build warning-free =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== root examples run to completion (release) =="
# `cargo test` builds the examples but never runs them, so an example
# that panics would pass every step above. Each finishes in well under
# a second in release.
for example in quickstart size_a_multiplier sleep_mode_leakage spice_vs_switch; do
  cargo run -q --release --example "$example" > /dev/null
done

echo "== experiment harness (release) =="
cargo build --release -p mtk-bench

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
  trap 'rm -f "$bench_json"' EXIT
  cargo run --release -p mtk-bench --bin speed_comparison -- \
    --samples 3 --warmup 1 \
    --json "$bench_json" --check-against BENCH_speed.json
fi

echo "== benchmark smoke: builds, unit tests, every workload's gates =="
benchmark/check.sh

echo "ci: all green"
