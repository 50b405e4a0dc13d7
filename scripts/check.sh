#!/usr/bin/env bash
# Full offline gate for the workspace: release build, tests, and docs.
# Everything here runs without network access — the workspace has no
# external dependencies (see DESIGN.md, "Dependency policy").
set -euo pipefail
cd "$(dirname "$0")/.."

# Gates skipped via SKIP_*_GATE env vars are collected here and echoed in
# a summary line at the end of the run, so a green exit can never silently
# hide a skipped gate.
skipped_gates=()

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q --no-fail-fast (warnings are errors) =="
# --no-fail-fast runs every test binary even after one fails, so a red run
# lists every failing binary rather than only the first.
RUSTFLAGS="-D warnings" cargo test -q --no-fail-fast

echo "== cargo doc --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "== smoke sweep (experiments --thm1 --jobs 2) + artifact validation =="
# A tiny parallel sweep in a scratch dir (so the committed BENCH_*.json
# artifacts, which cover the full grids, are not clobbered), then
# schema-check the emitted JSON with the in-tree validator.
smoke_dir="target/smoke-sweep"
rm -rf "$smoke_dir" && mkdir -p "$smoke_dir"
(cd "$smoke_dir" && ../../target/release/experiments --thm1 --jobs 2 > /dev/null)
target/release/experiments --validate "$smoke_dir/BENCH_sweeps.json"

echo "== perf smoke (experiments --perf --smoke) + throughput gate =="
# A shrunk throughput sweep through the same JSONL artifact path, schema-
# checked, then compared against the committed BENCH_perf.json: the gate
# fails if any workload kind's steps/sec fell below 70% of the committed
# baseline. Set SKIP_PERF_GATE=1 to skip the regression comparison (e.g.
# on heavily-loaded or throttled machines where wall-clock is unreliable);
# the smoke run and schema validation still execute.
if [[ -n "${SKIP_PERF_GATE:-}" ]]; then
  skipped_gates+=(SKIP_PERF_GATE)
  (cd "$smoke_dir" && ../../target/release/experiments --perf --smoke > /dev/null)
else
  (cd "$smoke_dir" && ../../target/release/experiments --perf --smoke \
      --perf-baseline ../../BENCH_perf.json > /dev/null)
fi
target/release/experiments --validate "$smoke_dir/BENCH_perf.json"

echo "== explore smoke (experiments --explore --smoke --jobs 4) + steps/sec gate =="
# The exhaustive-exploration grid at CI scale: every smoke workload is
# fully verified in all four explorer modes (serial, parallel, reduced,
# reduced-parallel), the rows are schema-checked, and each mode's steps/sec
# is compared against the committed BENCH_explore.json: the gate fails if
# any explorer kind fell below 70% of the committed baseline, or if any
# reduced row failed verification. Set SKIP_EXPLORE_GATE=1 to skip the
# regression comparison (e.g. on heavily-loaded or throttled machines);
# the smoke run, verification, and schema validation still execute.
if [[ -n "${SKIP_EXPLORE_GATE:-}" ]]; then
  skipped_gates+=(SKIP_EXPLORE_GATE)
  (cd "$smoke_dir" && ../../target/release/experiments --explore --smoke --jobs 4 > /dev/null)
else
  (cd "$smoke_dir" && ../../target/release/experiments --explore --smoke --jobs 4 \
      --explore-baseline ../../BENCH_explore.json > /dev/null)
fi
target/release/experiments --validate "$smoke_dir/BENCH_explore.json"
target/release/experiments --validate "$smoke_dir/BENCH_explore.timing.json"

echo "== fuzz smoke (experiments --fuzz --smoke --jobs 2) + artifact validation =="
# The adversarial schedule fuzzer over every algorithm family: exits
# nonzero on an oracle violation at legal Q (a real bug) or on a missing
# violation where Theorem 3 predicts impossibility. Counterexample
# artifacts land in a scratch dir so the committed corpus under
# tests/golden/fuzz/ is not clobbered. Set SKIP_FUZZ_GATE=1 to skip.
if [[ -n "${SKIP_FUZZ_GATE:-}" ]]; then
  skipped_gates+=(SKIP_FUZZ_GATE)
  echo "   skipped (SKIP_FUZZ_GATE set)"
else
  (cd "$smoke_dir" && ../../target/release/experiments --fuzz --smoke --jobs 2 \
      --fuzz-dir fuzz-artifacts > /dev/null)
  target/release/experiments --validate "$smoke_dir/BENCH_fuzz.json"
  target/release/experiments --validate "$smoke_dir/BENCH_fuzz.timing.json"
fi

echo "== profile smoke (experiments --profile --smoke --jobs 2) + artifact validation =="
# The schedule profiler over every algorithm family, parallel, plus
# offline profiling of both committed fuzz counterexamples (which also
# exercises the Perfetto exporter byte-pinned by tests/tests/
# perfetto_golden.rs). Artifacts land in the scratch dir so the committed
# BENCH_profile.json is not clobbered. Set SKIP_PROFILE_GATE=1 to skip.
if [[ -n "${SKIP_PROFILE_GATE:-}" ]]; then
  skipped_gates+=(SKIP_PROFILE_GATE)
  echo "   skipped (SKIP_PROFILE_GATE set)"
else
  (cd "$smoke_dir" && ../../target/release/experiments --profile --smoke --jobs 2 > /dev/null)
  target/release/experiments --validate "$smoke_dir/BENCH_profile.json"
  target/release/experiments --validate "$smoke_dir/BENCH_profile.timing.json"
  (cd "$smoke_dir" && ../../target/release/experiments \
      --profile-trace ../../tests/golden/fuzz/fuzz_fig3_q1_storm_s5.trace > /dev/null)
  (cd "$smoke_dir" && ../../target/release/experiments \
      --profile-trace ../../tests/golden/fuzz/fuzz_fig7_q1_storm_s1.trace > /dev/null)
fi

echo "== native smoke (experiments --native --smoke) + artifact validation =="
# The native-backend grid: the backend-generic algorithms on real OS
# threads, every cell scored by the simulator's agreement/linearizability
# oracles. Exits nonzero on a linearizability violation (hardware C&S must
# stay correct), a lockstep Q >= 8 disagreement (Theorem 1 on real
# threads), or a pinned sub-threshold seed that stops splitting the
# decision. Free-mode Fig. 3 agreement is reported, never gated — no
# commodity scheduler promises Axiom 2. Set SKIP_NATIVE_GATE=1 to skip
# (e.g. on single-core or heavily throttled machines where spawning the
# thread-per-process cells is unreasonable).
if [[ -n "${SKIP_NATIVE_GATE:-}" ]]; then
  skipped_gates+=(SKIP_NATIVE_GATE)
  echo "   skipped (SKIP_NATIVE_GATE set)"
else
  (cd "$smoke_dir" && ../../target/release/experiments --native --smoke > /dev/null)
  target/release/experiments --validate "$smoke_dir/BENCH_native.json"
  target/release/experiments --validate "$smoke_dir/BENCH_native.timing.json"
fi

echo "== service smoke (experiments --service --smoke --jobs 2) + artifact validation =="
# The request-serving workload engine: the (object, arrival) service grid
# at CI scale, parallel, gated against the committed BENCH_service.json.
# The gate compares steps_per_request — fully deterministic, so it is
# immune to machine speed; it fails only if an algorithmic or scheduling
# change made requests cost > 1/0.70x the committed baseline, or if a
# configuration exhausted its step budget. Set SKIP_SERVICE_GATE=1 to
# skip the baseline comparison (the smoke run and schema validation
# still execute).
if [[ -n "${SKIP_SERVICE_GATE:-}" ]]; then
  skipped_gates+=(SKIP_SERVICE_GATE)
  (cd "$smoke_dir" && ../../target/release/experiments --service --smoke --jobs 2 > /dev/null)
else
  (cd "$smoke_dir" && ../../target/release/experiments --service --smoke --jobs 2 \
      --service-baseline ../../BENCH_service.json > /dev/null)
fi
target/release/experiments --validate "$smoke_dir/BENCH_service.json"
target/release/experiments --validate "$smoke_dir/BENCH_service.timing.json"

echo "== crash smoke (experiments --crash --smoke --jobs 2) + artifact validation =="
# The crash-and-restart grid: crash/recover lifecycle plans over the
# central families under noisy schedules, scored by the recovery-safe
# oracles (agreement, exactly-once, linearizability across the recovery
# boundary), plus the churn service cell. Exits nonzero on any oracle
# violation or a planned crash that failed to fire. Set SKIP_CRASH_GATE=1
# to skip.
if [[ -n "${SKIP_CRASH_GATE:-}" ]]; then
  skipped_gates+=(SKIP_CRASH_GATE)
  echo "   skipped (SKIP_CRASH_GATE set)"
else
  (cd "$smoke_dir" && ../../target/release/experiments --crash --smoke --jobs 2 > /dev/null)
  target/release/experiments --validate "$smoke_dir/BENCH_crash.json"
  target/release/experiments --validate "$smoke_dir/BENCH_crash.timing.json"
fi

if (( ${#skipped_gates[@]} )); then
  echo "All checks passed. Gates skipped this run: ${skipped_gates[*]}"
else
  echo "All checks passed. No gates were skipped."
fi
