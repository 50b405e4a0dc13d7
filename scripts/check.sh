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

# The smoke gates: one row per CI-scale experiments run, executed in a
# scratch dir so the committed artifacts (which cover the full grids) are
# not clobbered. Columns: name, SKIP var ("-" = none), experiments args.
# A row ending in `--baseline ../..` is also gated against the committed
# artifact of the same name at the repo root; setting its SKIP var drops
# only that comparison (for wall-clock gates on loaded or throttled
# machines, or to bypass the deterministic service cost gate). Setting the
# SKIP var of any other row skips the row.
#
# sweep    a tiny parallel Theorem 1 sweep.
# perf     throughput (steps/s), fails under 0.70x the committed
#          BENCH_perf.json per workload kind.
# explore  every smoke workload fully verified in all four explorer modes
#          (a reduced row that fails verification fails the run); steps/s
#          per mode fails under 0.70x the committed BENCH_explore.json.
# fuzz     hostile deciders over every family: fails on an oracle
#          violation at legal Q, or a missing violation where Theorem 3
#          predicts impossibility. Counterexamples stay in the scratch dir.
# profile  the schedule profiler over every family.
# native   the backend-generic algorithms on OS threads, scored by the
#          simulator's oracles: fails on a linearizability violation, a
#          lockstep Q >= 8 disagreement, or a pinned sub-threshold seed
#          that stops splitting the decision. Free-mode Fig. 3 agreement
#          is reported, never gated (no commodity scheduler promises
#          Axiom 2).
# service  the (object, arrival) service grid: fails if a configuration
#          exhausts its step budget or its deterministic steps/request
#          grows past 1/0.70x the committed BENCH_service.json.
# crash    crash/recover lifecycle plans under the recovery-safe oracles,
#          plus the churn cell: fails on any violation or a planned crash
#          that failed to fire.
smoke_rows=(
  "sweep    -                  --thm1 --jobs 2"
  "perf     SKIP_PERF_GATE     --perf --smoke --baseline ../.."
  "explore  SKIP_EXPLORE_GATE  --explore --smoke --jobs 4 --baseline ../.."
  "fuzz     SKIP_FUZZ_GATE     --fuzz --smoke --jobs 2"
  "profile  SKIP_PROFILE_GATE  --profile --smoke --jobs 2"
  "native   SKIP_NATIVE_GATE   --native --smoke"
  "service  SKIP_SERVICE_GATE  --service --smoke --jobs 2 --baseline ../.."
  "crash    SKIP_CRASH_GATE    --crash --smoke --jobs 2"
)
smoke_dir="target/smoke-sweep"
rm -rf "$smoke_dir" && mkdir -p "$smoke_dir"
for row in "${smoke_rows[@]}"; do
  read -r name skip args <<< "$row"
  echo "== $name smoke (experiments $args) =="
  if [[ $skip != - && -n "${!skip:-}" ]]; then
    skipped_gates+=("$skip")
    if [[ $args != *--baseline* ]]; then
      echo "   skipped ($skip set)"
      continue
    fi
    args=${args%% --baseline*}
    echo "   baseline comparison skipped ($skip set)"
  fi
  # $args is deliberately unquoted: it splits into the experiments flags.
  (cd "$smoke_dir" && ../../target/release/experiments $args > /dev/null)
done

echo "== profile the committed fuzz corpus (experiments --profile-trace) =="
# Offline profiling of both committed fuzz counterexamples, which also
# exercises the Perfetto exporter byte-pinned by
# tests/tests/perfetto_golden.rs. Skipped along with the profile row.
if [[ -n "${SKIP_PROFILE_GATE:-}" ]]; then
  echo "   skipped (SKIP_PROFILE_GATE set)"
else
  for trace in tests/golden/fuzz/fuzz_fig3_q1_storm_s5.trace \
               tests/golden/fuzz/fuzz_fig7_q1_storm_s1.trace; do
    (cd "$smoke_dir" && ../../target/release/experiments --profile-trace "../../$trace" > /dev/null)
  done
fi

echo "== artifact validation (experiments --validate) =="
# Every artifact and timing sidecar the smoke rows wrote, schema-checked
# with the in-tree validator.
for f in "$smoke_dir"/BENCH_*.json; do
  target/release/experiments --validate "$f"
done

echo "== committed artifacts are fresh (full-scale regeneration) =="
# The fully deterministic artifacts regenerated at full scale must equal
# the committed files byte for byte, and so must the fuzz corpus that a
# full fuzz run reproduces. BENCH_{explore,perf,native}.json are left out:
# they carry wall rates (and native free pacing carries racy retries).
fresh_dir="target/fresh-artifacts"
rm -rf "$fresh_dir" && mkdir -p "$fresh_dir"
(cd "$fresh_dir" && ../../target/release/experiments --table1 --thm1 --thm4 --failures \
    --fuzz --crash --profile --service --jobs 2 > /dev/null)
for f in BENCH_table1.json BENCH_sweeps.json BENCH_fuzz.json BENCH_crash.json \
         BENCH_profile.json BENCH_service.json; do
  cmp -s "$fresh_dir/$f" "$f" || { echo "stale committed artifact: $f (regenerate it)"; exit 1; }
done
diff -rq "$fresh_dir/tests/golden/fuzz" tests/golden/fuzz \
  || { echo "stale committed fuzz corpus: tests/golden/fuzz"; exit 1; }

if (( ${#skipped_gates[@]} )); then
  echo "All checks passed. Gates skipped this run: ${skipped_gates[*]}"
else
  echo "All checks passed. No gates were skipped."
fi
