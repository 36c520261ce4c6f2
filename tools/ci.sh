#!/usr/bin/env sh
# Local CI: run the CMake workflow presets (configure + build + ctest) for
# the debug, release, and ASan/UBSan configurations, in that order, then a
# bounded differential fuzz sweep — the same gauntlet a change must pass
# before it lands.
#
#   tools/ci.sh              # all workflows + the fuzz sweep
#   tools/ci.sh ci-asan      # just the named workflow(s), no fuzz sweep
#
# Each workflow builds into its own build-<preset>/ tree (see
# CMakePresets.json), so the trees can be kept warm between runs. Stops at
# the first failing workflow.
#
# The fuzz sweep (ci-fuzz workflow + a 60-second seeded `sepo_cli fuzz`)
# cross-checks every engine in the registry against its reference baseline
# on randomized capacity/skew/fault regimes. The seed is fixed so a CI
# failure reproduces locally with the same command; any mismatch leaves a
# shrunk fuzz_repro_*.json in build-release/ for `sepo_cli fuzz --repro`.
# Override the budget (seconds) with FUZZ_BUDGET; 0 skips the sweep.
set -eu

cd "$(dirname "$0")/.."

run_fuzz_sweep=0
if [ "$#" -eq 0 ]; then
  run_fuzz_sweep=1
fi

workflows="${*:-ci-debug ci-release ci-asan ci-fuzz}"
for wf in $workflows; do
  echo "== workflow: $wf =="
  cmake --workflow --preset "$wf"

  # Wall-clock regression gate: after the release workflow, run the
  # optimized host_perf at the committed baseline's shape and diff it
  # against BENCH_host.json (sepo_cli bench-diff exits 3 on any bench
  # regressing past the threshold). Only meaningful on an optimized build
  # and a reasonably quiet machine, hence ci-release only; skip with
  # BENCH_GATE=0 (which also skips the perfbench selftest below).
  if [ "$wf" = "ci-release" ] && [ "${BENCH_GATE:-1}" != "0" ]; then
    echo "== bench gate: host_perf vs committed BENCH_host.json =="
    ./build-release/bench/host_perf --workers 8 --reps 2 \
        --metrics-out=build-release/BENCH_host_ci.json
    ./build-release/tools/sepo_cli bench-check \
        build-release/BENCH_host_ci.json
    ./build-release/tools/sepo_cli bench-diff BENCH_host.json \
        build-release/BENCH_host_ci.json
    # The repository benchmark (perfbench/): builds against src/ and runs
    # every workload at toy size, so a change that breaks its build or drops
    # a BENCHMARK.json metric fails here.
    echo "== bench gate: perfbench selftest =="
    python3 perfbench/run.py selftest
  fi
done

if [ "$run_fuzz_sweep" -eq 1 ] && [ "${FUZZ_BUDGET:-60}" != "0" ]; then
  echo "== fuzz sweep: ${FUZZ_BUDGET:-60}s seeded differential fuzzing =="
  ./build-release/tools/sepo_cli fuzz --seed 1729 --runs 100000 \
      --time-budget "${FUZZ_BUDGET:-60}" --artifact-dir build-release
fi
echo "== all workflows passed: $workflows =="
