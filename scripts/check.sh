#!/usr/bin/env bash
# One-command verification gate: configure the warnings-as-errors preset,
# build everything, and run the test suite.  By default only the tier1
# label runs (fast unit/integration tests — the pre-commit gate); pass
# --all to also run the slow redundancy checks and the fuzz campaign,
# --crash to run only the fork-based crash-consistency matrix,
# --serve to run the campaign-service suite (serve label) plus the
# multi-client soak hammer (DMP_SERVE_SOAK=1),
# --chaos to run the socket-chaos, daemon-crash-restart, and
# hostile-client liveness matrix (the chaos label: ChaosProxy transport
# hostility, SIGKILL-and-restart digest-parity tests, and the
# HostileClient attacks — half-open floods, slowloris drips, never-read
# floods, submit storms, hung-worker watchdog),
# --bench to run the perf-regression gate (a bench_throughput smoke
# re-measurement against the committed BENCH_throughput.json, 3x
# tolerance; the perf ctest label),
# --analysis to run the dataflow tier (the analysis label: solver
# property tests and emulator-ground-truth soundness over the 17-workload
# suite and fuzz recipes),
# --sanitize to build and test under ASan+UBSan (the sanitize preset),
# --tsan to build and run the threaded-subsystem tests under TSan, and
# --tidy to run clang-tidy over src/ and tools/ (skipped with a notice
# when clang-tidy is not installed).
# Exits non-zero on the first failure, so CI and pre-commit hooks can call
# it directly.  See TESTING.md for the tier definitions.
set -euo pipefail

cd "$(dirname "$0")/.."

ALL=0
CRASH=0
SERVE=0
CHAOS=0
BENCH=0
ANALYSIS=0
TIDY=0
PRESET=ci
for arg in "$@"; do
  case "$arg" in
    --all) ALL=1 ;;
    --crash) CRASH=1 ;;
    --serve) SERVE=1 ;;
    --chaos) CHAOS=1 ;;
    --bench) BENCH=1 ;;
    --analysis) ANALYSIS=1 ;;
    --sanitize) PRESET=sanitize ;;
    --tsan) PRESET=tsan ;;
    --tidy) TIDY=1 ;;
    -h|--help) echo "usage: $0 [--all] [--crash] [--serve] [--chaos] [--bench] [--analysis] [--sanitize] [--tsan] [--tidy]"; exit 0 ;;
    *) echo "usage: $0 [--all] [--crash] [--serve] [--chaos] [--bench] [--analysis] [--sanitize] [--tsan] [--tidy]" >&2; exit 2 ;;
  esac
done

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "check.sh: clang-tidy not installed, skipping tidy step"
    return 0
  fi
  # The compile database comes from the ci preset configure.
  cmake --preset ci >/dev/null
  find src tools -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p build-ci --quiet
}

if [[ "$TIDY" -eq 1 ]]; then
  run_tidy
  exit 0
fi

cmake --preset "$PRESET" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build --preset "$PRESET" -j "$(nproc)"

if [[ "$PRESET" == tsan ]]; then
  # Only the threaded subsystems are interesting under TSan; the preset's
  # name filter selects them.
  ctest --preset tsan
elif [[ "$CRASH" -eq 1 ]]; then
  ctest --preset "$PRESET" -L crash
elif [[ "$SERVE" -eq 1 ]]; then
  # The serve label covers the whole-suite run and the CLI contract; the
  # soak hammer (multi-client junk-injecting load test) only runs when its
  # env gate is armed, which the serve_soak ctest entry does.
  ctest --preset "$PRESET" -L serve
elif [[ "$CHAOS" -eq 1 ]]; then
  # Torn transport (ChaosProxy), SIGKILL-restart recovery, and the
  # HostileClient liveness matrix — all pinned to digest parity with
  # local execution and to every defensive drop being counted.
  ctest --preset "$PRESET" -L chaos
elif [[ "$BENCH" -eq 1 ]]; then
  # Throughput must stay within 3x of the committed snapshot and the
  # campaign digest must match it bit for bit.
  ctest --preset perf
elif [[ "$ANALYSIS" -eq 1 ]]; then
  # The dataflow tier: solver vs brute-force property tests and the
  # dynamic soundness differential (no retired instruction may contradict
  # a definite-assignment or liveness claim).
  ctest --preset analysis
elif [[ "$ALL" -eq 1 ]]; then
  ctest --preset "$PRESET"
else
  ctest --preset "$PRESET" -L tier1
fi

# CI path extra (the default tier1 gate): tidy runs when available.  The
# whole-suite static check is the tier1 test dmp_lint_workloads_clean.
if [[ "$PRESET" == ci && "$CRASH" -eq 0 && "$SERVE" -eq 0 && "$CHAOS" -eq 0 && "$BENCH" -eq 0 && "$ANALYSIS" -eq 0 ]]; then
  run_tidy
fi
