#!/bin/sh
# The selection contract, driven by ctest:
#
#   lint_selection_test.sh DMP_LINT
#
# Every map a front end can select must lint without an error-severity
# diagnostic (exit 0) at the campaign's default 4M profiling budget:
#   - every --algo preset (the names dmp_lint --help lists, the same table
#     dmpc, serve and dmp_paper select from) over the whole suite, profiled
#     on the run and on the train input;
#   - Fig. 7's MAX_INSTR x MIN_MERGE_PROB grid on --algo=freq.
set -u
LINT=$1
NAMES=$("$LINT" --help | grep -Eo '[a-z0-9-]+([|][a-z0-9-]+){5,}' | tr '|' ' ')
echo "$NAMES" | grep -q cost-short || { echo "no preset list in --help"; exit 1; }

FAIL=0
check() {
  "$LINT" --all "$@" > /dev/null 2>&1
  S=$?
  [ $S -eq 0 ] || { echo "dmp_lint --all $* exited $S, want 0"; FAIL=1; }
}

for A in $NAMES; do
  for I in run train; do
    check --algo="$A" --profile-input="$I"
  done
done
for M in 10 50 100 200; do
  for P in 0.01 0.05 0.30 0.90; do
    check --algo=freq --max-instr="$M" --min-merge-prob="$P"
  done
done
exit $FAIL
