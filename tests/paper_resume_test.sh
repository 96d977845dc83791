#!/bin/sh
# The artifact cache is a campaign's only checkpoint, driven by ctest:
#
#   paper_resume_test.sh DMP_PAPER
#
# A Fig. 5 campaign over two benchmarks is interrupted by SIGINT after its
# ninth cell (the DMP_TEST_RAISE_SIGINT_AFTER_CELLS hook) and must exit 130.
# The rerun on the same cache must exit 0 and print exactly what an
# uncached run prints, and the two runs together must simulate and record
# exactly what the uncached run does (footer sims=6, traces=2): nothing the
# interrupted run finished is computed again.
set -u
PAPER=$1
D=paper_resume.$$
trap 'rm -rf "$D" "$D".*' EXIT
rm -rf "$D"
ARGS="--figure fig5 --limit-benches 2 --jobs 1"

DMP_TEST_RAISE_SIGINT_AFTER_CELLS=9 "$PAPER" $ARGS --cache-dir "$D" \
  > "$D.first" 2> "$D.first.err"
S=$?
[ $S -eq 130 ] || { echo "interrupted run exited $S, want 130"; exit 1; }
"$PAPER" $ARGS --cache-dir "$D" > "$D.rerun" 2> "$D.rerun.err"
S=$?
[ $S -eq 0 ] || { echo "rerun exited $S, want 0"; exit 1; }
"$PAPER" $ARGS --no-cache > "$D.cold" 2> /dev/null || exit 1
cmp "$D.rerun" "$D.cold" || { echo "rerun stdout differs from --no-cache"; exit 1; }

# Sum of footer field $1 over both runs.
total() {
  cat "$D.first.err" "$D.rerun.err" | grep '^\[engine\]' |
    grep -Eo " $1=[0-9]+" | cut -d= -f2 | awk '{ S += $1 } END { print S + 0 }'
}
cat "$D.first.err" "$D.rerun.err"
[ "$(total sims)" -eq 6 ] || { echo "sims add to $(total sims), want 6"; exit 1; }
[ "$(total traces)" -eq 2 ] || { echo "traces add to $(total traces), want 2"; exit 1; }
