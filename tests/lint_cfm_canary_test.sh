#!/bin/sh
# Canary for the selection contract, driven by ctest:
#
#   lint_cfm_canary_test.sh DMPC DMP_LINT
#
# mcf's selected map with one exact CFM point moved to the fall-through
# successor of its branch, which the taken path skips, so the point does
# not post-dominate the branch: dmp_lint must reject the map with CFM01
# and exit 1.  This shows that the lint the selection contract runs can
# fail on an illegal CFM.
set -u
DMPC=$1
LINT=$2
D=lint_cfm_canary.$$
trap 'rm -f "$D".*' EXIT

"$DMPC" mcf --emit-map --no-cache > "$D.out" 2> /dev/null ||
  { echo "dmpc --emit-map failed"; exit 1; }
# The map follows dmpc's one-line selection summary.
sed -n '/^# dmp-diverge-map/,$p' "$D.out" > "$D.map"
# The first hammock whose first CFM point is an exact address CFM:
# "branch B kind=K ... cfm=addr:C:1.000000" becomes "cfm=addr:B+1:1.000000".
LINE=$(grep -m1 -E '^branch [0-9]+ kind=(simple|nested) .*cfm=addr:[0-9]+:1\.0+( |$)' "$D.map")
[ -n "$LINE" ] || { echo "mcf's map has no exact address CFM"; exit 1; }
BRANCH=$(echo "$LINE" | cut -d' ' -f2)
NEW=$(echo "$LINE" | sed -E "s/cfm=addr:[0-9]+:/cfm=addr:$((BRANCH + 1)):/")
grep -vxF "$LINE" "$D.map" > "$D.bad"
echo "$NEW" >> "$D.bad"

"$LINT" mcf --map="$D.bad" > "$D.out" 2>&1
S=$?
[ $S -eq 1 ] || { cat "$D.out"; echo "dmp_lint exited $S, want 1"; exit 1; }
grep -q 'CFM01' "$D.out" || { cat "$D.out"; echo "no CFM01 diagnostic"; exit 1; }
