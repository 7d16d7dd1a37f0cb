#!/usr/bin/env bash
# perfpairs.sh — paired parent/change runs of the repository benchmark.
#
# Exports PARENT's committed files into a temporary directory, then runs
# PAIRS pairs of `_perfbench/run.sh --trace 0` passes of one workload:
# one pass on the parent export, one on this checkout's working tree.
# The side that runs first flips every pair, and pair i uses seed SEED+i.
# Each side builds and runs its own archlined and _perfbench.
#
# Prints `perfbench compare` over all runs and for each pair, then one
# row per end-to-end metric: pairs won by the change, the parent's
# median and quartiles, the change's median, and a verdict under the
# ten-pair rule —
#   gain        the change wins >= 9/10 of the pairs and the medians
#               differ by more than the parent's interquartile range;
#   regression  the change's median is worse than the parent's by more
#               than the metric's bound in BENCHMARK.json;
#   unresolved  the parent's own spread (IQR over median) exceeds that
#               bound, so the bound cannot be checked;
#   ok          none of the above.
#
# Usage:
#   scripts/perfpairs.sh PARENT WORKLOAD [PAIRS] [SECONDS] [SEED]
#   make perfpairs PARENT=HEAD~1 WORKLOAD=dashboard PAIRS=10 RUN_SECONDS=30 SEED=1
#
# Defaults: PAIRS 10, SECONDS 30 (BENCHMARK.json's run_seconds), SEED 1.
# Every run's output is kept under .bench_build/perfpairs/. A run with
# failed operations stops the script.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
	echo "usage: scripts/perfpairs.sh PARENT WORKLOAD [PAIRS] [SECONDS] [SEED]" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=${3:-10} seconds=${4:-30} seed0=${5:-1}

cd "$(dirname "$0")/.."
root=$PWD
rev=$(git rev-parse --verify --quiet "$parent^{commit}") || {
	echo "perfpairs: $parent is not a commit" >&2
	exit 2
}
# An export of the committed files, not a worktree: it is what the
# benchmark runs, and an interrupted script leaves nothing in .git.
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perfpairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" | tar -x -C "$tmp"
out="$root/.bench_build/perfpairs/$workload-$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$out"
echo "perfpairs: parent $rev, $pairs pairs of $workload at ${seconds}s; runs in $out" >&2

# run SIDE DIR PAIR: one benchmark pass on one side.
run() {
	local side=$1 dir=$2 pair=$3
	local seed=$((seed0 + pair)) log="$out/pair-$pair-$side.ndjson"
	echo "perfpairs: pair $pair $side (seed $seed)" >&2
	if ! (cd "$dir" && bash _perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0) >"$log"; then
		echo "perfpairs: $side run of pair $pair failed; see $log" >&2
		exit 1
	fi
	cat "$log" >>"$out/$side.ndjson"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run parent "$tmp" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$tmp" "$i"
	fi
done

echo "== all $pairs pairs"
bash _perfbench/run.sh compare "$out/parent.ndjson" "$out/change.ndjson"
for ((i = 0; i < pairs; i++)); do
	echo "== pair $i (seed $((seed0 + i)))"
	bash _perfbench/run.sh compare "$out/pair-$i-parent.ndjson" "$out/pair-$i-change.ndjson" |
		tee -a "$out/pairs.txt"
done

echo "== ten-pair rule"
printf "%-22s %-7s %6s %12s %12s %12s %12s %8s  %s\n" metric better wins \
	"parent q1" "parent med" "parent q3" "change med" change verdict
# BENCHMARK.json lists each metric's name before its "better" and
# "bound" fields.
awk -F'"' '/"name":/ { n = $4 } /"better":/ { print "better", n, $4 }
	/"bound":/ { sub(/.*: */, ""); sub(/,.*/, ""); print "bound", n, $0 }' BENCHMARK.json >"$out/rules.txt"
awk '
# q returns the p-quantile of v[1..k], linearly interpolated; sorts v.
function q(v, k, p,    i, j, t, h, f) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	h = 1 + (k - 1) * p; f = int(h)
	return f >= k ? v[k] : v[f] + (h - f) * (v[f+1] - v[f])
}
FNR == NR { if ($1 == "better") better[$2] = $3; else bound[$2] = $3; next }
$1 == "workload" || !($2 in bound) { next }
{
	m = $2; k = ++n[m]; par[m, k] = $3 + 0; chg[m, k] = $4 + 0
	if (better[m] == "lower" ? $4 < $3 : $4 > $3) wins[m]++
}
END {
	for (m in n) {
		k = n[m]
		for (i = 1; i <= k; i++) { a[i] = par[m, i]; b[i] = chg[m, i] }
		q1 = q(a, k, 0.25); pm = q(a, k, 0.5); q3 = q(a, k, 0.75); cm = q(b, k, 0.5)
		worse = better[m] == "lower" ? cm - pm : pm - cm
		verdict = "ok"
		if (wins[m] >= 0.9 * k && worse < 0 && -worse > q3 - q1) verdict = "gain"
		else if (pm != 0 && worse / pm > bound[m]) verdict = "regression"
		else if (pm != 0 && (q3 - q1) / pm > bound[m]) verdict = "unresolved"
		printf "%-22s %-7s %3d/%-2d %12.6g %12.6g %12.6g %12.6g %+7.1f%%  %s\n", m, better[m],
			wins[m], k, q1, pm, q3, cm, pm != 0 ? 100 * (cm / pm - 1) : 0, verdict
	}
}' "$out/rules.txt" "$out/pairs.txt" | sort
