#!/bin/sh
# Compares the working tree with a parent commit on one BENCHMARK.json
# workload, the way a claimed gain has to be shown: N pairs of runs, one
# of each tree per pair on the same seed, strictly one run at a time,
# alternating which tree goes first (this box's state drifts over
# minutes, so only interleaved runs compare). Prints, per end-to-end
# metric, both sides' median and quartiles, how many pairs the change
# won, the median of the per-pair ratios change/parent, and the metric's
# bound from BENCHMARK.json, marked OUT where the change's median is
# worse than the parent's by more than bound × the parent's median, and
# UNRESOLVED where the parent's own q1..q3 spread is wider than bound ×
# its median (the runs cannot tell a change that size from noise),
# unless every change run beats every parent run.
#
# Usage:
#
#	scripts/bench_pair.sh <parent-ref> <workload> [pairs=10]
#
#	scripts/bench_pair.sh HEAD serve_tail        # uncommitted work vs HEAD
#	scripts/bench_pair.sh HEAD~1 serve_head 4
#
# The parent is unpacked with `git archive` into a scratch directory
# under ${TMPDIR:-/tmp}, removed on exit; the change is this checkout as
# it stands, committed or not. Seeds start at ${BENCH_PAIR_SEED:-1000}:
# pick a range the change was not tuned on. A claim holds when the
# change wins at least nine pairs in ten and its median beats the
# parent's by more than the parent's own q1..q3 spread.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <parent-ref> <workload> [pairs=10]" >&2
	exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}
seed0=${BENCH_PAIR_SEED:-1000}

cd "$(dirname "$0")/.."
root=$(pwd)
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
	echo "bench_pair: $ref is not a commit" >&2
	exit 2
}

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
mkdir "$work/parent"
git archive "$ref" | tar -x -C "$work/parent"

# run <side> <tree> <seed>: one benchmark run; appends "side seed metric
# value" rows (failed operations as the metric "failed") to $work/rows.
run() {
	echo "bench_pair: pair $pair/$pairs seed $3: $1" >&2
	(cd "$2" && sh bench/run.sh --workload "$workload" --seed "$3" --seconds 10 --trace 0) |
		tail -n 1 | tr ',' '\n' | awk -F'"' -v side="$1" -v seed="$3" '
			/"failed":/ { v = $0; sub(/.*"failed":/, "", v); print side, seed, "failed", v + 0 }
			/"value":/ { v = $0; sub(/.*"value":/, "", v); print side, seed, $(NF - 3), v + 0 }
		' >>"$work/rows"
}

pair=1
while [ "$pair" -le "$pairs" ]; do
	seed=$((seed0 + pair))
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$work/parent" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run parent "$work/parent" "$seed"
	fi
	pair=$((pair + 1))
done

# Which way each metric is better, and by how much it may worsen, come
# from BENCHMARK.json.
awk -v workload="$workload" -v ref="$ref" '
function quantile(a, n, q,    pos, lo, frac) {
	pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
	return lo >= n ? a[n] : a[lo] + frac * (a[lo + 1] - a[lo])
}
function sorted(src, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
function summary(a, n,    s) {
	sorted(a, n, s)
	return sprintf("%.5g [%.5g, %.5g]", quantile(s, n, 0.5), quantile(s, n, 0.25), quantile(s, n, 0.75))
}
FNR == NR {
	if ($0 ~ /"name":/) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
	if ($0 ~ /"better":/) { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); better[name] = b; order[++metrics] = name }
	if ($0 ~ /"bound":/) { b = $0; sub(/.*"bound": */, "", b); bound[name] = b + 0 }
	next
}
{ val[$1, $2, $3] = $4; seeds[$2] = 1 }
$3 == "failed" { failed[$1] += $4 }
END {
	for (s in seeds) n++
	printf "%s: change vs %s over %d pairs; failed operations: parent %d, change %d\n", workload, ref, n, failed["parent"], failed["change"]
	printf "%-18s %-6s %-40s %-40s %-6s %-7s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "wins", "ratio", "bound"
	for (m = 1; m <= metrics; m++) {
		name = order[m]; k = 0; wins = 0
		for (s in seeds) {
			if (!(("parent", s, name) in val) || !(("change", s, name) in val)) continue
			k++; p[k] = val["parent", s, name]; c[k] = val["change", s, name]
			r[k] = p[k] != 0 ? c[k] / p[k] : 1
			if (better[name] == "higher" ? c[k] > p[k] : c[k] < p[k]) wins++
		}
		if (k == 0) continue
		sorted(r, k, rs); sorted(p, k, ps); sorted(c, k, cs)
		pm = quantile(ps, k, 0.5); worse = quantile(cs, k, 0.5) - pm
		if (better[name] == "higher") worse = -worse
		allBeat = better[name] == "higher" ? cs[1] > ps[k] : cs[k] < ps[1]
		verdict = ""
		if (name in bound) verdict = sprintf("%g%s%s", bound[name], worse > bound[name] * (pm < 0 ? -pm : pm) ? " OUT" : "",
			quantile(ps, k, 0.75) - quantile(ps, k, 0.25) > bound[name] * (pm < 0 ? -pm : pm) && !allBeat ? " UNRESOLVED" : "")
		printf "%-18s %-6s %-40s %-40s %2d/%-3d x%-6.3f %s\n", name, better[name], summary(p, k), summary(c, k), wins, k, quantile(rs, k, 0.5), verdict
	}
}' BENCHMARK.json "$work/rows"
