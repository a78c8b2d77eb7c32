#!/bin/sh
# Lines of Go per package, source and test separately, so "least code"
# (ROADMAP aim 2) has a trajectory: run it before and after a change and
# record the delta in the PR's CHANGES.md line.
#
#   sh scripts/loc.sh            the tree this script sits in
#   sh scripts/loc.sh <dir>      another checkout (e.g. a clone of the parent)
#
# Raw line counts (wc -l) of *.go files, *_test.go counted as test.
# Analyzer fixtures under testdata/ are data, not code, and are skipped.
# bench/ is a module of its own that a PR may not edit (BENCHMARK.json
# "paths"); it is listed separately and left out of the totals.
set -eu

root=${1:-$(dirname "$0")/..}
cd "$root"

find . -name '*.go' -not -path './.git/*' -not -path './.bench_build/*' -not -path '*/testdata/*' |
	sed 's|^\./||' | sort | while read -r f; do
	dir=$(dirname "$f")
	case "$f" in *_test.go) kind=test ;; *) kind=src ;; esac
	echo "$dir $kind $(wc -l < "$f")"
done | awk '
	{ n[$1, $2] += $3; pkgs[$1] = 1 }
	END {
		printf "%-28s %8s %8s\n", "package", "source", "test"
		cnt = 0
		for (p in pkgs) names[++cnt] = p
		# insertion sort: POSIX awk has no sort
		for (i = 2; i <= cnt; i++) {
			v = names[i]
			for (j = i - 1; j >= 1 && names[j] > v; j--) names[j + 1] = names[j]
			names[j + 1] = v
		}
		for (i = 1; i <= cnt; i++) {
			p = names[i]
			if (p == "bench") continue
			printf "%-28s %8d %8d\n", p, n[p, "src"], n[p, "test"]
			src += n[p, "src"]; test += n[p, "test"]
		}
		printf "%-28s %8d %8d\n", "TOTAL (outside bench/)", src, test
		if ("bench" in pkgs)
			printf "%-28s %8d %8d\n", "bench (separate module)", n["bench", "src"], n["bench", "test"]
	}'
