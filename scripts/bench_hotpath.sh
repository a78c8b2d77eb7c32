#!/bin/sh
# Records the operational-hot-path perf trajectory: runs the
# BenchmarkLoopHotPath* / BenchmarkLoopExecFeat* / BenchmarkLoopExecN /
# BenchmarkFuncCallN / BenchmarkFunc2CallN / BenchmarkFunc2HotPath* /
# BenchmarkServeQPS / BenchmarkServeMonitored / BenchmarkScanKernel /
# BenchmarkClusterScatter / BenchmarkCombineSearchSpace families and
# emits one JSON object (ns/op, allocs/op, the scan kernel's ns per
# scored document, and the combination search's evaluated-combos count)
# suitable for a "before"/"after" entry in BENCH_hotpath.json.
#
# Usage:
#
#	scripts/bench_hotpath.sh                 # JSON to stdout, 1s/bench
#	scripts/bench_hotpath.sh -o after.json   # write to a file
#	scripts/bench_hotpath.sh -t 0.2s         # shorter benchtime
#	scripts/bench_hotpath.sh -best 5         # best-of-5: keep each
#	                                         # benchmark's fastest run
#	                                         # (shared/noisy machines)
set -eu

cd "$(dirname "$0")/.."

out=""
benchtime="1s"
best=1
while [ $# -gt 0 ]; do
	case "$1" in
	-o) out="$2"; shift 2 ;;
	-t) benchtime="$2"; shift 2 ;;
	-best) best="$2"; shift 2 ;;
	*) echo "usage: $0 [-o file] [-t benchtime] [-best n]" >&2; exit 2 ;;
	esac
done

pattern='LoopHotPath|LoopExecFeat|LoopExecN|FuncCallN|Func2CallN|Func2HotPath|ServeQPS|ServeMonitored|ScanKernel|ClusterScatter|CombineSearchSpace'

raw=""
i=0
while [ "$i" -lt "$best" ]; do
	r=$(go test -run xxx -bench "$pattern" \
		-benchmem -benchtime "$benchtime" -count 1 .)
	raw=$(printf '%s\n%s\n' "$raw" "$r")
	i=$((i + 1))
done

json=$(printf '%s\n' "$raw" | awk -v best="$best" -v benchtime="$benchtime" '
BEGIN { n = 0; gmp = "" }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0; next }
/^goos:/ { goos = $2; next }
/^goarch:/ { goarch = $2; next }
/^Benchmark/ {
	name = $1
	# go test suffixes each benchmark with -GOMAXPROCS; record it once.
	if (match(name, /-[0-9]+$/)) {
		gmp = substr(name, RSTART + 1, RLENGTH - 1)
		sub(/-[0-9]+$/, "", name)
	}
	sub(/^Benchmark/, "", name)
	ns = ""; allocs = ""; combos = ""; nsdoc = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i - 1)
		if ($i == "allocs/op") allocs = $(i - 1)
		if ($i == "combos/op") combos = $(i - 1)
		if ($i == "ns/doc") nsdoc = $(i - 1)
	}
	if (ns == "") next
	# Best-of-N: keep the fastest run of each benchmark.
	if (!(name in nsof)) order[n++] = name
	if (!(name in nsof) || ns + 0 < nsof[name] + 0) {
		nsof[name] = ns; allocsof[name] = allocs; combosof[name] = combos; nsdocof[name] = nsdoc
	}
}
END {
	printf "{\n"
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"cpu\": \"%s\",\n", cpu
	# go test omits the -N name suffix when GOMAXPROCS is 1.
	if (gmp == "") gmp = 1
	printf "  \"gomaxprocs\": %s,\n", gmp
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"best_of\": %d,\n", best
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) {
		name = order[i]
		entry = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, nsof[name])
		if (allocsof[name] != "") entry = entry sprintf(", \"allocs_per_op\": %s", allocsof[name])
		if (combosof[name] != "") entry = entry sprintf(", \"evaluated_combos\": %s", combosof[name])
		if (nsdocof[name] != "") entry = entry sprintf(", \"ns_per_doc\": %s", nsdocof[name])
		entry = entry "}"
		printf "%s%s\n", entry, (i < n - 1 ? "," : "")
	}
	printf "  ]\n}\n"
}')

if [ -n "$out" ]; then
	printf '%s\n' "$json" > "$out"
	echo "bench_hotpath: wrote $out" >&2
else
	printf '%s\n' "$json"
fi
