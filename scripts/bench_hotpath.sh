#!/bin/sh
# Records the operational-hot-path perf trajectory: runs the
# BenchmarkLoopHotPath* / BenchmarkLoopExecFeat* / BenchmarkLoopExecN /
# BenchmarkFuncHotPath* (BenchmarkFuncHotPathParallel included) /
# BenchmarkFuncCallN / BenchmarkFunc2CallN / BenchmarkFunc2HotPath* /
# BenchmarkOverhead{Plain,Green}Loop / BenchmarkFuncOverhead /
# BenchmarkServeQPS / BenchmarkServeMonitored / BenchmarkScanKernel /
# BenchmarkServeBand (the 200k handler over band queries; with the kernel
# rows, `-only scan`) / BenchmarkClusterScatter / BenchmarkShardHop /
# BenchmarkCombineSearchSpace / BenchmarkFuncCallDFT (the DFT's
# approximated cosine taken apart, on unreduced and exact twiddle angles,
# and one transform; with BenchmarkFig21Fig22DFTVersions, `-only dft`) /
# BenchmarkRenderPass (one ray-tracer pass at app_kernels' size) /
# BenchmarkZipfNext / BenchmarkNewZipf / BenchmarkNewEngine (the corpus
# generator: `-only corpus`) families and emits one JSON object (ns/op,
# allocs/op, the scan kernel's ns per scored document, and the
# combination search's evaluated-combos count) suitable for a
# "before"/"after" entry in BENCH_hotpath.json.
#
# Usage:
#
#	scripts/bench_hotpath.sh                 # JSON to stdout, 1s/bench
#	scripts/bench_hotpath.sh -o after.json   # write to a file
#	scripts/bench_hotpath.sh -t 0.2s         # shorter benchtime
#	scripts/bench_hotpath.sh -best 5         # best-of-5: keep each
#	                                         # benchmark's fastest run
#	                                         # (shared/noisy machines)
#	scripts/bench_hotpath.sh -only control_law
#	                                         # the control-law rows alone
#	                                         # (or corpus, scan, dft, or any
#	                                         # -bench regexp)
#	scripts/bench_hotpath.sh -cpu 1          # GOMAXPROCS for every run
#	                                         # (default: the box's)
#	scripts/bench_hotpath.sh -pair HEAD~ -only control_law -best 25 -t 0.1s
#	                                         # {"before": parent, "after":
#	                                         # this tree}, see below
#
# The test binary is compiled once and run -best times. With -pair <ref>
# the parent commit is unpacked (git archive) under ${TMPDIR:-/tmp},
# given this tree's bench_test.go so both sides run the same benchmark
# code, compiled once as well, and the two binaries alternate run by run
# — this box drifts by 30% within minutes, so only interleaved runs
# compare, and the minimum over many short runs is the stable number.
set -eu

cd "$(dirname "$0")/.."

out=""
benchtime="1s"
best=1
pair=""
cpu=""
pattern='LoopHotPath|LoopExecFeat|LoopExecN|FuncHotPath|FuncCallN|Func2CallN|Func2HotPath|Overhead(Plain|Green)Loop|FuncOverhead|ServeQPS|ServeMonitored|ScanKernel|ServeBand|ClusterScatter|ShardHop|CombineSearchSpace|FuncCallDFT|RenderPass|ZipfNext|NewZipf|NewEngine'
control_law='LoopHotPath/|LoopExecFeat|LoopExecN|FuncHotPath|FuncCallN|Func2CallN|Func2HotPath|Overhead(Plain|Green)Loop|FuncOverhead'
corpus='ZipfNext|NewZipf|NewEngine'
scan='ScanKernel|ServeBand'
dft='FuncCallDFT|Fig21Fig22DFTVersions'
while [ $# -gt 0 ]; do
	case "$1" in
	-o) out="$2"; shift 2 ;;
	-t) benchtime="$2"; shift 2 ;;
	-best) best="$2"; shift 2 ;;
	-pair) pair="$2"; shift 2 ;;
	-cpu) cpu="$2"; shift 2 ;;
	-only)
		case "$2" in
		control_law) pattern=$control_law ;;
		corpus) pattern=$corpus ;;
		scan) pattern=$scan ;;
		dft) pattern=$dft ;;
		*) pattern="$2" ;;
		esac
		shift 2 ;;
	*) echo "usage: $0 [-o file] [-t benchtime] [-best n] [-only control_law|corpus|scan|dft|regexp] [-cpu n] [-pair parent-ref]" >&2; exit 2 ;;
	esac
done

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_hotpath.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

sides="after"
go test -c -o "$work/after.test" .
if [ -n "$pair" ]; then
	git rev-parse --verify --quiet "$pair^{commit}" >/dev/null || {
		echo "bench_hotpath: $pair is not a commit" >&2
		exit 2
	}
	mkdir "$work/parent"
	git archive "$pair" | tar -x -C "$work/parent"
	cp bench_test.go "$work/parent/bench_test.go"
	(cd "$work/parent" && go test -c -o "$work/before.test" .)
	sides="before after"
fi

i=0
while [ "$i" -lt "$best" ]; do
	for side in $sides; do
		# Both run from this module's root, where `go test` would run them.
		"$work/$side.test" -test.run xxx -test.bench "$pattern" \
			-test.benchmem -test.benchtime "$benchtime" -test.count 1 ${cpu:+-test.cpu "$cpu"} >>"$work/$side.raw"
	done
	i=$((i + 1))
done

# summarize <raw file>: the JSON object for one side.
summarize() {
	awk -v best="$best" -v benchtime="$benchtime" '
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
}' "$1"
}

if [ -n "$pair" ]; then
	json=$(printf '{\n"parent": "%s",\n"before": %s,\n"after": %s\n}\n' \
		"$(git rev-parse --short "$pair")" "$(summarize "$work/before.raw")" "$(summarize "$work/after.raw")")
else
	json=$(summarize "$work/after.raw")
fi

if [ -n "$out" ]; then
	printf '%s\n' "$json" > "$out"
	echo "bench_hotpath: wrote $out" >&2
else
	printf '%s\n' "$json"
fi
