#!/bin/sh
# Repository health check: build, vet, the caps on the newest CHANGES.md
# entry and on DESIGN.md's size, the test names the docs cite, greenlint
# over the module and bench/ (plus its SARIF and
# score-table stages), full tests (with race detector on the
# concurrency-sensitive packages), fuzz smokes, and the allocation,
# inlining and wire-ownership gates.
# The "evaluation reproduces" stage regenerates every figure twice at
# scale 0.05 and takes about 16 s (8.4 s + 6.4 s plus the build on the 2-thread dev box;
# 21.3 s per run before the figures shared one sweep per input).
set -eu

cd "$(dirname "$0")/.."

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== newest CHANGES.md entry fits =="
# Every change reads the ledger, so it has to fit in a head (ROADMAP
# 9(a)): the newest entry — from the last line opening "- PR " to the
# end of the file — is at most 25 lines. Mutation and measurement tables
# go to results/README.md.
lines=$(awk '/^- PR /{n = 0} {n++} END {print n + 0}' CHANGES.md)
if [ "$lines" -gt 25 ]; then
	echo "FAIL: the newest CHANGES.md entry is $lines lines (at most 25)" >&2
	exit 1
fi

echo "== DESIGN.md does not grow =="
# DESIGN.md is read every change too (ROADMAP 9(a)). The cap is its size
# in bytes after the last change that shrank it: a change that adds to
# it removes as much elsewhere, and one that shrinks it lowers the cap,
# down to the 45 kB target.
design_max=83740
bytes=$(wc -c < DESIGN.md)
if [ "$bytes" -gt "$design_max" ]; then
	echo "FAIL: DESIGN.md is $bytes bytes (at most $design_max)" >&2
	exit 1
fi

echo "== docs name only tests that exist =="
# A test, fuzz target or benchmark DESIGN.md, README.md or
# results/README.md names must be defined by some *_test.go (a trailing *
# names a prefix), so deleting or renaming one cannot leave the docs
# pointing at nothing. Only results/README.md may fence a retired
# mutation table between "<!-- history" and "<!-- /history -->" lines,
# which this stage skips: such a table records what failed in a tree
# that is gone.
defined=$(grep -rhoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' --include='*_test.go' . | sed 's/^func //' | sort -u)
names='\b(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*\*?'
stale=$({
	grep -ohE "$names" DESIGN.md README.md
	awk '/^<!-- history/ {h = 1} !h {print} /^<!-- \/history -->$/ {h = 0}' results/README.md | grep -oE "$names"
} | sort -u |
	while read -r name; do
		case $name in
		*\*) printf '%s\n' "$defined" | grep -q "^${name%\*}" ;;
		*) printf '%s\n' "$defined" | grep -qx "$name" ;;
		esac || echo "$name"
	done)
if [ -n "$stale" ]; then
	echo "FAIL: DESIGN.md, README.md or results/README.md names tests no *_test.go defines:" >&2
	echo "$stale" >&2
	exit 1
fi

echo "== lint =="
# bench/ is a module of its own that ./... does not reach; as a directory
# argument its drivers' use of the API is gated like the examples'.
go run ./cmd/greenlint ./... ./bench

echo "== lint (sarif) =="
# The SARIF writer feeds code-scanning upload in CI; exercise it on every
# run so a malformed document fails here, not in the forge UI. python3 is
# the portable JSON validator on dev machines and CI runners alike.
go run ./cmd/greenlint -format sarif ./... > greenlint.sarif
if command -v python3 > /dev/null 2>&1; then
	python3 -c 'import json,sys; d=json.load(open("greenlint.sarif")); assert d["version"]=="2.1.0", d["version"]'
fi

echo "== lint score =="
# results/lint_checks.txt says what each check costs and catches. Its
# HEAD section — lines per check, findings on examples/ and bench/, the
# mutants seeded, caught, caught by the named check alone and flagged by
# go vet, and the judged verdict per keep-rule clause — is
# regenerated here and must equal the committed one; a PR that moves it
# reruns scripts/lint_score.sh and says why. (The history section needs
# old trees and a minute; it is not rebuilt on every run.)
tmp=$(mktemp -d)
sh scripts/lint_score.sh head > "$tmp/head"
sed '/^== HISTORY ==$/,$d' results/lint_checks.txt > "$tmp/committed"
if ! diff -u "$tmp/committed" "$tmp/head"; then
	echo "FAIL: sh scripts/lint_score.sh head no longer prints the HEAD section of results/lint_checks.txt" >&2
	rm -rf "$tmp"
	exit 1
fi
rm -rf "$tmp"

echo "== tests =="
go test ./...

echo "== evaluation reproduces =="
# Every table of the paper's evaluation, regenerated at scale 0.05 with one
# worker and with four, must equal results/scale_0.05.txt byte for byte
# once the wall-clock parts are stripped (the "(<id> in <duration>)"
# stamps and the two overhead rows). A PR that moves a printed digit has
# to regenerate that file and say why; a PR that only restructures
# internal/experiments proves itself output-preserving here.
tmp=$(mktemp -d)
go build -o "$tmp/greenbench" ./cmd/greenbench
for workers in 1 4; do
	"$tmp/greenbench" -exp all -scale 0.05 -seed 42 -workers "$workers" |
		sed -E 's/^\((.*) in [^ ]+\)$/(\1)/' |
		grep -v -E '^(plain loop|green \(approx off)' > "$tmp/out" || true
	if ! diff -u results/scale_0.05.txt "$tmp/out"; then
		echo "FAIL: greenbench -exp all -scale 0.05 -seed 42 -workers $workers no longer prints results/scale_0.05.txt" >&2
		rm -rf "$tmp"
		exit 1
	fi
done
rm -rf "$tmp"
# And what makes it cheap: a fixture's sweep is the only code in
# internal/experiments that runs its kernel, so the from-scratch entry
# points stay out of its non-test source (TestSweepMatchesReruns keeps
# them as the sweeps' oracle).
reruns=$(grep -nE 'raytracer\.Render\(|\.Search\(|ga\.Run\(' internal/experiments/*.go | grep -v '_test\.go:' || true)
if [ -n "$reruns" ]; then
	echo "FAIL: internal/experiments reruns a kernel from scratch outside its sweeps:" >&2
	echo "$reruns" >&2
	exit 1
fi

echo "== bench module =="
# bench/ is a module of its own (replace green => ../), so the root's
# ./... never reaches it. It is the one consumer that pins the public
# entry points and holds the exact operation counts equal, so compile-
# and count-check it in the same gate: ~45 s cold, 7 s of tests.
(cd bench && go vet ./... && go test ./...)

echo "== fuzz (smoke) =="
# Ten seconds of coverage-guided input mutation over the analyzer suite:
# enough to catch fresh crashes on the parser/typechecker boundary
# without stalling the gate.
go test -run '^$' -fuzz FuzzAnalyzers -fuzztime 10s ./internal/lint
# And ten over the scan kernel: fuzzed queries, page sizes, shard layouts
# and block-size sequences, every block checked against Engine.Search, and
# every page Scan.Final certifies against the drained page.
go test -run '^$' -fuzz FuzzScanBlocks -fuzztime 10s ./internal/search
# And ten over the sampling decision: the reciprocal test that replaced
# the hardware divide, against count % Sample_QoS == 0 for any count and
# any interval.
go test -run '^$' -fuzz FuzzSamplingDivides -fuzztime 10s ./internal/core
# And ten over the control law: a fuzzed schedule on a live controller and its reference model, compared after every op.
go test -run '^$' -fuzz FuzzControllerSchedule -fuzztime 10s -fuzzminimizetime 1s ./internal/core
# And ten over the serving tier's wire protocol, one target because the
# protocol has one home: both /search encoders against encoding/json,
# the shard-reply parser on arbitrary bytes and on its own encoder's
# output, RawParam against url.ParseQuery. (The target calls into
# encoding/json, whose caches make coverage irreproducible; without the
# cap the default minute of minimisation per input eats the smoke.)
go test -run '^$' -fuzz FuzzSearchReply -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
# And ten over the shard hop: a loopback worker answering with the
# fuzzer's bytes, split across writes, hanging up or not. An exchange
# never panics, returns by its deadline and within maxBody, and the
# transport still reaches a well-behaved worker afterwards. (net/http is
# under the target, so the same cap on minimisation.)
go test -run '^$' -fuzz FuzzShardExchange -fuzztime 10s -fuzzminimizetime 1s ./internal/cluster
# And ten each over the three remaining parsers of foreign bytes: the
# POST /budget body (never a NaN or infinite level, never past 64 KiB),
# a controller's snapshot document (Loop, Func and Func2: a refused one
# leaves the controller as it was, an accepted one round-trips), and the
# persist envelope (cut or bit-flipped, it loads whole or not at all).
go test -run '^$' -fuzz FuzzDecodeBudget -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
go test -run '^$' -fuzz FuzzRestoreStateJSON -fuzztime 10s -fuzzminimizetime 1s ./internal/core
go test -run '^$' -fuzz FuzzPersistEnvelope -fuzztime 10s -fuzzminimizetime 1s ./internal/persist
# And ten over the corpus generator: for any seed, exponent and range,
# the table-driven Zipf sampler's first 4096 draws are math/rand's.
go test -run '^$' -fuzz FuzzZipfStream -fuzztime 10s ./internal/workload

echo "== race (concurrency-sensitive packages) =="
# The root package's reach gate is a static type-check that starts no
# goroutine: ~8 s plain, ~31 s under the detector. It runs in the tests
# stage above, so it is skipped here.
go test -race -skip '^TestNoDeclarationOnlyTestsReach$' ./internal/core ./internal/serve ./internal/search \
	./internal/metrics ./internal/taskgraph ./internal/chaos ./internal/persist \
	./internal/cluster ./internal/wire .
# The one goroutine fan-out of the offline phases is the evaluation's
# measureAll: its worker-count equivalence, under the race detector.
go test -race -count 1 -run TestCalibrationWorkersProduceIdenticalModel ./internal/experiments

echo "== chaos smoke =="
# A short seeded fault-injection run under the race detector: injected
# QoS-callback panics, latency spikes, load shedding, and a corrupted
# snapshot restart, asserting the service stays available and the
# monitored loss re-converges. Deterministic seeds make a failure here
# reproducible locally with the same command.
go test -race -count 1 -run TestChaosServiceSurvivesAndRecovers ./internal/serve

echo "== cluster chaos smoke =="
# The distributed analogue: a real coordinator over six socket-served
# shard workers, with faults (killed replica, replica slowed past its
# deadline budget, garbled bodies) injected in front of the coordinator's
# own HTTPTransport exchange, the one production runs, asserting every
# response is a clean 200, a degraded 200, or a 503; that breakers
# isolate exactly the faulty replicas; and that after recovery the
# control plane decomposes the fleet SLA into live per-shard budgets.
go test -race -count 1 -run TestChaosEndToEnd ./internal/cluster

echo "== benchmarks (smoke) =="
go test -run xxx -bench . -benchtime 1x ./... > /dev/null

echo "== serve path stays allocation-free =="
# The warm /search request path (query-cache hit, pooled scratch,
# hand-rolled JSON encode) has an allocation budget of zero, measured
# with AllocsPerRun — on the steady path and on the monitored one,
# where the QoS adapter snapshots the scan's page into buffers it keeps.
# A regression here silently turns the serving tier back into a
# per-request allocator. (No -race: the detector's own instrumentation
# allocates, and the test skips itself under it.)
go test -count 1 -run TestServeWarmPathZeroAlloc ./internal/serve
# A query's memoised precise page (cachedQuery.final) is the monitored
# request's reference, not a result cache: read anywhere else, an
# approximated request would serve precise pages and qos_kept and
# precise_ops_s would stop measuring the approximation. So the memo is
# loaded exactly once in the serving code, on serveQuery's monitored
# branch (under `if qos.reference`).
memo=$(awk '/^func /{fn = $0} /\.final\.Load\(\)/{print FILENAME ": " prev " | " fn} {prev = $0}' \
	$(ls internal/serve/*.go | grep -v '_test\.go$'))
if [ "$(printf '%s\n' "$memo" | grep -c .)" -ne 1 ] ||
	! printf '%s\n' "$memo" | grep -q 'if qos\.reference {.*func (s \*Server) serveQuery('; then
	echo "FAIL: the precise-page memo must be loaded once, on serveQuery's monitored branch; found:"
	printf '%s\n' "$memo"
	exit 1
fi

echo "== hot path stays allocation-free =="
# The steady-state operational paths must not allocate. There is one
# body per execution shape, and each row runs one: Loop's begin (Begin,
# and ExecFeat with no selector installed) with Continue/Finish, its
# batched execN (ExecN), and the version ladder's call and callN under
# both function kinds (Func and Func2 Call and CallN): one heap object per execution was the regression the
# controller-core rework removed, and it must not creep back. ns/op is
# too noisy to gate on shared runners; allocs/op is exact. ServeQPS and
# ServeMonitored/memo ride along as the end-to-end smoke rows: they must
# run and stay allocation-free per warm request, sampled or not
# (ServeMonitored/reference misses the query cache by design and parses
# every query, so it has no place here). The
# coordinator's warm scatter/gather over three shards has a budget of
# two: the shard request's path string and the echoed query. Shard calls
# run on parked workers and on the handler's own goroutine, so a third
# allocation means the scatter, parse, merge or encode started
# allocating per request. One hop to a shard worker over a real loopback
# socket has a budget of 40 on HTTPTransport's direct path (it reads 28:
# about 18 are the net/http server's, the rest http.ReadResponse's; the
# same hop through http.Client reads 94). Building the 20k corpus is not
# a steady path but rides along with a budget of 32: its posting lists
# lie in one exactly sized arena, its scratch is sized up front and the
# impact pairs reuse the spent entries (it reads 30, one of them the
# weak pointer NewEngine keeps to share the engine; 53 when the pairs
# grew by appends, 13 581 when every list did). Each iteration collects
# the last engine first, or NewEngine would hand it back and the row
# would time a lookup; that lookup is NewEngine/hit, the fourteenth row,
# with a budget of zero: a set-up that finds its corpus live pays nothing.
go test -run xxx -bench 'LoopHotPath/steady|LoopExecFeat/steady|FuncHotPath/steady|Func2HotPath/steady|LoopExecN/steady|FuncCallN/steady|Func2CallN/steady|ServeQPS|ServeMonitored/memo|ClusterScatter|ShardHop/direct|NewEngine/20k|NewEngine/hit' \
	-benchmem -benchtime 100x -count 1 . | awk '
	/^Benchmark/ {
		budget = ($1 ~ /^BenchmarkClusterScatter/) ? 2 : ($1 ~ /^BenchmarkShardHop/) ? 40 : ($1 ~ /^BenchmarkNewEngine\/20k/) ? 32 : 0
		for (i = 2; i <= NF; i++) {
			if ($i == "allocs/op" && $(i - 1) + 0 > budget) {
				printf "FAIL: %s allocates %s allocs/op (budget %d)\n", $1, $(i - 1), budget
				bad = 1
			}
		}
		seen++
	}
	END {
		if (seen < 14) { print "FAIL: expected 14 allocation-gate benchmarks, saw " seen; exit 1 }
		exit bad
	}'
# And where the allocation would happen: a monitored observation whose
# policy restates the live Sample_QoS (a publish per observation would
# be an object per observation, and only serve's end-to-end test used
# to notice), a monitored decrease the derived-step law declines (it
# changes nothing, so it publishes nothing), an observation inside the
# open window a nil Policy sizes, and the single-call function tier, as
# AllocsPerRun rows.
go test -count 1 -v -run TestHotPathAllocationGates ./internal/core | awk '
	/^    --- PASS/ { rows++ }
	/^(--- )?FAIL/ { print; bad = 1 }
	END {
		if (rows < 5) { print "FAIL: expected 5 allocation-gate rows in internal/core, saw " rows + 0; exit 1 }
		exit bad
	}'

echo "== hot path inlines =="
# A perf gate with no clock in it, so it cannot flake on a shared box:
# the per-iteration and per-execution leaves must stay inlinable, and
# starting or finishing an execution must not copy or zero the whole
# 144-byte member (init, load and arm assign the fields they own;
# runtime.duffcopy was a fifth of Begin..Finish while they did not).
inl=$(go build -gcflags=-m ./internal/core 2>&1)
for fn in '(*loopMember).Continue' '(*loopMember).ContinueN' '(*Breaker).closed' '(*sampleRate).divides'; do
	printf '%s\n' "$inl" | grep -F -q "can inline $fn" || {
		echo "FAIL: $fn is no longer inlinable" >&2
		exit 1
	}
done
# Scan.Final's walk runs once per blockIDs-id block or group of them,
# and its subset bound once per live list where the joint bound passes:
# the helpers they call must inline, or every block pays a call.
inl=$(go build -gcflags=-m ./internal/search 2>&1)
for fn in 'bf16' 'joint' '(*Scan).sumAt' '(*Scan).sumTo'; do
	printf '%s\n' "$inl" | awk -v fn="$fn" '$(NF - 2) " " $(NF - 1) == "can inline" && $NF == fn {ok = 1} END {exit !ok}' || {
		echo "FAIL: search.$fn is no longer inlinable" >&2
		exit 1
	}
done
if command -v python3 > /dev/null 2>&1; then
	tmp=$(mktemp -d)
	go test -c -o "$tmp/core.test" ./internal/core
	go tool nm -size "$tmp/core.test" | grep -E ' runtime\.duff(copy|zero)$' > "$tmp/duff"
	go tool objdump -s 'core\.\(\*Loop\)\.begin$|core\.\(\*LoopExec\)\.Finish$' "$tmp/core.test" > "$tmp/asm"
	status=0
	python3 - "$tmp/duff" "$tmp/asm" <<'EOF' || status=$?
import re, sys
# Calls into Duff's devices land mid-symbol, so objdump prints a bare
# address: match it against the two symbols' ranges.
duff = [(int(f[0], 16), int(f[0], 16) + int(f[1]), f[3]) for f in (l.split() for l in open(sys.argv[1]))]
assert len(duff) == 2, f"runtime.duffcopy/duffzero not found: {duff}"
funcs, bad = 0, []
for line in open(sys.argv[2]):
    if line.startswith("TEXT"):
        funcs, name = funcs + 1, line.split()[1]
    m = re.search(r"\bCALL 0x([0-9a-f]+)", line)
    if m:
        bad += [f"{name} calls {sym}" for lo, hi, sym in duff if lo <= int(m.group(1), 16) < hi]
assert funcs == 2, f"expected (*Loop).begin and (*LoopExec).Finish in the disassembly, found {funcs} functions"
assert not bad, "; ".join(bad)
print("hot path: leaves inlinable, no whole-member copy in begin or Finish")
EOF
	rm -rf "$tmp"
	[ "$status" -eq 0 ] || exit 1
fi

echo "== wire protocol has one owner =="
# Another gate with no clock in it: what crosses a socket in the serving
# tier is written down once. Each of these key and path literals may
# appear in the non-test Go source of internal/wire and of no other
# package (bench/ is a module a PR may not edit and keeps its own
# decoders), and the three helpers worker, coordinator and load
# generator each used to carry a copy of may not grow one back.
for lit in '"docs_scored"' '"mean_monitored_loss"' '"pred_loss"' '"failed_shards"' '"/budget"' '"/model"' '"serve.match"'; do
	owners=$(grep -rlF --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
		--exclude-dir=testdata --exclude-dir=.bench_build --exclude-dir=.git -e "$lit" . |
		xargs -n1 dirname | sort -u | tr '\n' ' ')
	if [ "$owners" != "./internal/wire " ]; then
		echo "FAIL: $lit appears in: $owners(want ./internal/wire only)" >&2
		exit 1
	fi
done
copies=$(grep -rnE --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build --exclude-dir=.git \
	'^func (appendJSONString|rawParam|writeJSON)\(' . | grep -v '^\./internal/wire/' || true)
if [ -n "$copies" ]; then
	echo "FAIL: private copies of internal/wire helpers:" >&2
	echo "$copies" >&2
	exit 1
fi

echo "all checks passed"
