#!/bin/sh
# Scores greenlint the way the ROADMAP scores the runtime: what each check
# costs (its own source lines), what it has caught on real code (the
# examples and bench/ at HEAD; every committed tree since bench/ exists),
# what it catches of the violations it exists for (the one-edit mutants
# of the examples under internal/lint/testdata/mutants), how many of
# those go vet already flags, and the judged verdict on each clause of
# the keep rule printed in the header.
#
#   sh scripts/lint_score.sh         writes results/lint_checks.txt
#   sh scripts/lint_score.sh head    prints the header and the HEAD
#                                    section only (check.sh diffs that
#                                    against the committed file)
#
# The history and suggestion-tier sections unpack old trees with `git
# archive`, so they need the full clone; without one the script says so
# and writes the HEAD section only. No timings are printed: two runs on
# one checkout write the same bytes.
set -eu

mode=${1:-all}
cd "$(dirname "$0")/.."
root=$(pwd)
out=results/lint_checks.txt

work=$(mktemp -d "${TMPDIR:-/tmp}/lint_score.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
go build -o "$work/greenlint" ./cmd/greenlint

# findings <tree>: lints the tree's module, its bench/ and whatever else
# is named, and prints one "state check file message" row per finding on
# stdout (state: active, ignored). greenlint's JSON puts one field of a
# finding per line at a fixed indent.
findings() {
	tree=$1
	shift
	status=0
	(cd "$tree" && "$work/greenlint" -format json "$@" 2> "$work/stderr") > "$work/json" || status=$?
	if [ "$status" -gt 1 ]; then # 1 is "findings"; anything else did not lint
		cat "$work/stderr" >&2
		echo "lint_score: greenlint could not lint $tree" >&2
		return 1
	fi
	awk '
		function val(s) { sub(/^ *"[a-zA-Z]+": "?/, "", s); sub(/"?,?$/, "", s); return s }
		/^    "file": /       { file = val($0) }
		/^    "line": /       { line = val($0) }
		/^    "check": /      { check = val($0) }
		/^    "message": /    { msg = val($0) }
		/^    "suppressed": / { sup = 1 }
		/^  }/ { print (sup ? "ignored" : "active"), check, file, msg; sup = 0 }
	' "$work/json"
}

# judge: the one human column. "check file-prefix verdict reason"; a
# finding no row covers prints "?" and fails check.sh's diff until
# somebody has looked at it.
judgements='nondet internal/experiments/misc.go true the overhead experiment times a real loop on purpose; each clock read carries a reasoned ignore'
judge() {
	echo "$judgements" | awk -v check="$1" -v file="$2" '
		$1 == check && index(file, $2) == 1 { v = $3; $1 = $2 = $3 = ""; sub(/^ +/, ""); print v " (" $0 ")"; found = 1; exit }
		END { if (!found) print "?" }'
}

header() {
	cat <<'EOF'
greenlint, check by check: what it costs, what it has caught
(regenerate with `sh scripts/lint_score.sh`; results/README.md says what needs the full clone)

KEEP RULE. A check stays iff the mistake it catches gets past everything
cheaper: (a) it compiles; (b) go vet does not flag it; (c) the controller's
constructor, SetAdaptive or Restore does not refuse it at run time; (d) it
is plausible, a true mistake in some committed tree or a misuse an example
or README snippet could make (a reasoned //greenlint:ignore is not a
mistake). A mistake the API can make unwritable is made unwritable instead.
An advisory tier stays iff it names a site that is not already a controlled
kernel, its reference implementation, or a reporting/bookkeeping loop, and
that some BENCHMARK.json workload or greenbench experiment spends >= 1 % of
its time in.

EOF
}

# verdicts: the judged clauses of the keep rule, one row per check,
# "check|c verdict|c evidence|d verdict|d evidence". A check with no row
# prints "?" and fails check.sh's diff until somebody has judged it.
verdicts='beginfinish|yes|an unfinished handle is never reported, only never monitored|yes|every example is a handle loop; a warm-up Begin (quickstart) drops one in one edit
continuecond|yes|Continue(0) or Continue in the body runs as written, never stopping where calibrated|yes|each handle loop writes its guard by hand (quickstart, renderer); Phoenix generated it
ctrlcopy|yes|a copy calls no constructor; its Level and Stats read a fork of the live controller|yes|vet skips *f() on purpose: ctl := *approx.Loop() (webservice) copies unflagged
finishpath|yes|an early return strands the handle; a second Finish can finish the next Begin'"'"'s run|yes|an early exit from a handle loop (quickstart) or a doubled Finish (searchengine)
handleescape|yes|Finish pools the handle with no owner check: the escaped pointer aliases the next Begin|yes|a helper that returns the handle (renderer) or a package variable (quickstart)
errdrop|yes|the dropped error is the refusal itself; dropping it lets the bad model through|yes|m, _ := cal.Build() (dftfilter) and a bare cal.AddRun (searchengine) are the short form
nondet|yes|AddRun checks arity and sign only: a clock-seeded calibration builds a new model each run|yes|a rand.Float64 input (dftfilter) or a clock-seeded camera (renderer) is one edit'

head_section() {
	echo "== HEAD =="
	echo "lines: the check's own file (wc -l); what several checks stand on is listed once, below."
	echo "ex+bench: findings on examples/ and bench/ as active/ignored."
	echo "mutants: seeded / caught at the marked line / caught with no other check firing."
	echo "vet: mutants that go vet flags. stays: (a) a mutant is caught, so it compiles under greenlint's"
	echo "strict loader; (b) vet misses at least one; (c) and (d) as judged below."
	echo
	findings "$root" ./bench ./examples/... > "$work/head.findings"

	# One run over every mutant; a mutant is caught when its check fires
	# on the line that carries the want marker, alone when nothing else
	# fires. One go vet over every mutant directory; a mutant is flagged
	# when vet reports anything in it (the examples themselves vet clean).
	mutants=internal/lint/testdata/mutants
	("$work/greenlint" $(ls -d $mutants/*/) 2>/dev/null || true) > "$work/mutants.out"
	(go vet $(ls -d $mutants/*/ | sed 's|^|./|') 2>&1 || true) > "$work/vet.out"
	for dir in $(ls $mutants); do
		want=$(grep -n '// want ' "$mutants/$dir/main.go" | cut -d: -f1)
		vetted=$(grep -c "^$mutants/$dir/" "$work/vet.out" || true)
		awk -v dir="$dir" -v want="$want" -v file="$mutants/$dir/main.go" -v vetted="$vetted" '
			BEGIN { check = dir; sub(/_.*/, "", check); what = dir; sub(/^[^_]*_/, "", what) }
			index($0, file ":") == 1 {
				if (index($0, file ":" want ": [" check "]") == 1) caught = 1; else other = 1
			}
			END { print check, what, caught + 0, (caught && !other) + 0, (vetted > 0) + 0 }' "$work/mutants.out"
	done > "$work/mutants.score"

	printf '%-13s %-6s %6s  %-9s %-8s %-4s %-5s %s\n' check tier lines ex+bench mutants vet stays "caught alone"
	"$work/greenlint" -list | while read -r check tier _; do
		lines=$(wc -l < "internal/lint/$check.go")
		fired=$(awk -v c="$check" '$2 == c { n[$1]++ } END { print n["active"] + 0 "/" n["ignored"] + 0 }' "$work/head.findings")
		judged=$(echo "$verdicts" | awk -F'|' -v c="$check" '$1 == c { print $2 $4; found = 1 } END { if (!found) print "?" }')
		awk -v c="$check" -v tier="$tier" -v lines="$lines" -v fired="$fired" -v judged="$judged" '
			$1 == c { seeded++; caught += $3; alone += $4; vetted += $5; if ($4) names = names " " $2 }
			END {
				stays = judged == "?" ? "?" : (alone && vetted < seeded && judged == "yesyes") ? "yes" : "no"
				printf "%-13s %-6s %6s  %-9s %-8s %-4s %-5s%s\n", c, tier, lines, fired,
					seeded + 0 "/" caught + 0 "/" alone + 0, vetted + 0 "/" seeded + 0, stays, names
			}' "$work/mutants.score"
	done
	echo
	echo "keep rule, clauses (c) and (d) judged:"
	"$work/greenlint" -list | while read -r check _; do
		echo "$verdicts" | awk -F'|' -v c="$check" '
			$1 == c { printf "  %-13s c %s: %s\n  %-13s d %s: %s\n", c, $2, $3, "", $4, $5; found = 1 }
			END { if (!found) printf "  %-13s ?\n", c }'
	done
	echo
	echo "deleted under this rule, each with its fixture, mutants, tests and the code only it used:"
	echo "  slarange      fails (c): its mutants are refused when the controller is built: SLA 1.5 exits 1"
	echo "                with 'core: loop \"pi.main\": SLA 1.5 outside (0,1]', SampleInterval -500 with"
	echo "                'negative SampleInterval -500'; SetAdaptive refuses incomplete AdaptiveParams, and"
	echo "                errdrop guards the returned error."
	echo "  calorder      unwritable: NewApp(cfg, units...) takes the units and App.Register is gone, so no"
	echo "                unit can join after ObserveAppQoS."
	echo "  taintsink     fails (d), with taintendorse and taintescape (1 492 lines with summary.go and"
	echo "                callgraph.go): its one finding in history (through 82dd1c9) was a crossing endorsed"
	echo "                on purpose; its mutants (go fmt.Println of a probe, progress <- i, an approximate"
	echo "                value in fmt.Errorf, an approximated estimate fed to AddRun, an approximate cos"
	echo "                steering DisableApprox) appear in no committed tree; and it was made blind to the"
	echo "                calibration idiom (precise - approx) to stay quiet."
	echo "shared infrastructure, counted once:"
	for f in handles cfg astutil suppress lint load format; do
		case $f in
		handles) users="beginfinish continuecond finishpath handleescape" ;;
		cfg) users="finishpath" ;;
		astutil) users="every check" ;;
		suppress) users="//greenlint:ignore, every check" ;;
		lint) users="catalogue, Pass, LintAll" ;;
		load) users="go/parser + go/types loader" ;;
		format) users="text, json, sarif writers" ;;
		esac
		printf '  %-13s %6d  %s\n' "$f.go" "$(wc -l < internal/lint/$f.go)" "$users"
	done
	printf '  %-13s %6d  %s\n' total "$(cat $(ls internal/lint/*.go | grep -v _test.go) | wc -l)" "internal/lint source lines (scripts/loc.sh)"
	echo
	echo "findings on examples/ and bench/, judged:"
	if [ -s "$work/head.findings" ]; then
		while read -r state check file msg; do
			echo "  $state $check $file: $(judge "$check" "$file")"
		done < "$work/head.findings"
	else
		echo "  (none: the six examples and bench/ lint clean)"
	fi
	echo
}

history_section() {
	echo "== HISTORY =="
	echo "This HEAD's greenlint over every committed tree that has bench/ (\`git archive\`; commits that"
	echo "touch no .go file skipped): ./... plus ./bench, fixtures excluded as always. Cells count findings"
	echo "as a(ctive) i(gnored); '.' is none."
	echo
	trees=""
	for c in $(git rev-list --reverse HEAD); do
		git cat-file -e "$c:bench/go.mod" 2>/dev/null || continue
		git diff --quiet "$c^" "$c" -- '*.go' 2>/dev/null && continue
		label=$(git log -1 --format=%s "$c" | sed -n 's/^PR \([0-9]*\):.*/PR\1/p')
		[ -n "$label" ] || label=$(git rev-parse --short=7 "$c")
		trees="$trees $label"
		mkdir "$work/tree"
		git archive "$c" | tar -x -C "$work/tree"
		findings "$work/tree" ./... ./bench > "$work/tree.findings"
		sed "s/^/$label /" "$work/tree.findings" >> "$work/history"
		rm -rf "$work/tree"
	done
	touch "$work/history"
	awk -v trees="$trees" -v checks="$("$work/greenlint" -list | cut -d' ' -f1 | tr '\n' ' ')" '
		{ n[$3, $1, substr($2, 1, 1)]++ }
		END {
			nt = split(trees, t, " "); nc = split(checks, c, " ")
			printf "%-13s", "check"; for (i = 1; i <= nt; i++) printf " %7s", t[i]; printf "\n"
			for (j = 1; j <= nc; j++) {
				printf "%-13s", c[j]
				for (i = 1; i <= nt; i++) {
					cell = ""
					for (k = 1; k <= 2; k++) { s = substr("ai", k, 1); if (n[c[j], t[i], s]) cell = cell n[c[j], t[i], s] s }
					printf " %7s", (cell == "" ? "." : cell)
				}
				printf "\n"
			}
		}' "$work/history"
	echo
	echo "distinct findings (most in one tree x state check file: message), judged:"
	# Lines move between trees; a finding is the same finding when state,
	# check, file and message agree, and it counts as often as the tree
	# that has most of it.
	awk '{ tree = $1; $1 = ""; sub(/^ /, ""); n[tree SUBSEP $0]++; if (n[tree SUBSEP $0] > max[$0]) max[$0] = n[tree SUBSEP $0]
		if (!($0 in first)) { first[$0] = tree; order[++cnt] = $0 } last[$0] = tree }
		END { for (i = 1; i <= cnt; i++) print max[order[i]], first[order[i]], last[order[i]], order[i] }' "$work/history" |
		while read -r n first last state check file msg; do
			echo "  ${n}x $state $check $file ($first..$last): $msg"
			echo "     -> $(judge "$check" "$file")"
		done
	echo "  1x active beginfinish bench/lib_control.go (PR11..PR20, by the greenlint of those trees only): e.Finish is never called"
	echo "     -> false (one handle built by ExecFeat or Begin on the two arms of an if, finished once; the tracker"
	echo "        took the arms for two handles. Fixed with this table, testdata/src/*/twobranch.go, so this HEAD's"
	echo "        binary no longer reports it and the matrix above does not show it)"
	echo
}

# The suggestion tier (suggestreduce, suggestconverge, suggestscan) was
# deleted by the PR that added this table; $lastsuggest is the last commit
# that had it. Each site it named there is judged below:
#   K  already-controlled kernel (runs under a Green controller, or is the controller's own execution loop)
#   R  reference implementation of such a kernel (the precise oracle it is checked against)
#   B  reporting or bookkeeping loop: an example's or experiment's driver and report sums, QoS metrics,
#      calibration/model fitting (the precise plane), stats handlers, parsers, corpus construction
#   N  none of the above, and >= 1 % of some BENCHMARK.json workload or greenbench experiment
lastsuggest=5636ccf
sites='internal/raytracer/raytracer.go:265 K
internal/raytracer/raytracer.go:264 K
internal/search/scanand.go:83 K
internal/cga/cga.go:203 K
internal/dft/dft.go:43 K
internal/search/scan.go:105 K
internal/core/funcapprox.go:275 K
internal/search/conjunctive.go:44 R
internal/search/search.go:323 R
internal/dft/dft.go:86 R
examples/renderer/main.go:96 B
examples/renderer/main.go:83 B
examples/renderer/main.go:155 B
examples/webservice/main.go:66 B
examples/webservice/main.go:65 B
examples/dftfilter/main.go:100 B
examples/searchengine/main.go:108 B
examples/options/main.go:153 B
examples/options/main.go:86 B
examples/quickstart/main.go:41 B
internal/experiments/ablation.go:137 B
internal/experiments/ablation.go:38 B
internal/experiments/ablation.go:252 B
internal/experiments/bs.go:244 B
internal/experiments/misc.go:166 B
internal/experiments/selector.go:331 B
internal/experiments/selector.go:172 B
internal/experiments/selector.go:106 B
internal/experiments/selector.go:110 B
internal/experiments/experiments.go:221 B
internal/experiments/search.go:68 B
internal/experiments/search.go:284 B
internal/core/func2d.go:172 B
internal/core/funcapprox.go:315 B
internal/core/calibrate.go:76 B
internal/core/calibrate.go:227 B
internal/core/search.go:262 B
internal/core/search.go:159 B
internal/core/search.go:258 B
internal/model/model.go:486 B
internal/model/model.go:500 B
internal/model/model.go:472 B
internal/model/model.go:466 B
internal/model/model.go:511 B
internal/model/grid.go:133 B
internal/model/grid.go:131 B
internal/cluster/coordinator.go:312 B
internal/cluster/coordinator.go:260 B
internal/serve/qcache.go:109 B
internal/serve/serve.go:396 B
internal/wire/wire.go:54 B
internal/lint/taint.go:467 B
internal/lint/finishpath.go:299 B
internal/lint/suggest.go:665 B
internal/search/search.go:249 B
internal/search/search.go:155 B
internal/search/search.go:407 B
internal/metrics/metrics.go:89 B
internal/metrics/metrics.go:45 B
internal/metrics/metrics.go:62 B
internal/energy/energy.go:191 B
internal/energy/energy.go:161 B
internal/energy/energy.go:76 B
internal/taskgraph/taskgraph.go:61 B
internal/taskgraph/taskgraph.go:60 B
internal/taskgraph/taskgraph.go:50 B'

suggest_section() {
	echo "== SUGGESTION TIER =="
	echo "suggestreduce, suggestconverge, suggestscan: deleted by the PR that added this table. Measured on the"
	echo "last tree that had them ($lastsuggest, its own greenlint -suggest ./internal/... ./examples/...), each"
	echo "site judged in scripts/lint_score.sh."
	echo
	mkdir "$work/tree"
	git archive "$lastsuggest" | tar -x -C "$work/tree"
	(cd "$work/tree" && go build -o "$work/greenlint.suggest" ./cmd/greenlint &&
		"$work/greenlint.suggest" -suggest ./internal/... ./examples/... 2>/dev/null) |
		sed -n 's/^\([^:]*:[0-9]*\): \[\(suggest[a-z]*\)\].*/\1 \2/p' > "$work/suggested"
	rm -rf "$work/tree"
	echo "$sites" | awk -v lines="$(git show "$lastsuggest:internal/lint/suggest.go" "$lastsuggest:internal/lint/scaffold.go" \
		"$lastsuggest:internal/lint/suggestrank.go" "$lastsuggest:internal/lint/costprofile.go" | wc -l)" '
		NR == FNR { class[$1] = $2; next }
		{ total++; c = ($1 in class) ? class[$1] : "?"; n[c]++; by[$2]++ }
		END {
			printf "source lines       %d (suggest.go scaffold.go suggestrank.go costprofile.go), four flags, one script, one gate stage\n", lines
			printf "sites named        %d (suggestreduce %d, suggestconverge %d, suggestscan %d)\n", total, by["suggestreduce"], by["suggestconverge"], by["suggestscan"]
			printf "  K already-controlled kernel          %d\n", n["K"]
			printf "  R reference implementation           %d\n", n["R"]
			printf "  B reporting or bookkeeping loop      %d\n", n["B"]
			printf "  N new site, >= 1 %% of a workload     %d\n", n["N"]
			if (n["?"]) printf "  ? not judged                         %d\n", n["?"]
			printf "stays              %s\n", (n["N"] ? "yes" : "no: nothing in the last column")
		}' - "$work/suggested"
	echo
	echo "Where the time goes is K and R (that is why they were greened long ago). The hottest B site is"
	echo "wire.RawParam, a query-string parser: 1.05 % of the in-process BenchmarkServeQPS + ClusterScatter"
	echo "profile, about 40 ns of a >= 30 us socket request on serve_head (~0.1 %), and stopping it early is a"
	echo "wrong query, not an approximation. The best-ranked B site outside the examples is"
	echo "runAblationPolicy's bad++ counter (score 112)."
}

if [ "$mode" = head ]; then
	header
	head_section
	exit 0
fi
{
	header
	head_section
	if git rev-parse --verify --quiet "$lastsuggest^{commit}" > /dev/null 2>&1; then
		history_section
		suggest_section
	else
		echo "== HISTORY =="
		echo "not regenerated: no git history here (the history and suggestion-tier sections need the full clone)."
	fi
} > "$work/table"
cp "$work/table" "$out"
echo "wrote $out" >&2
