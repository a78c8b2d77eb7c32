// Command bench is the repository's benchmark: six workloads from the
// control law to the coordinator, each run Green-on, with approximation
// disabled, and as the bare kernel, every output checked against ground
// truth, every layer measured from outside. See README.md.
//
// The driver's form runs one workload once and prints one JSON object
// as the last line of standard output:
//
//	bench --workload serve_tail --seed 3 --seconds 10 --trace 0
//
// With no -workload it runs all six, untraced and traced, and prints
// every metric by name with its unit. -repeat 2 -check runs the set
// twice and fails when the two disagree by more than the benchmark's own
// bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's JSON line (default: all six, as a table)")
		seed     = flag.Int64("seed", 1, "seed of the inputs; the corpus seed is a constant")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured part on the reference box; fixes the operation count")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "run the full set this many times")
		checkRep = flag.Bool("check", false, "with -repeat 2: exit non-zero when the two sets differ beyond the bounds")
		spec     = flag.Bool("spec", false, "print the content of BENCHMARK.json and exit")
		outDir   = flag.String("out", "out", "directory for span files and scratch state")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *repeat, *checkRep, *spec, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, repeat int, checkRep, spec bool, outDir string) error {
	if spec {
		b, err := specJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	if seconds <= 0 || repeat < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need -seconds > 0, -repeat >= 1 and -trace 0 or 1")
	}
	cfg := runConfig{seed: seed, seconds: seconds, outDir: outDir}
	if workload != "" {
		// One P. The reference box is two hyperthreads of a shared host:
		// with two Ps the idle one spins looking for work beside the one
		// that has some, a closed loop's client and server wake each other
		// across them, and every timing moved by a third between identical
		// runs (lib_control round 27 vs 42 us, serve_head 19 k vs 24 k
		// ops/s). On one P the same numbers repeat within a few percent.
		// What two Ps do to a shared Loop is lib_control's burst, which
		// raises the setting for its own length.
		runtime.GOMAXPROCS(1)
		if err := startYardstick(); err != nil {
			return err
		}
		defer yard.stop()
		cfg.traced = trace == 1
		res, err := runOne(workload, cfg)
		if err != nil {
			return err
		}
		defs := endToEnd
		if cfg.traced {
			defs = perLayer
		}
		fmt.Printf("%s seed=%d seconds=%g trace=%d (attempted %d, failed %d)\n%s", workload, seed, seconds, trace, res.attempted, res.failed, res.table(defs))
		line, err := res.report(defs)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		return nil
	}

	printMachine()
	var sets []map[string]*result
	for i := 0; i < repeat; i++ {
		set := make(map[string]*result)
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				fmt.Printf("\n== set %d  ", i+1)
				res, err := runChild(w.name, cfg, trace)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				set[fmt.Sprintf("%s/%v", w.name, trace == 1)] = res
			}
		}
		sets = append(sets, set)
	}
	if checkRep {
		if len(sets) != 2 {
			return fmt.Errorf("-check compares two sets: use -repeat 2")
		}
		return compareSets(sets[0], sets[1])
	}
	return nil
}

// runChild is one run in a process of its own, the way the driver makes
// them: a workload that ran after another in this process would inherit
// its heap, and peak_rss_mb would be the pair's. The child's table goes
// to standard output; its last line, the JSON object, becomes the result.
func runChild(name string, cfg runConfig, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-out", cfg.outDir, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	table, line, _ := strings.Cut(strings.TrimSuffix(string(out), "\n"), "\n{")
	fmt.Println(table)
	var parsed struct {
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte("{"+line), &parsed); err != nil {
		return nil, fmt.Errorf("the run's last line is not its result: %w", err)
	}
	res := &result{attempted: parsed.Attempted, failed: parsed.Failed, values: make(map[string]float64)}
	for k, m := range parsed.Metrics {
		res.values[k] = m.Value
	}
	return res, nil
}

func runOne(name string, cfg runConfig) (*result, error) {
	for _, w := range workloads {
		if w.name == name {
			t0 := time.Now()
			res, err := w.run(cfg)
			if err != nil {
				return nil, err
			}
			if res.attempted < 1 {
				return nil, fmt.Errorf("%s attempted no operation", name)
			}
			res.notes = append(res.notes, fmt.Sprintf("the run took %.1f s in all", time.Since(t0).Seconds()))
			return res, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// exactCounts are the count metrics whose value is a function of the
// sequence alone (every workload runs one connection): two runs of the
// same code must agree on them to the last bit.
var exactCounts = map[string][]string{
	"lib_control/false":     {"work_saved", "qos_kept", "sla_met_share"},
	"app_kernels/false":     {"work_saved", "qos_kept", "sla_met_share"},
	"serve_head/false":      {"work_saved", "qos_kept", "sla_met_share"},
	"serve_tail/false":      {"work_saved", "qos_kept", "sla_met_share"},
	"serve_drift/false":     {"work_saved", "qos_kept", "sla_met_share"},
	"cluster_scatter/false": {"work_saved", "qos_kept", "sla_met_share"},
	"lib_control/true":      {"core.final_level", "core.level_changes"},
	"serve_tail/true":       {"serve.approximated_share", "serve.monitored_share", "core.final_level", "core.level_changes", "search.docs_per_query", "search.match_per_query"},
	"serve_drift/true":      {"serve.approximated_share", "serve.monitored_share", "core.final_level", "core.level_changes", "search.docs_per_query", "search.match_per_query"},
	"cluster_scatter/true":  {"core.final_level", "core.level_changes", "search.docs_per_query", "search.match_per_query"},
}

// compareSets is -check: every end-to-end metric of the second set must
// be within its bound of the first, in either direction, and the exact
// counts must be equal.
func compareSets(a, b map[string]*result) error {
	var bad []string
	for key, ra := range a {
		rb := b[key]
		if strings.HasSuffix(key, "/false") {
			for _, d := range endToEnd {
				x, y := ra.values[d.name], rb.values[d.name]
				if x == y {
					continue
				}
				if diff := math.Abs(x-y) / max(math.Abs(x), math.Abs(y)); diff > d.bound {
					bad = append(bad, fmt.Sprintf("%s %s: %g vs %g differ by %.3f, bound %.3f", key, d.name, x, y, diff, d.bound))
				}
			}
		}
		for _, name := range exactCounts[key] {
			if x, y := ra.values[name], rb.values[name]; x != y {
				bad = append(bad, fmt.Sprintf("%s %s: %v vs %v must be equal", key, name, x, y))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("the two sets disagree:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("\ncheck: the two sets agree within the bounds; exact counts are equal")
	return nil
}

// printMachine records what the numbers were taken on.
func printMachine() {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("machine: cpu %q, nproc %d, GOMAXPROCS 1 in every run, %s, commit %s\n",
		cpu, runtime.NumCPU(), runtime.Version(), commit)
}
