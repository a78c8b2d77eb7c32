package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, traced bool) runConfig {
	return runConfig{seed: 1, seconds: 1, traced: traced, tiny: true, outDir: t.TempDir()}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryWorkloadEmitsEveryMetric is the smoke test: every workload
// runs, untraced and traced, fails no operation, and reports every
// metric BENCHMARK.json names as a finite number.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				t.Parallel()
				res, err := runOne(w.name, tinyConfig(t, traced))
				if err != nil {
					t.Fatalf("%s traced=%v: %v", w.name, traced, err)
				}
				if res.failed != 0 || res.attempted < 1 {
					t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, res.failed, res.attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				line, err := res.report(defs)
				if err != nil {
					t.Fatalf("%s traced=%v: %v", w.name, traced, err)
				}
				var out struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &out); err != nil {
					t.Fatalf("%s: report is not JSON: %v", w.name, err)
				}
				if !out.Correct || len(out.Metrics) != len(defs) {
					t.Errorf("%s traced=%v: correct=%v with %d metrics, want %d", w.name, traced, out.Correct, len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.name]
					if !ok || m.Value == nil || m.Unit != d.unit {
						t.Errorf("%s: metric %s missing or without its unit", w.name, d.name)
						continue
					}
					if !traced {
						if _, set := res.values[d.name]; !set {
							t.Errorf("%s: end-to-end metric %s was never measured", w.name, d.name)
						}
						if d.name != "work_saved" && *m.Value <= 0 {
							t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, *m.Value)
						}
					}
				}
			})
		}
	}
}

// TestCountsRepeatExactly: on one connection the controller's
// trajectory is a function of the request sequence alone, so two runs of
// the same code agree on every exact count to the last bit.
func TestCountsRepeatExactly(t *testing.T) {
	for key, counts := range exactCounts {
		name, mode, _ := strings.Cut(key, "/")
		traced := mode == "true"
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			a, err := runOne(name, tinyConfig(t, traced))
			if err != nil {
				t.Fatal(err)
			}
			b, err := runOne(name, tinyConfig(t, traced))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range counts {
				if a.values[c] != b.values[c] {
					t.Errorf("%s %s: %v then %v", name, c, a.values[c], b.values[c])
				}
			}
		})
	}
}

func TestMetricNamesAndSpec(t *testing.T) {
	seen := make(map[string]bool)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is malformed or used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is not what `bench -spec` prints; regenerate it")
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 200 samples support p90, not p99: the tail reported is the 180th.
	lats := make([]float64, 200)
	for i := range lats {
		lats[i] = float64(i + 1)
	}
	if v, p := tailLatency(lats); p != 0.9 || v != 180 {
		t.Errorf("tailLatency = %v at p%v, want 180 at p0.9", v, p)
	}
	// Blocks too small for a tail of their own: the p90 of all samples.
	if _, p, perBlock := tailOfBlocks(lats, 4); p != 0.9 || perBlock {
		t.Errorf("tailOfBlocks on 4 blocks of 50 = p%v perBlock=%v, want p0.9 of all", p, perBlock)
	}
	// Three blocks of 1000, one of them stalled: its tail is one vote.
	big := make([]float64, 3000)
	for i := range big {
		big[i] = float64(i%1000 + 1)
		if i >= 2000 {
			big[i] *= 50
		}
	}
	if v, p, perBlock := tailOfBlocks(big, 3); v != 950 || p != tailPercentile || !perBlock {
		t.Errorf("tailOfBlocks = %v at p%v perBlock=%v, want 950 at p0.95 per block", v, p, perBlock)
	}
}

func TestMedianOfBlocks(t *testing.T) {
	blocks := []blockSample{
		{ops: 100, wall: time.Second, slow: 1},
		{ops: 100, wall: 3 * time.Second, slow: 1.5}, // the box was busy: 2 s on the quiet one
		{ops: 100, wall: 500 * time.Millisecond, slow: 1},
		{ops: 100, wall: 100 * time.Second, slow: 1}, // the stalled block
		{ops: 100, wall: time.Second, slow: 1},
	}
	if got := medianOfBlocks(blocks); got != 100 {
		t.Errorf("medianOfBlocks = %v, want 100: one stalled block must not move it", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestQuietBox(t *testing.T) {
	for _, w := range workloads {
		if share, ok := contentionShare[w.name]; !ok || share.run <= 0 || share.setup <= 0 {
			t.Errorf("%s has no contention shares", w.name)
		}
	}
	if got := slowdown(0.7, reading{1, 1}); got != 1 {
		t.Errorf("slowdown on the quiet box = %v, want 1", got)
	}
	if got := slowdown(0.7, reading{4, 1}); math.Abs(got-1.7) > 1e-12 {
		t.Errorf("slowdown at contention 2 and share 0.7 = %v, want 1.7", got)
	}
	// Without a yardstick (this test) nothing is corrected, and the laps
	// add up to the whole.
	s, err := quietSeconds("lib_control", func(lap func()) error {
		time.Sleep(time.Millisecond)
		lap()
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || s < 2e-3 {
		t.Errorf("quietSeconds = %v, %v: want the wall time as measured", s, err)
	}
	// Each block's latencies are divided by that block's slowdown.
	run := &blockRun{}
	run.lats[approxOn] = []float64{10, 20, 30, 60}
	run.blocks[approxOn] = []blockSample{{lats: 1, slow: 1}, {lats: 3, slow: 2}}
	if got := run.quietLats(approxOn); !slices.Equal(got, []float64{10, 10, 15, 30}) {
		t.Errorf("quietLats = %v, want [10 10 15 30]", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "handler", Start: 10, End: 90, Parent: 0},
		{Name: "worker", Start: 20, End: 50, Parent: 1},
		{Name: "worker", Start: 40, End: 70, Parent: 1}, // overlaps the first
		{Name: "replay", Start: 500, End: 510, Parent: 1, Replay: true},
	}
	want := []time.Duration{20, 20, 30, 30, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got, want[i])
		}
	}
}

func TestOracleVerdicts(t *testing.T) {
	truth := page{docs: []int{1, 2, 3}, matched: 50}
	cases := []struct {
		name            string
		body            string
		m               mode
		failed, differs bool
	}{
		{"precise and equal", `{"docs":[1,2,3],"docs_scored":50,"approximated":false}`, approxOff, false, false},
		{"precise but different", `{"docs":[1,2,4],"docs_scored":50,"approximated":false}`, approxOff, true, false},
		{"precise server approximated", `{"docs":[1,2,3],"docs_scored":20,"approximated":true}`, approxOff, true, false},
		{"green approximated and different", `{"docs":[1,2,4],"docs_scored":20,"approximated":true}`, approxOn, false, true},
		{"green not approximated but different", `{"docs":[1,2,4],"docs_scored":50,"approximated":false}`, approxOn, true, false},
		{"scored more than match", `{"docs":[1,2,3],"docs_scored":51,"approximated":false}`, approxOn, true, false},
		{"malformed", `{"docs":[1,2,`, approxOn, true, false},
		{"degraded", `{"docs":[1,2,3],"docs_scored":10,"approximated":true,"degraded":true}`, approxOn, true, false},
	}
	for _, c := range cases {
		v := check([]byte(c.body), truth, c.m, true)
		if v.failed != c.failed || v.differs != c.differs {
			t.Errorf("%s: failed=%v differs=%v, want %v %v", c.name, v.failed, v.differs, c.failed, c.differs)
		}
	}
	// A coordinator's body has no approximated field: scoring every match
	// stands in for it.
	if v := check([]byte(`{"docs":[1,2,4],"docs_scored":50}`), truth, approxOn, false); !v.failed {
		t.Error("a coordinator page that scored every match but differs must fail")
	}
	if v := check([]byte(`{"docs":[1,2,4],"docs_scored":30}`), truth, approxOn, false); v.failed || !v.differs {
		t.Error("a coordinator page that scored fewer and differs is quality loss, not failure")
	}
}

func TestSLAMetShare(t *testing.T) {
	losses := []float64{0, 0, 0, 1, 0, 0, 0, 0, 1, 1}
	if got := slaMetShare(losses, 4, 0.25); got != 1 {
		t.Errorf("slaMetShare = %v, want 1 (two whole windows, each at the SLA)", got)
	}
	if got := slaMetShare(losses, 5, 0.25); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("slaMetShare = %v, want 0.5", got)
	}
}
