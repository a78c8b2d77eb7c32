package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestSelectorExperiment runs the reactive-vs-proactive comparison at a
// small scale and checks its structural invariants: two rows per
// workload in reactive/proactive order, parseable cells, and — the
// experiment's headline — the proactive search row cannot show a
// higher loss variance than the reactive one.
func TestSelectorExperiment(t *testing.T) {
	tbl, err := Run("selector", Options{Seed: 42, Scale: 0.05, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 (two workloads x two controllers)", len(tbl.Rows))
	}
	wantPairs := []string{"search", "raytracer"}
	for i, w := range wantPairs {
		re, pr := tbl.Rows[2*i], tbl.Rows[2*i+1]
		if re[0] != w || pr[0] != w {
			t.Fatalf("rows %d/%d name workloads %q/%q, want %q", 2*i, 2*i+1, re[0], pr[0], w)
		}
		if re[1] != "reactive" || pr[1] != "proactive" {
			t.Fatalf("%s controllers = %q/%q, want reactive/proactive", w, re[1], pr[1])
		}
		for _, row := range [][]string{re, pr} {
			for c := 4; c <= 5; c++ {
				if _, err := strconv.Atoi(row[c]); err != nil {
					t.Fatalf("%s %s column %d = %q not an integer", w, row[1], c, row[c])
				}
			}
		}
	}

	// The search note carries the variance comparison; the proactive
	// variance must not exceed the reactive one.
	var varNote string
	for _, n := range tbl.Notes {
		if strings.Contains(n, "loss variance reactive") {
			varNote = n
			break
		}
	}
	if varNote == "" {
		t.Fatal("no loss-variance note in output")
	}
	fields := strings.Fields(varNote)
	var vals []float64
	for _, f := range fields {
		if v, err := strconv.ParseFloat(f, 64); err == nil && strings.Contains(f, ".") {
			vals = append(vals, v)
		}
	}
	if len(vals) < 2 {
		t.Fatalf("could not parse variances from note %q", varNote)
	}
	reVar, prVar := vals[len(vals)-2], vals[len(vals)-1]
	if prVar > reVar {
		t.Errorf("proactive search loss variance %v above reactive %v", prVar, reVar)
	}
}

// TestQuantileEdges: edges come from quantiles, strictly increase, and
// degenerate key sets still yield a valid two-edge domain.
func TestQuantileEdges(t *testing.T) {
	edges := quantileEdges([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	if len(edges) < 2 {
		t.Fatalf("got %d edges, want >= 2", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges %v not strictly increasing", edges)
		}
	}
	if edges[0] != 1 || edges[len(edges)-1] != 8 {
		t.Errorf("edges %v do not span the key range [1, 8]", edges)
	}

	flat := quantileEdges([]float64{3, 3, 3}, 4)
	if len(flat) != 2 || flat[0] != 3 || flat[1] <= 3 {
		t.Errorf("degenerate keys produced edges %v, want [3, >3]", flat)
	}
}
