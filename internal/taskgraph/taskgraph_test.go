package taskgraph

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// CCR returns the graph's measured communication-to-computation ratio:
// mean edge cost over mean node weight.
func (g *Graph) CCR() float64 {
	edges, commSum := 0, 0.0
	for _, es := range g.Succs {
		for _, e := range es {
			commSum += e.Cost
			edges++
		}
	}
	if edges == 0 || len(g.Weights) == 0 {
		return 0
	}
	meanComm := commSum / float64(edges)
	meanComp := g.TotalWeight() / float64(len(g.Weights))
	if meanComp == 0 {
		return 0
	}
	return meanComm / meanComp
}

// Validate checks structural invariants: forward-only edges, in-range
// indices, positive weights.
func (g *Graph) Validate() error {
	n := g.N()
	if len(g.Succs) != n || len(g.Preds) != n {
		return errors.New("taskgraph: adjacency size mismatch")
	}
	for i, w := range g.Weights {
		if w <= 0 {
			return fmt.Errorf("taskgraph: non-positive weight at %d", i)
		}
	}
	for u, es := range g.Succs {
		for _, e := range es {
			if e.To <= u || e.To >= n {
				return fmt.Errorf("taskgraph: edge %d->%d not forward", u, e.To)
			}
			if e.Cost < 0 {
				return fmt.Errorf("taskgraph: negative edge cost %d->%d", u, e.To)
			}
		}
	}
	return nil
}

func TestRandomValidation(t *testing.T) {
	if _, err := Random(1, 1, 1); err == nil {
		t.Error("single-node graph accepted")
	}
	if _, err := Random(1, 10, 0); err == nil {
		t.Error("zero CCR accepted")
	}
	if _, err := Random(1, 10, -1); err == nil {
		t.Error("negative CCR accepted")
	}
}

func TestRandomGraphStructure(t *testing.T) {
	for _, n := range []int{50, 200, 500} {
		g, err := Random(7, n, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != n {
			t.Fatalf("N = %d, want %d", g.N(), n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid graph: %v", err)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, _ := Random(11, 100, 2)
	b, _ := Random(11, 100, 2)
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatal("weights differ for same seed")
		}
	}
	for u := range a.Succs {
		if len(a.Succs[u]) != len(b.Succs[u]) {
			t.Fatal("edges differ for same seed")
		}
	}
}

func TestRandomCCRTargets(t *testing.T) {
	for _, ccr := range []float64{0.1, 1, 10} {
		g, err := Random(3, 300, ccr)
		if err != nil {
			t.Fatal(err)
		}
		got := g.CCR()
		if got < ccr*0.5 || got > ccr*1.6 {
			t.Errorf("requested CCR %v, measured %v", ccr, got)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, _ := Random(1, 20, 1)
	g.Weights[3] = 0
	if err := g.Validate(); err == nil {
		t.Error("zero weight not caught")
	}
	g, _ = Random(1, 20, 1)
	g.Succs[5] = append(g.Succs[5], Edge{To: 2, Cost: 1}) // backward edge
	if err := g.Validate(); err == nil {
		t.Error("backward edge not caught")
	}
	g, _ = Random(1, 20, 1)
	g.Succs[5] = append(g.Succs[5], Edge{To: 6, Cost: -1})
	if err := g.Validate(); err == nil {
		t.Error("negative cost not caught")
	}
	g, _ = Random(1, 20, 1)
	g.Preds = g.Preds[:10]
	if err := g.Validate(); err == nil {
		t.Error("adjacency size mismatch not caught")
	}
}

// A hand-built chain: a -> b -> c with weights 1,2,3 and comm cost 10.
func chainGraph() *Graph {
	return &Graph{
		Weights: []float64{1, 2, 3},
		Succs: [][]Edge{
			{{To: 1, Cost: 10}},
			{{To: 2, Cost: 10}},
			nil,
		},
		Preds: [][]Edge{
			nil,
			{{To: 0, Cost: 10}},
			{{To: 1, Cost: 10}},
		},
	}
}

func TestMakespanChainSameProcessor(t *testing.T) {
	g := chainGraph()
	span, err := g.Makespan([]int{0, 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if span != 6 { // 1+2+3, no comm on same processor
		t.Errorf("span = %v, want 6", span)
	}
}

func TestMakespanChainCrossProcessorPaysComm(t *testing.T) {
	g := chainGraph()
	span, err := g.Makespan([]int{0, 1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// t0 finishes at 1; t1 starts at 1+10=11, finishes 13; t2 starts
	// 13+10=23, finishes 26.
	if span != 26 {
		t.Errorf("span = %v, want 26", span)
	}
}

func TestMakespanParallelismHelps(t *testing.T) {
	// Two independent tasks: serial on one proc vs parallel on two.
	g := &Graph{
		Weights: []float64{5, 5},
		Succs:   [][]Edge{nil, nil},
		Preds:   [][]Edge{nil, nil},
	}
	serial, err := g.Makespan([]int{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := g.Makespan([]int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if serial != 10 || parallel != 5 {
		t.Errorf("serial = %v, parallel = %v", serial, parallel)
	}
}

func TestMakespanValidation(t *testing.T) {
	g := chainGraph()
	if _, err := g.Makespan([]int{0, 0}, 2); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := g.Makespan([]int{0, 0, 0}, 0); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := g.Makespan([]int{0, 0, 5}, 2); err == nil {
		t.Error("invalid processor accepted")
	}
}

// Property: makespan is bounded below by the critical path (with zero
// comm) and above by serial execution plus all communication.
func TestMakespanBoundsProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g, err := Random(seed, 60, 1)
		if err != nil {
			t.Fatal(err)
		}
		// All tasks on processor 0: exactly serial time.
		assign := make([]int, g.N())
		span, err := g.Makespan(assign, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(span-g.TotalWeight()) > 1e-9 {
			t.Fatalf("single-processor span %v != serial %v", span, g.TotalWeight())
		}
		// Random assignment: span must be at least the heaviest task and
		// no more than serial + all comm.
		for i := range assign {
			assign[i] = i % 4
		}
		span, err = g.Makespan(assign, 4)
		if err != nil {
			t.Fatal(err)
		}
		maxW, comm := 0.0, 0.0
		for _, w := range g.Weights {
			if w > maxW {
				maxW = w
			}
		}
		for _, es := range g.Succs {
			for _, e := range es {
				comm += e.Cost
			}
		}
		if span < maxW || span > g.TotalWeight()+comm {
			t.Fatalf("span %v outside [%v, %v]", span, maxW, g.TotalWeight()+comm)
		}
	}
}
