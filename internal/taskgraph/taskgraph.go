// Package taskgraph models the parallel-program scheduling problem the
// paper's Cluster GA (CGA) benchmark solves: weighted task DAGs with
// communication costs, evaluated by list scheduling onto P processors.
//
// Random graphs follow the benchmark methodology the paper cites ([15],
// Kwok & Ahmad): layered random DAGs with 50–500 nodes and a
// communication-to-computation ratio (CCR) swept from 0.1 to 10.
package taskgraph

import (
	"errors"
	"fmt"

	"green/internal/workload"
)

// Edge is a dependency with a communication cost (paid only when producer
// and consumer run on different processors).
type Edge struct {
	To   int
	Cost float64
}

// Graph is a weighted task DAG. Node u precedes node v only if u < v
// (topological by construction), which Random guarantees.
type Graph struct {
	// Weights[i] is the computation time of task i.
	Weights []float64
	// Succs[i] lists the outgoing edges of task i.
	Succs [][]Edge
	// Preds[i] lists the incoming edges of task i.
	Preds [][]Edge
}

// N returns the number of tasks.
func (g *Graph) N() int { return len(g.Weights) }

// TotalWeight returns the sum of computation weights (the serial
// execution time).
func (g *Graph) TotalWeight() float64 {
	sum := 0.0
	for _, w := range g.Weights {
		sum += w
	}
	return sum
}

// Random generates a layered random DAG with n tasks and approximately
// the requested CCR. Node weights are uniform in [1, 10); each node gets
// edges to a few nodes in later layers with communication costs scaled so
// the mean edge cost is ccr times the mean node weight.
func Random(seed int64, n int, ccr float64) (*Graph, error) {
	if n < 2 {
		return nil, errors.New("taskgraph: need at least two tasks")
	}
	if ccr <= 0 {
		return nil, errors.New("taskgraph: CCR must be positive")
	}
	rng := workload.NewRand(seed)
	g := &Graph{
		Weights: make([]float64, n),
		Succs:   make([][]Edge, n),
		Preds:   make([][]Edge, n),
	}
	for i := range g.Weights {
		g.Weights[i] = 1 + 9*rng.Float64()
	}
	meanW := g.TotalWeight() / float64(n)
	meanComm := ccr * meanW
	for u := 0; u < n-1; u++ {
		// 1-3 successors drawn from a window after u.
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			span := n - u - 1
			if span <= 0 {
				break
			}
			window := span
			if window > 20 {
				window = 20
			}
			v := u + 1 + rng.Intn(window)
			dup := false
			for _, e := range g.Succs[u] {
				if e.To == v {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			cost := meanComm * (0.5 + rng.Float64())
			g.Succs[u] = append(g.Succs[u], Edge{To: v, Cost: cost})
			g.Preds[v] = append(g.Preds[v], Edge{To: u, Cost: cost})
		}
	}
	return g, nil
}

// Makespan evaluates the schedule implied by assigning task i to
// processor assign[i] (0 <= assign[i] < procs): tasks are dispatched in
// topological (index) order; each task starts at the later of its
// processor's availability and its data-ready time (predecessor finish
// plus communication when on a different processor). It returns the
// completion time of the last task.
func (g *Graph) Makespan(assign []int, procs int) (float64, error) {
	n := g.N()
	if len(assign) != n {
		return 0, errors.New("taskgraph: assignment length mismatch")
	}
	if procs < 1 {
		return 0, errors.New("taskgraph: need at least one processor")
	}
	procFree := make([]float64, procs)
	finish := make([]float64, n)
	for t := 0; t < n; t++ {
		p := assign[t]
		if p < 0 || p >= procs {
			return 0, fmt.Errorf("taskgraph: task %d assigned to invalid processor %d", t, p)
		}
		ready := 0.0
		for _, e := range g.Preds[t] {
			r := finish[e.To]
			if assign[e.To] != p {
				r += e.Cost
			}
			if r > ready {
				ready = r
			}
		}
		start := procFree[p]
		if ready > start {
			start = ready
		}
		finish[t] = start + g.Weights[t]
		procFree[p] = finish[t]
	}
	max := 0.0
	for _, f := range finish {
		if f > max {
			max = f
		}
	}
	return max, nil
}
