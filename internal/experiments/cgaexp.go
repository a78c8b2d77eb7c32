package experiments

import (
	"fmt"
	"math"

	"green/internal/cga"
	"green/internal/energy"
	"green/internal/metrics"
	"green/internal/taskgraph"
	"green/internal/workload"
)

func init() {
	register("fig18", "CGA versions: normalized execution time and energy vs generation cap", runFig18)
	register("fig19", "CGA versions: QoS loss vs generation cap", runFig19)
	register("fig20", "CGA QoS-model sensitivity to training-set size", runFig20)
}

// cgaFixture holds the 30 random task graphs of the CGA experiments
// ("the number of nodes varies from 50 to 500 and CCR varies from 0.1 to
// 10").
type cgaFixture struct {
	graphs []*taskgraph.Graph
	seeds  []int64
	baseG  int
	cost   *energy.CostModel
	// workers is the number of goroutines measuring graphs.
	workers int
}

// cgaFractions are the evaluated generation caps as fractions of the base
// generation count (the paper sweeps G up to the base maximum; G=half
// base gave ~50% improvement with <10% loss).
var cgaFractions = []float64{1.0 / 6, 2.0 / 6, 3.0 / 6, 4.0 / 6, 5.0 / 6}

func newCGAFixture(o Options) (*cgaFixture, error) {
	nGraphs := o.scaled(30, 4)
	f := &cgaFixture{
		baseG: o.scaled(600, 60), workers: o.Workers,
		// Desktop machine; one work unit per node-evaluation inside a
		// makespan computation.
		cost: &energy.CostModel{
			IdleWatts:    120,
			FixedSeconds: 0.01,
			FixedJoules:  0.5,
			UnitSeconds:  map[string]float64{"eval": 2e-7},
			UnitJoules:   map[string]float64{"eval": 2e-8},
		},
	}
	rng := workload.NewRand(workload.Split(o.Seed, 400))
	for i := 0; i < nGraphs; i++ {
		nodes := 50 + rng.Intn(451)             // 50..500
		ccr := math.Pow(10, -1+2*rng.Float64()) // log-uniform in [0.1, 10]
		// Keep test scales manageable: shrink node counts with scale.
		if o.Scale < 1 {
			nodes = 50 + rng.Intn(int(450*o.Scale)+1)
		}
		g, err := taskgraph.Random(workload.Split(o.Seed, 401+int64(i)), nodes, ccr)
		if err != nil {
			return nil, err
		}
		f.graphs = append(f.graphs, g)
		f.seeds = append(f.seeds, workload.Split(o.Seed, 501+int64(i)))
	}
	return f, nil
}

// cgaSweep builds the fixture and runs one GA per graph to the base
// generation count, reading the best makespan and the fitness evaluations
// spent as it crosses each cap; every cap's makespan is judged against
// the finished run's.
func cgaSweep(o Options) (*cgaFixture, *sweep, error) {
	f, err := newCGAFixture(o)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	var knots []float64
	for _, frac := range cgaFractions {
		names = append(names, fmt.Sprintf("G=%d", int(frac*float64(f.baseG))))
		knots = append(knots, math.Max(1, frac*float64(f.baseG)))
	}
	sw, err := measureAll(f.workers, len(f.graphs), names, func(i int, loss, work []float64) (float64, error) {
		ga, err := cga.New(f.graphs[i], cga.Config{Seed: f.seeds[i]})
		if err != nil {
			return 0, err
		}
		runTo := func(generations int) error {
			for ga.Generation() < generations {
				if _, err := ga.Step(); err != nil {
					return err
				}
			}
			return nil
		}
		spans := make([]float64, len(knots))
		for l, knot := range knots {
			if err := runTo(int(knot)); err != nil {
				return 0, err
			}
			spans[l], work[l] = ga.BestMakespan(), float64(ga.Evaluations())
		}
		if err := runTo(f.baseG); err != nil {
			return 0, err
		}
		for l, span := range spans {
			loss[l] = metrics.RelativeRegret(ga.BestMakespan(), span)
		}
		return float64(ga.Evaluations()), nil
	})
	if err != nil {
		return nil, nil, err
	}
	sw.loop, sw.knots = "cga.generations", knots
	sw.baseLevel, sw.baseWork = float64(f.baseG), float64(f.baseG)
	return f, sw, nil
}

func runFig18(o Options) (*Table, error) {
	f, sw, err := cgaSweep(o)
	if err != nil {
		return nil, err
	}
	// The cost model charges per node evaluation: one fitness evaluation
	// of graph i walks its N nodes.
	for i, g := range f.graphs {
		for l := range sw.work[i] {
			sw.work[i][l] *= float64(g.N())
		}
		sw.base[i] *= float64(g.N())
	}
	reps, base := sw.reports(f.cost, "eval")
	t := perfTable([]string{"version", "norm. exec time", "norm. energy"},
		append(sw.names, fmt.Sprintf("Base (G=%d)", f.baseG)), append(reps, base), base, seconds, joules)
	t.AddNote("%d random task graphs (50-500 nodes, CCR 0.1-10)", len(f.graphs))
	return t, nil
}

func runFig19(o Options) (*Table, error) {
	f, sw, err := cgaSweep(o)
	if err != nil {
		return nil, err
	}
	t := lossTable(append(sw.names, fmt.Sprintf("Base (G=%d)", f.baseG)), append(sw.means(), 0))
	t.AddNote("QoS loss = normalized increase in scheduled-program execution time vs base")
	return t, nil
}

func runFig20(o Options) (*Table, error) {
	f, sw, err := cgaSweep(o)
	if err != nil {
		return nil, err
	}
	total := len(f.graphs)
	sizes := []int{max(2, total/6), max(3, total/3), max(4, total/2), total}
	level := cgaFractions[len(cgaFractions)-1] * float64(f.baseG) // paper: G=2500 of 3000
	t, err := trainingSizeTable("training inputs", "estimated QoS loss at G=5/6 base", sw, sizes, level)
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: differences stay under 0.5%% even with 5 inputs (discrete outcomes make CGA noisier than other apps)")
	return t, nil
}
