// Package cga implements the Cluster GA benchmark from the paper's
// machine-learning category: scheduling a parallel program (a weighted
// task DAG) onto multiprocessors with a genetic algorithm, after Kianzad
// & Bhattacharyya [14]. The GA refines schedule quality generation by
// generation; because it typically converges well before the maximum
// generation G, the generational main loop is the approximation target —
// terminating it early saves half the work with little makespan regret
// (Figures 18–20).
package cga

import (
	"errors"
	"math/rand"

	"green/internal/taskgraph"
	"green/internal/workload"
)

// Config tunes the genetic algorithm.
type Config struct {
	// Procs is the number of processors to schedule onto.
	Procs int
	// Pop is the population size (chromosomes).
	Pop int
	// CrossoverRate in [0,1]; fraction of offspring produced by
	// single-point crossover (the rest are copies).
	CrossoverRate float64
	// MutationRate in [0,1]; per-gene reassignment probability.
	MutationRate float64
	// TournamentK is the tournament selection size.
	TournamentK int
	// Elitism is the number of best chromosomes copied unchanged.
	Elitism int
	// Seed determinizes the run.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Procs == 0 {
		c.Procs = 4
	}
	if c.Pop == 0 {
		c.Pop = 40
	}
	if c.CrossoverRate == 0 {
		c.CrossoverRate = 0.8
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.02
	}
	if c.TournamentK == 0 {
		c.TournamentK = 3
	}
	if c.Elitism == 0 {
		c.Elitism = 2
	}
	return c
}

// GA is one in-progress run of the scheduler. Each Step() is one
// generation: the approximable loop iteration.
type GA struct {
	g       *taskgraph.Graph
	cfg     Config
	rng     *rand.Rand
	pop     [][]int
	spans   []float64
	best    []int
	bestVal float64
	gen     int
	evals   int64
}

// New seeds a GA over the graph.
func New(g *taskgraph.Graph, cfg Config) (*GA, error) {
	if g == nil || g.N() == 0 {
		return nil, errors.New("cga: empty graph")
	}
	c := cfg.withDefaults()
	if c.Pop < 2 || c.Procs < 1 {
		return nil, errors.New("cga: invalid population or processor count")
	}
	if c.Elitism >= c.Pop {
		return nil, errors.New("cga: elitism must be smaller than population")
	}
	ga := &GA{
		g:   g,
		cfg: c,
		rng: workload.NewRand(c.Seed),
	}
	ga.pop = make([][]int, c.Pop)
	ga.spans = make([]float64, c.Pop)
	for i := range ga.pop {
		chrom := make([]int, g.N())
		for j := range chrom {
			chrom[j] = ga.rng.Intn(c.Procs)
		}
		ga.pop[i] = chrom
	}
	if err := ga.evaluate(); err != nil {
		return nil, err
	}
	return ga, nil
}

// evaluate computes makespans and refreshes the best-so-far.
func (ga *GA) evaluate() error {
	for i, chrom := range ga.pop {
		span, err := ga.g.Makespan(chrom, ga.cfg.Procs)
		if err != nil {
			return err
		}
		ga.spans[i] = span
		ga.evals++
	}
	champ := 0
	for i := range ga.spans {
		if ga.spans[i] < ga.spans[champ] {
			champ = i
		}
	}
	if ga.best == nil || ga.spans[champ] < ga.bestVal {
		ga.bestVal = ga.spans[champ]
		ga.best = append(ga.best[:0], ga.pop[champ]...)
	}
	return nil
}

// tournament returns the index of the best of K random chromosomes.
func (ga *GA) tournament() int {
	best := ga.rng.Intn(len(ga.pop))
	for i := 1; i < ga.cfg.TournamentK; i++ {
		c := ga.rng.Intn(len(ga.pop))
		if ga.spans[c] < ga.spans[best] {
			best = c
		}
	}
	return best
}

// Step advances one generation. It returns the best makespan so far.
func (ga *GA) Step() (float64, error) {
	next := make([][]int, 0, ga.cfg.Pop)
	// Elitism: carry over the best chromosomes.
	order := make([]int, len(ga.pop))
	for i := range order {
		order[i] = i
	}
	// Partial selection sort for the top-Elitism (population is small).
	for e := 0; e < ga.cfg.Elitism; e++ {
		m := e
		for j := e + 1; j < len(order); j++ {
			if ga.spans[order[j]] < ga.spans[order[m]] {
				m = j
			}
		}
		order[e], order[m] = order[m], order[e]
		next = append(next, append([]int(nil), ga.pop[order[e]]...))
	}
	for len(next) < ga.cfg.Pop {
		a := ga.pop[ga.tournament()]
		b := ga.pop[ga.tournament()]
		child := make([]int, len(a))
		switch {
		case ga.rng.Float64() >= ga.cfg.CrossoverRate:
			copy(child, a)
		default:
			cut := 1 + ga.rng.Intn(len(a)-1)
			copy(child, a[:cut])
			copy(child[cut:], b[cut:])
		}
		for j := range child {
			if ga.rng.Float64() < ga.cfg.MutationRate {
				child[j] = ga.rng.Intn(ga.cfg.Procs)
			}
		}
		next = append(next, child)
	}
	ga.pop = next
	ga.gen++
	if err := ga.evaluate(); err != nil {
		return 0, err
	}
	return ga.bestVal, nil
}

// Generation returns the number of completed generations.
func (ga *GA) Generation() int { return ga.gen }

// BestMakespan returns the best schedule length found so far. The CGA
// QoS metric compares this value between the approximate (early
// terminated) and base runs.
func (ga *GA) BestMakespan() float64 { return ga.bestVal }

// Evaluations returns the number of fitness (makespan) evaluations
// performed: the work unit of the CGA experiments.
func (ga *GA) Evaluations() int64 { return ga.evals }

// Run executes generations until the cap and returns the best makespan.
func (ga *GA) Run(generations int) (float64, error) {
	for i := 0; i < generations; i++ {
		if _, err := ga.Step(); err != nil {
			return 0, err
		}
	}
	return ga.bestVal, nil
}
