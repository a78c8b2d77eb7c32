package experiments

import (
	"fmt"
	"math"
	"sort"

	"green/internal/core"
	"green/internal/energy"
	"green/internal/metrics"
	"green/internal/raytracer"
	"green/internal/search"
)

func init() {
	register("selector",
		"reactive vs proactive per-input selection: loss distribution, mis-approximation counts, simulated time",
		runSelector)
}

// runSelector compares the reactive-only controller (Green's sampling
// law alone) against the staged pipeline with a per-input Selector on
// the two loop workloads. For each it reports the served loss distribution
// (mean and standard deviation), how often the controller
// over-approximated (served loss above the SLA) or under-approximated
// (met the SLA but did strictly more work than the cheapest calibrated
// configuration that also would have), and the simulated per-operation
// time from the workload's energy cost model. Simulated time — not wall
// clock — keeps the experiment deterministic and lint-clean.
func runSelector(o Options) (*Table, error) {
	t := &Table{Columns: []string{
		"workload", "controller", "mean loss", "loss stddev",
		"over-approx", "under-approx", "sim ns/op",
	}}
	if err := selectorSearchRows(o, t); err != nil {
		return nil, err
	}
	if err := selectorEonRows(o, t); err != nil {
		return nil, err
	}
	t.AddNote("over-approx = served loss above the SLA; under-approx = SLA met with strictly more work than the cheapest per-input configuration that also meets it")
	t.AddNote("monitored executions run precisely by design, so both controllers pay the same sampling tax of under-approximated inputs")
	return t, nil
}

// quantileEdges derives feature-bucket edges from the empirical
// quantiles of the calibration keys, so each bucket trains on a
// comparable share of inputs. Duplicate quantiles collapse (bucket
// edges must strictly increase), so skewed key distributions simply
// yield fewer buckets.
func quantileEdges(keys []float64, nb int) []float64 {
	s := append([]float64(nil), keys...)
	sort.Float64s(s)
	edges := make([]float64, 0, nb+1)
	for i := 0; i <= nb; i++ {
		v := s[i*(len(s)-1)/nb]
		if len(edges) == 0 || v > edges[len(edges)-1] {
			edges = append(edges, v)
		}
	}
	if len(edges) < 2 {
		edges = append(edges, edges[0]+1)
	}
	return edges
}

// trainHalf splits n inputs into a training half of at least two and a
// test remainder of at least one.
func trainHalf(workload string, n int) (int, error) {
	nTrain := max(2, n/2)
	if nTrain >= n {
		return 0, fmt.Errorf("selector: %s needs at least %d inputs, have %d", workload, nTrain+1, n)
	}
	return nTrain, nil
}

// selOutcome accumulates one controller's served distribution.
type selOutcome struct {
	losses      []float64
	over, under int
	work        float64
	monitored   int64 // executions the controller served monitored
}

// add records one served input: its loss against the SLA, and its work
// against the oracle's — the cheapest calibrated configuration that
// meets the SLA on that input.
func (s *selOutcome) add(loss, sla, work, cheapest float64) {
	s.losses = append(s.losses, loss)
	if loss > sla {
		s.over++
	}
	if loss <= sla && work > cheapest {
		s.under++
	}
	s.work += work
}

func (s *selOutcome) meanStd() (mean, std float64) {
	if len(s.losses) == 0 {
		return 0, 0
	}
	for _, l := range s.losses {
		mean += l
	}
	mean /= float64(len(s.losses))
	for _, l := range s.losses {
		std += (l - mean) * (l - mean)
	}
	return mean, math.Sqrt(std / float64(len(s.losses)))
}

func (s *selOutcome) variance() float64 {
	_, std := s.meanStd()
	return std * std
}

func (s *selOutcome) addRow(t *Table, workload, controller string, cost *energy.CostModel, unit string) {
	mean, std := s.meanStd()
	acct := energy.NewAccount()
	for range s.losses {
		acct.AddOp()
	}
	acct.Add(unit, s.work)
	nsPerOp := cost.Evaluate(acct).Seconds / float64(len(s.losses)) * 1e9
	t.AddRow(workload, controller, pct(mean), pct(std),
		fmt.Sprintf("%d", s.over), fmt.Sprintf("%d", s.under),
		fmt.Sprintf("%.0f", nsPerOp))
}

// loopRows drives a workload's test inputs under the loop's reactive
// controller alone and then with the calibration's per-input Selector
// installed, adding one row for each. newCfg is called once per loop,
// so the two controllers share no policy state.
func loopRows(t *Table, workload string, newCfg func() core.LoopConfig, cal *core.LoopCalibration,
	cost *energy.CostModel, unit string, drive func(*core.Loop, *selOutcome) error) (reactive, proactive *selOutcome, err error) {
	outs := [2]*selOutcome{{}, {}}
	for k, controller := range []string{"reactive", "proactive"} {
		loop, err := core.NewLoop(newCfg())
		if err != nil {
			return nil, nil, err
		}
		if k == 1 {
			sel, err := cal.BuildSelector()
			if err != nil {
				return nil, nil, err
			}
			loop.InstallSelector(sel)
		}
		if err := drive(loop, outs[k]); err != nil {
			return nil, nil, err
		}
		_, outs[k].monitored, _ = loop.Stats()
		outs[k].addRow(t, workload, controller, cost, unit)
	}
	return outs[0], outs[1], nil
}

// ---------------------------------------------------------------------
// Search: the matching-document loop, featured by posting mass.
// ---------------------------------------------------------------------

const selectorSearchSLA = 0.05

// postingMass is the per-query feature: the summed document frequency of
// the query terms. It is computable before the scan starts (a dictionary
// lookup per term) and predicts how quickly the top-N stabilizes —
// high-mass queries need deeper scans for an exact top-N.
func postingMass(e *search.Engine, q search.Query) float64 {
	m := 0.0
	for _, term := range q.Terms {
		m += float64(e.DocFreq(term))
	}
	return m
}

func selectorSearchRows(o Options, t *Table) error {
	f, err := newSearchFixture(o)
	if err != nil {
		return err
	}
	calKeys := make([]float64, len(f.calQueries))
	for i, q := range f.calQueries {
		calKeys[i] = postingMass(f.engine, q)
	}
	train, err := f.calibrationSweep(f.calQueries)
	if err != nil {
		return err
	}
	cal, err := train.calibration(calKeys, 4)
	if err != nil {
		return err
	}
	m, err := cal.Build()
	if err != nil {
		return err
	}
	// The per-query oracle reads off the test queries' sweep: the fewest
	// documents any calibrated cap processes while still returning the
	// precise page (query loss is 0/1, so "meets the SLA" means an exact
	// match), else the whole scan.
	test, err := f.calibrationSweep(f.tstQueries)
	if err != nil {
		return err
	}

	// Both loops run the law serve runs on the match loop: Fig 9's
	// windowed recalibration, a window opened every interval queries as
	// Fig 14 opens them. The interval is longer than the window: one
	// that divides it would open the next window as one closes, and
	// nearly every query would be served monitored, that is precisely.
	interval := o.scaled(1000, 200)
	reactive, proactive, err := loopRows(t, "search", func() core.LoopConfig {
		return core.LoopConfig{
			Name: "search.match", Model: m, SLA: selectorSearchSLA,
			SampleInterval: interval, MinLevel: 1,
			Policy: &core.WindowedPolicy{Window: 100},
		}
	}, cal, f.cost, "doc", func(loop *core.Loop, out *selOutcome) error {
		for i, q := range f.tstQueries {
			s, err := f.serve(loop, q)
			if err != nil {
				return err
			}
			// The rest of the same scan is the precise page to judge
			// the served one against.
			served, docs := s.TopN(), float64(s.Processed())
			s.StepN(math.MaxInt)
			out.add(metrics.QueryLoss(s.TopN(), served), selectorSearchSLA,
				docs, test.cheapest(i, selectorSearchSLA, test.base[i]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(len(f.tstQueries))
	t.AddNote("search: SLA = %s, feature = posting mass, windowed policy (window 100, interval %d), %d test queries, served monitored %s reactive vs %s proactive; loss variance reactive %.5f vs proactive %.5f",
		pct(selectorSearchSLA), interval, len(f.tstQueries), pct(float64(reactive.monitored)/n), pct(float64(proactive.monitored)/n),
		reactive.variance(), proactive.variance())
	return nil
}

// ---------------------------------------------------------------------
// Raytracer: the pass loop, featured by camera distance.
// ---------------------------------------------------------------------

// camDistance is the per-input feature: how far the camera sits from
// the origin the random cameras orbit. Distant cameras shrink the scene
// into fewer, lower-variance pixels, so their images converge in fewer
// passes.
func camDistance(c raytracer.Camera) float64 {
	return math.Sqrt(c.Pos.X*c.Pos.X + c.Pos.Y*c.Pos.Y + c.Pos.Z*c.Pos.Z)
}

func selectorEonRows(o Options, t *Table) error {
	f := newEonFixture(o)
	nTrain, err := trainHalf("eon", len(f.cameras))
	if err != nil {
		return err
	}
	sw, err := f.sweep()
	if err != nil {
		return err
	}
	knots := sw.knots
	trainKeys := make([]float64, nTrain)
	for i := 0; i < nTrain; i++ {
		trainKeys[i] = camDistance(f.cameras[i])
	}
	cal, err := sw.first(nTrain).calibration(trainKeys, 3)
	if err != nil {
		return err
	}
	m, err := cal.Build()
	if err != nil {
		return err
	}
	// SLA between the calibrated extremes: tight enough that the
	// cheapest knot misses it on hard inputs, loose enough that deeper
	// knots satisfy it. The geometric mean of the global mean losses at
	// the coarsest and finest knots sits there by construction.
	coarse := m.PredictLoss(knots[0])
	fine := m.PredictLoss(knots[len(knots)-1])
	sla := math.Sqrt(math.Max(fine, 1e-6) * math.Max(coarse, 1e-6))
	if !(sla > 0) || sla >= 1 {
		sla = 0.02
	}

	// The reactive rows are Figure 3's per-observation law, a window of
	// one, as the search rows are Figure 9's.
	_, _, err = loopRows(t, "raytracer", func() core.LoopConfig {
		return core.LoopConfig{
			Name: "eon.passes", Model: m, SLA: sla,
			SampleInterval: 8, MinLevel: knots[0],
			Policy: &core.WindowedPolicy{Window: 1},
		}
	}, cal, f.cost, "ray", func(loop *core.Loop, out *selOutcome) error {
		for i := nTrain; i < len(f.cameras); i++ {
			r, err := raytracer.NewRenderer(f.scene, f.cameras[i], f.w, f.h, f.seeds[i])
			if err != nil {
				return err
			}
			// Without a Selector installed the features are inert and
			// ExecFeat is bit-identical to Begin.
			exec, err := loop.ExecFeat(&streamQoS[*raytracer.Image]{output: r.Snapshot, loss: frameLoss},
				core.Features{Key: camDistance(f.cameras[i]), Valid: true})
			if err != nil {
				return err
			}
			it := 0
			for it < f.baseN*f.baseN && exec.Continue(it) {
				r.Pass()
				it++
			}
			exec.Finish(it)
			// The rest of the same rendering is the base frame to judge
			// the served one against.
			served, rays := r.Snapshot(), float64(r.Rays())
			for r.Passes() < f.baseN*f.baseN {
				r.Pass()
			}
			// The oracle is the fewest rays any calibrated pass budget
			// needs to meet the SLA on this input, else the deepest one's.
			out.add(frameLoss(r.Snapshot(), served), sla, rays, sw.cheapest(i, sla, sw.work[i][len(knots)-1]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.AddNote("raytracer: SLA = %s (derived from the calibrated loss range), feature = camera distance, %d train / %d test inputs",
		pct(sla), nTrain, len(f.cameras)-nTrain)
	return nil
}
