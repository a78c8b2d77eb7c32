package green_test

import (
	"math"
	"testing"

	"green"
	"green/internal/metrics"
	"green/internal/search"
)

// TestIntegrationMultiApproximationApp exercises the full §3.4 pipeline
// on real substrates: a search application whose per-query document loop
// is approximated AND whose result-scoring stage uses an approximated
// exp, coordinated by an App under one application SLA, surviving a
// workload drift.
func TestIntegrationMultiApproximationApp(t *testing.T) {
	engine, err := search.NewEngine(search.Config{
		Docs: 6000, VocabSize: 900, AvgDocLen: 50, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const topN = 10
	const appSLA = 0.05

	// ---- Calibration phase (both units) -----------------------------
	calQueries, err := engine.GenerateQueries(5, 250)
	if err != nil {
		t.Fatal(err)
	}
	knots := []float64{50, 150, 400, 1000, 2500}
	lc, err := green.NewLoopCalibration("match", knots,
		float64(engine.Docs()), float64(engine.Docs()))
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, len(knots))
	work := make([]float64, len(knots))
	for _, q := range calQueries {
		precise, _ := engine.Search(q, topN, 0)
		for i, k := range knots {
			approx, processed := engine.Search(q, topN, int(k))
			losses[i] = metrics.QueryLoss(precise, approx)
			work[i] = float64(processed)
		}
		if err := lc.AddRun(losses, work); err != nil {
			t.Fatal(err)
		}
	}
	loopModel, err := lc.Build()
	if err != nil {
		t.Fatal(err)
	}
	loop, err := green.NewLoop(green.LoopConfig{
		Name: "match", Model: loopModel, SLA: appSLA / 2, Step: 200, MinLevel: 50,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The scoring stage applies a freshness decay exp(-age) to each
	// result; exp is approximated by Taylor versions.
	taylor := func(deg int) green.Fn {
		return func(x float64) float64 {
			sum, term := 1.0, 1.0
			for k := 1; k <= deg; k++ {
				term *= x / float64(k)
				sum += term
			}
			return sum
		}
	}
	expVersions := []green.Fn{taylor(2), taylor(4)}
	fc, err := green.NewFuncCalibration("freshness", 18,
		[]string{"e2", "e4"}, []float64{3, 5}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var expArgs []float64
	for x := -2.0; x <= 0; x += 0.02 {
		expArgs = append(expArgs, x)
	}
	if err := fc.Calibrate(math.Exp, expVersions, expArgs, nil); err != nil {
		t.Fatal(err)
	}
	expModel, err := fc.Build()
	if err != nil {
		t.Fatal(err)
	}
	expFn, err := green.NewFunc(green.FuncConfig{
		Name: "freshness", Model: expModel, SLA: appSLA / 2,
	}, math.Exp, expVersions)
	if err != nil {
		t.Fatal(err)
	}

	// ---- Global coordination -----------------------------------------
	// DecreasePatience 6: only give accuracy back after six windows in a
	// row under the band. Function version ladders are coarse (one Taylor
	// degree per step), so acting on every low window would flap between
	// a too-precise and a too-approximate configuration.
	app, err := green.NewApp(green.AppConfig{
		Name: "miniweb", SLA: appSLA, Seed: 9,
		DecreasePatience: 6,
	}, loop, expFn)
	if err != nil {
		t.Fatal(err)
	}

	// serveQuery runs one query through both approximations and returns
	// the approximate and precise final result pages.
	age := func(doc int) float64 { return -2 * float64(doc%1000) / 1000 }
	serveQuery := func(q search.Query) (approx, precise []int, err error) {
		qos := &intQoS{engine: engine, query: q, topN: topN}
		exec, err := loop.Begin(qos)
		if err != nil {
			return nil, nil, err
		}
		scan := engine.NewScan(q, topN)
		i := 0
		for exec.Continue(i) && scan.Step() {
			i++
		}
		exec.Finish(i)
		// Freshness rescoring: a result page is "changed" if either the
		// retrieved set or the freshness-reranked order differs.
		approx = rerank(scan.TopN(), func(d int) float64 { return expFn.Call(age(d)) })
		pr, _ := engine.Search(q, topN, 0)
		precise = rerank(pr, func(d int) float64 { return math.Exp(age(d)) })
		return approx, precise, nil
	}

	// ---- Operational phase with drift --------------------------------
	phases := []struct {
		name string
		seed int64
	}{
		{"initial", 7},
		{"drifted", 8}, // different query distribution
	}
	for _, ph := range phases {
		queries, err := engine.GenerateQueries(ph.seed, 600)
		if err != nil {
			t.Fatal(err)
		}
		// Observe app QoS in windows of 25 queries and let the App react.
		bad := 0
		inWindow := 0
		var windowLosses []float64
		for _, q := range queries {
			approx, precise, err := serveQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if !metrics.TopNExactMatch(precise, approx) {
				bad++
			}
			inWindow++
			if inWindow == 25 {
				loss := float64(bad) / float64(inWindow)
				app.ObserveAppQoS(loss)
				windowLosses = append(windowLosses, loss)
				bad, inWindow = 0, 0
			}
		}
		// The application must settle near (or below) its SLA: the mean
		// of the last four windows must not grossly violate it.
		n := len(windowLosses)
		tail := windowLosses[n-4:]
		tailMean := (tail[0] + tail[1] + tail[2] + tail[3]) / 4
		if tailMean > 2.5*appSLA {
			t.Errorf("phase %s: settled loss %.3f far above SLA %.3f (trace %v)",
				ph.name, tailMean, appSLA, windowLosses)
		}
		t.Logf("phase %s: settled loss %.3f, M=%.0f, exp offset=%d, backoff=%d",
			ph.name, tailMean, loop.Level(), expFn.Offset(), app.BackoffRound())
	}

	// The machinery must have been exercised end to end.
	if app.Observations() < 10 {
		t.Errorf("only %d app observations", app.Observations())
	}
	execs, _, _ := loop.Stats()
	if execs != 1200 {
		t.Errorf("loop executions = %d, want 1200", execs)
	}
	calls, _, _ := expFn.Stats()
	if calls == 0 {
		t.Error("exp approximation never called")
	}
}

// intQoS adapts a query scan to green.LoopQoS for the integration test.
type intQoS struct {
	engine   *search.Engine
	query    search.Query
	topN     int
	recorded []int
}

func (q *intQoS) Record(iter int) {
	q.recorded, _ = q.engine.Search(q.query, q.topN, iter)
}

func (q *intQoS) Loss(int) float64 {
	precise, _ := q.engine.Search(q.query, q.topN, 0)
	return metrics.QueryLoss(precise, q.recorded)
}

// rerank orders docs by descending weight(doc), stably.
func rerank(docs []int, weight func(int) float64) []int {
	out := append([]int(nil), docs...)
	// Insertion sort: pages are tiny and stability matters.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && weight(out[j]) > weight(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
