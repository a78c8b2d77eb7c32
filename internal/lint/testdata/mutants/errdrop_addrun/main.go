// MUTANT (errdrop, from examples/searchengine): a rejected calibration run (wrong length, NaN loss) is dropped silently: the model is built from fewer queries than the loop shows.
//
// The searchengine example mirrors the paper's flagship application: a
// web-search back-end whose per-query matching-document loop is
// approximated (process at most M matching documents instead of all of
// them), with the customized windowed recalibration policy of Figure 9
// providing the "99% of queries return identical results" style SLA.
//
// Run it with:
//
//	go run ./examples/searchengine
package main

import (
	"fmt"
	"log"

	"green"
	"green/internal/metrics"
	"green/internal/search"
)

const (
	topN      = 10
	querySLA  = 0.02 // at most 2% of queries may return different results
	calWindow = 400  // calibration queries
	runWindow = 3000 // operational queries
)

// queryQoS adapts a query's matching-document loop to green.LoopQoS: the
// QoS snapshot is the top-N result list the early-terminated scan would
// return; the loss is 1 when it differs from the full scan's list.
type queryQoS struct {
	engine   *search.Engine
	query    search.Query
	recorded []int
}

func (q *queryQoS) Record(iter int) {
	top, _ := q.engine.Search(q.query, topN, iter)
	q.recorded = top
}

func (q *queryQoS) Loss(int) float64 {
	precise, _ := q.engine.Search(q.query, topN, 0)
	return metrics.QueryLoss(precise, q.recorded)
}

func main() {
	engine, err := search.NewEngine(search.Config{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Calibration: measure the QoS loss of early termination at each
	// candidate document budget.
	calQueries, err := engine.GenerateQueries(11, calWindow)
	if err != nil {
		log.Fatal(err)
	}
	knots := []float64{100, 250, 500, 1000, 2500, 5000, 10000}
	baseLevel := float64(engine.Docs())
	cal, err := green.NewLoopCalibration("search.match", knots, baseLevel, baseLevel)
	if err != nil {
		log.Fatal(err)
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
		cal.AddRun(losses, work) // want "AddRun returns an error that is discarded"
	}
	m, err := cal.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("calibration (documents processed -> fraction of changed result pages):")
	for _, k := range knots {
		fmt.Printf("  M=%-6.0f loss=%5.2f%%  scan speedup=%4.1fx\n",
			k, 100*m.PredictLoss(k), m.Speedup(k))
	}

	// Operational phase with the Figure 9 windowed policy: every 500th
	// query opens a window of 100 consecutively monitored queries whose
	// aggregate loss drives recalibration.
	loop, err := green.NewLoop(green.LoopConfig{
		Name: "search.match", Model: m, SLA: querySLA,
		SampleInterval: 500,
		Policy:         &green.WindowedPolicy{Window: 100},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSLA: at most %.0f%% changed result pages -> initial M = %.0f documents\n",
		querySLA*100, loop.Level())

	queries, err := engine.GenerateQueries(13, runWindow)
	if err != nil {
		log.Fatal(err)
	}
	totalDocsPrecise, totalDocsApprox := 0, 0
	changed := 0
	for _, q := range queries {
		exec, err := loop.Begin(&queryQoS{engine: engine, query: q})
		if err != nil {
			log.Fatal(err)
		}
		scan := engine.NewScan(q, topN)
		i := 0
		// The per-document shape of Figure 3. A server scoring thousands
		// of documents per query asks for blocks instead — exec.ContinueN
		// with scan.StepN, as internal/serve does — which pays once the
		// body's block kernel is cheaper than a guard call per document.
		for exec.Continue(i) && scan.Step() {
			i++
		}
		exec.Finish(i)
		totalDocsApprox += scan.Processed()

		precise, full := engine.Search(q, topN, 0)
		totalDocsPrecise += full
		if !metrics.TopNExactMatch(precise, scan.TopN()) {
			changed++
		}
	}
	execs, monitored, meanLoss := loop.Stats()
	fmt.Printf("\nserved %d queries (%d monitored, mean monitored loss %.2f%%)\n",
		execs, monitored, 100*meanLoss)
	fmt.Printf("documents scored: %d precise vs %d approximated (%.1f%% saved)\n",
		totalDocsPrecise, totalDocsApprox,
		100*(1-float64(totalDocsApprox)/float64(totalDocsPrecise)))
	fmt.Printf("queries with a changed result page: %d/%d (%.2f%%, SLA %.0f%%)\n",
		changed, len(queries), 100*float64(changed)/float64(len(queries)), querySLA*100)
	fmt.Printf("final M = %.0f documents\n", loop.Level())
}
