package serve

import (
	"reflect"
	"testing"

	"green/internal/metrics"
	"green/internal/search"
	"green/internal/wire"
	"green/internal/workload"
)

// TestCalibrationOnePassMatchesReruns holds the one-pass calibration
// (knotLosses: one block-kernel scan per training query, snapshotted at
// every knot) to the law it replaced: a fresh Engine.Search capped at
// each knot, judged against a fresh uncapped one. The models must come
// out exactly equal — so the calibrated M and everything served from it
// are unchanged.
func TestCalibrationOnePassMatchesReruns(t *testing.T) {
	cfg := Config{Seed: 7, CorpusDocs: 20000, CalibrationQueries: 200}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	calQueries, err := s.engine.GenerateQueries(workload.Split(cfg.Seed, 1), cfg.CalibrationQueries)
	if err != nil {
		t.Fatal(err)
	}
	got := s.matchModel
	var knots []float64
	lossy := 0
	for _, p := range got.Points {
		knots = append(knots, p.Level)
		if p.QoSLoss > 0 {
			lossy++
		}
	}
	if lossy == 0 {
		t.Fatal("no knot loses a page; the comparison tells nothing")
	}
	reruns := func(q search.Query, losses, work []float64) {
		precise, _ := s.engine.Search(q, wire.PageSize, 0)
		for i, k := range knots {
			approx, processed := s.engine.Search(q, wire.PageSize, int(k))
			losses[i] = metrics.QueryLoss(precise, approx)
			work[i] = float64(processed)
		}
	}
	want, err := s.calibrateLoop(knots, calQueries, reruns)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-pass model\n%+v\nreruns\n%+v", got.Points, want.Points)
	}
}

// TestKnotLossesMatchReruns: past its last knot the one-pass measure
// scans only until its page is final, and the page it judges every knot
// against must still be the exhaustive one. Knots inside the first two
// blocks of a corpus forty blocks deep leave pages that change after the
// last knot, so a run that stopped short of final would misjudge them.
func TestKnotLossesMatchReruns(t *testing.T) {
	s := certifyServer(t, nil)
	knots := []float64{1, 7, 100, scanBlock + 1}
	measure := s.knotLosses(knots)
	queries, err := s.engine.GenerateQueries(11, 60)
	if err != nil {
		t.Fatal(err)
	}
	losses, work := make([]float64, len(knots)), make([]float64, len(knots))
	lossy := 0
	for _, q := range queries {
		measure(q, losses, work)
		precise, _ := s.engine.Search(q, wire.PageSize, 0)
		for i, k := range knots {
			capped, processed := s.engine.Search(q, wire.PageSize, int(k))
			if want := metrics.QueryLoss(precise, capped); losses[i] != want || work[i] != float64(processed) {
				t.Fatalf("q=%v knot %v: loss %v work %v, the reruns %v %d", q.Terms, k, losses[i], work[i], want, processed)
			}
		}
		if losses[len(knots)-1] > 0 {
			lossy++
		}
	}
	if lossy == 0 {
		t.Fatal("no page changes past the last knot: the run past it is not exercised")
	}
}
