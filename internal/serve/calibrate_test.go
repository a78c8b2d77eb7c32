package serve

import (
	"reflect"
	"testing"

	"green/internal/core"
	"green/internal/metrics"
	"green/internal/search"
	"green/internal/wire"
	"green/internal/workload"
)

// TestCalibrationOnePassMatchesReruns holds the one-pass calibration
// (knotLosses: one block-kernel scan per training query, snapshotted at
// every knot) to the law it replaced: a fresh Engine.Search capped at
// each knot, judged against a fresh uncapped one. The models, and the
// selector's buckets and curves, must come out exactly equal — so the
// calibrated M and everything served from it are unchanged.
func TestCalibrationOnePassMatchesReruns(t *testing.T) {
	cfg := Config{Seed: 7, CorpusDocs: 20000, CalibrationQueries: 200, Selector: true}
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
	feat := func(q search.Query) core.Features { return s.queryFeat(q.Terms) }
	want, wantSel, err := s.calibrateLoop(knots, calQueries, feat, reruns)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-pass model\n%+v\nreruns\n%+v", got.Points, want.Points)
	}
	sel := s.Loop().Selector().(*core.BucketSelector)
	edges := sel.Edges()
	if !reflect.DeepEqual(edges, wantSel.Edges()) {
		t.Fatalf("selector edges %v, reruns %v", edges, wantSel.Edges())
	}
	for b := 0; b+1 < len(edges); b++ {
		f := core.Features{Key: (edges[b] + edges[b+1]) / 2, Valid: true}
		for _, k := range knots {
			if g, w := sel.PredictLoss(f, k), wantSel.PredictLoss(f, k); g != w {
				t.Fatalf("bucket %d at level %v predicts loss %v, reruns %v", b, k, g, w)
			}
		}
	}
}
