package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"green/internal/core"
	"green/internal/wire"
)

// budgetRecorder captures the levels a fake worker receives on /budget.
type budgetRecorder struct {
	mu     sync.Mutex
	levels []float64
}

func (b *budgetRecorder) record(level float64) {
	b.mu.Lock()
	b.levels = append(b.levels, level)
	b.mu.Unlock()
}

func (b *budgetRecorder) last() (float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.levels) == 0 {
		return 0, false
	}
	return b.levels[len(b.levels)-1], true
}

// controlWorker fakes the worker control-plane surface: /stats with a
// crafted monitored loss, /model with a fixed two-level calibration,
// and /budget recording what the coordinator pushes (decoded as strictly
// as a real worker decodes it).
func controlWorker(loss float64, monitored int64, currentM float64, rec *budgetRecorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"mean_monitored_loss":%g,"monitored":%d,"current_m":%g}`,
			loss, monitored, currentM)
	})
	mux.HandleFunc("GET /model", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"base_level":20000,"levels":[`+
			`{"level":100,"pred_loss":0.03,"speedup":4},`+
			`{"level":1000,"pred_loss":0.005,"speedup":2}]}`)
	})
	mux.HandleFunc("POST /budget", func(w http.ResponseWriter, r *http.Request) {
		req, err := wire.DecodeBudget(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rec.record(req.Level)
		fmt.Fprintf(w, `{"level":%g,"applied":true}`, req.Level)
	})
	return mux
}

// TestAggregateOnceDecomposesSLA is the control-plane core: the
// coordinator pulls per-shard monitored loss, corrects each shard's
// model by observed-vs-predicted, runs the §3.4 combination search on
// the fleet SLA, and pushes the winning per-shard levels to the
// workers.
//
// The crafted fleet: every shard's model offers M=100 (pred loss 0.03,
// speedup 4) and M=1000 (pred loss 0.005, speedup 2) below the precise
// base of 20000. Shard s0 reports observed loss 0.019 at M=1000 — 3.8x
// its prediction — so its corrected candidates are {0.114, 0.019, 0};
// s1 and s2 observe exactly their prediction. Under SLA 0.02 the
// additive search must therefore send s0 precise (its corrected loss
// would eat the whole budget) and keep s1/s2 at M=1000:
// 0 + 0.005 + 0.005 = 0.01 with estimated speedup 1/((1 + 1/2 + 1/2)/3)
// = 1.5x — strictly better than s0@0.019 + two precise (1.2x).
func TestAggregateOnceDecomposesSLA(t *testing.T) {
	recs := []*budgetRecorder{{}, {}, {}}
	co, _ := clusterOf(t, Config{Quorum: 2, SLA: 0.02}, [][]http.Handler{
		{controlWorker(0.019, 500, 1000, recs[0])},
		{controlWorker(0.005, 500, 1000, recs[1])},
		{controlWorker(0.005, 500, 1000, recs[2])},
	})
	rep, err := co.AggregateOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShardsPolled != 3 {
		t.Fatalf("polled %d shards, want 3", rep.ShardsPolled)
	}
	wantFleet := (0.019*500 + 0.005*500 + 0.005*500) / 1500
	if math.Abs(rep.FleetLoss-wantFleet) > 1e-12 {
		t.Errorf("fleet loss = %g, want %g", rep.FleetLoss, wantFleet)
	}
	want := map[string]float64{"s0": 20000, "s1": 1000, "s2": 1000}
	if len(rep.Budgets) != len(want) {
		t.Fatalf("budgets = %v, want %v", rep.Budgets, want)
	}
	for name, lvl := range want {
		if rep.Budgets[name] != lvl {
			t.Errorf("budget[%s] = %g, want %g", name, rep.Budgets[name], lvl)
		}
	}
	if rep.Pushes != 3 {
		t.Errorf("pushes = %d, want 3", rep.Pushes)
	}
	if math.Abs(rep.EstLoss-0.01) > 1e-12 || math.Abs(rep.EstSpeedup-1.5) > 1e-9 {
		t.Errorf("estimate = (%g, %g), want (0.01, 1.5)", rep.EstLoss, rep.EstSpeedup)
	}
	for i, rec := range recs {
		got, ok := rec.last()
		if !ok {
			t.Fatalf("shard %d received no budget", i)
		}
		if wantLvl := want[fmt.Sprintf("s%d", i)]; got != wantLvl {
			t.Errorf("shard %d received %g, want %g", i, got, wantLvl)
		}
	}
	if got := co.ops.Snapshot().BudgetPushes; got != 3 {
		t.Errorf("ops.budget_pushes = %d, want 3", got)
	}

	// Idempotence: a second round reaches the same decomposition and the
	// repush is harmless (the worker handler is level-idempotent).
	rep2, err := co.AggregateOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, lvl := range want {
		if rep2.Budgets[name] != lvl {
			t.Errorf("round 2 budget[%s] = %g, want %g", name, rep2.Budgets[name], lvl)
		}
	}
	if co.aggregations.Load() != 2 {
		t.Errorf("aggregations = %d, want 2", co.aggregations.Load())
	}
}

// TestAggregateOncePartialFleet: an unreachable shard neither stalls
// the round nor gets a stale budget pushed; with no model for it, the
// decomposition is skipped but the polled losses still aggregate.
func TestAggregateOncePartialFleet(t *testing.T) {
	rec := &budgetRecorder{}
	co, _ := clusterOf(t, Config{Quorum: 1, SLA: 0.02, Retries: -1}, [][]http.Handler{
		{controlWorker(0.004, 200, 1000, rec)},
		{failWorker(http.StatusInternalServerError)},
	})
	rep, err := co.AggregateOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShardsPolled != 1 {
		t.Fatalf("polled = %d, want 1", rep.ShardsPolled)
	}
	if len(rep.Budgets) != 0 || rep.Pushes != 0 {
		t.Errorf("partial fleet still pushed budgets: %+v", rep)
	}
	if _, ok := rec.last(); ok {
		t.Error("reachable shard got a budget from an unsearchable round")
	}
	if math.Abs(rep.FleetLoss-0.004) > 1e-12 {
		t.Errorf("fleet loss = %g, want 0.004", rep.FleetLoss)
	}

	// A fleet with no shard reachable at all is an error.
	co2, _ := clusterOf(t, Config{Quorum: 1, Retries: -1}, [][]http.Handler{
		{failWorker(http.StatusInternalServerError)},
	})
	if _, err := co2.AggregateOnce(context.Background()); err == nil {
		t.Error("unreachable fleet aggregated without error")
	}
}

// TestCorrectionNeedsAPrediction: the control plane and the selector
// share one clamped observed/predicted ratio (model.CorrectionRatio) but
// keep their own policy where the prediction is too small to form one.
// Shards sitting at the precise base level predict zero loss; whatever
// loss they report, the control plane leaves their models uncorrected
// (corr = 1), so the search sees the calibrated candidates {0.03, 0.005,
// 0} and sends all three to M=1000 (0.015 <= 0.02). Had it borrowed the
// selector's policy — observed loss where none was predicted is a maximal
// underestimate, push to the upper clamp — the candidates would read
// {0.12, 0.02, 0} and only one shard could leave precise. The selector,
// fed the same kind of observation, does take the upper-clamp step.
func TestCorrectionNeedsAPrediction(t *testing.T) {
	recs := []*budgetRecorder{{}, {}, {}}
	co, _ := clusterOf(t, Config{Quorum: 2, SLA: 0.02}, [][]http.Handler{
		{controlWorker(0.019, 500, 20000, recs[0])},
		{controlWorker(0.019, 500, 20000, recs[1])},
		{controlWorker(0.019, 500, 20000, recs[2])},
	})
	rep, err := co.AggregateOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s0", "s1", "s2"} {
		if rep.Budgets[name] != 1000 {
			t.Errorf("budget[%s] = %g, want the uncorrected model's 1000", name, rep.Budgets[name])
		}
	}
	if math.Abs(rep.EstLoss-0.015) > 1e-12 {
		t.Errorf("estimated loss = %g, want the uncorrected 0.015", rep.EstLoss)
	}

	cal, err := core.NewLoopCalibration("l", []float64{100, 1000}, 20000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.FeatureBuckets([]float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := cal.AddRunFeat(core.Features{Key: 0.5, Valid: true}, []float64{0.03, 0}, []float64{100, 1000}); err != nil {
		t.Fatal(err)
	}
	sel, err := cal.BuildSelector()
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Correct(core.Features{Key: 0.5, Valid: true}, 1000, 0.019) {
		t.Fatal("selector ignored loss observed where none was predicted")
	}
	// One EWMA step (alpha 0.25) toward the upper clamp: 1*(0.75 + 0.25*4).
	if got := sel.Factors()[0]; math.Abs(got-1.75) > 1e-12 {
		t.Errorf("selector factor = %g, want 1.75", got)
	}
}

// TestAggregateOnceRefusesForeignModel: a shard's /model rows are another
// process's bytes. A row the search cannot use — here a negative loss that
// would pay for the other shards' approximation, and every other way a
// level, loss or speedup can be out of range — leaves that shard without
// a model: no budget goes anywhere that round, and the round's note names
// the shard.
func TestAggregateOnceRefusesForeignModel(t *testing.T) {
	for name, levels := range map[string]string{
		"negative loss":     `{"level":100,"pred_loss":-0.5,"speedup":4}`,
		"zero speedup":      `{"level":100,"pred_loss":0.03,"speedup":0}`,
		"negative speedup":  `{"level":100,"pred_loss":0.03,"speedup":-4}`,
		"zero level":        `{"level":0,"pred_loss":0.03,"speedup":4}`,
		"descending levels": `{"level":1000,"pred_loss":0.005,"speedup":2},{"level":100,"pred_loss":0.03,"speedup":4}`,
		"repeated level":    `{"level":100,"pred_loss":0.03,"speedup":4},{"level":100,"pred_loss":0.005,"speedup":2}`,
		"above base level":  `{"level":100,"pred_loss":0.03,"speedup":4},{"level":30000,"pred_loss":0,"speedup":2}`,
	} {
		t.Run(name, func(t *testing.T) {
			recs := []*budgetRecorder{{}, {}, {}}
			foreign := http.NewServeMux()
			foreign.Handle("/", controlWorker(0.005, 500, 1000, recs[0]))
			foreign.HandleFunc("GET "+wire.PathModel, func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprint(w, `{"base_level":20000,"levels":[`+levels+`]}`)
			})
			co, _ := clusterOf(t, Config{Quorum: 2, SLA: 0.02}, [][]http.Handler{
				{foreign},
				{controlWorker(0.03, 500, 100, recs[1])},
				{controlWorker(0.03, 500, 100, recs[2])},
			})
			rep, err := co.AggregateOnce(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Budgets) != 0 || rep.Pushes != 0 {
				t.Errorf("pushed on a foreign model: %+v", rep)
			}
			for i, rec := range recs {
				if lvl, ok := rec.last(); ok {
					t.Errorf("shard %d received budget %g", i, lvl)
				}
			}
			if note := co.lastAggNote; !strings.Contains(note, "refused /model from s0:") {
				t.Errorf("note does not name the refused shard: %q", note)
			}
		})
	}
}
