package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"green/internal/core"
	"green/internal/model"
	"green/internal/wire"
)

// The fleet control plane: the coordinator periodically pulls each
// shard's monitored QoS loss (/stats) and calibrated model (/model),
// corrects each model's predicted losses by the observed-vs-predicted
// ratio at the shard's current level, and runs the paper's §3.4
// combination search (core.CombineSearch) to decompose the
// application SLA into per-shard approximation budgets — the setting
// with the highest estimated fleet speedup whose additive loss stays
// within the SLA. The chosen levels are pushed back to every replica
// via the workers' idempotent POST /budget.

// shardControl is one shard's control-plane state (Coordinator.mu).
type shardControl struct {
	// candLevels/candLoss/candSpeedup are the cached /model rows of the
	// shard's match loop (fetched once, corrected each round).
	candLevels  []float64
	candLoss    []float64
	candSpeedup []float64
	baseLevel   float64

	lastLoss      float64
	lastMonitored int64
	lastLevel     float64 // the worker's live level (current_m)
	lastBudget    float64 // the level the control plane last pushed
	polled        bool    // stats reached at least once ever
}

// AggregateReport summarizes one control-plane round, for tests and
// operators.
type AggregateReport struct {
	// ShardsPolled counts shards whose /stats answered this round.
	ShardsPolled int
	// FleetLoss is the monitored-sample-weighted mean loss across the
	// shards polled so far.
	FleetLoss float64
	// FleetMonitored sums the shards' monitored sample counts.
	FleetMonitored int64
	// Budgets maps shard name to the level chosen by the combination
	// search (empty when the search could not run).
	Budgets map[string]float64
	// EstLoss/EstSpeedup are the additive estimate of the chosen
	// combination.
	EstLoss    float64
	EstSpeedup float64
	// Pushes counts replica-level budget pushes that succeeded.
	Pushes int
}

// controlTimeout bounds each control-plane exchange.
const controlTimeout = 2 * time.Second

// AggregateOnce runs one control-plane round: poll, correct, search,
// push. It returns a report of what it did; the error is non-nil only
// when the round could do nothing at all (no shard reachable and no
// cached models to search over).
func (co *Coordinator) AggregateOnce(ctx context.Context) (AggregateReport, error) {
	n := len(co.shards)
	type polled struct {
		stats   wire.Stats
		statsOK bool
		model   *wire.Model
	}
	polls := make([]polled, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		co.mu.Lock()
		needModel := co.ctl[i].candLevels == nil
		co.mu.Unlock()
		wg.Add(1)
		go func(i int, needModel bool) {
			defer wg.Done()
			if err := co.shards[i].getJSON(ctx, wire.PathStats, controlTimeout, &polls[i].stats); err == nil {
				polls[i].statsOK = true
			}
			if needModel {
				var m wire.Model
				if err := co.shards[i].getJSON(ctx, wire.PathModel, controlTimeout, &m); err == nil {
					polls[i].model = &m
				}
			}
		}(i, needModel)
	}
	wg.Wait()

	// Commit the polls and build the corrected candidate sets.
	co.mu.Lock()
	rep := AggregateReport{}
	candidates := make([][]core.Setting, n)
	levels := make([][]float64, n)
	searchable := true
	var refused []string // shards whose /model row failed wire's Check
	for i := 0; i < n; i++ {
		ctl := &co.ctl[i]
		if m := polls[i].model; m != nil {
			if err := m.Check(); err != nil {
				refused = append(refused, co.shards[i].name+": "+err.Error())
			} else {
				ctl.baseLevel = m.BaseLevel
				ctl.candLevels = ctl.candLevels[:0]
				ctl.candLoss = ctl.candLoss[:0]
				ctl.candSpeedup = ctl.candSpeedup[:0]
				for _, lvl := range m.Levels {
					ctl.candLevels = append(ctl.candLevels, lvl.Level)
					ctl.candLoss = append(ctl.candLoss, lvl.PredLoss)
					ctl.candSpeedup = append(ctl.candSpeedup, lvl.Speedup)
				}
			}
		}
		if polls[i].statsOK {
			st := polls[i].stats
			ctl.lastLoss, ctl.lastMonitored, ctl.lastLevel = st.MeanMonitoredLoss, st.Monitored, st.CurrentM
			ctl.polled = true
			rep.ShardsPolled++
		}
		rep.FleetMonitored += ctl.lastMonitored
		rep.FleetLoss += ctl.lastLoss * float64(ctl.lastMonitored)
		if ctl.candLevels == nil {
			searchable = false
			continue
		}
		// Correction: scale the model's predicted losses by how the
		// observed monitored loss compares to the prediction at the
		// shard's current level, read between the knots by
		// model.KnotLoss and clamped by model.CorrectionRatio as a
		// selector bucket's ratio is, so noise cannot run away. A
		// prediction too small to form a ratio leaves the shard's model
		// uncorrected.
		corr := 1.0
		if ctl.polled && ctl.lastMonitored > 0 {
			pred := model.KnotLoss(ctl.candLevels, ctl.candLoss, ctl.baseLevel, ctl.lastLevel)
			corr, _ = model.CorrectionRatio(ctl.lastLoss, pred)
		}
		// The candidate set for this shard-as-unit: every calibrated
		// level with corrected loss, plus the explicit precise fallback.
		// Shards hold equal partitions, so work shares are equal.
		for j := range ctl.candLevels {
			candidates[i] = append(candidates[i], core.Setting{
				Unit:     i,
				Label:    co.shards[i].name + "@M=" + strconv.FormatFloat(ctl.candLevels[j], 'g', -1, 64),
				PredLoss: ctl.candLoss[j] * corr,
				Speedup:  ctl.candSpeedup[j],
			})
			levels[i] = append(levels[i], ctl.candLevels[j])
		}
		candidates[i] = append(candidates[i], core.Setting{
			Unit: i, Label: co.shards[i].name + "@precise", PredLoss: 0, Speedup: 1,
		})
		levels[i] = append(levels[i], ctl.baseLevel)
	}
	if rep.FleetMonitored > 0 {
		rep.FleetLoss /= float64(rep.FleetMonitored)
	} else {
		rep.FleetLoss = 0
	}
	co.aggregations.Add(1)
	if !searchable {
		co.lastAggNote = fmt.Sprintf("polled %d/%d shards; no budget push (missing models)", rep.ShardsPolled, n)
		if len(refused) > 0 {
			co.lastAggNote += "; refused /model from " + strings.Join(refused, "; ")
		}
		co.mu.Unlock()
		if rep.ShardsPolled == 0 {
			return rep, fmt.Errorf("cluster: aggregation reached no shard")
		}
		return rep, nil
	}
	co.mu.Unlock()

	// The combination search runs on the additive estimate (eval nil =>
	// AdditiveEstimate with branch-and-bound pruning). The all-precise
	// combination has zero loss, so a viable combination always exists.
	res, err := core.CombineSearch(candidates, co.cfg.SLA, nil)
	if err != nil {
		co.mu.Lock()
		co.lastAggNote = "combination search failed: " + err.Error()
		co.mu.Unlock()
		return rep, err
	}
	rep.EstLoss, rep.EstSpeedup = res.Loss, res.Speedup
	rep.Budgets = make(map[string]float64, n)

	// Push each shard's chosen level to every replica.
	for i := 0; i < n; i++ {
		level := 0.0
		for j, s := range candidates[i] {
			if s == res.Best[i] {
				level = levels[i][j]
				break
			}
		}
		if level <= 0 {
			continue
		}
		rep.Budgets[co.shards[i].name] = level
		body, merr := json.Marshal(wire.Budget{Level: level})
		if merr != nil {
			continue
		}
		ok := co.shards[i].pushBudget(ctx, body, controlTimeout)
		rep.Pushes += ok
		co.ops.BudgetPushes.Add(int64(ok))
		co.mu.Lock()
		if ok > 0 {
			co.ctl[i].lastBudget = level
		}
		co.mu.Unlock()
	}
	co.mu.Lock()
	co.lastAggNote = fmt.Sprintf("polled %d/%d shards, fleet loss %.4f, pushed %d budgets (est speedup %.2fx)",
		rep.ShardsPolled, n, rep.FleetLoss, rep.Pushes, rep.EstSpeedup)
	co.mu.Unlock()
	return rep, nil
}

// Start launches the periodic aggregation loop and returns an
// idempotent stop function.
func (co *Coordinator) Start() (stop func()) {
	if co.cfg.AggregateInterval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(co.cfg.AggregateInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), co.cfg.AggregateInterval)
				_, _ = co.AggregateOnce(ctx)
				cancel()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
