package core

import (
	"errors"
	"fmt"
	"math"
)

// Setting is one candidate configuration of one approximated unit during
// the combination search of §3.4.1 — e.g. "exp uses version exp(3)" or
// "main loop terminates at M=2N". PredLoss and Speedup come from the
// unit's local (isolated) calibration model.
type Setting struct {
	// Unit is the index of the unit this setting belongs to.
	Unit int
	// Label names the setting for reports, e.g. "exp(cb)" or "M=2N".
	Label string
	// PredLoss is the local model's predicted fractional QoS loss.
	PredLoss float64
	// Speedup is the local model's predicted work reduction factor
	// (precise work / approximate work) for the unit in isolation.
	Speedup float64
	// WorkShare is the fraction of total application work attributable
	// to this unit (used by the additive estimate); zero means equal
	// shares.
	WorkShare float64
}

// ComboEval measures one combination of settings (one per unit) on the
// training inputs and returns the observed application QoS loss and
// overall speedup. The paper's combination search uses measured values
// because local models may not compose linearly.
type ComboEval func(combo []Setting) (loss, speedup float64, err error)

// SearchResult is the outcome of CombineSearch.
type SearchResult struct {
	// Best is the winning combination (one Setting per unit), nil when no
	// combination met the SLA.
	Best []Setting
	// Loss and Speedup are the evaluator's measurements of Best.
	Loss    float64
	Speedup float64
	// Evaluated is the number of combinations measured.
	Evaluated int
}

// ErrNoViableCombo is returned when no combination satisfies the SLA;
// the application then runs precisely.
var ErrNoViableCombo = errors.New("core: no combination satisfies the application SLA")

// pruneSlack guards the branch-and-bound cut against float summation
// order: a subtree is pruned only when its loss lower bound exceeds the
// SLA by more than this, so a combination whose evaluated loss lands
// within an ulp of the SLA is never cut.
const pruneSlack = 1e-9

// comboWalker is the serial walker over the combination space.
type comboWalker struct {
	candidates [][]Setting
	sla        float64
	eval       ComboEval
	minFrom    []float64 // nil disables pruning; else suffix-min loss sums
	combo      []Setting
	res        SearchResult
	found      bool
}

// walk explores depths i..len(candidates) with combo[0..i-1] fixed and
// acc the additive loss of that prefix (accumulated in combo order, so it
// matches AdditiveEstimate's partial sums bit-for-bit).
func (w *comboWalker) walk(i int, acc float64) error {
	if i == len(w.candidates) {
		loss, speedup, err := w.eval(append([]Setting(nil), w.combo...))
		if err != nil {
			return err
		}
		w.res.Evaluated++
		if loss <= w.sla && (!w.found || speedup > w.res.Speedup) {
			w.found = true
			w.res.Best = append([]Setting(nil), w.combo...)
			w.res.Loss, w.res.Speedup = loss, speedup
		}
		return nil
	}
	for _, s := range w.candidates[i] {
		next := acc + s.PredLoss
		if w.minFrom != nil && next+w.minFrom[i+1] > w.sla+pruneSlack {
			// Even the lowest-loss completion of this prefix misses the
			// SLA; no combination below here can be viable.
			continue
		}
		w.combo[i] = s
		if err := w.walk(i+1, next); err != nil {
			return err
		}
	}
	return nil
}

// CombineSearch performs the exhaustive search-space exploration of
// §3.4.1: every element of the cross product of per-unit candidate
// settings is evaluated with eval, and the combination with the highest
// measured speedup whose measured application QoS loss satisfies sla is
// returned. This is how the paper's blackscholes run refined the local
// choice exp(cb)+log(2) into the final exp(cb)+log(4).
//
// candidates[i] lists the options for unit i and must be non-empty; a
// "use the precise version" option should be included explicitly when
// falling back is acceptable. The search is exponential in the number of
// units, as in the paper; callers keep candidate lists short.
//
// When eval is nil the additive estimate is used and the walk applies
// branch-and-bound pruning on the additive loss lower bound (predicted
// losses only add, so once a prefix's loss plus the minimal completion
// exceeds the SLA the whole subtree is unviable). Pruned combinations are
// not counted in Evaluated; Best, Loss and Speedup are the exhaustive
// walk's.
func CombineSearch(candidates [][]Setting, sla float64, eval ComboEval) (SearchResult, error) {
	return combineSearch(candidates, sla, eval, true)
}

// combineSearch is CombineSearch with the branch-and-bound cut optional:
// prune=false walks every combination, the reference the tests hold the
// pruned walk to.
func combineSearch(candidates [][]Setting, sla float64, eval ComboEval, prune bool) (SearchResult, error) {
	if len(candidates) == 0 {
		return SearchResult{}, errors.New("core: no units to search")
	}
	for i, c := range candidates {
		if len(c) == 0 {
			return SearchResult{}, fmt.Errorf("core: unit %d has no candidate settings", i)
		}
	}
	// The additive lower bound is only a true lower bound for the
	// additive estimate itself; a measuring evaluator may compose
	// non-linearly, so pruning is off whenever one is supplied.
	var minFrom []float64
	if eval == nil && prune {
		minFrom = make([]float64, len(candidates)+1)
		for i := len(candidates) - 1; i >= 0; i-- {
			m := math.Inf(1)
			for _, s := range candidates[i] {
				m = math.Min(m, s.PredLoss)
			}
			minFrom[i] = minFrom[i+1] + m
		}
	}
	if eval == nil {
		eval = AdditiveEstimate
	}
	w := &comboWalker{
		candidates: candidates, sla: sla, eval: eval, minFrom: minFrom,
		combo: make([]Setting, len(candidates)),
		res:   SearchResult{Loss: 0, Speedup: 1},
	}
	if err := w.walk(0, 0); err != nil {
		return SearchResult{}, err
	}
	if !w.found {
		return w.res, ErrNoViableCombo
	}
	return w.res, nil
}

// AdditiveEstimate is the evaluator used when measurements are
// unavailable: it assumes the approximations are independent and additive
// (the initial assumption of §3.4.2) — losses add, and work shrinks per
// unit weighted by WorkShare (equal shares when unset).
func AdditiveEstimate(combo []Setting) (loss, speedup float64, err error) {
	if len(combo) == 0 {
		return 0, 1, nil
	}
	totalShare := 0.0
	for _, s := range combo {
		totalShare += s.WorkShare
	}
	work := 0.0
	for _, s := range combo {
		loss += s.PredLoss
		share := s.WorkShare
		if totalShare == 0 {
			share = 1 / float64(len(combo))
		} else {
			share /= totalShare
		}
		sp := s.Speedup
		if sp <= 0 {
			sp = 1
		}
		work += share / sp
	}
	if work <= 0 {
		return loss, 1, nil
	}
	return loss, 1 / work, nil
}
