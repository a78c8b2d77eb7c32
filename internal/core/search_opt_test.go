package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomCandidates builds a reproducible random search space: units x per
// candidate settings with losses around the interesting region of sla.
func randomCandidates(rng *rand.Rand, units, per int, sla float64) [][]Setting {
	cands := make([][]Setting, units)
	for u := range cands {
		cands[u] = make([]Setting, per)
		for v := range cands[u] {
			cands[u][v] = Setting{
				Unit:     u,
				Label:    fmt.Sprintf("u%dv%d", u, v),
				PredLoss: rng.Float64() * 2 * sla / float64(units),
				Speedup:  1 + rng.Float64()*3,
			}
			if rng.Intn(4) == 0 {
				cands[u][v].WorkShare = rng.Float64()
			}
		}
	}
	return cands
}

// The branch-and-bound cut must be invisible: identical Best, Loss,
// Speedup and error to the exhaustive walk, which measures every
// combination, across randomized spaces. A measuring evaluator turns the
// cut off, so CombineSearch then is the exhaustive walk, Evaluated too.
func TestCombineSearchOptMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	evalMeasured := func(combo []Setting) (float64, float64, error) {
		loss, speed := 0.0, 0.0
		for _, s := range combo {
			loss += s.PredLoss
			speed += 1 / s.Speedup
		}
		return loss, float64(len(combo)) / speed, nil
	}
	for trial := 0; trial < 30; trial++ {
		units := 2 + rng.Intn(4)
		per := 1 + rng.Intn(5)
		sla := 0.01 + rng.Float64()*0.03
		cands := randomCandidates(rng, units, per, sla)

		exhaustive, exhaustiveErr := combineSearch(cands, sla, nil, false)
		if want := int(math.Pow(float64(per), float64(units))); exhaustive.Evaluated != want {
			t.Fatalf("trial %d: exhaustive walk evaluated %d, want %d", trial, exhaustive.Evaluated, want)
		}
		got, err := CombineSearch(cands, sla, nil)
		if err != exhaustiveErr {
			t.Fatalf("trial %d: err = %v, exhaustive err = %v", trial, err, exhaustiveErr)
		}
		if !reflect.DeepEqual(got.Best, exhaustive.Best) ||
			got.Loss != exhaustive.Loss || got.Speedup != exhaustive.Speedup {
			t.Fatalf("trial %d: result %+v != exhaustive %+v", trial, got, exhaustive)
		}
		if got.Evaluated > exhaustive.Evaluated {
			t.Fatalf("trial %d: pruned walk evaluated MORE (%d > %d)",
				trial, got.Evaluated, exhaustive.Evaluated)
		}

		me, meErr := combineSearch(cands, sla, evalMeasured, false)
		mp, mpErr := CombineSearch(cands, sla, evalMeasured)
		if mpErr != meErr || !reflect.DeepEqual(mp, me) {
			t.Fatalf("trial %d measured: %+v (%v) != exhaustive %+v (%v)",
				trial, mp, mpErr, me, meErr)
		}
	}
}

func TestCombineSearchPruningReducesEvaluated(t *testing.T) {
	// Unit 0 has one viable and three hopeless settings: pruning should
	// cut three of the four top-level branches without descending.
	hopeless := func(u, v int) Setting {
		return Setting{Unit: u, Label: fmt.Sprintf("bad%d_%d", u, v), PredLoss: 0.9, Speedup: 5}
	}
	cands := [][]Setting{
		{{Unit: 0, Label: "ok", PredLoss: 0.001, Speedup: 2},
			hopeless(0, 1), hopeless(0, 2), hopeless(0, 3)},
		{{Unit: 1, Label: "a", PredLoss: 0.002, Speedup: 1.5},
			{Unit: 1, Label: "b", PredLoss: 0.004, Speedup: 1.8}},
		{{Unit: 2, Label: "c", PredLoss: 0.001, Speedup: 1.2},
			{Unit: 2, Label: "d", PredLoss: 0.003, Speedup: 1.4}},
	}
	const sla = 0.02
	exhaustive, err := combineSearch(cands, sla, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if exhaustive.Evaluated != 16 {
		t.Fatalf("exhaustive evaluated %d, want 16", exhaustive.Evaluated)
	}
	pruned, err := CombineSearch(cands, sla, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Evaluated != 4 {
		t.Errorf("pruned walk evaluated %d combos, want 4 (one viable unit-0 branch)", pruned.Evaluated)
	}
	if !reflect.DeepEqual(pruned.Best, exhaustive.Best) ||
		pruned.Loss != exhaustive.Loss || pruned.Speedup != exhaustive.Speedup {
		t.Errorf("pruned result %+v differs from exhaustive %+v", pruned, exhaustive)
	}
}

// The walk surfaces the first evaluator error in lexicographic order
// and stops there: a-x, a-y and b-x are measured, nothing after b-x.
func TestCombineSearchParallelErrorDeterministic(t *testing.T) {
	errB := errors.New("branch b failed")
	errC := errors.New("branch c failed")
	cands := [][]Setting{
		{{Unit: 0, Label: "a"}, {Unit: 0, Label: "b"}, {Unit: 0, Label: "c"}},
		{{Unit: 1, Label: "x"}, {Unit: 1, Label: "y"}},
	}
	calls := 0
	eval := func(combo []Setting) (float64, float64, error) {
		calls++
		switch combo[0].Label {
		case "b":
			return 0, 0, errB
		case "c":
			return 0, 0, errC
		}
		return 0.001, 2, nil
	}
	if _, err := CombineSearch(cands, 0.01, eval); err != errB {
		t.Errorf("err = %v, want errB (first in walk order)", err)
	}
	if calls != 3 {
		t.Errorf("evaluator called %d times, want 3 (the walk stops at the first error)", calls)
	}
}
