package search

import (
	"testing"
)

// The pooled-serve contract for the incremental scanner: Reset reuses
// storage, StepN matches repeated Step, TopNInto matches TopN.

func reuseEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Docs: 2000, VocabSize: 300, AvgDocLen: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestScanResetEquivalence(t *testing.T) {
	e := reuseEngine(t)
	qs, err := e.GenerateQueries(9, 20)
	if err != nil {
		t.Fatal(err)
	}
	reused := e.NewScan(qs[0], 10)
	for _, q := range qs {
		reused.Reset(e, q, 10)
		fresh := e.NewScan(q, 10)
		for fresh.Step() {
			if !reused.Step() {
				t.Fatalf("query %d: reused scan exhausted before fresh", q.ID)
			}
		}
		if reused.Step() {
			t.Fatalf("query %d: reused scan outlived fresh", q.ID)
		}
		got, want := reused.TopN(), fresh.TopN()
		if len(got) != len(want) {
			t.Fatalf("query %d: topN %v vs %v", q.ID, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: topN[%d] = %d, want %d", q.ID, i, got[i], want[i])
			}
		}
		if reused.Processed() != fresh.Processed() {
			t.Fatalf("query %d: processed %d vs %d", q.ID, reused.Processed(), fresh.Processed())
		}
	}
}

func TestStepNMatchesStep(t *testing.T) {
	e := reuseEngine(t)
	qs, err := e.GenerateQueries(13, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		a, b := e.NewScan(q, 10), e.NewScan(q, 10)
		for {
			n := a.StepN(7)
			for i := 0; i < n; i++ {
				if !b.Step() {
					t.Fatalf("query %d: StepN scored more than Step", q.ID)
				}
			}
			if n < 7 {
				break
			}
		}
		if b.Step() {
			t.Fatalf("query %d: StepN scored fewer than Step", q.ID)
		}
		if a.Processed() != b.Processed() {
			t.Fatalf("query %d: processed %d vs %d", q.ID, a.Processed(), b.Processed())
		}
	}
}

func TestTopNIntoMatchesTopNAndReusesBuffer(t *testing.T) {
	e := reuseEngine(t)
	qs, err := e.GenerateQueries(21, 10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 10)
	for _, q := range qs {
		s := e.NewScan(q, 10)
		for s.Step() {
		}
		want := s.TopN()
		buf = s.TopNInto(buf)
		if len(buf) != len(want) {
			t.Fatalf("query %d: TopNInto %v vs TopN %v", q.ID, buf, want)
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("query %d: TopNInto[%d] = %d, want %d", q.ID, i, buf[i], want[i])
			}
		}
		if cap(buf) != 10 {
			t.Fatalf("query %d: TopNInto reallocated the warm buffer (cap %d)", q.ID, cap(buf))
		}
	}
	// Warm TopNInto must not allocate.
	s := e.NewScan(qs[0], 10)
	for s.Step() {
	}
	s.TopNInto(buf) // warm the heap scratch
	allocs := testing.AllocsPerRun(50, func() {
		buf = s.TopNInto(buf)
	})
	if allocs != 0 {
		t.Fatalf("warm TopNInto allocates %.1f per call, want 0", allocs)
	}
}

// TestScanPartialWindow pins what a grant that ends inside a window
// leaves visible: the documents scored ahead of it are in neither
// Processed nor the page, and the scan is exhausted exactly when the
// last member has been handed out — on the tied corpus every list ends
// inside the first window, so from the first fill on no list is live.
func TestScanPartialWindow(t *testing.T) {
	for _, c := range []struct {
		e     *Engine
		terms []int
	}{
		{tiedEngine(), []int{2, 5, 1, 3, 0}},
		{windowEngine(), []int{0, 1, 2, 3, 4}},
		{windowEngine(), []int{6, 5}},
	} {
		q := Query{Terms: c.terms}
		_, matches := c.e.Search(q, 1, 0)
		for _, grant := range []int{7, 64, 1000} {
			s := c.e.NewScan(q, 10)
			for want := 0; want < matches; {
				n := s.StepN(grant)
				if want+n != min(want+grant, matches) || s.Processed() != want+n {
					t.Fatalf("q=%v: StepN(%d) at %d of %d documents returned %d, Processed %d", c.terms, grant, want, matches, n, s.Processed())
				}
				want += n
				if s.Exhausted() != (want == matches) {
					t.Fatalf("q=%v grant=%d: Exhausted() = %v at %d of %d documents", c.terms, grant, s.Exhausted(), want, matches)
				}
				if err := checkAgainstSearch(c.e, s, q, 10); err != nil {
					t.Fatalf("q=%v grant=%d: %v", c.terms, grant, err)
				}
			}
		}
	}
}

// TestScanResetAfterApproximatedStop: a pooled scan the approximation
// stopped mid-window still holds that query's members, flags and scores
// when it is Reset; the next query must start from an empty window.
func TestScanResetAfterApproximatedStop(t *testing.T) {
	e := windowEngine()
	queries := [][]int{{0, 1, 2, 3, 4}, {6, 5}, {4, 3}, {1, 0}, {5, 7, 2}, {2}}
	pooled := e.NewScan(Query{}, 10)
	for _, first := range queries {
		for _, stop := range []int{1, 100, 2500} {
			for _, second := range queries {
				pooled.Reset(e, Query{Terms: first}, 10)
				pooled.StepN(stop)
				q := Query{Terms: second}
				pooled.Reset(e, q, 10)
				for more := true; more; more = pooled.StepN(300) == 300 {
					if err := checkAgainstSearch(e, pooled, q, 10); err != nil {
						t.Fatalf("q=%v after %v stopped at %d: %v", second, first, stop, err)
					}
				}
				if err := checkAgainstSearch(e, pooled, q, 10); err != nil || !pooled.Exhausted() {
					t.Fatalf("q=%v after %v stopped at %d: drained scan exhausted=%v, %v", second, first, stop, pooled.Exhausted(), err)
				}
			}
		}
	}
}
