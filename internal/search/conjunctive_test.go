package search

import (
	"testing"

	"green/internal/metrics"
)

// bruteForceAnd computes the conjunctive match set naively.
func bruteForceAnd(e *Engine, q Query) map[uint32]bool {
	counts := map[uint32]int{}
	for _, t := range q.Terms {
		if t < 0 || t >= len(e.postings) {
			return nil
		}
		for _, p := range e.postings[t] {
			counts[p.Doc]++
		}
	}
	out := map[uint32]bool{}
	for d, c := range counts {
		if c == len(q.Terms) {
			out[d] = true
		}
	}
	return out
}

func TestSearchAndMatchesBruteForce(t *testing.T) {
	e := smallEngine(t)
	qs, err := e.GenerateQueries(41, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		want := bruteForceAnd(e, q)
		got, n := e.SearchAnd(q, 10)
		if n != len(want) {
			t.Fatalf("query %v: processed %d, brute force %d", q.Terms, n, len(want))
		}
		for _, d := range got {
			if !want[uint32(d)] {
				t.Fatalf("query %v: result %d not a conjunctive match", q.Terms, d)
			}
		}
	}
}

func TestSearchAndSubsetOfOr(t *testing.T) {
	e := smallEngine(t)
	qs, _ := e.GenerateQueries(43, 60)
	for _, q := range qs {
		_, nAnd := e.SearchAnd(q, 10)
		_, nOr := e.Search(q, 10, 0)
		if nAnd > nOr {
			t.Fatalf("AND matched %d > OR %d", nAnd, nOr)
		}
	}
}

func TestSearchAndSingleTermEqualsOr(t *testing.T) {
	e := smallEngine(t)
	q := Query{Terms: []int{3}}
	andRes, nAnd := e.SearchAnd(q, 10)
	orRes, nOr := e.Search(q, 10, 0)
	if nAnd != nOr {
		t.Fatalf("counts differ: %d vs %d", nAnd, nOr)
	}
	if !metrics.TopNExactMatch(andRes, orRes) {
		t.Fatal("single-term AND differs from OR")
	}
}

func TestSearchAndEdgeCases(t *testing.T) {
	e := smallEngine(t)
	if res, n := e.SearchAnd(Query{}, 10); res != nil || n != 0 {
		t.Error("empty query returned results")
	}
	if res, n := e.SearchAnd(Query{Terms: []int{0}}, 0); res != nil || n != 0 {
		t.Error("topN=0 returned results")
	}
	if res, n := e.SearchAnd(Query{Terms: []int{0, 999999}}, 10); res != nil || n != 0 {
		t.Error("unknown term should empty the intersection")
	}
}
