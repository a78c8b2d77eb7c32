package main

import (
	"encoding/json"
	"hash/fnv"
	"slices"
	"strings"

	"green/internal/search"
)

// oracle is the ground truth for the search workloads: a twin of the
// server's engine, built by the bench from the same seed and size, asked
// with Engine.Search(q, topN, 0) — the one-shot precise path, not the
// incremental scan the server runs.
type oracle struct {
	eng  *search.Engine
	topN int
}

func newOracle(docs int) (*oracle, error) {
	eng, err := search.NewEngine(search.Config{Seed: corpusSeed, Docs: docs})
	if err != nil {
		return nil, err
	}
	return &oracle{eng: eng, topN: 10}, nil
}

// terms maps a query string onto the engine's vocabulary the way the
// server's tokenizer does: lower-cased fields hashed into the popular
// band past the stop terms, duplicates dropped.
func (o *oracle) terms(q string) []int {
	fields := strings.Fields(strings.ToLower(q))
	terms := make([]int, 0, len(fields))
	band := max(1, o.eng.Vocab()/10)
	for _, f := range fields {
		h := fnv.New32a()
		h.Write([]byte(f))
		t := min(o.eng.StopTerms()+int(h.Sum32()%uint32(band)), o.eng.Vocab()-1)
		dup := false
		for _, u := range terms {
			dup = dup || u == t
		}
		if !dup {
			terms = append(terms, t)
		}
	}
	return terms
}

// page is the precise answer to one query: the ranked top-N page and the
// number of matching documents, which is the precise version's work.
type page struct {
	docs    []int
	matched int
}

func (o *oracle) search(q string) page {
	docs, n := o.eng.Search(search.Query{Terms: o.terms(q)}, o.topN, 0)
	return page{docs, n}
}

// reply is the part of a /search response body the bench checks. The
// coordinator's body has no approximated or monitored field; they stay
// false there.
type reply struct {
	Docs         []int `json:"docs"`
	DocsScored   int   `json:"docs_scored"`
	Approximated bool  `json:"approximated"`
	Monitored    bool  `json:"monitored"`
	Degraded     bool  `json:"degraded"`
}

// verdict is what checking one response against the truth found.
type verdict struct {
	// failed: the response broke the contract, whatever the mode.
	failed bool
	// differs: a Green-on page that is not the precise page. That is
	// quality loss, never a failure.
	differs bool
	reply   reply
}

// check judges one 200 response body. The contract is the paper's:
// approximation off is precise. So a page from the precise-mode server,
// or one the server itself says it did not approximate, must be the
// oracle's page; no response may claim more documents scored than match;
// and a body that does not parse is a failure. flagged says whether the
// body carries the approximated field (a worker's does, a coordinator's
// does not; there a page that scored every match stands in for it).
func check(body []byte, truth page, m mode, flagged bool) verdict {
	var v verdict
	if err := json.Unmarshal(body, &v.reply); err != nil {
		v.failed = true
		return v
	}
	same := slices.Equal(v.reply.Docs, truth.docs)
	claimedPrecise := m == approxOff
	if flagged {
		claimedPrecise = claimedPrecise || !v.reply.Approximated
	} else {
		claimedPrecise = claimedPrecise || v.reply.DocsScored == truth.matched
	}
	switch {
	case v.reply.DocsScored > truth.matched, v.reply.Degraded:
		v.failed = true
	case m == approxOff && v.reply.Approximated:
		v.failed = true
	case claimedPrecise && !same:
		v.failed = true
	case !same:
		v.differs = true
	}
	return v
}
