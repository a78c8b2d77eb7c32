package serve

import (
	"context"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"green/internal/chaos"
	"green/internal/metrics"
	"green/internal/search"
	"green/internal/wire"
)

// The /search request path in the order a request runs it: admission,
// handler, query cache, the controlled scan with its QoS adapter, the
// encoded reply. Nothing on the warm path touches the allocator (gated
// by TestServeWarmPathZeroAlloc and check.sh).

// withResilience wraps a handler with the in-flight cap (shed with 503
// + Retry-After instead of queuing unboundedly). The per-request
// deadline is NOT a context here: context.WithTimeout allocates a
// timer and a context per request, so the serving path instead carries
// an explicit deadline time (see serveQuery), which costs one time.Now
// read at entry and nothing on the allocator.
func (s *Server) withResilience(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.MaxInFlight > 0 {
			if s.inFlight.Add(1) > int64(s.cfg.MaxInFlight) {
				s.inFlight.Add(-1)
				s.ops.Shed.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, "overloaded: request shed", http.StatusServiceUnavailable)
				return
			}
			defer s.inFlight.Add(-1)
		}
		h(w, r)
	}
}

// handleSearch serves one query. The handler is side-effect-free per
// request by design — a coordinator's retry of a query the worker already
// served is safe: serving the same query twice touches no state beyond
// monotonic counters (queries/docs-scored/ops) and the controller's
// monitored-sampling stream, and returns the same ranked page both
// times (TestSearchHandlerIdempotent). Keep it that way: any per-query
// mutation added here must be idempotent or moved off this path.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	rawQ, ok := wire.RawParam(r.URL.RawQuery, wire.ParamQuery)
	if !ok || rawQ == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	cq := s.parsedQuery(rawQ)
	if cq == nil {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	scores, _ := wire.RawParam(r.URL.RawQuery, wire.ParamScores)
	sc := scratchPool.Get().(*serveScratch)
	sc.wantScores = scores == "1"
	var deadline time.Time // zero: no deadline
	if s.cfg.RequestTimeout > 0 {
		deadline = time.Now().Add(s.cfg.RequestTimeout)
	}
	if err := s.serveQuery(r.Context(), deadline, cq, sc); err != nil {
		sc.release()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sc.resp.Query = cq.echo
	sc.buf = sc.resp.AppendJSON(sc.buf[:0])
	wire.WriteRaw(w, sc.buf)
	sc.release()
}

// parsedQuery resolves the raw q parameter value through the
// preparsed-query cache; a miss unescapes, tokenizes and populates the
// cache. A nil return means the query was empty or unparseable (the
// caller 400s).
func (s *Server) parsedQuery(rawQ string) *cachedQuery {
	if cq := s.qcache.get(rawQ); cq != nil {
		s.ops.QueryCacheHits.Add(1)
		return cq
	}
	s.ops.QueryCacheMisses.Add(1)
	qstr, err := url.QueryUnescape(rawQ)
	if err != nil || strings.TrimSpace(qstr) == "" {
		return nil
	}
	cq := &cachedQuery{echo: qstr, terms: s.termsOf(qstr)}
	s.qcache.put(rawQ, cq)
	return cq
}

// termsOf maps query words onto the synthetic vocabulary by hashing —
// the stand-in for a tokenizer + dictionary over a real index. Words hash
// into the *popular* post-stopword band of the Zipf vocabulary: real
// query traffic overwhelmingly hits common terms, and that is the
// distribution the engine was calibrated for.
func (s *Server) termsOf(q string) []int {
	fields := strings.Fields(strings.ToLower(q))
	terms := make([]int, 0, len(fields))
	band := s.engine.Vocab() / 10
	if band < 1 {
		band = 1
	}
	for _, f := range fields {
		t := s.engine.StopTerms() + int(qcacheHash(f)%uint32(band))
		if t >= s.engine.Vocab() {
			t = s.engine.Vocab() - 1
		}
		dup := false
		for _, u := range terms {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
			terms = append(terms, t)
		}
	}
	return terms
}

// scanBlock is the most documents one ContinueN round grants: the stop
// law and the deadline are consulted once per grant, the kernel runs it
// in steps of at most finalBlock documents, and between steps the page's
// finality certificate (Scan.Final) may end the scan. The iteration a
// scan stops at by M does not depend on either (ContinueN grants exactly
// up to M); what does is how often a round's fixed cost is paid — the
// clock read alone is 80–110 ns here, then ctx.Err(), ContinueN and the
// kernel's entry — and how soon a deadline is noticed: at the kernel's
// 2–8 ns a document, every ~4–16 µs of scanning, against timeouts of
// seconds. The certificate's check is amortized over the scan (its block
// cursor only moves forward), so it is taken eight times as often, once
// per block of the certificate's table: a page that turns final
// mid-grant stops up to 1 792 documents sooner.
const (
	scanBlock  = 2048
	finalBlock = 256
)

// serveScratch is the pooled per-request working set of the /search
// path: the scanner, the response struct with its docs slice, and the
// JSON encode buffer. One pool Get serves the whole request.
type serveScratch struct {
	scan search.Scan
	resp wire.SearchReply
	buf  []byte
	// wantScores asks serveQuery for the score-bearing page; results and
	// scores are its reusable buffers (resp.Scores is nil on the plain
	// path, so the backing array is retained here).
	wantScores bool
	results    []search.Result
	scores     []float64
}

var scratchPool = sync.Pool{New: func() any { return new(serveScratch) }}

func (sc *serveScratch) release() {
	sc.resp.Query = "" // drop the cached-echo reference
	scratchPool.Put(sc)
}

// serveQuery runs one query's scan, sc.scan, under the match loop into
// sc.resp, honoring the client context (cancellation) and the explicit
// deadline: if either expires mid-scan the partial results scored so
// far are returned, marked degraded. The request runs one scan, in
// blocks: the controller grants up to scanBlock iterations at a time
// (ContinueN, exactly as many true Continue calls), the kernel scores
// them in StepN steps of finalBlock (one step of the whole grant in the
// base version), and a monitored request's QoS is read off that same
// scan (serveQoS). A Green-on scan stops at M or at the first step
// boundary where its page is final, whichever comes first; a monitored
// one runs on past M to that boundary, or stops at its record point
// when the query's precise page is memoised.
func (s *Server) serveQuery(ctx context.Context, deadline time.Time, cq *cachedQuery, sc *serveScratch) error {
	q, scan := search.Query{Terms: cq.terms}, &sc.scan
	scan.Reset(s.engine, q, wire.PageSize)
	qos := serveQoSPool.Get().(*serveQoS)
	qos.engine, qos.query, qos.topN = s.engine, q, wire.PageSize
	qos.chaos = s.cfg.Chaos
	qos.scan = scan
	exec, err := s.loop.Begin(qos)
	if err != nil {
		qos.release()
		return err
	}
	expired := func() bool {
		return ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline))
	}
	i, certified := 0, false
	step := finalBlock
	if s.cfg.Disabled {
		step = scanBlock
	}
	// An already-expired deadline still serves (an empty page beats an
	// error); mid-scan, the deadline is checked once per grant.
	degraded := expired()
	if !degraded {
	grants:
		for k := exec.ContinueN(i, scanBlock); k > 0; k = exec.ContinueN(i, scanBlock) {
			// Monitored and at or past its record point, with the query's
			// precise page memoised: Loss compares with it and the reply
			// serves it. The memo is read here only, so unmonitored requests
			// never see it: a reference, not a cache.
			if qos.reference {
				if qos.memo = cq.final.Load(); qos.memo != nil {
					break
				}
			}
			for left := k; left > 0; {
				// The page is final, so it is the page at M and the
				// exhaustive page alike: the scan stops on the certificate.
				// Not before the first step (nothing scored is final only
				// when exhausted), and never in the base version, which
				// scans every match.
				if i > 0 && !s.cfg.Disabled && scan.Final() {
					certified = !scan.Exhausted()
					break grants
				}
				want := min(left, step)
				n := scan.StepN(want)
				i, left = i+n, left-n
				if n < want {
					break grants // out of matching documents
				}
			}
			if expired() {
				degraded = true
				break
			}
		}
	}
	// Finish is the controller's last use of qos (Loss runs inside it),
	// so the adapter can be recycled right after.
	res, memo, reference := exec.Finish(i), qos.memo, qos.reference
	qos.release()
	if degraded {
		s.ops.DeadlinePartial.Add(1)
		s.ops.Degraded.Add(1)
	}
	s.queries.Add(1)
	s.docsScored.Add(int64(scan.Processed()))
	if certified {
		s.ops.Certified.Add(1)
	}
	if res.Monitored {
		switch {
		case memo != nil:
			s.ops.MonitoredMemo.Add(1)
		case certified:
			s.ops.MonitoredCertified.Add(1)
		}
		// The memo's one writer: a reference scan that ended final, and
		// only while the query can stay resident in the query cache.
		if reference && memo == nil && !degraded && len(s.qcache.shards) > 0 && scan.Final() {
			page := scan.TopNResultsInto(nil)
			cq.final.CompareAndSwap(nil, &page)
		}
		s.sampled[uint64(s.monitoredQueries.Add(1))%sampleRing].Store(cq)
	}
	sc.resp = wire.SearchReply{
		Docs:          sc.resp.Docs,
		Scores:        nil,
		DocsScored:    scan.Processed(),
		Approximated:  res.Approximated,
		MonitoredScan: res.Monitored,
		Degraded:      degraded,
	}
	if sc.wantScores || memo != nil {
		// The coordinator's merge needs exact scores; split the ranked
		// (doc, score) page, the scan's or the memo, into the two parallel
		// response arrays.
		page := memo
		if page == nil {
			sc.results = scan.TopNResultsInto(sc.results[:0])
			page = &sc.results
		}
		docs, scores := sc.resp.Docs[:0], sc.scores[:0]
		for _, r := range *page {
			docs = append(docs, int(r.Doc))
			scores = append(scores, r.Score)
		}
		sc.resp.Docs, sc.scores = docs, scores
		if sc.wantScores {
			sc.resp.Scores = scores
		}
	} else {
		sc.resp.Docs = scan.TopNInto(sc.resp.Docs)
	}
	return nil
}

// serveQoS adapts a served query to core.LoopQoS by snapshot-and-
// continue, the paper's monitored run: "store the QoS value and do not
// terminate the loop early". Record copies the request's own scan page
// at the iteration the approximation would have stopped; the scan then
// runs on until its page is final (Scan.Final: exhausted, or provably
// unchanged by anything left to score), and Loss compares that snapshot
// with the scan's final page — the precise answer, which the request is
// serving anyway. A monitored request therefore costs the scan up to its
// certificate, not the whole match set; once the query's precise page is
// memoised, only up to its record point, and Loss reads the memo.
// Rerunning the query on the engine is the fallback only: Record reruns
// the capped search when the scan is not at the recorded iteration, Loss
// reruns the precise search when the scan's page is not final (deadline,
// cancellation), so a loss is never measured against a partial page.
//
// Adapters are pooled and keep their two page buffers across requests,
// so the monitored path allocates nothing either. The chaos injector
// hooks live here: the QoS callbacks are exactly the user-code surface
// the controller's panic containment guards, so this is where the
// fault-injection harness aims.
type serveQoS struct {
	engine *search.Engine
	query  search.Query
	topN   int
	scan   *search.Scan // the request's own scan
	chaos  *chaos.Injector
	// reference: Record has run, so what the scan scores from here on is
	// the precise reference, and it may stop once its page is final.
	reference bool
	// memo is the query's memoised precise page, once serveQuery has
	// read one at the record point.
	memo *[]search.Result
	// recorded is the page at the record point, precise the buffer for
	// the final one; both backing arrays survive release.
	recorded []int
	precise  []int
}

var serveQoSPool = sync.Pool{New: func() any { return new(serveQoS) }}

func (q *serveQoS) release() {
	*q = serveQoS{recorded: q.recorded[:0], precise: q.precise[:0]}
	serveQoSPool.Put(q)
}

// search reruns the query on the engine from scratch (maxDocs <= 0:
// uncapped), the fallback for a page the scan cannot supply.
func (q *serveQoS) search(maxDocs int) []int {
	docs, _ := q.engine.Search(q.query, q.topN, maxDocs)
	return docs
}

func (q *serveQoS) Record(iter int) {
	q.chaos.MaybeDelay("qos.record")
	q.chaos.MaybePanic("qos.record")
	q.reference = true
	// iter > 0: a cap of zero means "no cap" to the engine, and the
	// rerun keeps that meaning.
	if iter > 0 && q.scan.Processed() == iter {
		q.recorded = q.scan.TopNInto(q.recorded)
		return
	}
	q.recorded = q.search(iter)
}

func (q *serveQoS) Loss(int) float64 {
	q.chaos.MaybeDelay("qos.loss")
	q.chaos.MaybePanic("qos.loss")
	switch {
	case q.memo != nil:
		q.precise = q.precise[:0]
		for _, r := range *q.memo {
			q.precise = append(q.precise, int(r.Doc))
		}
	case q.scan.Final():
		q.precise = q.scan.TopNInto(q.precise)
	default:
		return metrics.QueryLoss(q.search(0), q.recorded)
	}
	return metrics.QueryLoss(q.precise, q.recorded)
}
