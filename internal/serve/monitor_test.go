package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"green/internal/chaos"
	"green/internal/metrics"
	"green/internal/search"
	"green/internal/wire"
)

// TestServeQoSSnapshotMatchesReruns holds the snapshot-and-continue QoS
// to the law it replaced: for any query and record point, the page
// Record keeps is the page a capped Engine.Search returns, and Loss is
// the loss against an uncapped one — whether they come off the
// request's own scan or, when the scan cannot supply them (not at the
// record point, cut short), off the fallback reruns. Its adapters carry
// no memo, so Loss never reads one here; the memo path is
// TestMonitoredMemoMatchesReference's.
func TestServeQoSSnapshotMatchesReruns(t *testing.T) {
	engine, err := search.NewEngine(search.Config{Seed: 7, Docs: 80 * scanBlock})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := engine.GenerateQueries(11, 60)
	if err != nil {
		t.Fatal(err)
	}
	const topN = 10
	var lost, kept, cutTold int
	for _, q := range queries {
		precise, matches := engine.Search(q, topN, 0)
		for _, r := range []int{1, 7, scanBlock / 4, scanBlock, 4 * scanBlock} {
			capped, _ := engine.Search(q, topN, r)
			want := metrics.QueryLoss(precise, capped)
			if want == 1 {
				lost++
			} else {
				kept++
			}
			name := fmt.Sprintf("q=%v r=%d", q.Terms, r)

			// The request's own scan supplies both pages.
			scan := engine.NewScan(q, topN)
			qos := &serveQoS{engine: engine, query: q, topN: topN, scan: scan}
			scan.StepN(r)
			qos.Record(r)
			if !slices.Equal(qos.recorded, capped) {
				t.Fatalf("%s: recorded %v, capped search %v", name, qos.recorded, capped)
			}
			for scan.StepN(scanBlock) == scanBlock {
			}
			if got := qos.Loss(scan.Processed()); got != want {
				t.Fatalf("%s: loss %v off the scan, %v off the reruns", name, got, want)
			}

			// The scan is not at the record point: Record reruns.
			scan = engine.NewScan(q, topN)
			qos = &serveQoS{engine: engine, query: q, topN: topN, scan: scan}
			scan.StepN(r - 1)
			qos.Record(r)
			if !slices.Equal(qos.recorded, capped) {
				t.Fatalf("%s: scan behind the record point recorded %v, want %v", name, qos.recorded, capped)
			}

			// The scan is cut one block after the record point: Loss
			// must not take its partial page for the precise one.
			scan = engine.NewScan(q, topN)
			qos = &serveQoS{engine: engine, query: q, topN: topN, scan: scan}
			scan.StepN(r)
			qos.Record(r)
			scan.StepN(scanBlock)
			if got := qos.Loss(scan.Processed()); got != want {
				t.Fatalf("%s: loss %v with the scan cut at %d of %d documents, want %v", name, got, scan.Processed(), matches, want)
			}
			if !scan.Exhausted() && want == 1 && metrics.QueryLoss(scan.TopNInto(nil), capped) == 0 {
				cutTold++ // the partial page would have hidden the loss
			}
		}
	}
	if lost == 0 || kept == 0 {
		t.Fatalf("%d lossy and %d lossless record points; the cases do not tell the two apart", lost, kept)
	}
	if cutTold == 0 {
		t.Fatal("no cut scan whose partial page hides a real loss: the fallback is not exercised")
	}
}

// certifyServer is a server every request of which is monitored, with no
// deadline, on a corpus deep enough that a monitored scan's page becomes
// final well before its match set runs out.
func certifyServer(t *testing.T, mutate func(*Config)) *Server {
	return resilientServer(t, func(c *Config) {
		c.CorpusDocs = 40 * scanBlock
		c.SampleInterval = 1
		c.RequestTimeout = -1
		if mutate != nil {
			mutate(c)
		}
	})
}

// searchReply sends one /search request and decodes the reply.
func searchReply(t *testing.T, h http.Handler, query string) wire.SearchReply {
	t.Helper()
	rec := get(t, h, "/search?q="+query)
	if rec.Code != http.StatusOK {
		t.Fatalf("/search?q=%s = %d", query, rec.Code)
	}
	var resp wire.SearchReply
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCertifiedMonitoredMatchesReruns is the differential test of the
// monitored path's early stop: past its record point a monitored scan
// stops once Scan.Final holds, and that must change nothing but the
// documents scored. Across record points, every monitored request serves
// the exhaustive page, reports monitored and not approximated, books the
// loss a capped and an uncapped Engine.Search give, and ends with its
// scan final, so Loss read the precise page off the request's own scan
// rather than rerunning the query (Record's page comes off the scan too:
// a rerun allocates, which TestServeWarmPathZeroAlloc's monitored row
// refuses). The stop must happen: some requests at every record point
// certify, and some of those lose their page at M.
func TestCertifiedMonitoredMatchesReruns(t *testing.T) {
	s := certifyServer(t, nil)
	lossy := 0
	for _, level := range []int{1, 7, scanBlock / 4, scanBlock} {
		certified := 0
		for i := 0; i < 30; i++ {
			word := fmt.Sprintf("w%d+w%d", 7*i+level, 7*i+level+3)
			cq := s.parsedQuery(word)
			q := search.Query{Terms: cq.terms}
			precise, matches := s.engine.Search(q, wire.PageSize, 0)
			want := 0.0
			if matches >= level {
				capped, _ := s.engine.Search(q, wire.PageSize, level)
				want = metrics.QueryLoss(precise, capped)
			}
			s.Loop().SetLevel(float64(level))
			before, ops := s.Loop().State().LossSum, s.Ops().Snapshot()
			sc := new(serveScratch)
			if err := s.serveQuery(context.Background(), time.Time{}, cq, sc); err != nil {
				t.Fatal(err)
			}
			resp, after := sc.resp, s.Ops().Snapshot()
			name := fmt.Sprintf("M=%d q=%s (%d matches, %d scored)", level, word, matches, resp.DocsScored)
			if !sc.scan.Final() {
				t.Fatalf("%s: the scan ended short of final, so Loss reran the query", name)
			}
			if !resp.MonitoredScan || resp.Approximated || resp.Degraded {
				t.Fatalf("%s: monitored=%v approximated=%v degraded=%v, want a monitored precise page",
					name, resp.MonitoredScan, resp.Approximated, resp.Degraded)
			}
			if !slices.Equal(resp.Docs, precise) {
				t.Fatalf("%s: served %v, the exhaustive page is %v", name, resp.Docs, precise)
			}
			if got := s.Loop().State().LossSum - before; got != want {
				t.Fatalf("%s: booked loss %v, the reruns give %v", name, got, want)
			}
			stopped := resp.DocsScored < matches
			if n := after.MonitoredCertified - ops.MonitoredCertified; (n != 0) != stopped {
				t.Fatalf("%s: monitored_certified moved by %d", name, n)
			}
			if after.MonitoredMemo != 0 {
				t.Fatalf("%s: %d memo stops: the certificate path is not the one held", name, after.MonitoredMemo)
			}
			if stopped {
				certified++
				lossy += int(want)
			}
		}
		if certified == 0 {
			t.Errorf("M=%d: no monitored request certified before exhaustion", level)
		}
	}
	if lossy == 0 {
		t.Error("no certified request lost its page at M: the loss comparison is not exercised")
	}
}

// TestCertifiedApproximatedMatchesCap is the differential test of the
// approximated path's early stop: a Green-on request stops at M or, from
// its second block on, where Scan.Final holds, whichever comes first, and
// that must change nothing but the documents scored. Across levels on
// both sides of scanBlock, every unmonitored request serves the page a
// search capped at M gives, scores at most min(M, matches) documents,
// and one that stopped short of both says it was not approximated, serves
// the exhaustive page and is counted by ops.certified — the counter moves
// for exactly those. A level within the first block never reaches a
// check; at every deeper one some request must stop early. The same
// query monitored stops before its record point exactly then, serving
// the exhaustive page and booking the loss recording at M gives. The
// base version (Disabled) scans every match of the same queries.
func TestCertifiedApproximatedMatchesCap(t *testing.T) {
	const never = 1 << 30 // a sample interval no request reaches: none monitored
	s := certifyServer(t, func(c *Config) { c.SampleInterval = never })
	mon := certifyServer(t, nil)
	base := certifyServer(t, func(c *Config) { c.SampleInterval = never; c.Disabled = true })
	h, hm, hb := s.Handler(), mon.Handler(), base.Handler()
	for _, level := range []int{scanBlock / 4, scanBlock, scanBlock + scanBlock/2, 5*scanBlock + 7} {
		s.Loop().SetLevel(float64(level))
		early := 0
		for i := 0; i < 30; i++ {
			word := fmt.Sprintf("w%d+w%d", 7*i+level, 7*i+level+3)
			q := search.Query{Terms: s.termsOf(strings.ReplaceAll(word, "+", " "))}
			precise, matches := s.engine.Search(q, wire.PageSize, 0)
			capped, _ := s.engine.Search(q, wire.PageSize, level)
			before := s.Ops().Snapshot().Certified
			resp := searchReply(t, h, word)
			name := fmt.Sprintf("M=%d q=%s (%d matches, %d scored)", level, word, matches, resp.DocsScored)
			if resp.MonitoredScan || resp.Degraded {
				t.Fatalf("%s: monitored=%v degraded=%v, want an unmonitored whole reply", name, resp.MonitoredScan, resp.Degraded)
			}
			if !slices.Equal(resp.Docs, capped) {
				t.Fatalf("%s: served %v, the search capped at M %v", name, resp.Docs, capped)
			}
			if resp.DocsScored > min(level, matches) {
				t.Fatalf("%s: scored past min(M, matches)", name)
			}
			stopped := resp.DocsScored < min(level, matches)
			if n := s.Ops().Snapshot().Certified - before; (n != 0) != stopped {
				t.Fatalf("%s: certified moved by %d", name, n)
			}
			if stopped {
				early++
				if resp.Approximated || !slices.Equal(resp.Docs, precise) {
					t.Fatalf("%s: stopped early with approximated=%v page %v, want the exact exhaustive page %v",
						name, resp.Approximated, resp.Docs, precise)
				}
			}
			want := 0.0
			if matches >= level {
				want = metrics.QueryLoss(precise, capped)
			}
			mon.Loop().SetLevel(float64(level))
			lossBefore := mon.Loop().State().LossSum
			got := searchReply(t, hm, word)
			if loss := mon.Loop().State().LossSum - lossBefore; !got.MonitoredScan || got.Approximated ||
				!slices.Equal(got.Docs, precise) || loss != want || (got.DocsScored < min(level, matches)) != stopped {
				t.Fatalf("%s: monitored=%v approximated=%v scored %d, page %v and loss %v, want the exhaustive page %v and loss %v",
					name, got.MonitoredScan, got.Approximated, got.DocsScored, got.Docs, loss, precise, want)
			}
			if got := searchReply(t, hb, word); got.DocsScored != matches || !slices.Equal(got.Docs, precise) || got.Approximated {
				t.Fatalf("%s: the base version scored %d with page %v (approximated=%v), want every match and %v",
					name, got.DocsScored, got.Docs, got.Approximated, precise)
			}
		}
		if (early > 0) != (level > scanBlock) {
			t.Errorf("M=%d: %d requests stopped on their certificate before M", level, early)
		}
	}
	if n := base.Ops().Snapshot().Certified; n != 0 {
		t.Fatalf("the base version counted %d certificate stops", n)
	}
	if st := decodeStats(t, h); st.Ops.Certified != s.Ops().Snapshot().Certified {
		t.Fatalf("/stats reads %d certificate stops, the counter %d", st.Ops.Certified, s.Ops().Snapshot().Certified)
	}
}

// TestCertifiedMonitoredUnderRecordPanics: with the QoS callbacks
// panicking on a schedule, a monitored request whose Record panicked
// runs to exhaustion and one whose Loss panicked stopped at its
// certificate — either way the page served is the exhaustive one.
func TestCertifiedMonitoredUnderRecordPanics(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 3, PanicEvery: 2})
	s := certifyServer(t, func(c *Config) {
		c.Chaos = inj
		c.BreakerThreshold = -1 // keep monitoring: no forced precise runs
	})
	h := s.Handler()
	s.Loop().SetLevel(scanBlock / 4)
	certified := 0
	for i := 0; i < 40; i++ {
		word := fmt.Sprintf("w%d+w%d", 5*i, 5*i+2)
		q := search.Query{Terms: s.termsOf(strings.ReplaceAll(word, "+", " "))}
		precise, matches := s.engine.Search(q, wire.PageSize, 0)
		resp := searchReply(t, h, word)
		if !resp.MonitoredScan || resp.Approximated || !slices.Equal(resp.Docs, precise) {
			t.Fatalf("q=%s: monitored=%v approximated=%v page %v, want the monitored exhaustive page %v",
				word, resp.MonitoredScan, resp.Approximated, resp.Docs, precise)
		}
		if resp.DocsScored < matches {
			certified++
		}
		s.Loop().SetLevel(scanBlock / 4)
	}
	if n := s.Ops().Snapshot().MonitoredMemo; n != 0 {
		t.Fatalf("%d memo stops: the certificate path is not the one held", n)
	}
	if panics, _ := inj.Counts(); panics == 0 || certified == 0 || s.Loop().Breaker().ContainedPanics == 0 {
		t.Fatalf("%d injected panics, %d contained, %d certified requests: the case is not exercised",
			panics, s.Loop().Breaker().ContainedPanics, certified)
	}
}

// TestStatsPreciseEstimate: /stats's precise-work estimate is the mean
// match count of the queries the last sampleRing monitored requests
// served times the queries served — not the documents the certified
// scans stopped at.
func TestStatsPreciseEstimate(t *testing.T) {
	s := certifyServer(t, nil)
	h := s.Handler()
	var log []search.Query
	for i := 0; i < sampleRing+5; i++ {
		word := fmt.Sprintf("w%d+w%d", 3*i, 3*i+1)
		if resp := searchReply(t, h, word); !resp.MonitoredScan {
			t.Fatalf("q=%s: not monitored", word)
		}
		log = append(log, search.Query{Terms: s.termsOf(strings.ReplaceAll(word, "+", " "))})
	}
	var sum int64
	for _, q := range log[len(log)-sampleRing:] {
		sum += int64(s.engine.MatchCount(q))
	}
	st := decodeStats(t, h)
	if want := sum * int64(len(log)) / sampleRing; st.DocsPrecise != want {
		t.Fatalf("docs_precise_equivalent = %d, want %d from the ring's match counts", st.DocsPrecise, want)
	}
	if st.Ops.MonitoredCertified == 0 || st.DocsScored >= st.DocsPrecise {
		t.Fatalf("%d certified requests scored %d documents against an estimate of %d: the estimate is not exercised",
			st.Ops.MonitoredCertified, st.DocsScored, st.DocsPrecise)
	}
	if again := decodeStats(t, h); again.DocsPrecise != st.DocsPrecise {
		t.Fatalf("a second /stats reads %d, the first %d", again.DocsPrecise, st.DocsPrecise)
	}
}

// TestDegradedMonitoredLossAgainstPrecise drives the fallback end to
// end: every request is monitored, an injected stall inside Record
// pushes each past its deadline, so the scan is cut short and served
// degraded — and the loss the controller books must still be the loss
// against the full precise page, never against the partial scan.
func TestDegradedMonitoredLossAgainstPrecise(t *testing.T) {
	s := resilientServer(t, func(c *Config) {
		// The scan is cut one block after the record point, so the corpus
		// is as many blocks deep as the test needs: pages that sit still
		// over those scanBlock documents and still change before the scan
		// ends.
		c.CorpusDocs = 80 * scanBlock
		c.SampleInterval = 1
		c.RequestTimeout = 20 * time.Millisecond
		c.Chaos = chaos.New(chaos.Config{DelayEvery: 1, Delay: 40 * time.Millisecond})
	})
	h := s.Handler()
	s.Loop().SetLevel(scanBlock) // under the calibrated level, so stopping there loses pages
	var told, degraded, sent int
	for i := 100; i < 400 && told < 3; i++ {
		// Several mid-frequency words: the match set outruns the level M
		// and late documents still reach the page.
		word := fmt.Sprintf("w%d+w%d+w%d+w%d", i, i+12, i+24, i+36)
		q := search.Query{Terms: s.termsOf(strings.ReplaceAll(word, "+", " "))}
		precise, matches := s.engine.Search(q, wire.PageSize, 0)
		m := int(math.Ceil(s.Loop().Level())) // the first iteration at or past M
		// A page that holds still for a whole block and moves later is a
		// few queries in a hundred: the stall is paid for those — read off
		// the engine, the request then has to agree — and for the first
		// few of the rest.
		if sent >= 8 {
			capped, _ := s.engine.Search(q, wire.PageSize, m)
			cut, _ := s.engine.Search(q, wire.PageSize, m+scanBlock)
			if matches <= m+scanBlock || metrics.QueryLoss(cut, capped) == metrics.QueryLoss(precise, capped) {
				continue
			}
		}
		sent++
		before := s.Loop().State().LossSum

		rec := get(t, h, "/search?q="+word)
		if rec.Code != http.StatusOK {
			t.Fatalf("/search?q=%s = %d", word, rec.Code)
		}
		var resp wire.SearchReply
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.MonitoredScan {
			t.Fatalf("q=%s: not monitored", word)
		}
		got := s.Loop().State().LossSum - before
		want := 0.0
		if matches >= m { // the approximation would have stopped at M
			capped, _ := s.engine.Search(q, wire.PageSize, m)
			want = metrics.QueryLoss(precise, capped)
		}
		if got != want {
			t.Fatalf("q=%s (M=%d, %d matches, %d scored, degraded=%v): booked loss %v, want %v against the precise page",
				word, m, matches, resp.DocsScored, resp.Degraded, got, want)
		}
		if resp.Degraded && resp.DocsScored < matches {
			degraded++
			partial, _ := s.engine.Search(q, wire.PageSize, resp.DocsScored)
			capped, _ := s.engine.Search(q, wire.PageSize, m)
			if metrics.QueryLoss(partial, capped) != want {
				told++ // the partial page would have booked a different loss
			}
		}
	}
	if n := s.Ops().Snapshot().MonitoredMemo; n != 0 {
		t.Fatalf("%d memo stops: the fallback path is not the one held", n)
	}
	if degraded == 0 || told == 0 {
		t.Fatalf("%d requests cut at the deadline, %d of them with a partial page that misjudges the loss: the fallback was not exercised", degraded, told)
	}
}
