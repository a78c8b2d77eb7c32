package serve

import (
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
// record point, cut short), off the fallback reruns.
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
	for _, and := range []bool{false, true} {
		run := engine.Search
		if and {
			run = engine.SearchAnd
		}
		newScan := func(q search.Query) docScanner {
			if and {
				return engine.NewScanAnd(q, topN)
			}
			return engine.NewScan(q, topN)
		}
		var lost, kept, cutTold int
		for _, q := range queries {
			precise, matches := run(q, topN, 0)
			for _, r := range []int{1, 7, scanBlock / 4, scanBlock, 4 * scanBlock} {
				capped, _ := run(q, topN, r)
				want := metrics.QueryLoss(precise, capped)
				if want == 1 {
					lost++
				} else {
					kept++
				}
				name := fmt.Sprintf("and=%v q=%v r=%d", and, q.Terms, r)

				// The request's own scan supplies both pages.
				scan := newScan(q)
				qos := &serveQoS{engine: engine, query: q, topN: topN, and: and, scan: scan}
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
				scan = newScan(q)
				qos = &serveQoS{engine: engine, query: q, topN: topN, and: and, scan: scan}
				scan.StepN(r - 1)
				qos.Record(r)
				if !slices.Equal(qos.recorded, capped) {
					t.Fatalf("%s: scan behind the record point recorded %v, want %v", name, qos.recorded, capped)
				}

				// The scan is cut one block after the record point: Loss
				// must not take its partial page for the precise one.
				scan = newScan(q)
				qos = &serveQoS{engine: engine, query: q, topN: topN, and: and, scan: scan}
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
			t.Fatalf("and=%v: %d lossy and %d lossless record points; the cases do not tell the two apart", and, lost, kept)
		}
		if !and && cutTold == 0 {
			t.Fatal("no cut scan whose partial page hides a real loss: the fallback is not exercised")
		}
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
		precise, matches := s.engine.Search(q, s.cfg.TopN, 0)
		m := int(math.Ceil(s.Loop().Level())) // the first iteration at or past M
		// A page that holds still for a whole block and moves later is a
		// few queries in a hundred: the stall is paid for those — read off
		// the engine, the request then has to agree — and for the first
		// few of the rest.
		if sent >= 8 {
			capped, _ := s.engine.Search(q, s.cfg.TopN, m)
			cut, _ := s.engine.Search(q, s.cfg.TopN, m+scanBlock)
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
			capped, _ := s.engine.Search(q, s.cfg.TopN, m)
			want = metrics.QueryLoss(precise, capped)
		}
		if got != want {
			t.Fatalf("q=%s (M=%d, %d matches, %d scored, degraded=%v): booked loss %v, want %v against the precise page",
				word, m, matches, resp.DocsScored, resp.Degraded, got, want)
		}
		if resp.Degraded && resp.DocsScored < matches {
			degraded++
			partial, _ := s.engine.Search(q, s.cfg.TopN, resp.DocsScored)
			capped, _ := s.engine.Search(q, s.cfg.TopN, m)
			if metrics.QueryLoss(partial, capped) != want {
				told++ // the partial page would have booked a different loss
			}
		}
	}
	if degraded == 0 || told == 0 {
		t.Fatalf("%d requests cut at the deadline, %d of them with a partial page that misjudges the loss: the fallback was not exercised", degraded, told)
	}
}
