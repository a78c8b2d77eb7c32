package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"green/internal/core"
	"green/internal/model"
	"green/internal/search"
	"green/internal/workload"
)

// searchRig drives the four socket workloads: a closed loop on one
// keep-alive connection against a Green-on target and a precise-mode
// twin of it, over one fixed query sequence, with the oracle's own
// Engine.Search as the bare mode and the ground truth. One connection,
// because the caller here waits for each reply, because the controller's
// trajectory is then a function of the sequence alone, and because a
// second client on a box this small times the first.
type searchRig struct {
	name string
	// urls are the base URLs of the Green-on and the precise-mode target.
	urls   [2]string
	oracle *oracle
	// flagged: response bodies carry the approximated field (workers do,
	// the coordinator does not).
	flagged bool
	sla     float64

	client *http.Client
	dials  atomic.Int64
	tr     atomic.Pointer[tracer]
	stops  []func()

	// raw[i] is operation i's q parameter as sent; plain[i] is the same
	// query unescaped.
	raw, plain []string

	// afterBlock runs, untimed, after each block with the number of
	// Green-on operations done so far.
	afterBlock func(done int, tr *tracer)
	// levels reads the Green-on controllers' current levels.
	levels func() []float64
	// cacheHits reads the Green-on target's query-cache hit counter (nil
	// when there is no single such counter).
	cacheHits func() int64
	// replayLevel is the level a monitored request's Record call scans
	// to; nil when the target's handler is not a scan to replay.
	replayLevel func() int
	// replayDocs is how many documents each replayed operation stepped.
	replayDocs map[int]int
}

// opHeader carries the operation id to the bench's handler wrapper on
// the traced pass.
const opHeader = "X-Bench-Op"

func newSearchRig(name string, flagged bool, sla float64) *searchRig {
	r := &searchRig{name: name, flagged: flagged, sla: sla}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	r.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				r.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
		},
	}
	return r
}

// listen serves h on a fresh loopback port behind the span-recording
// wrapper and returns the base URL.
func (r *searchRig) listen(h http.Handler, spanName string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: &spanHandler{next: h, name: spanName, tr: &r.tr}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	r.stops = append(r.stops, func() {
		_ = srv.Close() // closes the listener and every connection
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener and connection the rig opened and waits
// for the serving goroutines to end.
func (r *searchRig) close() {
	r.client.CloseIdleConnections()
	for _, stop := range r.stops {
		stop()
	}
	r.stops = nil
}

// spanHandler is the bench-side wrapper around a layer's http.Handler:
// on the traced pass it records one span per request.
type spanHandler struct {
	next http.Handler
	name string
	tr   *atomic.Pointer[tracer]
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, req)
		return
	}
	op := -1
	if v := req.Header.Get(opHeader); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			op = n
		}
	}
	start := time.Now()
	h.next.ServeHTTP(w, req)
	tr.add(h.name, start, time.Now(), op, false)
}

// get performs one request and reads the whole body into buf.
func (r *searchRig) get(url string, op int, traced bool, buf []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, buf, err
	}
	if traced {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, buf, err
	}
	defer resp.Body.Close()
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return resp.StatusCode, buf, nil
		}
		if err != nil {
			return resp.StatusCode, buf, err
		}
	}
}

// passResult is what one pass over the sequence found.
type passResult struct {
	run       *blockRun
	attempted int
	failed    int
	// differs[i] is 1 when Green-on operation i's page was not the
	// precise page.
	differs []float64
	// docsGreen and docsPrecise are the documents scored Green-on and
	// the matching documents of the same queries.
	docsGreen, docsPrecise  float64
	approximated, monitored int
	respBytes               int
	levelChanges            int
	// cacheHit and monitoredOp describe each Green-on operation of a
	// traced pass, from operation first on.
	cacheHit, monitoredOp []bool
	first                 int
}

// pass runs total operations of the sequence, from operation first on,
// in blocks of perBlock, in all three modes, and checks every response.
func (r *searchRig) pass(first, total, perBlock int, tr *tracer) *passResult {
	res := &passResult{first: first, differs: make([]float64, 0, total)}
	r.tr.Store(tr)
	defer r.tr.Store(nil)

	truth := make([]page, perBlock)
	type got struct {
		status int
		err    error
		body   []byte
	}
	var replies [2][]got
	for m := range replies {
		replies[m] = make([]got, perBlock)
	}
	// The traced pass can tell, per operation, what the request was and
	// replay it.
	var replay *replayer
	if tr != nil && r.replayLevel != nil {
		replay = newReplayer(r.oracle)
		r.replayDocs = make(map[int]int)
	}
	lastLevels := r.levels()
	noteLevels := func() {
		if now := r.levels(); !slices.Equal(now, lastLevels) {
			res.levelChanges++
			lastLevels = now
		}
	}
	greenDone := 0

	// one performs operation lo+i in mode m and returns its latency.
	one := func(m mode, lo, i int) float64 {
		g := &replies[m][i]
		op := lo + i
		var hits int64
		if replay != nil && m == approxOn && r.cacheHits != nil {
			hits = r.cacheHits()
		}
		t0 := time.Now()
		g.status, g.body, g.err = r.get(r.urls[m]+"/search?q="+r.raw[op], op, tr != nil, g.body)
		t1 := time.Now()
		if tr != nil && m == approxOn {
			tr.add("client.request", t0, t1, op, false)
			if replay != nil {
				rep := check(g.body, page{}, approxOn, true).reply
				res.cacheHit = append(res.cacheHit, r.cacheHits != nil && r.cacheHits() > hits)
				res.monitoredOp = append(res.monitoredOp, rep.Monitored)
				if g.err == nil && g.status == http.StatusOK && op%replayEvery == 0 {
					replay.run(tr, op, r.plain[op], rep, r.replayLevel())
					r.replayDocs[op] = rep.DocsScored
				}
				noteLevels()
			}
		}
		return float64(t1.Sub(t0)) / 1e3
	}

	fn := func(m mode, b int, lat *[]float64) int {
		lo := first + b*perBlock
		if m == bare {
			for i := 0; i < perBlock; i++ {
				t0 := time.Now()
				truth[i] = r.oracle.search(r.plain[lo+i])
				t1 := time.Now()
				*lat = append(*lat, float64(t1.Sub(t0))/1e3)
				tr.add("search.search_precise", t0, t1, lo+i, false)
			}
			return perBlock
		}
		for i := 0; i < perBlock; i++ {
			*lat = append(*lat, one(m, lo, i))
		}
		return perBlock
	}

	after := func(b int) {
		for i := 0; i < perBlock; i++ {
			res.docsPrecise += float64(truth[i].matched)
			for m := approxOn; m <= approxOff; m++ {
				g := &replies[m][i]
				res.attempted++
				v := verdict{failed: true}
				if g.err == nil && g.status == http.StatusOK {
					v = check(g.body, truth[i], m, r.flagged)
				}
				if v.failed {
					res.failed++
				}
				if m != approxOn {
					continue
				}
				res.respBytes += len(g.body)
				res.docsGreen += float64(v.reply.DocsScored)
				if v.differs || v.failed {
					res.differs = append(res.differs, 1)
				} else {
					res.differs = append(res.differs, 0)
				}
				if v.reply.Approximated {
					res.approximated++
				}
				if v.reply.Monitored {
					res.monitored++
				}
			}
		}
		greenDone += perBlock
		if r.afterBlock != nil {
			r.afterBlock(greenDone, tr)
		}
		if replay == nil {
			noteLevels()
		}
	}
	res.run = runBlocks(r.name, total/perBlock, fn, after)
	return res
}

// endToEnd fills the end-to-end metrics from the untraced pass.
func (r *searchRig) endToEnd(res *result, p *passResult, setupSeconds float64) {
	res.attempted, res.failed = p.attempted, p.failed
	v := res.values
	v["setup_s"] = setupSeconds
	v["ok_share"] = 1 - float64(p.failed)/float64(max(1, p.attempted))
	v["qos_kept"] = 1 - mean(p.differs)
	v["sla_met_share"] = slaMetShare(p.differs, slaWindow, r.sla)
	res.notes = append(res.notes, p.run.common(v, p.docsGreen, p.docsPrecise))
	res.notes = append(res.notes,
		fmt.Sprintf("closed loop, 1 connection, %d operations per mode in %d blocks", len(p.differs), blocksPerMode),
		fmt.Sprintf("qos_loss %.4f against SLA %.4f over %d windows of %d", 1-v["qos_kept"], r.sla, len(p.differs)/slaWindow, slaWindow),
		fmt.Sprintf("fail_share %.6f (%d of %d)", 1-v["ok_share"], p.failed, p.attempted))
}

// replayEvery is the sampling of the replay on the traced pass: every
// n-th Green-on response is reproduced on the twin.
const replayEvery = 4

// replayer attributes what happens inside the handler by doing it
// again: after a sampled response it runs the same query through the
// twin engine's scan for exactly docs_scored steps and through a twin
// core.Loop for the same number of Continue calls, and records both as
// replay spans of that operation.
type replayer struct {
	oracle *oracle
	scan   *search.Scan
	loop   *core.Loop
	docs   []int
}

type noopQoS struct{}

func (noopQoS) Record(int)       {}
func (noopQoS) Loss(int) float64 { return 0 }

func newReplayer(o *oracle) *replayer {
	// A level no scan reaches: the twin loop never stops early, so the
	// replay costs ExecFeat, one Continue per document and Finish.
	pts := []model.CalPoint{{Level: 1e8, QoSLoss: 0.01, Work: 1e8}, {Level: 2e8, QoSLoss: 0.001, Work: 2e8}}
	m, err := model.BuildLoopModel("replay", pts, 4e8, 4e8)
	if err != nil {
		panic(err) // a constant model that does not build is a bug
	}
	loop, err := core.NewLoop(core.LoopConfig{Name: "replay", Model: m, SLA: 0.02})
	if err != nil {
		panic(err)
	}
	return &replayer{oracle: o, scan: o.eng.NewScan(search.Query{}, o.topN), loop: loop}
}

func (rp *replayer) run(tr *tracer, op int, q string, rep reply, level int) {
	n := rep.DocsScored
	query := search.Query{Terms: rp.oracle.terms(q)}

	t0 := time.Now()
	rp.scan.Reset(rp.oracle.eng, query, rp.oracle.topN)
	t1 := time.Now()
	for i := 0; i < n && rp.scan.Step(); i++ {
	}
	t2 := time.Now()
	rp.docs = rp.scan.TopNInto(rp.docs[:0])
	t3 := time.Now()
	tr.add("search.reset", t0, t1, op, true)
	tr.add("search.step", t1, t2, op, true)
	tr.add("search.topn", t2, t3, op, true)
	if rep.Monitored {
		// A monitored request pays Record and Loss: one scan to the
		// level and one to the end.
		rp.oracle.eng.Search(query, rp.oracle.topN, level)
		t4 := time.Now()
		rp.oracle.eng.Search(query, rp.oracle.topN, 0)
		tr.add("search.monitor", t3, t4, op, true)
		tr.add("search.monitor", t4, time.Now(), op, true)
	}

	t5 := time.Now()
	exec, err := rp.loop.ExecFeat(noopQoS{}, core.Features{})
	if err != nil {
		return
	}
	i := 0
	for ; i < n && exec.Continue(i); i++ {
	}
	exec.Finish(i)
	tr.add("core.replay", t5, time.Now(), op, true)
}

// layers fills the per-layer metrics a traced pass over a socket
// workload can see. handler is the name of the span around the target's
// own handler: the worker's on the serve workloads, the coordinator's on
// cluster_scatter.
func (r *searchRig) layers(v map[string]float64, tr *tracer, untraced, traced *passResult, handler string) {
	replayed := []string{"search.reset", "search.step", "search.topn", "search.monitor", "core.replay"}
	for _, child := range replayed {
		tr.link(child, handler)
	}
	tr.link(handler, "client.request")

	v["nethttp.rtt_us_p50"] = median(tr.durations("client.request"))
	netSelf := tr.selfOf("client.request")
	v["nethttp.self_us_p50"] = median(netSelf)
	v["nethttp.self_us_p99"], _ = tailLatency(netSelf)
	v["nethttp.conns_opened"] = float64(r.dials.Load())

	ops := float64(max(1, len(traced.differs)))
	v["search.docs_per_query"] = traced.docsGreen / ops
	v["search.match_per_query"] = traced.docsPrecise / ops
	v["search.search_precise_us"] = median(tr.durations("search.search_precise"))
	v["serve.approximated_share"] = float64(traced.approximated) / ops
	v["serve.monitored_share"] = float64(traced.monitored) / ops
	v["core.monitored_share"] = v["serve.monitored_share"]
	v["serve.resp_bytes"] = float64(traced.respBytes) / ops
	v["core.level_changes"] = float64(traced.levelChanges)
	v["core.final_level"] = mean(r.levels())

	// Replay: what the scan and the control law of a sampled operation
	// cost when run again outside the handler.
	if steps := tr.durations("search.step"); len(steps) > 0 {
		v["search.reset_ns"] = median(tr.durations("search.reset")) * 1e3
		v["search.topn_us"] = median(tr.durations("search.topn"))
		stepped := 0.0
		for _, docs := range r.replayDocs {
			stepped += float64(docs)
		}
		if stepped > 0 {
			v["search.step_ns"] = sum(steps) * 1e3 / stepped
		}
		v["search.replay_us"] = median(sumByOp(tr, replayed[:4]...))
		v["core.replay_us"] = median(sumByOp(tr, "core.replay"))
		// The handler's self time is its span minus its replayed children,
		// over the sampled operations: the others have no children to
		// subtract.
		self := selfTimes(tr.spans)
		var hs []float64
		for i, s := range tr.spans {
			if _, sampled := r.replayDocs[s.Op]; sampled && s.Name == handler {
				hs = append(hs, float64(self[i])/1e3)
			}
		}
		v[handler+"_self_us"] = median(hs)
		// How the rows add up: the layers' medians over the median
		// latency of the same pass.
		if p50 := median(traced.run.lats[approxOn]); p50 > 0 {
			v["bench.layer_sum_share"] = (v["nethttp.self_us_p50"] + v[handler+"_self_us"] + v["search.replay_us"] + v["core.replay_us"]) / p50
		}
	}
	instrumentMetrics(v, untraced.run, traced.run)
}

// handlerClasses splits the worker handler's spans on a traced pass by
// what the request was: a query-cache hit, a
// miss, or a monitored execution.
func (r *searchRig) handlerClasses(v map[string]float64, tr *tracer, traced *passResult) {
	hnd := tr.durations("serve.handler")
	v["serve.handler_us_p50"] = median(hnd)
	v["serve.handler_us_p99"], _ = tailLatency(hnd)
	if len(traced.cacheHit) == 0 {
		return
	}
	var hit, miss, mon []float64
	hits := 0
	for _, s := range tr.spans {
		i := s.Op - traced.first
		if s.Name != "serve.handler" || i < 0 || i >= len(traced.cacheHit) {
			continue
		}
		d := float64(s.dur()) / 1e3
		if traced.cacheHit[i] {
			hits++
		}
		switch {
		case traced.monitoredOp[i]:
			mon = append(mon, d)
		case traced.cacheHit[i]:
			hit = append(hit, d)
		default:
			miss = append(miss, d)
		}
	}
	v["serve.qcache_hit_share"] = float64(hits) / float64(len(traced.cacheHit))
	v["serve.handler_hit_us"] = median(hit)
	v["serve.handler_miss_us"] = median(miss)
	v["serve.handler_monitored_us"] = median(mon)
}

// sumByOp adds up, per operation, the durations in microseconds of the
// spans with one of the names.
func sumByOp(tr *tracer, names ...string) []float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	sums := make(map[int]float64)
	for _, s := range tr.spans {
		if want[s.Name] {
			sums[s.Op] += float64(s.dur()) / 1e3
		}
	}
	ops := make([]int, 0, len(sums))
	for op := range sums {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, 0, len(ops))
	for _, op := range ops {
		out = append(out, sums[op])
	}
	return out
}

// population builds n distinct queries of one to three words. The
// server hashes every word onto a term of the engine's popular band, so
// the words are first grouped by the term they land on; a query then
// draws its terms Zipf over the band, as the engine's own calibration
// queries do, and spells each with any of that term's words. That makes
// many distinct strings (distinct query-cache keys) over a realistic,
// head-heavy term mix. The population depends only on its own seed,
// never on -seed: whether a popular query loses its page at level M
// must not change from run to run.
func (o *oracle) population(seed int64, n int) ([]string, error) {
	band := max(1, o.eng.Vocab()/10)
	spellings := make([][]string, band)
	for i := 0; i < vocabWords; i++ {
		w := "w" + strconv.FormatInt(int64(i), 36)
		t := o.terms(w)[0] - o.eng.StopTerms()
		spellings[t] = append(spellings[t], w)
	}
	var ranked [][]string // the band's terms that have a spelling, most popular first
	for _, ws := range spellings {
		if len(ws) > 0 {
			ranked = append(ranked, ws)
		}
	}
	z, err := workload.NewZipf(workload.Split(seed, 1), termZipf, uint64(len(ranked)))
	if err != nil {
		return nil, err
	}
	rng := workload.NewRand(workload.Split(seed, 2))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	var words []string
	for len(out) < n {
		words = words[:0]
		for k := 1 + rng.Intn(3); len(words) < k; {
			ws := ranked[z.Next()]
			words = append(words, ws[rng.Intn(len(ws))])
		}
		q := strings.Join(words, " ")
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out, nil
}

// setStream fills the rig's sequence with total draws from pop, rank k
// with probability proportional to 1/k^s. The draws follow seed.
func (r *searchRig) setStream(seed int64, pop []string, s float64, total int) error {
	z, err := workload.NewZipf(seed, s, uint64(len(pop)))
	if err != nil {
		return err
	}
	for i := 0; i < total; i++ {
		r.add(pop[z.Next()])
	}
	return nil
}

func (r *searchRig) add(q string) {
	r.plain = append(r.plain, q)
	r.raw = append(r.raw, strings.ReplaceAll(q, " ", "+"))
}
