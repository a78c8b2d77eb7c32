package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"green/internal/persist"
	"green/internal/search"
	"green/internal/serve"
	"green/internal/workload"
)

// serveShape is what differs between the three single-server workloads.
type serveShape struct {
	name   string
	docs   int
	setups int // how many times set-up runs; the median is reported
	// green is the Green-on server's configuration.
	green serve.Config
	// persisted boots the Green-on server cold with a state directory,
	// saves its state, and boots it again from the snapshot.
	persisted bool
	// stream appends passes stretches of total operations each to the
	// rig's sequence, once the servers are up.
	stream func(r *searchRig, s *serve.Server, cfg runConfig, total, passes int) error
}

func runServeHead(cfg runConfig) (*result, error) {
	return runServe(cfg, serveShape{
		name: "serve_head", docs: headDocs, setups: 3,
		// No request of a run is monitored, so the level stays where
		// calibration put it: with 512 queries one level step moves quality
		// by whole points, and this workload is about the handler, not the
		// controller's trajectory.
		green: serve.Config{SampleInterval: 1 << 30},
		stream: func(r *searchRig, _ *serve.Server, cfg runConfig, total, passes int) error {
			pop, err := r.oracle.population(corpusSeed, headQueries)
			if err != nil {
				return err
			}
			return r.setStream(cfg.seed, pop, headZipf, total*passes)
		},
	})
}

func runServeTail(cfg runConfig) (*result, error) {
	return runServe(cfg, serveShape{
		name: "serve_tail", docs: tailDocs, setups: 1,
		// Defaults: the first monitoring window opens at request 10000,
		// past the end of a run, so this is the steady path alone and the
		// level stays where calibration put it. With a window or three in
		// a run the p99 sat on the edge of the monitored requests, which
		// take three scans, and moved by half from seed to seed; the
		// monitored path is serve_drift's.
		green: serve.Config{},
		stream: func(r *searchRig, _ *serve.Server, cfg runConfig, total, passes int) error {
			n := tailQueries
			if cfg.tiny {
				n /= 50
			}
			pop, err := r.oracle.population(corpusSeed, n)
			if err != nil {
				return err
			}
			return r.setStream(cfg.seed, pop, tailZipf, total*passes)
		},
	})
}

func runServeDrift(cfg runConfig) (*result, error) {
	return runServe(cfg, serveShape{
		name: "serve_drift", docs: tailDocs, setups: 1,
		green:     serve.Config{SampleInterval: driftSampleInterval},
		persisted: true,
		stream:    driftStream,
	})
}

// driftStream draws the first half of each pass from all candidate
// queries and the second half from the quarter of them that lose most of
// their page at the calibrated level: the inputs drift away from what
// the server was calibrated on, and the controller has to follow.
func driftStream(r *searchRig, s *serve.Server, cfg runConfig, total, passes int) error {
	pop, err := r.oracle.population(corpusSeed+1, driftCandidates)
	if err != nil {
		return err
	}
	level := int(s.Loop().Level())
	type scored struct {
		q    string
		lost int
	}
	cands := make([]scored, len(pop))
	for i, q := range pop {
		query := search.Query{Terms: r.oracle.terms(q)}
		full, _ := r.oracle.eng.Search(query, r.oracle.topN, 0)
		capped, _ := r.oracle.eng.Search(query, r.oracle.topN, level)
		in := make(map[int]bool, len(capped))
		for _, d := range capped {
			in[d] = true
		}
		lost := 0
		for _, d := range full {
			if !in[d] {
				lost++
			}
		}
		cands[i] = scored{q, lost}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].lost > cands[b].lost })
	hard := make([]string, len(cands)/4)
	for i := range hard {
		hard[i] = cands[i].q
	}
	for p := int64(0); p < int64(passes); p++ {
		if err := r.setStream(workload.Split(cfg.seed, 2*p), pop, 1.1, total/2); err != nil {
			return err
		}
		if err := r.setStream(workload.Split(cfg.seed, 2*p+1), hard, 1.1, total-total/2); err != nil {
			return err
		}
	}
	return nil
}

// runServe is one run of a single-server workload.
func runServe(cfg runConfig, sh serveShape) (*result, error) {
	docs := sh.docs
	if cfg.tiny {
		docs = max(2000, docs/50)
		sh.setups = 1
	}
	total, perBlock := cfg.opsPerMode(sh.name, 1)
	res := &result{values: make(map[string]float64)}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	stateDir := ""
	if sh.persisted {
		stateDir = filepath.Join(cfg.outDir, fmt.Sprintf("state-%s-%d", sh.name, os.Getpid()))
		defer os.RemoveAll(stateDir)
	}

	var (
		rig    *searchRig
		srv    *serve.Server
		setups []float64
	)
	for i := 0; i < sh.setups; i++ {
		if rig != nil {
			rig.close()
			rig, srv = nil, nil
			runtime.GC()
		}
		if stateDir != "" {
			if err := os.RemoveAll(stateDir); err != nil {
				return nil, err
			}
		}
		s, err := quietSeconds(sh.name, func(lap func()) (err error) {
			rig, srv, err = sh.boot(docs, stateDir, tr, res.values, lap)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer rig.close()

	// The traced invocation runs two passes; each gets its own stretch of
	// the sequence, so the second does not find every query cached.
	t0 := time.Now()
	if err := sh.stream(rig, srv, cfg, total, 2); err != nil {
		return nil, err
	}
	gen := time.Since(t0)

	if !cfg.traced {
		p := rig.pass(0, total, perBlock, nil)
		rig.endToEnd(res, p, median(setups))
		res.notes = append(res.notes, fmt.Sprintf("final level %.0f of %d docs", srv.Loop().Level(), docs))
		return res, nil
	}
	untraced := rig.pass(0, total, perBlock, nil)
	traced := rig.pass(total, total, perBlock, tr)
	res.attempted = untraced.attempted + traced.attempted
	res.failed = untraced.failed + traced.failed
	rig.layers(res.values, tr, untraced, traced, "serve.handler")
	rig.handlerClasses(res.values, tr, traced)
	res.values["bench.gen_us_per_op"] = float64(gen.Microseconds()) / float64(2*total)
	ops := srv.Ops().Snapshot()
	res.values["serve.shed"] = float64(ops.Shed)
	res.values["serve.deadline_partial"] = float64(ops.DeadlinePartial)
	res.values["serve.allocs_per_req"] = handlerAllocs(srv, rig.raw)
	return res, tr.write(cfg.outDir, sh.name)
}

// boot is one set-up: the oracle, the Green-on server and its
// precise-mode twin, each behind a loopback listener. The three engines
// are built one after the other (there is one P), with a lap of the
// set-up clock after each.
func (sh serveShape) boot(docs int, stateDir string, tr *tracer, v map[string]float64, lap func()) (*searchRig, *serve.Server, error) {
	rig := newSearchRig(sh.name, true, 0.02)
	var err error
	d := tr.timed("search.engine_build", func() { rig.oracle, err = newOracle(docs) })
	if err != nil {
		return nil, nil, err
	}
	v["search.engine_build_s"] = d.Seconds()
	lap()

	c := sh.green
	c.Seed, c.CorpusDocs, c.StateDir = corpusSeed, docs, stateDir
	var srv *serve.Server
	d = tr.timed("serve.new", func() { srv, err = serve.New(c) })
	if err != nil {
		return nil, nil, err
	}
	v["serve.new_s"] = d.Seconds()
	lap()
	if sh.persisted {
		if srv, err = rebootFromSnapshot(srv, c, tr, v); err != nil {
			return nil, nil, err
		}
		lap()
	}

	pc := sh.green
	pc.Seed, pc.CorpusDocs, pc.Disabled = corpusSeed, docs, true
	precise, err := serve.New(pc)
	if err != nil {
		return nil, nil, err
	}
	lap()

	if rig.urls[approxOn], err = rig.listen(srv.Handler(), "serve.handler"); err == nil {
		rig.urls[approxOff], err = rig.listen(precise.Handler(), "serve.handler.precise")
	}
	if err != nil {
		rig.close()
		return nil, nil, err
	}
	rig.levels = func() []float64 { return []float64{srv.Loop().Level()} }
	rig.cacheHits = srv.Ops().QueryCacheHits.Load
	rig.replayLevel = func() int { return int(srv.Loop().Level()) }
	return rig, srv, nil
}

// rebootFromSnapshot saves the cold server's controller state and boots
// a second server from it, the way a restarted service comes back. The
// restore itself is timed on a store of the bench's own, through the
// same persist calls, because the server's happens inside serve.New.
func rebootFromSnapshot(cold *serve.Server, c serve.Config, tr *tracer, v map[string]float64) (*serve.Server, error) {
	if note := cold.RestoreNote(); note != "cold" {
		return nil, fmt.Errorf("first boot was %q, want cold", note)
	}
	var err error
	d := tr.timed("persist.save", func() { err = cold.SaveState() })
	if err != nil {
		return nil, err
	}
	v["persist.save_ms"] = float64(d.Microseconds()) / 1e3
	warm, err := serve.New(c)
	if err != nil {
		return nil, err
	}
	if note := warm.RestoreNote(); note != "restored" {
		return nil, fmt.Errorf("second boot was %q, want restored", note)
	}
	if tr == nil {
		return warm, nil
	}
	store, err := persist.Open(filepath.Join(c.StateDir, "bench"))
	if err != nil {
		return nil, err
	}
	if err := store.SaveFrom("twin", "bench", cold.Registry()); err != nil {
		return nil, err
	}
	if info, err := os.Stat(store.Path("twin")); err == nil {
		v["persist.snapshot_bytes"] = float64(info.Size())
	}
	d = tr.timed("persist.restore", func() { err = store.LoadInto("twin", "bench", warm.Registry()) })
	v["persist.restore_ms"] = float64(d.Microseconds()) / 1e3
	return warm, err
}

// handlerAllocs is the allocation count of the server's handler alone:
// the sequence's first requests served in-process into a writer that
// keeps nothing, once to warm the query cache and pools and once
// counted.
func handlerAllocs(srv *serve.Server, raw []string) float64 {
	h := srv.Handler()
	n := min(200, len(raw))
	reqs := make([]*http.Request, n)
	for i := range reqs {
		req, err := http.NewRequest(http.MethodGet, "/search?q="+raw[i], nil)
		if err != nil {
			return 0
		}
		reqs[i] = req
	}
	w := &nullWriter{h: make(http.Header)}
	for _, req := range reqs {
		h.ServeHTTP(w, req)
	}
	before := mallocCount()
	for _, req := range reqs {
		h.ServeHTTP(w, req)
	}
	return float64(mallocCount()-before) / float64(n)
}

// nullWriter is an http.ResponseWriter that keeps nothing.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}
