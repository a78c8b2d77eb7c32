package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"green/internal/cluster"
	"green/internal/serve"
)

// fleet is one coordinator over clusterShards in-process workers, all on
// loopback listeners.
type fleet struct {
	workers []*serve.Server
	coord   *cluster.Coordinator
	url     string
}

// bootFleet starts the workers and a coordinator over them. Hedging is
// off and Start is not called: the control plane runs only when the
// bench steps it.
func bootFleet(rig *searchRig, docs int, disabled bool, tag string) (*fleet, error) {
	f := &fleet{}
	var specs []cluster.ShardSpec
	for i := 0; i < clusterShards; i++ {
		w, err := serve.New(serve.Config{
			Seed: corpusSeed, CorpusDocs: docs, Disabled: disabled,
			ShardIndex: i, ShardCount: clusterShards,
		})
		if err != nil {
			return nil, err
		}
		url, err := rig.listen(w.Handler(), "serve.handler"+tag)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
		specs = append(specs, cluster.ShardSpec{Name: fmt.Sprintf("shard%d", i), Replicas: []string{url}})
	}
	co, err := cluster.New(cluster.Config{
		Shards: specs, Seed: corpusSeed,
		Transport: &cluster.HTTPTransport{Client: rig.client},
	})
	if err != nil {
		return nil, err
	}
	f.coord = co
	f.url, err = rig.listen(co.Handler(), "cluster.coord"+tag)
	return f, err
}

func runClusterScatter(cfg runConfig) (*result, error) {
	const name = "cluster_scatter"
	docs := clusterDocs
	setups := 3
	if cfg.tiny {
		docs, setups = 3000, 1
	}
	total, perBlock := cfg.opsPerMode(name, 1)
	res := &result{values: make(map[string]float64)}
	v := res.values
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	var (
		rig     *searchRig
		fl      *fleet
		setupsS []float64
	)
	for i := 0; i < setups; i++ {
		if rig != nil {
			rig.close()
			runtime.GC()
		}
		s, err := quietSeconds(name, func(func()) (err error) {
			rig = newSearchRig(name, false, 0.02)
			if rig.oracle, err = newOracle(docs); err != nil {
				return err
			}
			if fl, err = bootFleet(rig, docs, false, ""); err != nil {
				return err
			}
			pf, err := bootFleet(rig, docs, true, ".precise")
			if err != nil {
				return err
			}
			rig.urls = [2]string{fl.url, pf.url}
			return nil
		})
		if err != nil {
			rig.close()
			return nil, err
		}
		setupsS = append(setupsS, s)
	}
	defer rig.close()

	rig.levels = func() []float64 {
		out := make([]float64, len(fl.workers))
		for i, w := range fl.workers {
			out[i] = w.Loop().Level()
		}
		return out
	}
	// The control plane is stepped by operation count, not by a timer,
	// so the budgets a run pushes are a function of the sequence.
	var aggMS []float64
	pushes, lastAgg := 0, 0
	var aggErr error
	rig.afterBlock = func(done int, tr *tracer) {
		for ; lastAgg+aggregateEvery <= done; lastAgg += aggregateEvery {
			var rep cluster.AggregateReport
			d := tr.timed("cluster.aggregate_once", func() {
				rep, aggErr = fl.coord.AggregateOnce(context.Background())
			})
			aggMS = append(aggMS, float64(d.Microseconds())/1e3)
			pushes += rep.Pushes
		}
	}

	t0 := time.Now()
	pop, err := rig.oracle.population(corpusSeed, headQueries*8)
	if err != nil {
		return nil, err
	}
	if err := rig.setStream(cfg.seed, pop, 1.1, 2*total); err != nil {
		return nil, err
	}
	gen := time.Since(t0)

	if !cfg.traced {
		p := rig.pass(0, total, perBlock, nil)
		if aggErr != nil {
			return nil, aggErr
		}
		rig.endToEnd(res, p, median(setupsS))
		res.notes = append(res.notes, fmt.Sprintf("%d control-plane rounds pushed %d budgets; worker levels %v", len(aggMS), pushes, rig.levels()))
		return res, nil
	}
	untraced := rig.pass(0, total, perBlock, nil)
	allocs0 := mallocCount()
	traced := rig.pass(total, total, perBlock, tr)
	allocs := mallocCount() - allocs0
	if aggErr != nil {
		return nil, aggErr
	}
	res.attempted = untraced.attempted + traced.attempted
	res.failed = untraced.failed + traced.failed

	// The workers see no operation id: a worker span belongs to the
	// coordinator span that contains it, unambiguous on one connection.
	adoptByContainment(tr, "serve.handler", "cluster.coord")
	rig.layers(v, tr, untraced, traced, "cluster.coord")
	tr.link("serve.handler", "cluster.coord")
	coord := tr.durations("cluster.coord")
	workers := tr.durations("serve.handler")
	v["cluster.coord_handler_us_p50"] = median(coord)
	v["cluster.coord_self_us"] = median(tr.selfOf("cluster.coord"))
	v["cluster.worker_handler_us_p50"] = median(workers)
	v["serve.handler_us_p50"] = median(workers)
	v["serve.handler_us_p99"], _ = tailLatency(workers)
	v["cluster.straggler_us"] = median(stragglers(tr))
	v["cluster.aggregate_once_ms"] = median(aggMS)
	v["cluster.budget_pushes"] = float64(pushes)
	// Every allocation of the process while the traced pass ran, over
	// all three modes' requests: coordinator, workers and client.
	v["cluster.allocs_per_req"] = float64(allocs) / float64(max(1, traced.attempted))
	v["bench.gen_us_per_op"] = float64(gen.Microseconds()) / float64(2*total)
	if err := fleetStats(rig, fl.url, v); err != nil {
		return nil, err
	}
	return res, tr.write(cfg.outDir, name)
}

// adoptByContainment gives every span called child the operation id of
// the span called parent that contains it in time.
func adoptByContainment(tr *tracer, child, parent string) {
	var ps []span
	for _, s := range tr.spans {
		if s.Name == parent {
			ps = append(ps, s)
		}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].Start < ps[b].Start })
	for i := range tr.spans {
		c := &tr.spans[i]
		if c.Name != child {
			continue
		}
		k := sort.Search(len(ps), func(j int) bool { return ps[j].Start > c.Start }) - 1
		if k >= 0 && c.End <= ps[k].End {
			c.Op = ps[k].Op
		}
	}
}

// stragglers is, per coordinator request, the slowest worker span minus
// the median one: what waiting for every shard costs.
func stragglers(tr *tracer) []float64 {
	byOp := make(map[int][]float64)
	for _, s := range tr.spans {
		if s.Name == "serve.handler" && s.Op >= 0 {
			byOp[s.Op] = append(byOp[s.Op], float64(s.dur())/1e3)
		}
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, 0, len(ops))
	for _, op := range ops {
		ds := byOp[op]
		out = append(out, quantile(ds, 1)-median(ds))
	}
	return out
}

// fleetStats reads the coordinator's own /stats for what only it knows:
// retries, hedges and degraded pages.
func fleetStats(rig *searchRig, base string, v map[string]float64) error {
	resp, err := rig.client.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator /stats: %s", resp.Status)
	}
	var st struct {
		Queries int64 `json:"queries"`
		Shards  []struct {
			Hedges   int64 `json:"hedges"`
			Replicas []struct {
				Failures int64 `json:"failures"`
			} `json:"replicas"`
		} `json:"shards"`
		Ops struct {
			Degraded int64 `json:"degraded"`
		} `json:"ops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("coordinator /stats: %w", err)
	}
	// A failed attempt is what the client retries while it has attempts
	// left, so the replicas' failure counts are the retries it made.
	var failures, hedges int64
	for _, sh := range st.Shards {
		hedges += sh.Hedges
		for _, r := range sh.Replicas {
			failures += r.Failures
		}
	}
	v["cluster.retries"] = float64(failures)
	v["cluster.hedges"] = float64(hedges)
	v["cluster.degraded_share"] = float64(st.Ops.Degraded) / float64(max(1, st.Queries))
	return nil
}
