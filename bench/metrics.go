package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one named metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is a
// regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them, through the same three modes: Green on,
// approximation disabled, and the bare kernel with no Green around it
// (which is also the ground truth).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"precise_ops_s", "1/s", "higher", 0.25},
	{"speedup", "ratio", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p95_us", "us", "lower", 0.25},
	{"ok_share", "share", "higher", 0.001},
	{"qos_kept", "share", "higher", 0.03},
	{"sla_met_share", "share", "higher", 0.15},
	{"work_saved", "share", "higher", 0.10},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"joules_per_op", "J", "lower", 0.25},
	{"overhead_ratio", "ratio", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, timed from outside around
// each layer's public functions. A workload that does not enter a layer
// reports that layer's metrics as 0.
var perLayer = []metricDef{
	{name: "core.loop_steady_ns", unit: "ns", better: "lower"},
	{name: "core.loop_monitored_ns", unit: "ns", better: "lower"},
	{name: "core.loop_execn_ns", unit: "ns", better: "lower"},
	{name: "core.loop_selector_ns", unit: "ns", better: "lower"},
	{name: "core.loop_par2_ns", unit: "ns", better: "lower"},
	{name: "core.func_call_ns", unit: "ns", better: "lower"},
	{name: "core.func_calln_ns", unit: "ns", better: "lower"},
	{name: "core.func2_call_ns", unit: "ns", better: "lower"},
	{name: "core.func2_calln_ns", unit: "ns", better: "lower"},
	{name: "core.combine_search_us", unit: "us", better: "lower"},
	{name: "core.allocs_per_exec", unit: "count", better: "lower"},
	{name: "core.monitored_share", unit: "share", better: "lower"},
	{name: "core.level_changes", unit: "count", better: "lower"},
	{name: "core.final_level", unit: "level", better: "lower"},
	{name: "core.loop_calibrate_ms", unit: "ms", better: "lower"},
	{name: "core.func_calibrate_ms", unit: "ms", better: "lower"},
	{name: "core.replay_us", unit: "us", better: "lower"},

	{name: "model.build_loop_us", unit: "us", better: "lower"},
	{name: "model.build_func_us", unit: "us", better: "lower"},
	{name: "model.predict_ns", unit: "ns", better: "lower"},

	{name: "search.engine_build_s", unit: "s", better: "lower"},
	{name: "search.reset_ns", unit: "ns", better: "lower"},
	{name: "search.step_ns", unit: "ns", better: "lower"},
	{name: "search.topn_us", unit: "us", better: "lower"},
	{name: "search.search_precise_us", unit: "us", better: "lower"},
	{name: "search.replay_us", unit: "us", better: "lower"},
	{name: "search.docs_per_query", unit: "count", better: "lower"},
	{name: "search.match_per_query", unit: "count", better: "lower"},

	{name: "serve.new_s", unit: "s", better: "lower"},
	{name: "serve.handler_us_p50", unit: "us", better: "lower"},
	{name: "serve.handler_us_p99", unit: "us", better: "lower"},
	{name: "serve.handler_self_us", unit: "us", better: "lower"},
	{name: "serve.handler_hit_us", unit: "us", better: "lower"},
	{name: "serve.handler_miss_us", unit: "us", better: "lower"},
	{name: "serve.handler_monitored_us", unit: "us", better: "lower"},
	{name: "serve.qcache_hit_share", unit: "share", better: "higher"},
	{name: "serve.approximated_share", unit: "share", better: "higher"},
	{name: "serve.monitored_share", unit: "share", better: "lower"},
	{name: "serve.allocs_per_req", unit: "count", better: "lower"},
	{name: "serve.resp_bytes", unit: "bytes", better: "lower"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.deadline_partial", unit: "count", better: "lower"},

	{name: "nethttp.rtt_us_p50", unit: "us", better: "lower"},
	{name: "nethttp.self_us_p50", unit: "us", better: "lower"},
	{name: "nethttp.self_us_p99", unit: "us", better: "lower"},
	{name: "nethttp.conns_opened", unit: "count", better: "lower"},

	{name: "cluster.coord_handler_us_p50", unit: "us", better: "lower"},
	{name: "cluster.coord_self_us", unit: "us", better: "lower"},
	{name: "cluster.worker_handler_us_p50", unit: "us", better: "lower"},
	{name: "cluster.straggler_us", unit: "us", better: "lower"},
	{name: "cluster.retries", unit: "count", better: "lower"},
	{name: "cluster.hedges", unit: "count", better: "lower"},
	{name: "cluster.degraded_share", unit: "share", better: "lower"},
	{name: "cluster.aggregate_once_ms", unit: "ms", better: "lower"},
	{name: "cluster.budget_pushes", unit: "count", better: "higher"},
	{name: "cluster.allocs_per_req", unit: "count", better: "lower"},

	{name: "persist.save_ms", unit: "ms", better: "lower"},
	{name: "persist.restore_ms", unit: "ms", better: "lower"},
	{name: "persist.snapshot_bytes", unit: "bytes", better: "lower"},

	{name: "dft.transform_us_precise", unit: "us", better: "lower"},
	{name: "dft.transform_us_green", unit: "us", better: "lower"},
	{name: "blackscholes.price_ns_precise", unit: "ns", better: "lower"},
	{name: "blackscholes.price_ns_green", unit: "ns", better: "lower"},
	{name: "raytracer.render_ms_precise", unit: "ms", better: "lower"},
	{name: "raytracer.render_ms_green", unit: "ms", better: "lower"},
	{name: "approxmath.cos_ns_precise", unit: "ns", better: "lower"},
	{name: "approxmath.cos_ns_chosen", unit: "ns", better: "lower"},

	{name: "bench.trace_overhead_share", unit: "share", better: "lower"},
	{name: "bench.block_cv", unit: "share", better: "lower"},
	{name: "bench.gen_us_per_op", unit: "us", better: "lower"},
	{name: "bench.truth_s", unit: "s", better: "lower"},
	{name: "bench.layer_sum_share", unit: "share", better: "higher"},
	{name: "bench.slowdown", unit: "ratio", better: "lower"},
}

// result is what one run of one workload produced.
type result struct {
	attempted int
	failed    int
	// values holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one, by name.
	values map[string]float64
	// notes are extra lines for the human report (SLA, sample counts).
	notes []string
}

// report renders r as the driver's one-line JSON object, with exactly
// the metrics defs names.
func (r *result) report(defs []metricDef) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, make(map[string]mv, len(defs))}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = mv{v, d.unit}
	}
	return json.Marshal(out)
}

// table renders r for a person: every metric by name with its unit.
func (r *result) table(defs []metricDef) string {
	s := ""
	for _, d := range defs {
		s += fmt.Sprintf("  %-32s %14.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	for _, n := range r.notes {
		s += "  # " + n + "\n"
	}
	return s
}

// specJSON is the content of BENCHMARK.json, generated from the tables
// above so the contract file and the program cannot drift apart.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the p-quantile of xs by the nearest-rank rule (0 for
// none); xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// supportedPercentile returns the highest of p50, p90, p99 and p99.9
// that has at least ten of n samples beyond it, and 0.5 when even the
// median has not: a percentile with fewer samples beyond it is one
// outlier, not a tail.
func supportedPercentile(n int) float64 {
	best := 0.5
	for _, perMille := range []int{900, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 1000
		}
	}
	return best
}

// tailLatency is the p99 of lats, or the highest percentile the sample
// supports when it is too small for a p99.
func tailLatency(lats []float64) (value, p float64) {
	p = math.Min(0.99, supportedPercentile(len(lats)))
	return quantile(lats, p), p
}

// tailPercentile is the end-to-end tail: p95, not p99. On the reference
// box the hypervisor takes the CPU away for milliseconds at a time, often
// enough to reach one request in a hundred on some runs and not on
// others: over ten seeds serve_tail's p99 read 840 µs to 6140 µs with no
// request of the run monitored, a spread of 1.2. The p95 sits below
// that. The p99 is still printed beside the table, ungated.
const tailPercentile = 0.95

// tailOfBlocks is the end-to-end tail latency of a run whose latencies
// came in blocks equal runs of lats. Where every block supports the
// tail percentile on its own (ten samples beyond it) it is the median of
// the blocks' tails, so that a stall in one block is one vote among
// many; otherwise it is that percentile, or the highest one the sample
// supports, of all samples.
func tailOfBlocks(lats []float64, blocks int) (value, p float64, perBlock bool) {
	if n := len(lats) / max(1, blocks); float64(n)*(1-tailPercentile) >= 10 {
		tails := make([]float64, 0, blocks)
		for i := 0; i+n <= len(lats); i += n {
			tails = append(tails, quantile(lats[i:i+n], tailPercentile))
		}
		return median(tails), tailPercentile, true
	}
	p = math.Min(tailPercentile, supportedPercentile(len(lats)))
	return quantile(lats, p), p, false
}

// medianOfBlocks is the throughput estimate: the median over blocks of
// ops per wall-second of the quiet box. A block that a scheduler stall or
// a GC cycle landed in moves the mean, not the median.
func medianOfBlocks(blocks []blockSample) float64 {
	rates := make([]float64, 0, len(blocks))
	for _, b := range blocks {
		if b.wall > 0 {
			rates = append(rates, float64(b.ops)/b.quietWall().Seconds())
		}
	}
	return median(rates)
}

// coefficientOfVariation is the standard deviation of the blocks' rates
// over their mean: how noisy this run was.
func coefficientOfVariation(blocks []blockSample) float64 {
	var sum, sq float64
	n := 0.0
	for _, b := range blocks {
		if b.wall > 0 {
			r := float64(b.ops) / b.wall.Seconds()
			sum += r
			sq += r * r
			n++
		}
	}
	if n < 2 || sum == 0 {
		return 0
	}
	mean := sum / n
	return math.Sqrt(math.Max(0, sq/n-mean*mean)) / mean
}
