package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"green/internal/energy"
)

// mode is how one block's operations are run.
type mode int

const (
	// approxOn runs through the stack with Green's approximation on.
	approxOn mode = iota
	// approxOff runs through the same stack with approximation disabled:
	// the paper's precise, or base, version.
	approxOff
	// bare runs the kernel alone, with no Green and no stack around it.
	// Its outputs are the ground truth the other two are checked against.
	bare
	modes
)

func (m mode) String() string {
	return [...]string{"green", "precise", "bare"}[m]
}

// runConfig is what the command line gives a workload.
type runConfig struct {
	seed    int64
	seconds float64
	// traced selects the per-layer run: a shorter sequence run once
	// without and once with span recording.
	traced bool
	// tiny shrinks corpora and sequences for the smoke test.
	tiny bool
	// outDir is where span files and scratch state go.
	outDir string
}

// opsPerMode turns -seconds into the fixed operation count of one mode,
// a whole number of blocks of a whole number of unit operations.
func (c runConfig) opsPerMode(w string, unit int) (total, perBlock int) {
	if c.tiny {
		// Two blocks of a handful of operations: enough to go through
		// every code path once.
		perBlock = unit
		if unit <= 2 {
			perBlock = 12 * unit
		}
		return 2 * perBlock, perBlock
	}
	n := opsPerSecond[w] * c.seconds
	if c.traced {
		// The traced invocation runs its sequence twice.
		n /= 4
	}
	perBlock = int(n/blocksPerMode/float64(unit)) * unit
	if perBlock < unit {
		perBlock = unit
	}
	return perBlock * blocksPerMode, perBlock
}

// blockSample is the cost of one block.
type blockSample struct {
	ops     int
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	// lats is how many latency samples the block added.
	lats int
	// slow is how many times longer than on the quiet box the block took,
	// by the yardstick read before and after it.
	slow float64
}

// quietWall and quietCPU are the block's times as they would read on the
// quiet box.
func (b blockSample) quietWall() time.Duration { return time.Duration(float64(b.wall) / b.slow) }
func (b blockSample) quietCPU() time.Duration  { return time.Duration(float64(b.cpu) / b.slow) }

// blockRun is everything the blocks of one pass measured, per mode.
type blockRun struct {
	blocks [modes][]blockSample
	// lats are the per-operation latencies in microseconds, in order and
	// as measured.
	lats [modes][]float64
}

// runBlocks runs n blocks of the workload in each mode. The three modes
// of one block run back to back on the same inputs, and the order rotates
// from block to block so that no mode always meets the caches another one
// warmed. fn appends its per-operation latencies to lat and returns how
// many operations it completed; after runs once all three modes of block
// b are done and is not timed.
func runBlocks(workload string, n int, fn func(m mode, b int, lat *[]float64) int, after func(b int)) *blockRun {
	run := &blockRun{}
	for b := 0; b < n; b++ {
		for k := 0; k < int(modes); k++ {
			m := mode((b + k) % int(modes))
			before := yard.read()
			lats0 := len(run.lats[m])
			mem0 := mallocCount()
			cpu0 := cpuTime()
			t0 := time.Now()
			ops := fn(m, b, &run.lats[m])
			s := blockSample{ops: ops, wall: time.Since(t0), cpu: cpuTime() - cpu0, mallocs: mallocCount() - mem0, lats: len(run.lats[m]) - lats0}
			r := between(before, yard.read())
			s.slow = slowdown(contentionShare[workload].run, r)
			yardLogf(workload, m.String(), b, s.wall, s.cpu, run.lats[m][lats0:], r)
			run.blocks[m] = append(run.blocks[m], s)
		}
		after(b)
	}
	return run
}

// quietLats are mode m's latencies as they would read on the quiet box:
// each block's samples over that block's slowdown.
func (r *blockRun) quietLats(m mode) []float64 {
	out := make([]float64, 0, len(r.lats[m]))
	for _, b := range r.blocks[m] {
		for _, l := range r.lats[m][len(out) : len(out)+b.lats] {
			out = append(out, l/b.slow)
		}
	}
	return out
}

func (r *blockRun) totals(m mode) (ops int, wall, cpu time.Duration, mallocs uint64) {
	for _, b := range r.blocks[m] {
		ops += b.ops
		wall += b.wall
		cpu += b.cpu
		mallocs += b.mallocs
	}
	return
}

// cpuTime is the process's user plus system CPU time: steadier than wall
// time on a shared box, and it counts every goroutine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// The energy column is derived, not metered: internal/energy's cost
// model fed the measured wall and CPU seconds and the counted work
// units. The constants describe a small server (idle draw, one busy
// core, a memory-bound work unit); RAPL is a later change.
const (
	idleWatts     = 45.0
	busyCoreWatts = 28.0
	workUnitJoule = 2e-8
)

func joulesPerOp(ops int, wall, cpu time.Duration, workUnits float64) float64 {
	if ops == 0 {
		return 0
	}
	cm := energy.CostModel{
		IdleWatts:   idleWatts,
		UnitSeconds: map[string]float64{"wall_s": 1},
		UnitJoules:  map[string]float64{"cpu_s": busyCoreWatts, "work": workUnitJoule},
	}
	acct := energy.NewAccount()
	acct.Add("wall_s", wall.Seconds())
	acct.Add("cpu_s", cpu.Seconds())
	acct.Add("work", workUnits)
	return cm.Evaluate(acct).Joules / float64(ops)
}

// common fills the end-to-end metrics every workload derives the same
// way from its block run, and returns the note that goes with them. The
// timings are the quiet box's (see yard.go); the ratios, which compare
// modes within a block, and the counts are as measured.
func (r *blockRun) common(values map[string]float64, workGreen, workPrecise float64) string {
	values["throughput_ops_s"] = medianOfBlocks(r.blocks[approxOn])
	values["precise_ops_s"] = medianOfBlocks(r.blocks[approxOff])
	// The ratios are medians of per-block ratios: the modes of one block
	// run back to back, so what the box does to one it does to the other.
	values["speedup"] = medianRatio(r.blocks[approxOn], r.blocks[approxOff])
	if _, set := values["overhead_ratio"]; !set {
		values["overhead_ratio"] = medianRatio(r.blocks[bare], r.blocks[approxOff])
	}
	lats := r.quietLats(approxOn)
	values["lat_p50_us"] = median(lats)
	tail, tailP, perBlock := tailOfBlocks(lats, len(r.blocks[approxOn]))
	values["lat_p95_us"] = tail
	// CPU time and energy per operation are medians over the blocks too:
	// a block the box slowed down is one vote, not part of a mean.
	ops, _, _, mallocs := r.totals(approxOn)
	var cpus, joules, slow, rawRates []float64
	for _, b := range r.blocks[approxOn] {
		if b.ops > 0 && b.wall > 0 {
			cpus = append(cpus, float64(b.quietCPU().Nanoseconds())/1e3/float64(b.ops))
			joules = append(joules, joulesPerOp(b.ops, b.quietWall(), b.quietCPU(), workGreen*float64(b.ops)/float64(ops)))
			slow = append(slow, b.slow)
			rawRates = append(rawRates, float64(b.ops)/b.wall.Seconds())
		}
	}
	if ops > 0 {
		values["cpu_us_per_op"] = median(cpus)
		values["joules_per_op"] = median(joules)
		values["allocs_per_op"] = float64(mallocs) / float64(ops)
	}
	if workPrecise > 0 {
		values["work_saved"] = 1 - workGreen/workPrecise
	}
	values["peak_rss_mb"] = peakRSSMB()
	how := fmt.Sprintf("p%g of all samples", tailP*100)
	if perBlock {
		how = fmt.Sprintf("p%g of each block, median over the blocks", tailP*100)
	}
	p99, p := tailLatency(lats)
	return fmt.Sprintf("lat_p95_us is the %s; %d samples; ungated, the p%g of all samples is %.4g us; timings are the quiet box's: the box slowed the blocks by %.3g to %.3g (median %.3g), as measured the median block ran %.6g ops/s",
		how, len(lats), p*100, p99, quantile(slow, 0), quantile(slow, 1), median(slow), median(rawRates))
}

// instrumentMetrics fills the per-layer metrics about the bench itself:
// how noisy the traced pass was and how much the box slowed it (the
// per-layer timings are as measured), what the ground truth cost, and
// what recording spans cost against the untraced pass before it.
func instrumentMetrics(v map[string]float64, untraced, traced *blockRun) {
	v["bench.block_cv"] = coefficientOfVariation(traced.blocks[approxOn])
	var slow []float64
	for _, b := range traced.blocks[approxOn] {
		slow = append(slow, b.slow)
	}
	v["bench.slowdown"] = median(slow)
	_, truth, _, _ := traced.totals(bare)
	v["bench.truth_s"] = truth.Seconds()
	if t := sum(traced.lats[approxOn]); t > 0 {
		v["bench.trace_overhead_share"] = 1 - sum(untraced.lats[approxOn])/t
	}
}

// medianRatio is the median over blocks of a's rate over b's rate in
// the same block.
func medianRatio(a, b []blockSample) float64 {
	var ratios []float64
	for i := range a {
		if i < len(b) && a[i].wall > 0 && b[i].wall > 0 && b[i].ops > 0 {
			ratios = append(ratios, (float64(a[i].ops)/a[i].wall.Seconds())/(float64(b[i].ops)/b[i].wall.Seconds()))
		}
	}
	return median(ratios)
}

// slaMetShare is the share of whole windows of slaWindow consecutive
// losses whose mean stays within sla.
func slaMetShare(losses []float64, window int, sla float64) float64 {
	met, n := 0, 0
	for i := 0; i+window <= len(losses); i += window {
		sum := 0.0
		for _, l := range losses[i : i+window] {
			sum += l
		}
		n++
		if sum/float64(window) <= sla {
			met++
		}
	}
	if n == 0 {
		return 1
	}
	return float64(met) / float64(n)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
