package main

// The six workloads and every size that shapes them. These are constants,
// not flags: a benchmark whose shape can be changed from the command line
// stops being comparable between two commits.

// runSeconds is BENCHMARK.json's run_seconds: the measured part of one
// run on the reference box (2 shared hyperthreads, go1.24, one P).
// Operation counts scale with -seconds so that the same -seconds always
// gives the same sequence; the run takes longer on a slower box instead
// of doing less.
const runSeconds = 10

// blocksPerMode is how many equal blocks each mode's operations are cut
// into; throughput is the median over them.
const blocksPerMode = 20

// slaWindow is the number of consecutive Green-on operations whose loss
// is compared against the SLA for sla_met_share.
const slaWindow = 500

// corpusSeed fixes the synthetic corpus, the calibration sets and the
// query populations. Only the order in which inputs arrive (and, for the
// library workloads, the input values) follows -seed.
const corpusSeed = 7

// workloadInfo is one row of BENCHMARK.json's workloads.
type workloadInfo struct {
	name string
	why  string
	run  func(cfg runConfig) (*result, error)
}

// opsPerSecond is how many operations per mode fit in one second of
// -seconds on the reference box, the three modes taking turns; it turns
// -seconds into a fixed operation count.
var opsPerSecond = map[string]float64{
	"lib_control":     5.5e6,
	"app_kernels":     120,
	"serve_head":      5200,
	"serve_tail":      740,
	"serve_drift":     550,
	"cluster_scatter": 2200,
}

// contentionShare is the share of each workload's time that goes into
// work a busy sibling hyperthread slows (yard.go), in its timed blocks and
// in its set-up: under contention c it takes 1 + share x (c-1) times as
// long. Fitted by fit_share.py from logged runs on the reference box;
// README.md says how to refit. The ray tracer's chains of dependent
// floating-point operations are what the sibling slows least.
var contentionShare = map[string]struct{ run, setup float64 }{
	"lib_control":     {0.95, 0.90},
	"app_kernels":     {0.30, 0.20},
	"serve_head":      {0.85, 0.65},
	"serve_tail":      {0.85, 0.45},
	"serve_drift":     {0.80, 0.60},
	"cluster_scatter": {0.95, 0.60},
}

var workloads = []workloadInfo{
	{
		name: "lib_control",
		why:  "control law does all the work and kernels none: Loop/Func/Func2 entry points, batches, selector, 2 goroutines on one Loop, the plain-vs-disabled loop",
		run:  runLibControl,
	},
	{
		name: "app_kernels",
		why:  "application kernels dominate and the controller is a rounding error: DFT, Black-Scholes and the adaptive ray tracer driven as the examples drive them",
		run:  runAppKernels,
	},
	{
		name: "serve_head",
		why:  "20k docs, 512 queries all resident in the query cache, 1 connection: net/http, handler and JSON encode dominate and the scan is tiny",
		run:  runServeHead,
	},
	{
		name: "serve_tail",
		why:  "200k docs, 100k distinct queries with about a third missing the query cache, 1 connection: the scan kernel and the level M do most of the work",
		run:  runServeTail,
	},
	{
		name: "serve_drift",
		why:  "200k docs restored from a snapshot, a fifth of requests monitored, second half drawn from the hardest queries: the monitored and Correct paths instead of the steady one",
		run:  runServeDrift,
	},
	{
		name: "cluster_scatter",
		why:  "coordinator over 3 loopback shard workers with the control plane stepped by hand: scatter, partial parse, merge and four HTTP hops per request dominate",
		run:  runClusterScatter,
	},
}

// Corpus sizes. Corpus size decides which layer works: at 20k docs
// net/http and the handler dominate a request, at 200k the scan does.
const (
	headDocs    = 20000
	tailDocs    = 200000
	clusterDocs = 20000
)

// Query populations. Every word hashes into the engine's popular term
// band on the server, so distinct strings are distinct query-cache keys
// over the same few hundred terms.
const (
	vocabWords = 5000
	// termZipf is the skew of query terms over the band; the engine's
	// calibration queries use the same.
	termZipf = 1.8

	headQueries = 512
	headZipf    = 1.2

	tailQueries = 100000
	tailZipf    = 1.01

	// driftCandidates is how many queries serve_drift scores against the
	// precise engine at the calibrated level in set-up; its second half
	// draws from the quarter of them that lose most.
	driftCandidates = 2000
	// driftSampleInterval with serve's 100-query monitoring window makes
	// 100 of every 500 requests monitored.
	driftSampleInterval = 400
)

// clusterShards is the worker count of cluster_scatter; aggregateEvery is
// how many Green-on requests pass between two control-plane rounds.
const (
	clusterShards  = 3
	aggregateEvery = 2000
)

// lib_control. One round is one latency sample: roundOps controller
// executions, an eighth in each of the eight single-goroutine phases.
// Each block adds a two-goroutine burst on a shared Loop, and the
// §4.1 loop of overheadIters iterations with approximation disabled and
// as a plain loop.
const (
	libPhase      = 64
	libRoundOps   = 8 * libPhase
	libLoopBound  = 16
	libInputs     = 256  // term vectors
	libFuncInputs = 4096 // function arguments, a multiple of libPhase
	libSLA        = 0.02
	libMonitorGap = 100 // 1% of executions monitored
	overheadIters = 400000
)

// app_kernels. Signal length, portfolio size, image size and pass
// budget of the three applications, and their SLAs.
const (
	appSignalLen  = 128
	appOptions    = 1000
	appWidth      = 10
	appHeight     = 8
	appBasePasses = 100
	appDFTSLA     = 1e-4
	appExpSLA     = 0.01
	appLogDegree  = 3
	appFwdSLA     = 0.01
	appPixelSLA   = 0.035
	// The mix of one group of operations: 7 transforms, 21 option
	// batches and one render.
	appGroupDFT    = 7
	appGroupBS     = 21
	appGroupRender = 1
	appGroupOps    = appGroupDFT + appGroupBS + appGroupRender
)
