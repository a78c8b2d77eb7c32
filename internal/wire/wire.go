// Package wire owns everything that crosses a socket in the serving
// tier: the endpoint paths and request parameters, the JSON shape of
// every worker and coordinator response (search.go holds the two hot
// ones with their hand-rolled codecs, this file the cold ones), and the
// response helpers. internal/serve fills these types and
// internal/cluster decodes the same types, so a protocol change is one
// edit here. The package imports nothing from the serving tier; the
// only non-stdlib import is internal/metrics, for the ops counters
// /stats embeds as they are.
//
// DESIGN.md ("Wire protocol") has the endpoint table.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	"green/internal/metrics"
)

// Endpoint paths. A worker serves all of them; a coordinator serves
// Search, Stats, Healthz and Readyz.
const (
	PathSearch  = "/search"
	PathStats   = "/stats"
	PathConfig  = "/config"
	PathModel   = "/model"
	PathBudget  = "/budget"
	PathHealthz = "/healthz"
	PathReadyz  = "/readyz"
)

// What worker and coordinator must agree on without asking each other:
// the result-page size every worker scans for and the coordinator merges
// to (/config reports it as top_n), and the name of the worker's match
// loop, which a /readyz breaker reason carries.
const (
	PageSize        = 10
	MatchController = "serve.match"
)

// /search query parameters. None of the names contains a character that
// escapes, which is what lets RawParam match them literally.
const (
	ParamQuery  = "q"      // the query words, percent-escaped
	ParamScores = "scores" // "1": include exact scores (the coordinator's merge needs them)
)

// RawParam extracts the raw (still percent-escaped) value of key from an
// URL query string without allocating: the warm /search paths must not
// pay url.Values' map for three known parameters. Only literal,
// unescaped keys are matched. The first occurrence wins, as with
// url.Values.Get.
func RawParam(raw, key string) (val string, ok bool) {
	for len(raw) > 0 {
		seg := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		eq := strings.IndexByte(seg, '=')
		if eq < 0 {
			if seg == key {
				return "", true
			}
			continue
		}
		if seg[:eq] == key {
			return seg[eq+1:], true
		}
	}
	return "", false
}

// SearchPath is the path-and-query a coordinator sends its workers: the
// same raw (still-escaped) q value the client sent, plus scores=1 so
// the merge ranks on exact scores.
func SearchPath(rawQ string) string {
	return PathSearch + "?" + ParamQuery + "=" + rawQ + "&" + ParamScores + "=1"
}

// jsonContentType is the shared Content-Type value, stored directly
// into the header map: Header().Set allocates a fresh one-element
// slice per call.
var jsonContentType = []string{"application/json"}

// WriteRaw writes an already-encoded JSON body — the alloc-free
// analogue of WriteJSON for the hand-rolled /search encoders.
func WriteRaw(w http.ResponseWriter, body []byte) {
	h := w.Header()
	if len(h["Content-Type"]) == 0 {
		h["Content-Type"] = jsonContentType
	}
	_, _ = w.Write(body)
}

// WriteJSON encodes v with encoding/json as the 200 response.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Healthz is the liveness probe: the process is up and the mux is
// serving. A degraded service is still alive — restarting it would not
// help — so /healthz stays 200 while /readyz goes 503.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// WriteReadyz answers the readiness probe: 200 when reasons is empty,
// 503 naming them otherwise.
func WriteReadyz(w http.ResponseWriter, reasons []string) {
	if len(reasons) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(Ready{Reasons: reasons})
		return
	}
	WriteJSON(w, Ready{Ready: true})
}

// Stats is the worker /stats JSON shape; every controller field
// describes the worker's one match loop. The coordinator's control plane
// reads MeanMonitoredLoss, Monitored and CurrentM out of it.
type Stats struct {
	Queries           int64   `json:"queries"`
	Monitored         int64   `json:"monitored"`
	MeanMonitoredLoss float64 `json:"mean_monitored_loss"`
	CurrentM          float64 `json:"current_m"`
	DocsScored        int64   `json:"docs_scored"`
	DocsPrecise       int64   `json:"docs_precise_equivalent"`
	WorkSavedFraction float64 `json:"work_saved_fraction"`

	// SampleInterval is the live Sample_QoS interval (zero when
	// monitoring is off); LastRecalSeq/LastRecalAction name the last
	// monitored execution that ran the recalibration policy (zero/"none"
	// before any).
	SampleInterval  int64  `json:"sample_interval"`
	LastRecalSeq    int64  `json:"last_recal_seq"`
	LastRecalAction string `json:"last_recal_action"`
	ApproxEnabled   bool   `json:"approx_enabled"`

	// Resilience surface.
	Degraded        bool                `json:"degraded"`
	DegradedReasons []string            `json:"degraded_reasons,omitempty"`
	BreakerState    string              `json:"breaker_state"`
	BreakerTrips    int64               `json:"breaker_trips"`
	ContainedPanics int64               `json:"contained_panics"`
	InFlight        int64               `json:"in_flight"`
	Restore         string              `json:"restore"`
	Ops             metrics.OpsSnapshot `json:"ops"`
	Boot            Boot                `json:"boot"`
}

// Boot is what the worker's start-up cost, stage by stage, in
// milliseconds: its search.NewEngine call for the synthetic corpus and
// index (~0 when it shared an engine another holder kept live), the
// calibration phase, and opening the state directory and restoring the
// snapshot (zero without one).
type Boot struct {
	EngineMS    float64 `json:"engine_ms"`
	CalibrateMS float64 `json:"calibrate_ms"`
	RestoreMS   float64 `json:"restore_ms"`
}

// Config is the worker /config JSON shape.
type Config struct {
	SLA            float64 `json:"sla"`
	TopN           int     `json:"top_n"`
	SampleInterval int     `json:"sample_interval"`
	CorpusDocs     int     `json:"corpus_docs"`
	InitialM       float64 `json:"initial_m"`
	MaxInFlight    int     `json:"max_in_flight"`
	RequestTimeout string  `json:"request_timeout"`
	StateDir       string  `json:"state_dir,omitempty"`
}

// Ready is the /readyz JSON shape of worker and coordinator alike.
type Ready struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// Model is the worker /model JSON shape: the match loop's calibrated
// candidate levels, the raw material for the coordinator's CombineSearch
// decomposition of the fleet SLA into per-shard budgets.
type Model struct {
	BaseLevel float64      `json:"base_level"`
	Levels    []ModelLevel `json:"levels"`
}

// ModelLevel is one candidate level with its predicted loss and speedup.
type ModelLevel struct {
	Level    float64 `json:"level"`
	PredLoss float64 `json:"pred_loss"`
	Speedup  float64 `json:"speedup"`
}

// Budget is the POST /budget JSON body: the fleet control plane pushing
// the worker's match-loop level (the paper's M).
type Budget struct {
	Level float64 `json:"level"`
}

// BudgetAck is the POST /budget response: the level now live.
type BudgetAck struct {
	Level   float64 `json:"level"`
	Applied bool    `json:"applied"`
}

// DecodeBudget reads one POST /budget body, bounded at 64 KiB: the body
// comes from outside the process. A field Budget does not declare is an
// error, so a push meant for another shape fails instead of moving M.
func DecodeBudget(r io.Reader) (Budget, error) {
	var b Budget
	dec := json.NewDecoder(io.LimitReader(r, 1<<16))
	dec.DisallowUnknownFields()
	err := dec.Decode(&b)
	return b, err
}

// LevelOK reports whether the pushed level is one a controller can run
// at: positive and finite. The worker also bounds it by its Model's
// BaseLevel.
func (b Budget) LevelOK() bool { return b.Level > 0 && !math.IsInf(b.Level, 0) }

// Check reports why m's rows cannot feed a combination search, or nil:
// they come from another process. Levels must be finite, positive,
// strictly ascending and no higher than BaseLevel; PredLoss finite and
// non-negative; Speedup finite and positive. (NaN fails every comparison.)
func (m Model) Check() error {
	prev := 0.0
	for i, l := range m.Levels {
		if !(l.Level > prev && l.Level <= m.BaseLevel && !math.IsInf(m.BaseLevel, 0) &&
			l.PredLoss >= 0 && !math.IsInf(l.PredLoss, 0) && l.Speedup > 0 && !math.IsInf(l.Speedup, 0)) {
			return fmt.Errorf("level %d %+v: want level in (%g, base_level %g], pred_loss >= 0, speedup > 0, all finite", i, l, prev, m.BaseLevel)
		}
		prev = l.Level
	}
	return nil
}

// FleetStats is the coordinator /stats JSON shape: fleet-level
// aggregates plus one federated row per shard.
type FleetStats struct {
	Role           string              `json:"role"`
	SLA            float64             `json:"sla"`
	Quorum         int                 `json:"quorum"`
	Queries        int64               `json:"queries"`
	ShardsTotal    int                 `json:"shards_total"`
	ShardsHealthy  int                 `json:"shards_healthy"`
	FleetLoss      float64             `json:"fleet_mean_monitored_loss"`
	FleetMonitored int64               `json:"fleet_monitored"`
	Aggregations   int64               `json:"aggregations"`
	LastAgg        string              `json:"last_aggregation,omitempty"`
	Shards         []ShardStats        `json:"shards"`
	Ops            metrics.OpsSnapshot `json:"ops"`
}

// ShardStats is one shard's row in FleetStats.
type ShardStats struct {
	Name          string         `json:"name"`
	Healthy       bool           `json:"healthy"`
	OK            int64          `json:"ok"`
	Failed        int64          `json:"failed"`
	LastLoss      float64        `json:"last_loss"`
	LastMonitored int64          `json:"last_monitored"`
	LastLevel     float64        `json:"last_level"`
	LastBudget    float64        `json:"last_budget,omitempty"`
	Replicas      []ReplicaStats `json:"replicas"`
}

// ReplicaStats is one replica's routing and breaker counters.
type ReplicaStats struct {
	URL      string `json:"url"`
	Breaker  string `json:"breaker"`
	Trips    int64  `json:"trips"`
	Attempts int64  `json:"attempts"`
	Failures int64  `json:"failures"`
}
