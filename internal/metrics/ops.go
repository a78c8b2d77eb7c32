package metrics

import "sync/atomic"

// Operational-health counters for the serving layer. Where the rest of
// this package measures the *quality* dimension of the SLA (QoS loss),
// OpsCounters measures the *availability* dimension the resilience
// layer adds: requests shed instead of queued, requests served degraded
// at their deadline, snapshot persistence health, and rejected state
// restores. The counters are plain atomics so the serving hot path pays
// one uncontended add per event, and a Snapshot is safe to take from
// any goroutine.
type OpsCounters struct {
	// Shed counts requests rejected by the in-flight cap (503 +
	// Retry-After).
	Shed atomic.Int64
	// DeadlinePartial counts requests whose scan was cut short at the
	// request deadline and served from partial results.
	DeadlinePartial atomic.Int64
	// Degraded counts responses served at reduced quality but still 200:
	// on a worker, deadline-cut partial scans; on a coordinator, pages
	// merged from fewer shards than the fleet holds (partial coverage at
	// or above quorum). Sheds and timeouts were already counted; this
	// closes the observability gap for partial-quality successes.
	Degraded atomic.Int64
	// BudgetPushes counts accepted per-shard budget updates (the fleet
	// control plane's POST /budget on workers, successful pushes on the
	// coordinator).
	BudgetPushes atomic.Int64
	// SnapshotSaves counts successful state snapshots.
	SnapshotSaves atomic.Int64
	// SnapshotErrors counts failed snapshot writes.
	SnapshotErrors atomic.Int64
	// RestoreRejected counts startup snapshots rejected as corrupt,
	// foreign, or implausible.
	RestoreRejected atomic.Int64
	// QueryCacheHits counts /search requests answered from the preparsed
	// query cache (the zero-alloc warm path).
	QueryCacheHits atomic.Int64
	// QueryCacheMisses counts /search requests that had to parse their
	// query (cold or evicted entries, or caching disabled).
	QueryCacheMisses atomic.Int64
	// Certified counts requests whose scan stopped with matches left
	// because its page was provably final, monitored or not.
	Certified atomic.Int64
	// MonitoredCertified counts the monitored ones among them.
	MonitoredCertified atomic.Int64
	// MonitoredMemo counts monitored requests that stopped at their record
	// point because the query's precise page was memoised.
	MonitoredMemo atomic.Int64
}

// OpsSnapshot is a point-in-time copy of OpsCounters, shaped for JSON
// surfaces like /stats.
type OpsSnapshot struct {
	Shed             int64 `json:"shed"`
	DeadlinePartial  int64 `json:"deadline_partial"`
	Degraded         int64 `json:"degraded"`
	BudgetPushes     int64 `json:"budget_pushes"`
	SnapshotSaves    int64 `json:"snapshot_saves"`
	SnapshotErrors   int64 `json:"snapshot_errors"`
	RestoreRejected  int64 `json:"restore_rejected"`
	QueryCacheHits   int64 `json:"query_cache_hits"`
	QueryCacheMisses int64 `json:"query_cache_misses"`
	// Certified, MonitoredCertified and MonitoredMemo are zero on a
	// coordinator.
	Certified          int64 `json:"certified"`
	MonitoredCertified int64 `json:"monitored_certified"`
	MonitoredMemo      int64 `json:"monitored_memo"`
}

// Snapshot copies the counters.
func (c *OpsCounters) Snapshot() OpsSnapshot {
	return OpsSnapshot{
		Shed:               c.Shed.Load(),
		DeadlinePartial:    c.DeadlinePartial.Load(),
		Degraded:           c.Degraded.Load(),
		BudgetPushes:       c.BudgetPushes.Load(),
		SnapshotSaves:      c.SnapshotSaves.Load(),
		SnapshotErrors:     c.SnapshotErrors.Load(),
		RestoreRejected:    c.RestoreRejected.Load(),
		QueryCacheHits:     c.QueryCacheHits.Load(),
		QueryCacheMisses:   c.QueryCacheMisses.Load(),
		Certified:          c.Certified.Load(),
		MonitoredCertified: c.MonitoredCertified.Load(),
		MonitoredMemo:      c.MonitoredMemo.Load(),
	}
}
