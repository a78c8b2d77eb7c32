package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index of the span that caused this one, or -1.
// Replay marks a span that was not observed inside the program but
// reproduced afterwards by re-running the same work on the bench's twin.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. add and timed on a
// nil tracer record nothing, so the untraced run pays one nil check per
// boundary; the analysis methods are for traced runs only.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span of operation op (-1 for none). Parents are
// resolved afterwards by link.
func (t *tracer) add(name string, start, end time.Time, op int, replay bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Parent: -1, Op: op, Replay: replay,
	})
}

// timed runs fn and, when tracing, records it as a span of no operation.
func (t *tracer) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, start, end, -1, false)
	return end.Sub(start)
}

// durations returns the durations, in microseconds, of the spans called
// name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// link sets the parent of every span called child to the span called
// parent that has the same Op and contains it in time. With several
// children per operation (the shard workers under one coordinator
// request) containment is what tells them apart from a neighbour's.
func (t *tracer) link(child, parent string) {
	byOp := make(map[int][]int)
	for i, s := range t.spans {
		if s.Name == parent {
			byOp[s.Op] = append(byOp[s.Op], i)
		}
	}
	for i := range t.spans {
		c := &t.spans[i]
		if c.Name != child {
			continue
		}
		for _, pi := range byOp[c.Op] {
			p := t.spans[pi]
			if c.Replay || (p.Start <= c.Start && c.End <= p.End) {
				c.Parent = pi
				break
			}
		}
	}
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its children cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			if k.Replay {
				// A replayed child has its own clock; only its length is
				// meaningful.
				covered += k.End - k.Start
				continue
			}
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = max(0, time.Duration(s.End-s.Start-covered))
	}
	return out
}

// selfOf returns the self times, in microseconds, of the spans called
// name.
func (t *tracer) selfOf(name string) []float64 {
	self := selfTimes(t.spans)
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e3)
		}
	}
	return out
}

// write stores the spans as out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
