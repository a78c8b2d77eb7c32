package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// scatterIdle is how long the coordinator must go without a search
// before its parked scatter workers retire.
const scatterIdle = 10 * time.Second

// scatterPool runs shard calls on parked goroutines: one started per
// call regrows its stack, copy by copy, on the way down through
// net/http's connection pool on every request, and a parked one keeps
// what its first call grew.
//
// The hand-off is unbuffered, so a task lands only in a worker already
// parked on it; when none is, dispatch starts one. A scatter therefore
// never waits behind another request's shard call, and the pool grows to
// the widest burst it has served. It shrinks by a sweep every idle
// interval: if the coordinator's query count has not moved since the
// last one, every parked worker sat idle throughout and is handed a nil
// task, on which it exits. The workers' own loop is a plain receive, so
// the policy costs a request nothing.
type scatterPool struct {
	work chan *scatterTask
	idle time.Duration
	used *atomic.Int64 // the coordinator's query count

	mu      sync.Mutex // start and sweep only, never a warm dispatch
	live    int        // workers started and not yet retired
	swept   int64      // used, as the last sweep saw it
	sweeper *time.Timer
}

func newScatterPool(used *atomic.Int64) *scatterPool {
	return &scatterPool{work: make(chan *scatterTask), idle: scatterIdle, used: used}
}

// dispatch hands t to a parked worker, or to a new one if none is
// parked. It does not block.
func (p *scatterPool) dispatch(t *scatterTask) {
	select {
	case p.work <- t:
	default:
		p.mu.Lock()
		if p.live++; p.live == 1 {
			p.swept = p.used.Load()
			p.sweeper = time.AfterFunc(p.idle, p.sweep)
		}
		p.mu.Unlock()
		go p.worker(t)
	}
}

func (p *scatterPool) worker(t *scatterTask) {
	for ; t != nil; t = <-p.work {
		t.run()
	}
}

// sweep retires every parked worker if no query arrived since the last
// sweep, and runs again an interval later while any worker is left (one
// that was mid-call, or about to park, when its nil was on offer).
func (p *scatterPool) sweep() {
	p.mu.Lock()
	defer p.mu.Unlock()
	used := p.used.Load()
	retire := used == p.swept
	p.swept = used
	for retire && p.live > 0 {
		select {
		case p.work <- nil:
			p.live--
		default:
			retire = false // none parked right now
		}
	}
	if p.live > 0 {
		p.sweeper.Reset(p.idle)
	}
}
