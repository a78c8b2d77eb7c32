package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"green/internal/core"
	"green/internal/wire"
)

// errAllBreakersOpen means every replica of a shard currently has its
// circuit breaker refusing traffic. The denied consults still advance
// the breakers' cool-down clocks, so a shard in this state heals under
// continued request pressure.
var errAllBreakersOpen = errors.New("cluster: all replica breakers open")

// replica is one worker process serving a shard.
type replica struct {
	base string
	brk  *core.Breaker
	// consults is the breaker's logical clock: every routing decision
	// that considers this replica advances it, so an open breaker's
	// cool-down elapses in routing decisions, not wall time — a shard
	// under heavy traffic re-probes sooner than an idle one, matching
	// the execution-count cool-downs of the in-process breakers.
	consults atomic.Int64
	attempts atomic.Int64
	failures atomic.Int64
}

// failed charges one failed attempt (a transport error, a non-200 or a
// reply that does not parse), admitted at consult n, to the replica.
func (r *replica) failed(n int64, probe bool) {
	r.failures.Add(1)
	r.brk.OnFailure(n, probe)
}

// shardClient routes requests for one shard across its replicas.
type shardClient struct {
	name      string
	cfg       *Config // defaults applied; owned by the Coordinator
	transport Transport
	replicas  []*replica
	rr        atomic.Uint32 // round-robin cursor for first-choice picks
	rng       *lockedRand

	okReqs   atomic.Int64
	failReqs atomic.Int64
}

func newShardClient(spec ShardSpec, cfg *Config, rng *lockedRand) *shardClient {
	c := &shardClient{name: spec.Name, cfg: cfg, transport: cfg.Transport, rng: rng}
	for _, base := range spec.Replicas {
		c.replicas = append(c.replicas, &replica{
			base: base,
			brk:  core.NewBreaker(),
		})
	}
	return c
}

// pick selects a replica whose breaker admits traffic, preferring one
// other than avoid (the replica a previous attempt just failed on).
// When every alternative's breaker refuses, avoid itself is consulted
// as a last resort — a degraded replica beats no replica.
func (c *shardClient) pick(avoid *replica) (rep *replica, probe bool, n int64) {
	k := len(c.replicas)
	start := int(c.rr.Add(1)) - 1
	for off := 0; off < k; off++ {
		r := c.replicas[(start+off)%k]
		if r == avoid && k > 1 {
			continue
		}
		n := r.consults.Add(1)
		if allow, probe := r.brk.Allow(n); allow {
			return r, probe, n
		}
	}
	if avoid != nil && k > 1 {
		n := avoid.consults.Add(1)
		if allow, probe := avoid.brk.Allow(n); allow {
			return avoid, probe, n
		}
	}
	return nil, false, 0
}

// call performs one logical request with bounded retries: up to
// Retries+1 attempts, each against a breaker-admitted replica
// (preferring an alternate after a failure), each given an equal split
// of the remaining deadline budget, with jittered exponential backoff
// between attempts. parse validates the body — a reply that does not
// parse is a replica failure exactly like a connection error or a
// non-200, and charges the replica's breaker.
func (c *shardClient) call(ctx context.Context, method, path string, reqBody []byte, deadline time.Time, buf *[]byte, parse func(body []byte) error) error {
	attempts := c.cfg.Retries + 1
	var last *replica
	var lastErr error
	for a := 0; a < attempts; a++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if lastErr == nil {
				lastErr = context.DeadlineExceeded
			}
			break
		}
		rep, probe, n := c.pick(last)
		if rep == nil {
			if lastErr == nil {
				lastErr = errAllBreakersOpen
			}
			break
		}
		last = rep
		rep.attempts.Add(1)
		// Deadline budgeting: split what remains of the request budget
		// evenly over the attempts still available, so a slow first
		// replica cannot starve the retry of its chance.
		attemptDeadline := time.Now().Add(remaining / time.Duration(attempts-a))
		status, body, err := c.transport.Do(ctx, method, rep.base, path, reqBody, attemptDeadline, (*buf)[:0])
		*buf = body[:0]
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("cluster: %s%s: status %d", rep.base, path, status)
		}
		if err == nil {
			err = parse(body)
		}
		if err == nil {
			rep.brk.OnSuccess(probe)
			return nil
		}
		rep.failed(n, probe)
		lastErr = err
		if a+1 < attempts {
			c.sleepBackoff(ctx, a, deadline)
		}
	}
	return lastErr
}

// retryBackoff is the base of the jittered exponential backoff between
// retries.
const retryBackoff = 5 * time.Millisecond

// sleepBackoff waits the jittered exponential backoff for the given
// completed attempt: full jitter over [retryBackoff·2^a/2,
// retryBackoff·2^a], truncated to the remaining deadline.
func (c *shardClient) sleepBackoff(ctx context.Context, attempt int, deadline time.Time) {
	d := retryBackoff << attempt
	if d <= 0 {
		return // shifted past int64
	}
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	if rem := time.Until(deadline); d > rem {
		d = rem
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// getJSON fetches and decodes a control-plane endpoint (cold path:
// encoding/json is fine here) with the same retry/breaker routing as
// the data path.
func (c *shardClient) getJSON(ctx context.Context, path string, timeout time.Duration, v any) error {
	var buf []byte
	return c.call(ctx, http.MethodGet, path, nil, time.Now().Add(timeout), &buf, func(body []byte) error {
		return json.Unmarshal(body, v)
	})
}

// pushBudget POSTs a budget to every replica of the shard (each replica
// runs its own controller, so all of them need the level). Failures are
// tolerated — the next aggregation round retries — and the worker
// handler is idempotent, so duplicate pushes are safe.
func (c *shardClient) pushBudget(ctx context.Context, body []byte, timeout time.Duration) (ok int) {
	for _, rep := range c.replicas {
		status, _, err := c.transport.Do(ctx, http.MethodPost, rep.base, wire.PathBudget, body, time.Now().Add(timeout), nil)
		if err == nil && status == http.StatusOK {
			ok++
		}
	}
	return ok
}

// healthy reports whether at least one replica's breaker is closed.
func (c *shardClient) healthy() bool {
	for _, r := range c.replicas {
		if r.brk.Stats().State == core.BreakerClosed {
			return true
		}
	}
	return false
}

// lockedRand is a mutex-guarded seeded source for backoff jitter,
// shared across shard clients so the whole coordinator derives from one
// seed.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{r: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) Int63n(n int64) int64 {
	l.mu.Lock()
	v := l.r.Int63n(n)
	l.mu.Unlock()
	return v
}
