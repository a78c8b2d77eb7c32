package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Doer is one HTTP exchange with a replica: the method of a coordinator's
// shard transport (cluster.Transport, which this package cannot import —
// cluster's tests import it). Do issues method against base+path with
// reqBody, appends the reply body to buf and returns the status; deadline
// bounds the exchange, the zero time meaning none.
type Doer interface {
	Do(ctx context.Context, method, base, path string, reqBody []byte, deadline time.Time, buf []byte) (status int, body []byte, err error)
}

// HTTPFault is one host's fault schedule: every Nth request to the host
// draws the corresponding fault (0 disables that fault kind). Kinds are
// checked in order drop, delay, code, garbage; each keeps its own
// per-host ordinal, so schedules compose the way Injector sites do.
type HTTPFault struct {
	// DropEvery fails the exchange with an error before it is
	// sent — the HTTP-level analogue of a killed process or a cut cable.
	DropEvery int
	// DelayEvery sleeps Delay (default 5ms) before forwarding, or until
	// the context or the deadline ends — a replica slowed past its
	// deadline budget.
	DelayEvery int
	Delay      time.Duration
	// CodeEvery answers with Code (default 500) without reaching the
	// host — an application-level failure.
	CodeEvery int
	Code      int
	// GarbageEvery forwards the exchange but mangles the reply body —
	// alternating truncation and byte-garbling per ordinal, the torn and
	// corrupted replies a coordinator's parser must reject.
	GarbageEvery int
}

// HTTPFaults is a Doer that injects per-host faults in front of a base
// Doer — the exchange a coordinator runs in production — with the
// package's determinism contract:
// the schedule is a pure function of (seed, host, fault kind, per-kind
// call ordinal). SetEnabled(false) turns all faults off (for recovery
// phases) without losing the ordinals.
type HTTPFaults struct {
	seed    int64
	base    Doer
	enabled atomic.Bool

	mu    sync.Mutex
	rules map[string]*HTTPFault
	sites map[string]*site

	drops, delays, codes, garbled atomic.Int64
}

// NewHTTPFaults wraps base with an enabled, initially rule-less
// injector.
func NewHTTPFaults(seed int64, base Doer) *HTTPFaults {
	f := &HTTPFaults{seed: seed, base: base,
		rules: make(map[string]*HTTPFault), sites: make(map[string]*site)}
	f.enabled.Store(true)
	return f
}

// SetRule installs (or replaces) the fault schedule for one host
// ("host:port" as it appears in base URLs).
func (f *HTTPFaults) SetRule(host string, rule HTTPFault) {
	if rule.Delay <= 0 {
		rule.Delay = 5 * time.Millisecond
	}
	if rule.Code == 0 {
		rule.Code = http.StatusInternalServerError
	}
	f.mu.Lock()
	f.rules[host] = &rule
	f.mu.Unlock()
}

// SetEnabled toggles all fault injection; ordinals keep advancing while
// disabled so re-enabling resumes the schedule, not the history.
func (f *HTTPFaults) SetEnabled(on bool) { f.enabled.Store(on) }

// Counts reports how many of each fault kind have fired.
func (f *HTTPFaults) Counts() (drops, delays, codes, garbled int64) {
	return f.drops.Load(), f.delays.Load(), f.codes.Load(), f.garbled.Load()
}

// siteOrdinal advances and phases the per-(host, kind) ordinal exactly
// like Injector.siteFor does for callback sites.
func (f *HTTPFaults) siteOrdinal(host, kind string, every int) (n int64, fire bool) {
	f.mu.Lock()
	key := host + "#" + kind
	s, ok := f.sites[key]
	if !ok {
		s = &site{phase: phaseFor(f.seed, key, every)}
		f.sites[key] = s
	}
	f.mu.Unlock()
	n = s.calls.Add(1)
	return n, (n+s.phase)%int64(every) == 0
}

// Do implements Doer.
func (f *HTTPFaults) Do(ctx context.Context, method, base, path string, reqBody []byte, deadline time.Time, buf []byte) (int, []byte, error) {
	host := hostOf(base)
	f.mu.Lock()
	rule := f.rules[host]
	f.mu.Unlock()
	if rule == nil || !f.enabled.Load() {
		return f.base.Do(ctx, method, base, path, reqBody, deadline, buf)
	}
	if rule.DropEvery > 0 {
		if n, fire := f.siteOrdinal(host, "drop", rule.DropEvery); fire {
			f.drops.Add(1)
			return 0, buf, fmt.Errorf("chaos: injected connection drop to %s (call %d)", host, n)
		}
	}
	if rule.DelayEvery > 0 {
		if _, fire := f.siteOrdinal(host, "delay", rule.DelayEvery); fire {
			f.delays.Add(1)
			if err := sleep(ctx, rule.Delay, deadline); err != nil {
				return 0, buf, err
			}
		}
	}
	if rule.CodeEvery > 0 {
		if _, fire := f.siteOrdinal(host, "code", rule.CodeEvery); fire {
			f.codes.Add(1)
			return rule.Code, fmt.Appendf(buf, "chaos: injected %d", rule.Code), nil
		}
	}
	status, body, err := f.base.Do(ctx, method, base, path, reqBody, deadline, buf)
	if err != nil || rule.GarbageEvery == 0 {
		return status, body, err
	}
	n, fire := f.siteOrdinal(host, "garbage", rule.GarbageEvery)
	if !fire {
		return status, body, nil
	}
	f.garbled.Add(1)
	data := body[len(buf):]
	if n%2 == 0 && len(data) > 1 {
		return status, body[:len(buf)+len(data)/2], nil // truncated mid-object
	}
	for i := range data { // garbled: every byte xored, still bytes
		data[i] ^= 0x5a
	}
	return status, body, nil
}

// sleep waits d, cut short by ctx or by the deadline (the zero time
// means none) with the reason as its error, so a deadline-bounded caller
// sees a timeout, not a stuck replica.
func sleep(ctx context.Context, d time.Duration, deadline time.Time) (err error) {
	if rem := time.Until(deadline); !deadline.IsZero() && rem < d {
		d, err = rem, context.DeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return err
	}
}

// hostOf is the "host:port" of a base URL, the key rules are set under.
func hostOf(base string) string {
	if _, rest, ok := strings.Cut(base, "://"); ok {
		base = rest
	}
	host, _, _ := strings.Cut(base, "/")
	return host
}

// phaseFor derives a site's deterministic phase offset from the seed
// and site key, mirroring Injector.siteFor.
func phaseFor(seed int64, key string, every int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, key)
	if every < 1 {
		every = 1
	}
	return int64(h.Sum64() % uint64(every))
}
