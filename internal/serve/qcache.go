package serve

import (
	"strings"
	"sync"
	"sync/atomic"

	"green/internal/core"
	"green/internal/search"
)

// queryCache memoizes parsed queries keyed on the *raw, still-escaped*
// q parameter value. The workload generator (internal/workload) draws
// queries from a Zipf distribution, so a small cache sized for the head
// absorbs the overwhelming majority of traffic — and a hit skips the
// unescape, tokenize, and hash work entirely, touching no allocator.
//
// The cache is sharded by a cheap string hash so concurrent servers
// don't serialize on one lock, and bounded: a full shard evicts an
// arbitrary resident entry (one map-iteration step — effectively random
// replacement, which is within a few percent of LRU on Zipfian traffic
// and needs no per-hit bookkeeping writes on the read path).
type queryCache struct {
	shards []qcacheShard
	mask   uint32
	perCap int
}

type qcacheShard struct {
	mu sync.RWMutex
	m  map[string]*cachedQuery
}

// cachedQuery is one parsed query: the unescaped echo string for the
// JSON response plus the resolved vocabulary terms. feat is the query's
// precomputed Select-stage feature (posting mass) so the warm path hands
// the controller per-input features without touching the index or the
// allocator. A monitored request leaves its query in Server.sampled,
// for the /stats precise-work estimate: n memoises the query's match
// count — 0 until it is first counted, 1 + the count after. final memoises its precise page, with scores: the engine never
// changes after New, so the page is a function of the query. Its one
// writer is a monitored request whose scan ended final and undegraded,
// its one reader a monitored request past its record point (serveQuery).
type cachedQuery struct {
	echo  string
	terms []int
	feat  core.Features
	n     atomic.Int64
	final atomic.Pointer[[]search.Result]
}

const qcacheShards = 8

// newQueryCache builds a cache bounded at roughly max entries; max <= 0
// disables caching (get always misses, put discards).
func newQueryCache(max int) *queryCache {
	if max <= 0 {
		return &queryCache{}
	}
	per := max / qcacheShards
	if per < 1 {
		per = 1
	}
	c := &queryCache{shards: make([]qcacheShard, qcacheShards), mask: qcacheShards - 1, perCap: per}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cachedQuery, per)
	}
	return c
}

// hash is FNV-1a over the key, inlined so the hit path stays
// allocation-free (hash/fnv's New32a allocates its state).
func qcacheHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// get returns the cached parse for a raw query value, or nil.
func (c *queryCache) get(rawQ string) *cachedQuery {
	if len(c.shards) == 0 {
		return nil
	}
	sh := &c.shards[qcacheHash(rawQ)&c.mask]
	sh.mu.RLock()
	v := sh.m[rawQ]
	sh.mu.RUnlock()
	return v
}

// put inserts a parsed query. rawQ is cloned: it usually aliases a
// request's URL storage, which must not outlive the request.
func (c *queryCache) put(rawQ string, v *cachedQuery) {
	if len(c.shards) == 0 {
		return
	}
	sh := &c.shards[qcacheHash(rawQ)&c.mask]
	sh.mu.Lock()
	if _, ok := sh.m[rawQ]; !ok {
		if len(sh.m) >= c.perCap {
			for k := range sh.m {
				delete(sh.m, k)
				break
			}
		}
		sh.m[strings.Clone(rawQ)] = v
	}
	sh.mu.Unlock()
}

// len reports the resident entry count (tests).
func (c *queryCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
