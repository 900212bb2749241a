package ebid

import (
	"sync"
	"sync/atomic"
)

// Body interning.
//
// The pooled renderBuf made formatting allocation-free, but done() still
// pays one []byte→string copy per response. On the read-dominated
// workload the same rows render to the same bytes over and over
// (ViewItem of a hot item, ViewUserInfo of an active seller), so the
// copy is almost always re-materializing a string that was already
// built. bodyIntern caches those strings keyed by a content hash of the
// rendered bytes: a hit returns the cached string with zero conversions,
// a miss (cold body, corrupted render, hash-bucket collision) falls back
// to the ordinary copy and installs it.
//
// Keying by content makes staleness impossible — a row change produces
// different bytes, which hash to a different key (or fail the equality
// check on a bucket collision) and simply miss — so nothing ever has to
// reset or invalidate it. The only concern is growth, so the cache is
// sharded and bounded: at capacity an arbitrary resident entry is
// evicted. It is the only cache on the read path; the store answers
// point reads straight from its table map.
const (
	internShards   = 32
	internShardCap = 1024
)

type internShard struct {
	mu sync.RWMutex
	m  map[uint64]string

	hits, misses atomic.Uint64
}

type bodyIntern struct {
	shards [internShards]internShard
}

// interned is the process-wide body cache. Bodies are keyed by content,
// not by database instance, so one cache serves every app in the
// process (tests and the sim run several); cross-app collisions are
// harmless because equal bytes means equal body.
var interned bodyIntern

// internHash is FNV-1a over the rendered bytes.
func internHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// intern returns the canonical string for the rendered bytes, copying
// only on a miss. The equality check on a hit compiles to an
// allocation-free comparison (the string(b) conversion in a comparison
// does not materialize).
func (bi *bodyIntern) intern(b []byte) string {
	h := internHash(b)
	s := &bi.shards[h%internShards]
	s.mu.RLock()
	cached, ok := s.m[h]
	s.mu.RUnlock()
	if ok && cached == string(b) {
		s.hits.Add(1)
		return cached
	}
	s.misses.Add(1)
	body := string(b)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64]string, internShardCap)
	}
	if len(s.m) >= internShardCap {
		// Evict an arbitrary resident body (map iteration order):
		// bounded beats clever here.
		for k := range s.m {
			delete(s.m, k)
			break
		}
	}
	s.m[h] = body
	s.mu.Unlock()
	return body
}

// stats sums hit/miss counters and resident entries across shards.
func (bi *bodyIntern) stats() (hits, misses uint64, entries int) {
	for i := range bi.shards {
		s := &bi.shards[i]
		hits += s.hits.Load()
		misses += s.misses.Load()
		s.mu.RLock()
		entries += len(s.m)
		s.mu.RUnlock()
	}
	return hits, misses, entries
}

// BodyInternStats reports body-intern cache hits, misses, and resident
// entries (exposed on the admin status endpoints).
func BodyInternStats() (hits, misses uint64, entries int) {
	return interned.stats()
}
