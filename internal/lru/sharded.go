package lru

import "math/bits"

// Sharded is an N-way sharded LRU cache: keys are routed to one of a
// power-of-two number of independent Cache shards by a caller-supplied hash,
// so concurrent resolutions of different keys contend on a shard lock only
// when they land in the same shard. Warm high-parallelism traffic (the
// serving tier's dominant workload) then scales with the shard count instead
// of serializing on one mutex.
//
// The entry capacity and byte budget are split evenly across shards; per-
// shard bounds mean a pathological hash distribution can evict earlier than
// a single cache of the same total capacity would, which is the standard
// sharding trade-off.
type Sharded[K comparable, V any] struct {
	shards []*Cache[K, V]
	mask   uint64
	hash   func(K) uint64
}

// NewSharded returns an empty sharded cache with the given total entry
// capacity and byte budget (maxBytes <= 0 disables the budget). nshards is
// rounded up to a power of two and clamped to [1, capacity] so every shard
// holds at least one entry. NewSharded panics if capacity is not positive or
// hash is nil.
func NewSharded[K comparable, V any](capacity int, maxBytes int64, nshards int, hash func(K) uint64) *Sharded[K, V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	if hash == nil {
		panic("lru: hash must not be nil")
	}
	if nshards < 1 {
		nshards = 1
	}
	if nshards > capacity {
		nshards = capacity
	}
	if nshards&(nshards-1) != 0 {
		nshards = 1 << bits.Len(uint(nshards))
		if nshards > capacity {
			nshards >>= 1
		}
	}
	perCap := (capacity + nshards - 1) / nshards
	var perBytes int64
	if maxBytes > 0 {
		perBytes = maxBytes / int64(nshards)
		if perBytes < 1 {
			perBytes = 1
		}
	}
	s := &Sharded[K, V]{
		shards: make([]*Cache[K, V], nshards),
		mask:   uint64(nshards - 1),
		hash:   hash,
	}
	for i := range s.shards {
		s.shards[i] = NewWithBytes[K, V](perCap, perBytes)
	}
	return s
}

func (s *Sharded[K, V]) shard(k K) *Cache[K, V] {
	return s.shards[s.hash(k)&s.mask]
}

// Get returns the value stored under k, marking it most recently used in its
// shard; counter semantics match Cache.Get.
func (s *Sharded[K, V]) Get(k K) (V, bool) { return s.shard(k).Get(k) }

// GetOrAdd resolves k in its shard, inserting mk() on a miss; semantics
// match Cache.GetOrAdd.
func (s *Sharded[K, V]) GetOrAdd(k K, mk func() V) (V, bool) { return s.shard(k).GetOrAdd(k, mk) }

// SetSize records k's size in its shard and enforces the shard's byte
// budget; semantics match Cache.SetSize.
func (s *Sharded[K, V]) SetSize(k K, size int) { s.shard(k).SetSize(k, size) }

// Shards returns the number of shards.
func (s *Sharded[K, V]) Shards() int { return len(s.shards) }

// Stats sums the per-shard accounting into one snapshot. Each shard is read
// independently (hit/miss counters atomically, the rest under the shard
// lock), so the snapshot is per-shard consistent but not a global atomic
// cut — fine for monitoring, which is its purpose.
func (s *Sharded[K, V]) Stats() Stats {
	var st Stats
	for _, c := range s.shards {
		cs := c.Stats()
		st.Hits += cs.Hits
		st.Misses += cs.Misses
		st.Evicted += cs.Evicted
		st.Entries += cs.Entries
		st.Bytes += cs.Bytes
	}
	return st
}
