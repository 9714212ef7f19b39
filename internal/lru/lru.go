package lru

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a bounded LRU cache from K to V. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
//
// Besides the entry-count capacity, a cache can carry an optional byte
// budget (NewWithBytes): entries report their size via SetSize once it is
// known, and the cache evicts least-recently-used entries while the total
// exceeds the budget. Sizes are caller-defined accounting, not measured
// memory.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64 // 0 = no byte budget
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[K]*list.Element
	evicted  uint64

	// hits and misses are resolution counters. They are atomics so a
	// sharded aggregate (Sharded.Stats) can sum them without taking every
	// shard lock; each shard updates only its own counters, so high-
	// parallelism warm traffic never contends on a shared counter line.
	//
	// Counting follows single-flight resolution semantics: Get records a
	// hit when it finds the key and nothing otherwise (a probe miss is
	// provisional — the caller either abandons the resolution or settles it
	// with GetOrAdd); GetOrAdd records a hit when the key was present and a
	// miss when it inserted.
	hits   atomic.Uint64
	misses atomic.Uint64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int
}

// New returns an empty cache holding at most capacity entries.
// New panics if capacity is not positive.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return NewWithBytes[K, V](capacity, 0)
}

// NewWithBytes is New with an additional byte budget: once entries report
// sizes via SetSize, the cache keeps their total at or below maxBytes by
// evicting from the LRU end (always retaining at least one entry).
// maxBytes <= 0 means no byte budget.
func NewWithBytes[K comparable, V any](capacity int, maxBytes int64) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &Cache[K, V]{
		capacity: capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[K]*list.Element, capacity),
	}
}

// Get returns the value stored under k and marks it most recently used.
// A found key is recorded as a hit; an absent one is not recorded (see the
// counter semantics on Cache).
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// GetOrAdd returns the value stored under k, marking it most recently used;
// if k is absent it stores mk() and returns it. The second result reports
// whether the value already existed (recorded as a hit; an insertion is
// recorded as a miss). mk is called while the cache lock is held, so it must
// be cheap and must not re-enter the cache; to memoize an expensive
// computation, store a handle that performs the computation once (e.g. via
// sync.Once) after GetOrAdd returns.
func (c *Cache[K, V]) GetOrAdd(k K, mk func() V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry[K, V]).val, true
	}
	v := mk()
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
	c.misses.Add(1)
	c.evictExcessLocked()
	return v, false
}

// Add stores v under k, marking it most recently used and evicting the
// least recently used entry if the cache is over capacity. Add records
// neither a hit nor a miss: it is a plain store, not a resolution.
func (c *Cache[K, V]) Add(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[K, V]).val = v
		return
	}
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
	c.evictExcessLocked()
}

// SetSize records k's size for byte accounting (replacing any previous
// size), then enforces the byte budget by evicting least-recently-used
// entries while the total exceeds it — the cache always retains at least one
// entry, so sizing a single oversized entry does not thrash it. Absent keys
// (e.g. already evicted) are a no-op.
func (c *Cache[K, V]) SetSize(k K, size int) {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return
	}
	ent := el.Value.(*entry[K, V])
	c.bytes += int64(size - ent.size)
	ent.size = size
	if c.maxBytes > 0 {
		for c.bytes > c.maxBytes && c.ll.Len() > 1 {
			c.removeLocked(c.ll.Back())
		}
	}
}

func (c *Cache[K, V]) evictExcessLocked() {
	for c.ll.Len() > c.capacity {
		el := c.ll.Back()
		if el == nil {
			return
		}
		c.removeLocked(el)
	}
}

// removeLocked evicts one element, keeping the byte total in step.
func (c *Cache[K, V]) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	ent := el.Value.(*entry[K, V])
	delete(c.items, ent.key)
	c.bytes -= int64(ent.size)
	c.evicted++
}

// Len returns the number of entries currently cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Evicted returns the total number of entries evicted since construction.
func (c *Cache[K, V]) Evicted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// Stats is a snapshot of a cache's accounting.
type Stats struct {
	// Hits and Misses count resolutions by outcome (see the counter
	// semantics on Cache).
	Hits, Misses uint64
	// Evicted counts entries displaced since construction — by the entry
	// capacity or by the byte budget.
	Evicted uint64
	// Entries is the current entry count.
	Entries int
	// Bytes is the current total of SetSize-reported sizes.
	Bytes int64
}

// Stats returns a snapshot of the cache's accounting.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Evicted: c.evicted,
		Entries: c.ll.Len(),
		Bytes:   c.bytes,
	}
}
