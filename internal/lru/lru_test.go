package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetAddBasics(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache must miss")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.Add("a", 10) // overwrite must not grow the cache
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("overwrite lost: %v", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len after overwrite = %d, want 2", c.Len())
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a")    // a is now most recently used
	c.Add("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
	if got := c.Evicted(); got != 1 {
		t.Fatalf("Evicted = %d, want 1", got)
	}
}

func TestGetOrAdd(t *testing.T) {
	c := New[string, int](4)
	calls := 0
	mk := func() int { calls++; return 42 }
	if v, existed := c.GetOrAdd("k", mk); existed || v != 42 {
		t.Fatalf("first GetOrAdd = %v, existed=%v", v, existed)
	}
	if v, existed := c.GetOrAdd("k", mk); !existed || v != 42 {
		t.Fatalf("second GetOrAdd = %v, existed=%v", v, existed)
	}
	if calls != 1 {
		t.Fatalf("mk called %d times, want 1", calls)
	}
}

func TestNewPanicsOnNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) must panic")
		}
	}()
	New[int, int](0)
}

func TestStatsCounters(t *testing.T) {
	c := New[string, int](4)
	c.Get("a") // probe miss: not recorded
	c.GetOrAdd("a", func() int { return 1 })
	c.GetOrAdd("a", func() int { return 1 })
	c.Get("a")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("Stats = %+v, want 2 hits, 1 miss", st)
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	c := NewWithBytes[string, int](8, 100)
	for _, k := range []string{"a", "b", "c"} {
		c.Add(k, 1)
		c.SetSize(k, 40)
	}
	// 3 x 40 = 120 > 100: the LRU entry ("a") must have been evicted.
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted by the byte budget")
	}
	st := c.Stats()
	if st.Bytes != 80 || st.Entries != 2 || st.Evicted != 1 {
		t.Fatalf("Stats = %+v, want 80 bytes, 2 entries, 1 evicted", st)
	}
	// A single oversized entry is retained: the budget never thrashes the
	// newest entry.
	c2 := NewWithBytes[string, int](8, 10)
	c2.Add("big", 1)
	c2.SetSize("big", 1000)
	if _, ok := c2.Get("big"); !ok {
		t.Fatal("single oversized entry must be retained")
	}
	// Resizing an entry updates accounting rather than double-counting.
	c2.SetSize("big", 4)
	if st := c2.Stats(); st.Bytes != 4 {
		t.Fatalf("Bytes after resize = %d, want 4", st.Bytes)
	}
	// Sizing an absent key is a no-op.
	c2.SetSize("missing", 7)
	if st := c2.Stats(); st.Bytes != 4 {
		t.Fatalf("Bytes after sizing absent key = %d, want 4", st.Bytes)
	}
}

func TestCapacityEvictionReleasesBytes(t *testing.T) {
	c := NewWithBytes[string, int](2, 0)
	c.Add("a", 1)
	c.SetSize("a", 10)
	c.Add("b", 2)
	c.SetSize("b", 20)
	c.Add("c", 3) // evicts a by capacity
	if st := c.Stats(); st.Bytes != 20 {
		t.Fatalf("Bytes after capacity eviction = %d, want 20", st.Bytes)
	}
}

// fnv64 is the test hash: real FNV-1a so shard routing is well distributed.
func fnv64(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func TestShardedBasics(t *testing.T) {
	s := NewSharded[string, int](64, 0, 8, fnv64)
	if s.Shards() != 8 {
		t.Fatalf("Shards = %d, want 8", s.Shards())
	}
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, existed := s.GetOrAdd(k, func() int { return i }); existed {
			t.Fatalf("fresh key %q reported as existing", k)
		}
	}
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("k%d", i)
		if v, ok := s.Get(k); !ok || v != i {
			t.Fatalf("Get(%q) = %v, %v", k, v, ok)
		}
	}
	st := s.Stats()
	if st.Misses != 32 || st.Hits != 32 || st.Entries != 32 {
		t.Fatalf("Stats = %+v, want 32 misses, 32 hits, 32 entries", st)
	}
}

func TestShardedRoundsShardCount(t *testing.T) {
	if got := NewSharded[string, int](64, 0, 3, fnv64).Shards(); got != 4 {
		t.Fatalf("3 shards rounded to %d, want 4", got)
	}
	if got := NewSharded[string, int](64, 0, 0, fnv64).Shards(); got != 1 {
		t.Fatalf("0 shards rounded to %d, want 1", got)
	}
	// Shards never exceed capacity (each must hold at least one entry).
	if got := NewSharded[string, int](4, 0, 64, fnv64).Shards(); got != 4 {
		t.Fatalf("64 shards over capacity 4 clamped to %d, want 4", got)
	}
	// Clamping to a non-power-of-two capacity keeps a power-of-two count.
	if got := NewSharded[string, int](6, 0, 64, fnv64).Shards(); got != 4 {
		t.Fatalf("64 shards over capacity 6 clamped to %d, want 4", got)
	}
}

func TestShardedByteBudget(t *testing.T) {
	// 2 shards, 100 bytes total -> 50 per shard.
	s := NewSharded[string, int](16, 100, 2, fnv64)
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for _, k := range keys {
		s.GetOrAdd(k, func() int { return 1 })
		s.SetSize(k, 30)
	}
	st := s.Stats()
	if st.Bytes > 100 {
		t.Fatalf("total bytes %d exceed the 100-byte budget", st.Bytes)
	}
	if st.Evicted == 0 {
		t.Fatal("expected byte-budget evictions")
	}
}

func TestShardedConcurrent(t *testing.T) {
	s := NewSharded[string, int](128, 0, 8, fnv64)
	var wg sync.WaitGroup
	const workers, ops = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("k%d", i%64)
				s.GetOrAdd(k, func() int { return i })
				s.Get(k)
				s.SetSize(k, 16)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries > 128 {
		t.Fatalf("sharded cache exceeded capacity: %d", st.Entries)
	}
	// Every GetOrAdd and every found Get is recorded exactly once.
	if got := st.Hits + st.Misses; got != 2*workers*ops {
		t.Fatalf("hits+misses = %d, want %d", got, 2*workers*ops)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				c.GetOrAdd(k, func() int { return i })
				c.Get(k)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}
