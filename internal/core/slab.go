package core

// Slab is an append-only bump allocator for the small per-block payloads of
// a prediction (critical-chain and contended-instruction lists, bound
// breakdowns, name lists). The payloads must be owned — they outlive the
// scratch they are copied out of — so a path that allocated them one by one
// would pay one heap allocation each. A Slab amortizes that cost:
// each block carves its payload with one Carve call, a drained backing
// array is replaced (never recycled), and carved memory stays valid for the
// lifetime of whatever retains it. The zero value is ready to use. A Slab
// is NOT safe for concurrent use; give each worker its own.
type Slab[T any] struct {
	buf []T
	// Blocks is how many blocks, the current one included, are still to
	// carve from the slab; zero counts as one. A fresh backing array holds
	// the current carve for each of them, up to slabBlocks blocks, so the
	// few results of a short batch never keep a large array reachable.
	Blocks int
}

// slabBlocks is how many blocks one backing array is sized for at most:
// enough that a chunk of typical blocks costs a handful of allocations,
// few enough to waste little on drop.
const slabBlocks = 64

// Carve returns an owned, uninitialized []T of length n; n == 0 yields nil.
func (s *Slab[T]) Carve(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, n*min(max(s.Blocks, 1), slabBlocks))
	}
	lo := len(s.buf)
	s.buf = s.buf[:lo+n]
	// Full slice expression: the caller's slice can never grow into the
	// slab's tail and clobber a later carve.
	return s.buf[lo : lo+n : lo+n]
}
