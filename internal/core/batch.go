package core

import "facile/internal/bb"

// Slab is an append-only bump allocator for the small per-block payloads of
// batch kernels (critical-chain and contended-instruction lists, bound
// breakdowns, name lists). The payloads must be owned — they outlive the
// scratch they are copied out of — so a batch path that allocated them per
// block would pay one heap allocation each. A Slab amortizes that cost:
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

// BoundsMatrix is a structure-of-arrays bound store for batch kernels: the
// bound values of n blocks live in one flat []float64 slab indexed
// block×component, with parallel per-row vectors for the presence set and
// eq. 3's selection context. Compared to a []Bounds slice it allocates a
// handful of slabs instead of nothing-per-row-but-pointer-chasing layouts,
// writes sequentially, and recombines rows without materializing per-block
// structs. A BoundsMatrix retains its capacity across Reset, so a reused
// matrix makes a warm batch bound sweep allocation-free.
type BoundsMatrix struct {
	n       int
	v       []float64 // n × NumComponents, row-major
	present []ComponentSet
	jcc     []bool // JCCErratum per row
	lsd     []bool // LSDEligible per row
}

// Reset sizes the matrix for n rows, reusing capacity. All rows are cleared.
func (m *BoundsMatrix) Reset(n int) {
	m.n = n
	nv := n * int(NumComponents)
	if cap(m.v) < nv {
		m.v = make([]float64, nv)
		m.present = make([]ComponentSet, n)
		m.jcc = make([]bool, n)
		m.lsd = make([]bool, n)
		return
	}
	m.v = m.v[:nv]
	m.present = m.present[:n]
	m.jcc = m.jcc[:n]
	m.lsd = m.lsd[:n]
	for i := range m.v {
		m.v[i] = 0
	}
	for i := 0; i < n; i++ {
		m.present[i] = 0
		m.jcc[i] = false
		m.lsd[i] = false
	}
}

// Len returns the number of rows.
func (m *BoundsMatrix) Len() int { return m.n }

// Row returns the component-indexed bound slice of row i, aliasing the
// matrix slab. Entries of components absent from Present(i) are zero.
func (m *BoundsMatrix) Row(i int) []float64 {
	lo := i * int(NumComponents)
	return m.v[lo : lo+int(NumComponents) : lo+int(NumComponents)]
}

// Present returns the computed-component set of row i.
func (m *BoundsMatrix) Present(i int) ComponentSet { return m.present[i] }

// SetRow stores b as row i.
func (m *BoundsMatrix) SetRow(i int, b *Bounds) {
	copy(m.Row(i), b.V[:])
	m.present[i] = b.Present
	m.jcc[i] = b.JCCErratum
	m.lsd[i] = b.LSDEligible
}

// Bounds reconstructs row i as a self-contained Bounds value.
func (m *BoundsMatrix) Bounds(i int) Bounds {
	var b Bounds
	copy(b.V[:], m.Row(i))
	b.Present = m.present[i]
	b.JCCErratum = m.jcc[i]
	b.LSDEligible = m.lsd[i]
	return b
}

// Combine folds row i under an inclusion set, exactly as Bounds.Combine.
func (m *BoundsMatrix) Combine(i int, mode Mode, include ComponentSet) Combined {
	b := m.Bounds(i)
	return b.Combine(mode, include)
}

// ComputeBoundsBatch computes the bound vector of every block into m
// (resized to len(blocks)) using this Analysis's scratch state: one warm
// scratch context, flat sequential output. A warm Analysis and a
// capacity-retaining matrix make the whole sweep allocation-free.
func (a *Analysis) ComputeBoundsBatch(blocks []*bb.Block, mode Mode, opts Options, m *BoundsMatrix) {
	m.Reset(len(blocks))
	for i, block := range blocks {
		b, _ := a.computeBounds(block, mode, opts)
		m.SetRow(i, &b)
	}
}

// ComputeBoundsBatch is the pooled one-shot wrapper around
// Analysis.ComputeBoundsBatch.
func ComputeBoundsBatch(blocks []*bb.Block, mode Mode, opts Options, m *BoundsMatrix) {
	a := getAnalysis()
	a.ComputeBoundsBatch(blocks, mode, opts, m)
	putAnalysis(a)
}
