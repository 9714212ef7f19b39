package core

import (
	"math"
	"math/bits"
	"slices"

	"facile/internal/bb"
	"facile/internal/cycleratio"
	"facile/internal/x86"
)

// PrecedenceBound predicts the throughput bound due to read-after-write
// precedence constraints across loop iterations (paper §4.9). It is the
// pooled one-shot wrapper around Analysis.precedenceBound; the returned
// chain is an owned copy.
func PrecedenceBound(block *bb.Block) (float64, []int) {
	a := getAnalysis()
	v, chain := a.precedenceBound(block)
	chain = copyInts(chain)
	putAnalysis(a)
	return v, chain
}

// noPath marks "no dependence path" in the carried-value summary. It lies
// so far below any latency sum a block can reach that the forward pass adds
// weights to it without a branch and still tells it apart (see dead).
const noPath = math.MinInt64 / 2

// dead reports whether v is noPath plus at most a block's worth of
// latencies: a value no carried source reaches.
func dead(v int64) bool { return v < noPath/2 }

// regMask is a set of registers, the flags included, one bit per x86.Reg.
type regMask uint64

// Every register has a bit in a regMask.
var _ [64 - x86.NumRegs]struct{}

func maskOf(rs []x86.Reg) (m regMask) {
	for _, r := range rs {
		m |= 1 << r
	}
	return m
}

// next removes and returns the lowest register of *m.
func (m *regMask) next() x86.Reg {
	r := x86.Reg(bits.TrailingZeros64(uint64(*m)))
	*m &= *m - 1
	return r
}

// instKey is one instruction's part of the solve's input: the registers it
// reads as data (the flags included) and for address generation, the
// registers it writes, its latency and whether it loads. A register read
// both ways takes the address path, the longer one.
type instKey struct {
	reads, addrs, writes regMask
	lat                  int32
	load                 bool
}

// precScratch is the precedence bound's state in an Analysis: the input and
// results of its last solve with the descriptor generation it was computed
// at, and scratch that grows to the largest block and the most carried
// sources seen. Nothing in it is n×m: the summary is m×m, the per-register
// vectors NumRegs×m, and the per-instruction arrays hold a few words per
// instruction.
type precScratch struct {
	// The last solve's key (see precedenceBound), input (see fillInput)
	// and results (the zero value: an empty block, no cycle).
	gen     uint64
	key     []instKey
	loadLat int
	bound   float64
	chain   []int

	vecs  []int64 // per-register vectors over the carried sources
	in    []int64 // one instruction's vector
	summ  []int64 // the m×m summary, summ[a*m+b]
	walks []int64 // Karp's (m+1)×m walk weights
	pot   []int64 // the critical reweighting's potentials
	bfs   []int   // the tight-edge search's queue, parents and cycle
	pred  []int32 // per instruction: the writer its longest path came from
	pos   []int32 // per instruction: its place in seq, or -1
	seq   []int   // the expanded instruction cycle
}

// carried describes a block's loop-carried values: final[r] is the block's
// last writer of r (-1: none), and regs the registers carried around the
// loop, those the block writes and some instruction reads before any
// instruction writes them. The carried sources are the final writers of
// the carried registers; the first m entries of srcs list them in program
// order.
type carried struct {
	final [x86.NumRegs]int32
	regs  regMask
	srcs  [x86.NumRegs]int32
}

// precedenceBound computes the precedence bound: the largest latency per
// iteration over the cycles of the block's value dependence graph (the
// graph BuildDependenceGraph builds, where an instruction's consumed values
// feed its produced values with its latency, plus the load latency for
// address registers, and each produced value feeds its program-order
// consumers, in the next iteration when the consumer reads it before any
// write).
//
// Within one iteration values flow forward in program order, so every cycle
// runs through carried edges, and each carried edge leaves a carried
// source. The solve never builds the graph. One forward pass keeps, per
// register, the longest latency from each of the m carried sources to the
// register's current value; where a source writes, that vector is the
// summary's column for it, so summ[a*m+b] is the longest path from a's
// carried value to b's result within one iteration. Every summary edge
// spans exactly one iteration, so the bound is the summary's maximum cycle
// mean, which maxCycleMean computes exactly in integers; the one division
// of the critical cycle's latency by its length is correctly rounded, the
// same double as any exact solver's w/t. m is 4.4 on average over the bhive
// corpus and at most the register count.
//
// The second result is the critical chain (see recoverChain); it points
// into Analysis scratch. Both results are a function of the solve's input
// alone: the instructions' effects, latencies and load bits, which the
// block's descriptor generation fixes, and the load latency. So a block of
// the descriptor generation this Analysis solved last, for an equal load
// latency — as consecutive analyses of one block for design points that
// leave its descriptors and load latency alone give — takes that solve's
// results without solving again.
func (a *Analysis) precedenceBound(block *bb.Block) (float64, []int) {
	p := &a.prec
	gen := block.DescGen()
	if reuse(Precedence, gen != 0 && gen == p.gen && block.Cfg.LoadLat == p.loadLat) {
		return p.bound, p.chain
	}
	p.gen = gen
	var c carried
	p.fillInput(block, &c)
	// The chain keeps its capacity: it is empty, not nil, without a cycle.
	p.bound, p.chain = 0, p.chain[:0]
	m := p.summarize(&c)
	w, l, ok := maxCycleMean(p.summ, m, growN(&p.walks, (m+1)*m))
	if !ok {
		return 0, p.chain
	}
	p.bound = float64(w) / float64(l)
	p.chain = p.recoverChain(&c, p.criticalCycle(m, w, l))
	return p.bound, p.chain
}

// fillInput writes the solve's whole input into p.key and p.loadLat: each
// instruction's registers, flags, latency and load bit, and the load
// latency. The same pass fills c's final writers and carried registers.
func (p *precScratch) fillInput(block *bb.Block, c *carried) {
	p.loadLat = block.Cfg.LoadLat
	key := growN(&p.key, len(block.Insts))
	for r := range c.final {
		c.final[r] = -1
	}
	var readFirst, written regMask
	for i := range block.Insts {
		ins := &block.Insts[i]
		eff := &ins.Eff
		k := instKey{
			reads:  maskOf(eff.RegReads),
			addrs:  maskOf(eff.AddrReads),
			writes: maskOf(eff.RegWrites),
			lat:    int32(ins.Desc.Latency),
			load:   ins.Desc.Load,
		}
		if eff.ReadsFlags {
			k.reads |= 1 << x86.RegFlags
		}
		if eff.WritesFlags {
			k.writes |= 1 << x86.RegFlags
		}
		key[i] = k
		readFirst |= (k.reads | k.addrs) &^ written
		written |= k.writes
		for w := k.writes; w != 0; {
			c.final[w.next()] = int32(i)
		}
	}
	c.regs = readFirst & written
}

// extra is the latency the load adds on k's address paths.
func (p *precScratch) extra(k *instKey) int64 {
	if k.load {
		return int64(p.loadLat)
	}
	return 0
}

// summarize finds the carried sources and builds the m×m summary into
// p.summ, returning m. Only registers some source reaches (live) have
// vectors, so an instruction none of whose inputs is live costs a mask
// test.
func (p *precScratch) summarize(c *carried) int {
	srcs := c.srcs[:0]
	for cr := c.regs; cr != 0; {
		srcs = append(srcs, c.final[cr.next()])
	}
	slices.Sort(srcs)
	srcs = slices.Compact(srcs)
	m := len(srcs)
	if m == 0 {
		return 0
	}
	vecs := growN(&p.vecs, int(x86.NumRegs)*m)
	vec := func(r x86.Reg) []int64 { return vecs[int(r)*m : int(r)*m+m] }
	for cr := c.regs; cr != 0; {
		r := cr.next()
		v := vec(r)
		for s, f := range srcs {
			v[s] = noPath
			if f == c.final[r] {
				v[s] = 0
			}
		}
	}
	live := c.regs
	in := growN(&p.in, m)
	summ := growN(&p.summ, m*m)
	next := 0 // the next carried source in program order
	for k := range p.key {
		key := &p.key[k]
		if key.writes == 0 {
			continue
		}
		for s := range in {
			in[s] = noPath
		}
		if rd := (key.reads | key.addrs) & live; rd != 0 {
			lat, extra := int64(key.lat), p.extra(key)
			for rd != 0 {
				r := rd.next()
				w := lat
				if key.addrs>>r&1 != 0 {
					w += extra
				}
				maxPlus(in, vec(r), w)
			}
			for wr := key.writes; wr != 0; {
				copy(vec(wr.next()), in)
			}
			live |= key.writes
		} else {
			live &^= key.writes
		}
		if next < m && int(srcs[next]) == k {
			for s, v := range in {
				if dead(v) {
					v = noPath
				}
				summ[s*m+next] = v
			}
			next++
		}
	}
	return m
}

// maxPlus sets in[s] to the larger of in[s] and v[s]+w for every source.
func maxPlus(in, v []int64, w int64) {
	v = v[:len(in)]
	for s, x := range v {
		in[s] = max(in[s], x+w)
	}
}

// maxCycleMean returns the maximum cycle mean of the m-node summary as the
// exact fraction w/l, by Karp's theorem: with walks[k*m+v] the heaviest walk
// of exactly k edges ending at v (from any node), the maximum mean is
// max over v of min over k < m of (walks[m][v] − walks[k][v]) / (m − k).
// All sums are integers and the fractions compare by cross-multiplying, so
// the result is exact. ok is false when the summary has no cycle.
func maxCycleMean(summ []int64, m int, walks []int64) (w, l int64, ok bool) {
	for v := 0; v < m; v++ {
		walks[v] = 0
	}
	for k := 1; k <= m; k++ {
		prev, cur := walks[(k-1)*m:k*m], walks[k*m:(k+1)*m]
		for v := range cur {
			cur[v] = noPath
		}
		for u, du := range prev {
			if du == noPath {
				continue
			}
			for v, e := range summ[u*m : u*m+m] {
				if e != noPath && du+e > cur[v] {
					cur[v] = du + e
				}
			}
		}
	}
	last := walks[m*m : m*m+m]
	for v, dm := range last {
		if dm == noPath {
			continue // no walk of m edges ends at v, so no cycle reaches it
		}
		// A walk of m edges ending at v has suffixes of every length, so
		// walks[k][v] is finite for every k.
		var vw, vl int64
		for k := 0; k < m; k++ {
			num, den := dm-walks[k*m+v], int64(m-k)
			if k == 0 || num*vl < vw*den {
				vw, vl = num, den
			}
		}
		if !ok || vw*l > w*vl {
			w, l, ok = vw, vl, true
		}
	}
	return w, l, ok
}

// criticalCycle returns the summary cycle the critical chain follows, as
// source indices starting at the first: among the cycles of mean w/l, one
// through the lowest source on any of them, with the fewest edges, found
// breadth first visiting sources in order.
//
// Reweighting each edge to l·e − w makes every cycle's weight l·|C| times
// its mean's distance below w/l, so the critical cycles are exactly the
// zero-weight ones. With pot[v] the heaviest reweighted walk ending at v —
// read off Karp's table, since every k-edge walk shifts by the same k·w —
// an edge is tight when pot[u] + l·e − w = pot[v], and the critical cycles
// are exactly the cycles of tight edges.
func (p *precScratch) criticalCycle(m int, w, l int64) []int {
	pot := growN(&p.pot, m)
	for v := range pot {
		pot[v] = noPath
		for k := 0; k <= m; k++ {
			if d := p.walks[k*m+v]; d != noPath {
				pot[v] = max(pot[v], l*d-int64(k)*w)
			}
		}
	}
	tight := func(u, v int) bool {
		e := p.summ[u*m+v]
		return e != noPath && pot[u]+l*e-w == pot[v]
	}
	buf := growN(&p.bfs, 3*m)
	queue, parent, cycle := buf[:0:m], buf[m:2*m], buf[2*m:2*m]
	for s := 0; s < m; s++ {
		for v := range parent {
			parent[v] = -1
		}
		parent[s] = s
		queue = append(queue[:0], s)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for v := 0; v < m; v++ {
				if !tight(u, v) {
					continue
				}
				if v == s {
					for x := u; x != s; x = parent[x] {
						cycle = append(cycle, x)
					}
					cycle = append(cycle, s)
					slices.Reverse(cycle)
					return cycle
				}
				if parent[v] < 0 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
	}
	return nil // unreachable: a summary with a cycle has a critical one
}

// recoverChain expands the critical summary cycle into the instructions of
// a dependence cycle of the block, in data-flow order and rotated to start
// at its lowest index. Each summary edge a→b becomes the longest path from
// a's carried value to b's result, recomputed for that source alone, so no
// per-source table of the block is kept. If the expansion revisits an
// instruction, the walk is cut to its first closed sub-cycle: the whole
// walk has the critical mean and no cycle exceeds it, so every cycle it
// splits into has that mean too.
func (p *precScratch) recoverChain(c *carried, cyc []int) []int {
	if len(cyc) == 0 {
		return p.chain[:0]
	}
	n := len(p.key)
	growN(&p.pred, n)
	for len(p.pos) < n {
		p.pos = append(p.pos, -1)
	}
	pos := p.pos
	seq := p.seq[:0]
	lo, hi := 0, -1
expand:
	for i, s := range cyc {
		a, b := c.srcs[s], c.srcs[cyc[(i+1)%len(cyc)]]
		start := len(seq)
		seq = p.longestPath(c, a, int(b), seq)
		slices.Reverse(seq[start:])
		for j := start; j < len(seq); j++ {
			if x := seq[j]; pos[x] >= 0 {
				lo, hi = int(pos[x]), j
				break expand
			}
			pos[seq[j]] = int32(j)
		}
	}
	if hi < 0 {
		hi = len(seq)
	}
	for _, x := range seq[:hi] {
		pos[x] = -1
	}
	p.seq = seq
	loop := seq[lo:hi]
	first := 0
	for j, x := range loop {
		if x < loop[first] {
			first = j
		}
	}
	p.chain = append(append(p.chain[:0], loop[first:]...), loop[:first]...)
	return p.chain
}

// longestPath appends to out, from b back to the first reader, the
// instructions on a longest path from source a's carried value to b's
// result within one iteration. Ties between equally long paths go to the
// input register first in x86.Reg order.
func (p *precScratch) longestPath(c *carried, a int32, b int, out []int) []int {
	var dist [x86.NumRegs]int64
	var writer [x86.NumRegs]int32 // -1: the carried value itself
	var live regMask
	for cr := c.regs; cr != 0; {
		if r := cr.next(); c.final[r] == a {
			live |= 1 << r
			writer[r] = -1
		}
	}
	pred := p.pred
	for k := 0; k <= b; k++ {
		key := &p.key[k]
		rd := (key.reads | key.addrs) & live
		if rd == 0 {
			live &^= key.writes
			continue
		}
		lat, extra := int64(key.lat), p.extra(key)
		best, from := int64(noPath), int32(-1)
		for rd != 0 {
			r := rd.next()
			v := dist[r] + lat
			if key.addrs>>r&1 != 0 {
				v += extra
			}
			if v > best {
				best, from = v, writer[r]
			}
		}
		pred[k] = from
		live |= key.writes
		for wr := key.writes; wr != 0; {
			r := wr.next()
			dist[r], writer[r] = best, int32(k)
		}
	}
	for x := b; ; x = int(pred[x]) {
		out = append(out, x)
		if pred[x] < 0 {
			return out
		}
	}
}

// growN returns *s resized to n elements, reusing capacity. Contents are
// unspecified; callers initialize what they read.
func growN[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// BuildDependenceGraph constructs the block's value dependence graph: one
// node per value an instruction consumes and one shared node for the
// values it produces (the intra-instruction weight depends only on the
// consumed side, so all produced values are path-equivalent). Consumed
// nodes feed their instruction's produced node with its latency, plus the
// load latency for address registers; produced nodes feed their program-
// order consumers with weight 0 and iteration count 0, or 1 when the
// consumer reads the value before any write in the block (the flow wraps
// around the loop). The second result maps each node to its instruction.
//
// The precedence bound does not build this graph, and does not run the
// paper's Howard solver (§4.9) on it. The graph's maximum cycle ratio, from
// cycleratio.Solver.MaxRatio (Karp's theorem over the whole graph, exact in
// integers), is the oracle the summary solve must match bit for bit in
// TestPrecedenceMatchesGraph and FuzzPrecedence; the ablation benchmark,
// the layer benchmark and the baselines analyze it too. The graph is
// freshly allocated and owned by the caller.
func BuildDependenceGraph(block *bb.Block) (*cycleratio.Graph, []int) {
	n := len(block.Insts)
	g := &cycleratio.Graph{}
	var nodeInstr []int
	newNode := func(instr int) int {
		nodeInstr = append(nodeInstr, instr)
		g.N++
		return g.N - 1
	}
	type valNode struct {
		reg x86.Reg
		id  int
	}
	lookup := func(vs []valNode, r x86.Reg) bool {
		for _, v := range vs {
			if v.reg == r {
				return true
			}
		}
		return false
	}
	consumed := make([][]valNode, n)
	produced := make([]int, n) // the produced node, or -1
	// final[r] is the block's last writer of r; last[r] the last writer
	// before the instruction the edge pass is at. -1 means none.
	var final, last [x86.NumRegs]int
	for r := range final {
		final[r], last[r] = -1, -1
	}
	for k := range block.Insts {
		eff := &block.Insts[k].Eff
		add := func(r x86.Reg) {
			if !lookup(consumed[k], r) {
				consumed[k] = append(consumed[k], valNode{r, newNode(k)})
			}
		}
		for _, r := range eff.RegReads {
			add(r)
		}
		for _, r := range eff.AddrReads {
			add(r)
		}
		if eff.ReadsFlags {
			add(x86.RegFlags)
		}
		produced[k] = -1
		if len(eff.RegWrites) > 0 || eff.WritesFlags {
			produced[k] = newNode(k)
		}
		for _, r := range eff.RegWrites {
			final[r] = k
		}
		if eff.WritesFlags {
			final[x86.RegFlags] = k
		}
	}
	for k := range block.Insts {
		if produced[k] < 0 {
			continue
		}
		ins := &block.Insts[k]
		for _, c := range consumed[k] {
			// A register feeding address generation reaches the result
			// through the load µop; if it is also a data input, the address
			// path is the longer (binding) one.
			w := ins.Desc.Latency
			if ins.Desc.Load && slices.Contains(ins.Eff.AddrReads, c.reg) {
				w += block.Cfg.LoadLat
			}
			g.AddEdge(c.id, produced[k], float64(w), 0)
		}
	}
	for k := range block.Insts {
		eff := &block.Insts[k].Eff
		for _, c := range consumed[k] {
			j, iters := last[c.reg], 0
			if j < 0 {
				j, iters = final[c.reg], 1
			}
			if j >= 0 {
				g.AddEdge(produced[j], c.id, 0, iters)
			}
		}
		for _, r := range eff.RegWrites {
			last[r] = k
		}
		if eff.WritesFlags {
			last[x86.RegFlags] = k
		}
	}
	return g, nodeInstr
}
