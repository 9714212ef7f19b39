package core

import (
	"facile/internal/bb"
	"facile/internal/cycleratio"
	"facile/internal/x86"
)

// valNode is one value (register or flags) consumed or produced by an
// instruction, together with its dependence-graph node id.
type valNode struct {
	reg x86.Reg
	id  int
}

// depGraph is the value dependence graph plus the node-to-instruction
// mapping, built into reusable storage.
type depGraph struct {
	g         cycleratio.Graph
	nodeInstr []int
}

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

// precedenceBound computes the precedence bound.
//
// It builds a weighted dependence graph whose nodes are the values consumed
// and produced by the block's instructions. Within an instruction, each
// consumed value is connected to the produced values with an edge weighted
// by the consumption-to-production latency (the load latency is added on
// paths starting at address registers). Producer-to-consumer edges carry
// weight 0 and an iteration count: 0 for intra-iteration flows, 1 for flows
// that wrap to the next iteration. The bound is the maximum cycle ratio
// (latency / iterations) over all cycles, computed with Howard's algorithm.
//
// Because the intra-instruction edge weight depends only on the consumed
// side, all values produced by one instruction are path-equivalent: they
// share the same incoming edges and differ only in which consumers they
// feed, and the full bipartite consumed×produced expansion reaches every
// consumer through every consumed value anyway. The builder therefore
// materializes a single produced node per instruction, which preserves
// every cycle and its ratio while shrinking both the node count and the
// intra-instruction edge count (C·P edges become C).
//
// The second return value lists the instruction indices on a critical
// dependence chain (interpretability); it points into Analysis scratch.
func (a *Analysis) precedenceBound(block *bb.Block) (float64, []int) {
	a.buildDependenceGraph(block)
	g := &a.graph.g
	// The Analysis owns its solver, so the critical cycle may alias solver
	// scratch: it is consumed (copied into chain) before the next query.
	res, err := a.solver.MaxRatio(g)
	if err != nil || !res.HasCycle {
		return 0, nil
	}
	seen := growBools(&a.chainSeen, len(block.Insts))
	chain := a.chain[:0]
	for _, ei := range res.Cycle {
		k := a.graph.nodeInstr[g.Edges[ei].From]
		if !seen[k] {
			seen[k] = true
			chain = append(chain, k)
		}
	}
	a.chain = chain
	return res.Ratio, chain
}

// BuildDependenceGraph constructs the value dependence graph of the block.
// The returned slice maps each node to the index of the instruction it
// belongs to. The graph is freshly allocated and owned by the caller (the
// Analysis-internal path reuses scratch storage instead).
func BuildDependenceGraph(block *bb.Block) (*cycleratio.Graph, []int) {
	a := NewAnalysis() // not pooled: the result aliases the scratch graph
	a.buildDependenceGraph(block)
	return &a.graph.g, a.graph.nodeInstr
}

// buildDependenceGraph constructs the value dependence graph of the block
// into a.graph, reusing all node and edge storage from previous calls.
func (a *Analysis) buildDependenceGraph(block *bb.Block) {
	g := &a.graph.g
	g.N = 0
	g.Edges = g.Edges[:0]
	nodeInstr := a.graph.nodeInstr[:0]

	n := len(block.Insts)
	consumed := growNodeLists(&a.consumed, n)
	produced := growNodeLists(&a.produced, n)

	// final[r] is the block's last writer of r (filled in pass 1); last[r]
	// is the last writer of r before the instruction pass 3 is at. -1 means
	// none.
	var final, last [x86.NumRegs]int
	for r := range final {
		final[r], last[r] = -1, -1
	}

	newNode := func(instr int) int {
		id := g.N
		g.N++
		nodeInstr = append(nodeInstr, instr)
		return id
	}

	lookup := func(vs []valNode, r x86.Reg) (int, bool) {
		for _, v := range vs {
			if v.reg == r {
				return v.id, true
			}
		}
		return 0, false
	}

	flagsReg := x86.RegFlags

	// Pass 1: create nodes, record each register's final writer.
	for k := range block.Insts {
		eff := &block.Insts[k].Eff
		prodNode := -1

		addConsumed := func(r x86.Reg) {
			if _, ok := lookup(consumed[k], r); !ok {
				consumed[k] = append(consumed[k], valNode{r, newNode(k)})
			}
		}
		addProduced := func(r x86.Reg) {
			if _, ok := lookup(produced[k], r); !ok {
				// One shared node per instruction (see the function comment);
				// the per-register entries only key the writer bookkeeping.
				if len(produced[k]) == 0 {
					prodNode = newNode(k)
				}
				produced[k] = append(produced[k], valNode{r, prodNode})
				final[r] = k
			}
		}
		for _, r := range eff.RegReads {
			addConsumed(r)
		}
		for _, r := range eff.AddrReads {
			addConsumed(r)
		}
		if eff.ReadsFlags {
			addConsumed(flagsReg)
		}
		for _, r := range eff.RegWrites {
			addProduced(r)
		}
		if eff.WritesFlags {
			addProduced(flagsReg)
		}
	}

	// Pass 2: intra-instruction latency edges (consumed -> produced).
	for k := range block.Insts {
		ins := &block.Insts[k]
		lat := ins.Desc.Latency
		addrExtra := 0
		if ins.Desc.Load {
			// Address registers feed the load µop first.
			addrExtra = block.Cfg.LoadLat
		}
		if len(produced[k]) == 0 {
			continue
		}
		pk := produced[k][0].id
		eff := &ins.Eff
		for _, c := range consumed[k] {
			w := float64(lat)
			if isAddrRead(eff, c.reg) {
				// A register feeding address generation reaches the result
				// through the load µop; if it is also a data input, the
				// address path is the longer (binding) one.
				w = float64(lat + addrExtra)
			}
			g.AddEdge(c.id, pk, w, 0)
		}
	}

	// Pass 3: producer -> consumer dataflow edges, in one forward sweep.
	// Each consumed value is connected to its actual (program-order)
	// producer: the last earlier writer, else — the flow wraps around the
	// loop, iteration count 1 — the block's final writer.
	for k := range block.Insts {
		for _, c := range consumed[k] {
			j, iterCount := last[c.reg], 0
			if j < 0 {
				j, iterCount = final[c.reg], 1
			}
			if j < 0 {
				continue // live-in value, produced outside the loop
			}
			g.AddEdge(produced[j][0].id, c.id, 0, iterCount)
		}
		for _, p := range produced[k] {
			last[p.reg] = k
		}
	}

	a.graph.nodeInstr = nodeInstr
}

func isAddrRead(eff *x86.Effects, r x86.Reg) bool {
	for _, a := range eff.AddrReads {
		if a == r {
			return true
		}
	}
	return false
}
