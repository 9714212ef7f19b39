package core

import (
	"facile/internal/bb"
	"facile/internal/uarch"
)

// PortsDetail carries the interpretability payload of the Ports component:
// the maximally contended port combination and the instructions whose µops
// are restricted to it.
type PortsDetail struct {
	Ports  string
	Instrs []int
}

// PortsBound predicts the throughput bound due to execution-port contention
// (paper §4.8), assuming the renamer distributes µops optimally.
func PortsBound(block *bb.Block) float64 {
	a := getAnalysis()
	v, _, _ := a.portsBoundDetail(block)
	putAnalysis(a)
	return v
}

// PortsBoundDetail is PortsBound plus interpretability detail. It is the
// pooled one-shot wrapper around Analysis.portsBoundDetail; the returned
// detail is an owned copy.
func PortsBoundDetail(block *bb.Block) (float64, PortsDetail) {
	a := getAnalysis()
	v, instrs, ports := a.portsBoundDetail(block)
	detail := PortsDetail{Ports: ports, Instrs: copyInts(instrs)}
	putAnalysis(a)
	return v, detail
}

// containsMask reports whether m occurs in s (linear scan: the number of
// distinct port combinations per block is small, so this beats a map and
// allocates nothing).
func containsMask(s []uarch.PortMask, m uarch.PortMask) bool {
	for _, x := range s {
		if x == m {
			return true
		}
	}
	return false
}

// portsBoundDetail computes the port-contention bound; the returned
// instruction list points into Analysis scratch. The bound and its detail
// read the block's descriptors, fusion marks and execution µops alone.
//
// If a set of µops can collectively only be dispatched to port combination
// pc, the throughput is at least |set|/|pc| cycles. Instead of considering
// every subset of µops, only the port combinations of *pairs* of µops are
// considered (PC' = {pc ∪ pc' | pc, pc' ∈ PC}); this heuristic yields the
// same bound as the full linear program on all generated benchmark blocks
// (verified in tests against PortsBoundExact).
func (a *Analysis) portsBoundDetail(block *bb.Block) (float64, []int, string) {
	uops := block.ExecUops()
	if len(uops) == 0 {
		return 0, a.portsInstrs[:0], ""
	}

	// Distinct port combinations in use, with the number of µops using each:
	// the subset counting below runs over the (few) distinct combinations
	// instead of re-scanning every µop per candidate union.
	pcs := a.portsPCs[:0]
	counts := a.portsCounts[:0]
	for _, u := range uops {
		if u.Ports == 0 {
			continue
		}
		found := false
		for i, x := range pcs {
			if x == u.Ports {
				counts[i]++
				found = true
				break
			}
		}
		if !found {
			pcs = append(pcs, u.Ports)
			counts = append(counts, 1)
		}
	}

	// Pairwise unions (the pair (pc, pc) yields pc itself).
	unions := a.portsUnions[:0]
	for i := 0; i < len(pcs); i++ {
		for j := i; j < len(pcs); j++ {
			u := pcs[i].Union(pcs[j])
			if !containsMask(unions, u) {
				unions = append(unions, u)
			}
		}
	}
	a.portsPCs, a.portsUnions, a.portsCounts = pcs, unions, counts

	best := 0.0
	var bestPC uarch.PortMask
	for _, pc := range unions {
		cnt := 0
		for i, x := range pcs {
			if x.SubsetOf(pc) {
				cnt += counts[i]
			}
		}
		bound := float64(cnt) / float64(pc.Count())
		if bound > best {
			best = bound
			bestPC = pc
		}
	}

	instrs := a.portsInstrs[:0]
	for k := range block.Insts {
		ins := &block.Insts[k]
		if ins.FusedWithPrev || ins.Desc.Eliminated {
			continue
		}
		for _, u := range ins.Desc.Uops {
			if u.Ports != 0 && u.Ports.SubsetOf(bestPC) {
				instrs = append(instrs, k)
				break
			}
		}
	}
	a.portsInstrs = instrs
	return best, instrs, bestPC.String()
}

// PortsBoundExact computes the exact port-contention bound by enumerating
// every subset of the used ports (the LP-dual bound). It is exponential in
// the number of distinct ports and exists to validate the pairwise
// heuristic in tests and as a reference for the documentation.
func PortsBoundExact(block *bb.Block) float64 {
	uops := block.ExecUops()
	if len(uops) == 0 {
		return 0
	}
	var universe uarch.PortMask
	for _, u := range uops {
		universe |= u.Ports
	}
	ports := universe.Ports()
	best := 0.0
	for bits := 1; bits < 1<<len(ports); bits++ {
		var pc uarch.PortMask
		for i, p := range ports {
			if bits&(1<<i) != 0 {
				pc |= 1 << p
			}
		}
		cnt := 0
		for _, u := range uops {
			if u.Ports != 0 && u.Ports.SubsetOf(pc) {
				cnt++
			}
		}
		if bound := float64(cnt) / float64(pc.Count()); bound > best {
			best = bound
		}
	}
	return best
}
