package pipesim

import (
	"facile/internal/bb"
	"facile/internal/isa"
	"facile/internal/x86"
)

const unresolved = -1

// unit is a decode unit: one instruction, or a macro-fused pair.
type unit struct {
	ins         *bb.Instr
	idx         int // index of (the first instruction of) the unit in the block
	groups      [][]int
	issueUnits  []int // issue slots consumed per fused group
	lastOfIter  bool
	isBranch    bool
	complex     bool
	availSimple int
	fusible     bool // macro-fusible first half (relevant to decode groups)
	eff         x86.Effects
	jccEff      x86.Effects // effects of the fused jcc (flags read), if any
	hasJcc      bool
}

// inst is an in-flight instruction instance.
type inst struct {
	u    *unit
	iter int

	srcProducers  []*inst // producers of data sources (nil = live-in)
	addrProducers []*inst

	elimSource *inst // for eliminated moves: transitive source

	uops        []*schedUop
	computeLeft int
	issuedUnits int
	allIssued   bool

	loadResultAt int
	resultAt     int
	tmpResult    int
	completedAt  int
	robEntries   int
}

type uopKind uint8

const (
	kLoad uopKind = iota
	kCompute
	kStoreAddr
	kStoreData
)

type schedUop struct {
	owner      *inst
	u          isa.Uop
	kind       uopKind
	dispatched bool
}

type fusedUop struct {
	unit     *unit
	iter     int
	groupIdx int
	first    bool // first fused µop of its unit
}

// uopSource fills the IDQ.
type uopSource interface {
	// tick emits up to space fused µops for this cycle.
	tick(cycle int, space int, emit func(fusedUop))
}

type sim struct {
	block *bb.Block
	loop  bool

	units []*unit

	source uopSource
	idq    []fusedUop

	// Back-end state.
	rob          []*inst
	robUops      int
	sched        []*schedUop
	regFile      map[x86.Reg]*inst
	portBusy     [16]int // cycle until which each port is occupied
	portUseCount [16]int

	itersRetired int
}

func newSim(block *bb.Block, loop bool) *sim {
	s := &sim{
		block:   block,
		loop:    loop,
		regFile: make(map[x86.Reg]*inst),
	}
	s.units = buildUnits(block)

	switch {
	case !loop:
		s.source = newLegacySource(block, s.units, false)
	case block.JCCErratumAffected():
		s.source = newLegacySource(block, s.units, true)
	case block.Cfg.LSDEnabled && block.FusedUops() <= block.Cfg.IDQSize:
		s.source = newLSDSource(block, s.units)
	default:
		s.source = newDSBSource(block, s.units)
	}
	return s
}

func buildUnits(block *bb.Block) []*unit {
	var units []*unit
	for k := range block.Insts {
		ins := &block.Insts[k]
		if ins.FusedWithPrev {
			continue
		}
		d := ins.Desc
		u := &unit{
			ins:         ins,
			idx:         k,
			groups:      d.FusedGroups(),
			lastOfIter:  false,
			isBranch:    ins.Inst.IsBranch() || ins.FusedWithNext,
			complex:     d.Complex,
			availSimple: d.AvailSimple(block.Cfg.NumDecoders),
			fusible:     d.MacroFusible,
			eff:         ins.Eff,
		}
		u.issueUnits = make([]int, len(u.groups))
		for g := range u.groups {
			u.issueUnits[g] = 1
		}
		if d.Unlaminated {
			// Unlaminated micro-fused groups consume one extra issue slot.
			extra := d.IssueUops - d.FusedUops
			for g := 0; g < len(u.groups) && extra > 0; g++ {
				if len(u.groups[g]) > 1 {
					u.issueUnits[g]++
					extra--
				}
			}
		}
		if ins.FusedWithNext && k+1 < len(block.Insts) {
			u.hasJcc = true
			u.jccEff = block.Insts[k+1].Eff
		}
		units = append(units, u)
	}
	units[len(units)-1].lastOfIter = true
	return units
}

// tick advances the simulation by one cycle. Stage order: retire, dispatch,
// issue, front end — so that a µop needs at least one cycle per stage.
func (s *sim) tick(cycle int) {
	s.retire(cycle)
	s.dispatch(cycle)
	s.issue(cycle)
	space := s.block.Cfg.IDQSize - len(s.idq)
	if space > 0 {
		s.source.tick(cycle, space, func(f fusedUop) { s.idq = append(s.idq, f) })
	}
}

// resolve returns the cycle at which the instance's result is available, or
// unresolved if not yet known. nil producers are live-ins, available at 0.
func resolve(p *inst) int {
	if p == nil {
		return 0
	}
	if p.resultAt != unresolved {
		return p.resultAt
	}
	if p.elimSource != nil {
		r := resolve(p.elimSource)
		if r != unresolved {
			p.resultAt = r
		}
		return r
	}
	return unresolved
}

func allResolvedBy(producers []*inst, cycle int) bool {
	for _, p := range producers {
		r := resolve(p)
		if r == unresolved || r > cycle {
			return false
		}
	}
	return true
}

func (s *sim) retire(cycle int) {
	budget := s.block.Cfg.RetireWidth
	for len(s.rob) > 0 && budget > 0 {
		in := s.rob[0]
		if !in.allIssued || in.completedAt == unresolved || in.completedAt >= cycle {
			break
		}
		budget -= in.robEntries
		s.robUops -= in.robEntries
		s.rob = s.rob[1:]
		if in.u.lastOfIter {
			s.itersRetired++
		}
	}
}

func (s *sim) dispatch(cycle int) {
	var portTaken [16]bool
	kept := s.sched[:0]
	for _, su := range s.sched {
		if su.dispatched {
			continue
		}
		if !s.uopReady(su, cycle) {
			kept = append(kept, su)
			continue
		}
		// Greedy port choice: free port in the mask with the lowest
		// historical use count (a non-optimal heuristic, deliberately
		// weaker than Facile's idealized balancing).
		bestPort := -1
		for p := 0; p < 16; p++ {
			if !su.u.Ports.Has(p) || portTaken[p] || s.portBusy[p] > cycle {
				continue
			}
			if bestPort == -1 || s.portUseCount[p] < s.portUseCount[bestPort] {
				bestPort = p
			}
		}
		if bestPort == -1 {
			kept = append(kept, su)
			continue
		}
		portTaken[bestPort] = true
		s.portUseCount[bestPort]++
		if su.u.RecTP > 1 {
			s.portBusy[bestPort] = cycle + su.u.RecTP
		}
		su.dispatched = true
		s.applyDispatch(su, cycle)
	}
	s.sched = kept
}

func (s *sim) applyDispatch(su *schedUop, cycle int) {
	in := su.owner
	cfg := s.block.Cfg
	var done int
	switch su.kind {
	case kLoad:
		in.loadResultAt = cycle + cfg.LoadLat
		done = in.loadResultAt
		if in.computeLeft == 0 && in.u.ins.Desc.Load && !in.u.ins.Desc.Store {
			// Pure load: the load result is the instruction result.
			in.resultAt = in.loadResultAt
		}
	case kCompute:
		lat := in.u.ins.Desc.Latency
		res := cycle + lat
		if res > in.tmpResult {
			in.tmpResult = res
		}
		in.computeLeft--
		if in.computeLeft == 0 {
			in.resultAt = in.tmpResult
		}
		done = res
	case kStoreAddr, kStoreData:
		done = cycle + 1
	}
	if done > in.completedAt || in.completedAt == unresolved {
		in.completedAt = maxInt(in.completedAt, done)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (s *sim) uopReady(su *schedUop, cycle int) bool {
	in := su.owner
	switch su.kind {
	case kLoad:
		return allResolvedBy(in.addrProducers, cycle)
	case kCompute:
		if !allResolvedBy(in.srcProducers, cycle) {
			return false
		}
		if in.u.ins.Desc.Load {
			return in.loadResultAt != unresolved && in.loadResultAt <= cycle
		}
		return true
	case kStoreAddr:
		return allResolvedBy(in.addrProducers, cycle)
	case kStoreData:
		// The stored value: the compute result for RMW, else the data
		// sources (plus the load for load+store without compute).
		if in.computeLeft > 0 {
			return false
		}
		if len(in.uops) > 0 && in.hasComputeUops() {
			return in.resultAt != unresolved && in.resultAt <= cycle
		}
		if in.u.ins.Desc.Load {
			return in.loadResultAt != unresolved && in.loadResultAt <= cycle
		}
		return allResolvedBy(in.srcProducers, cycle)
	}
	return false
}

func (in *inst) hasComputeUops() bool {
	for _, su := range in.uops {
		if su.kind == kCompute {
			return true
		}
	}
	return false
}

func (s *sim) issue(cycle int) {
	cfg := s.block.Cfg
	width := cfg.IssueWidth
	for width > 0 && len(s.idq) > 0 {
		f := s.idq[0]
		need := f.unit.issueUnits[f.groupIdx]
		if need > width {
			return
		}
		group := f.unit.groups[f.groupIdx]
		if s.robUops+need > cfg.ROBSize {
			return
		}
		if len(s.sched)+len(group) > cfg.SchedSize {
			return
		}

		var in *inst
		if f.first {
			in = s.newInstance(f.unit, f.iter, cycle)
		} else {
			// Continuation of the most recent instance of this unit.
			in = s.lastInstanceOf(f.unit)
		}
		if in == nil {
			// Should not happen; drop defensively.
			s.idq = s.idq[1:]
			continue
		}

		for _, uopIdx := range group {
			su := &schedUop{owner: in, u: in.u.ins.Desc.Uops[uopIdx], kind: s.uopKind(in.u, uopIdx)}
			in.uops = append(in.uops, su)
			if su.kind == kCompute {
				in.computeLeft++
			}
			s.sched = append(s.sched, su)
		}
		in.issuedUnits++
		in.robEntries += need
		s.robUops += need
		if in.issuedUnits == len(in.u.groups) {
			in.allIssued = true
			if len(in.uops) == 0 && in.completedAt == unresolved {
				// NOP / eliminated: completes at issue.
				in.completedAt = cycle
			}
		}
		width -= need
		s.idq = s.idq[1:]
	}
}

func (s *sim) uopKind(u *unit, uopIdx int) uopKind {
	d := u.ins.Desc
	if d.Load && uopIdx == 0 {
		return kLoad
	}
	n := len(d.Uops)
	if d.Store {
		if uopIdx == n-2 {
			return kStoreAddr
		}
		if uopIdx == n-1 {
			return kStoreData
		}
	}
	return kCompute
}

func (s *sim) lastInstanceOf(u *unit) *inst {
	for i := len(s.rob) - 1; i >= 0; i-- {
		if s.rob[i].u == u && !s.rob[i].allIssued {
			return s.rob[i]
		}
	}
	return nil
}

func (s *sim) newInstance(u *unit, iter, cycle int) *inst {
	in := &inst{
		u:            u,
		iter:         iter,
		loadResultAt: unresolved,
		resultAt:     unresolved,
		completedAt:  unresolved,
	}

	// Capture data-flow sources from the current register file.
	capture := func(regs []x86.Reg, into *[]*inst) {
		for _, r := range regs {
			*into = append(*into, s.regFile[r])
		}
	}
	capture(u.eff.RegReads, &in.srcProducers)
	capture(u.eff.AddrReads, &in.addrProducers)
	// The fused jcc's flag source is internal to the pair when the first
	// half writes the flags itself.
	jccReadsExternalFlags := u.hasJcc && u.jccEff.ReadsFlags && !u.eff.WritesFlags
	if u.eff.ReadsFlags || jccReadsExternalFlags {
		in.srcProducers = append(in.srcProducers, s.regFile[x86.RegFlags])
	}

	d := u.ins.Desc
	switch {
	case u.ins.Inst.Op == x86.NOP:
		in.resultAt = cycle
	case d.Eliminated && u.ins.Inst.IsZeroIdiom():
		in.resultAt = cycle // dependency-breaking: available immediately
	case d.Eliminated:
		// Eliminated move: result availability equals the source's. A nil
		// producer is a live-in value, available immediately.
		if len(in.srcProducers) > 0 && in.srcProducers[0] != nil {
			in.elimSource = in.srcProducers[0]
		} else {
			in.resultAt = cycle
		}
	}

	// Program-order register-file update.
	for _, r := range u.eff.RegWrites {
		s.regFile[r] = in
	}
	if u.eff.WritesFlags {
		s.regFile[x86.RegFlags] = in
	}

	s.rob = append(s.rob, in)
	return in
}
