package baselines

import (
	"facile/internal/bb"
	"facile/internal/core"
	"facile/internal/cycleratio"
	"facile/internal/pipesim"
	"facile/internal/uarch"
)

// Predictor is a basic-block throughput predictor: it returns predicted
// cycles per iteration under the TPU (loop == false) or TPL (loop == true)
// notion of throughput. It is the one predictor interface of the repo: the
// in-process models here never fail, while the external llvm-mca entrant
// (MCA) reports subprocess and parse failures as errors.
type Predictor interface {
	Name() string
	Predict(block *bb.Block, loop bool) (float64, error)
}

// Facile is the paper's model (a thin adapter over internal/core).
type Facile struct{}

func (Facile) Name() string { return "Facile" }

func (Facile) Predict(block *bb.Block, loop bool) (float64, error) {
	mode := core.TPU
	if loop {
		mode = core.TPL
	}
	return core.Predict(block, mode, core.Options{}).TP, nil
}

// UiCA is the detailed cycle-accurate simulator (our uiCA stand-in).
type UiCA struct{}

func (UiCA) Name() string { return "uiCA" }

func (UiCA) Predict(block *bb.Block, loop bool) (float64, error) {
	return pipesim.Run(block, pipesim.Options{Loop: loop}).TP, nil
}

// LLVMMCA models the back end only: dispatch width, port contention and
// dependency chains — no front end, no macro-fusion, no move elimination
// (the paper's characterization of llvm-mca).
type LLVMMCA struct{}

func (LLVMMCA) Name() string { return "llvm-mca" }

func (LLVMMCA) Predict(block *bb.Block, loop bool) (float64, error) {
	cfg := block.Cfg

	// µop list ignoring macro-fusion and elimination.
	var uops []uarch.PortMask
	nUops := 0
	for k := range block.Insts {
		ins := &block.Insts[k]
		d := ins.Desc
		if d.Eliminated {
			// llvm-mca still executes moves / idioms.
			role := uarch.RoleALU
			if ins.Inst.Op.IsVector() {
				role = uarch.RoleVecMove
			}
			uops = append(uops, cfg.PortsFor(role))
			nUops++
			continue
		}
		if ins.FusedWithPrev {
			// The jcc was fused away in our IR; llvm-mca models it as a
			// separate branch µop.
			uops = append(uops, cfg.PortsFor(uarch.RoleBranch))
			nUops++
			continue
		}
		for _, u := range d.Uops {
			uops = append(uops, u.Ports)
		}
		// llvm-mca does not model micro-fusion: every unfused µop consumes
		// a dispatch slot.
		nUops += maxI(1, len(d.Uops))
		if ins.FusedWithNext {
			// Undo the fused pair's merged branch µop port restriction:
			// treat the first half as a plain ALU µop.
			uops[len(uops)-1] = cfg.PortsFor(uarch.RoleALU)
		}
	}

	dispatch := float64(nUops) / float64(cfg.IssueWidth)
	ports := portPressureOptimal(uops)
	prec, _ := core.PrecedenceBound(block)
	return maxF(dispatch, ports, prec), nil
}

// OSACA models uniform port pressure (each µop is split evenly across its
// candidate ports) and the critical dependency path — no front end, no
// issue-width bound, no fusion (the paper's characterization of OSACA).
type OSACA struct{}

func (OSACA) Name() string { return "OSACA" }

func (OSACA) Predict(block *bb.Block, loop bool) (float64, error) {
	cfg := block.Cfg
	var load [16]float64
	for k := range block.Insts {
		ins := &block.Insts[k]
		d := ins.Desc
		masks := make([]uarch.PortMask, 0, len(d.Uops))
		if d.Eliminated {
			role := uarch.RoleALU
			if ins.Inst.Op.IsVector() {
				role = uarch.RoleVecMove
			}
			masks = append(masks, cfg.PortsFor(role))
		}
		for _, u := range d.Uops {
			masks = append(masks, u.Ports)
		}
		for _, m := range masks {
			n := m.Count()
			if n == 0 {
				continue
			}
			share := 1 / float64(n)
			for _, p := range m.Ports() {
				load[p] += share
			}
		}
	}
	ports := 0.0
	for _, l := range load {
		if l > ports {
			ports = l
		}
	}
	prec, _ := core.PrecedenceBound(block)
	return maxF(ports, prec), nil
}

// CQA models the front end (µop-cache delivery, issue width) and dispatch
// port pressure, but not the out-of-order back end: no dependency chains and
// no scheduling (the paper's characterization of CQA). It always analyzes
// under the TPL notion, so on unrolled (BHiveU) blocks it misses the
// predecode/decode path entirely.
type CQA struct{}

func (CQA) Name() string { return "CQA" }

func (CQA) Predict(block *bb.Block, loop bool) (float64, error) {
	return maxF(core.DSBBound(block), core.IssueBound(block), core.PortsBound(block)), nil
}

// IACA models issue width, port contention, fusion, and loop-carried
// dependency chains, but no front end; it is TPL-oriented.
type IACA struct{}

func (IACA) Name() string { return "IACA" }

func (IACA) Predict(block *bb.Block, loop bool) (float64, error) {
	prec, _ := core.PrecedenceBound(block)
	return maxF(core.IssueBound(block), core.PortsBound(block), prec), nil
}

// portPressureOptimal is the optimal-balance port bound over raw masks
// (pairwise-union heuristic, as in core but on a plain mask list).
func portPressureOptimal(uops []uarch.PortMask) float64 {
	seen := map[uarch.PortMask]bool{}
	var pcs []uarch.PortMask
	for _, m := range uops {
		if m != 0 && !seen[m] {
			seen[m] = true
			pcs = append(pcs, m)
		}
	}
	best := 0.0
	for i := 0; i < len(pcs); i++ {
		for j := i; j < len(pcs); j++ {
			pc := pcs[i].Union(pcs[j])
			cnt := 0
			for _, m := range uops {
				if m != 0 && m.SubsetOf(pc) {
					cnt++
				}
			}
			if b := float64(cnt) / float64(pc.Count()); b > best {
				best = b
			}
		}
	}
	return best
}

func maxF(vs ...float64) float64 {
	out := 0.0
	for _, v := range vs {
		if v > out {
			out = v
		}
	}
	return out
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// criticalPath returns the longest acyclic latency path through one
// iteration's dependence graph (used by learned baselines as a feature).
func criticalPath(block *bb.Block) float64 {
	g, _ := core.BuildDependenceGraph(block)
	return longestZeroTransitPath(g)
}

func longestZeroTransitPath(g *cycleratio.Graph) float64 {
	// Longest path over T == 0 edges (the intra-iteration DAG), via
	// memoized DFS.
	adj := make([][]cycleratio.Edge, g.N)
	for _, e := range g.Edges {
		if e.T == 0 {
			adj[e.From] = append(adj[e.From], e)
		}
	}
	memo := make([]float64, g.N)
	state := make([]uint8, g.N)
	var dfs func(v int) float64
	dfs = func(v int) float64 {
		if state[v] == 2 {
			return memo[v]
		}
		if state[v] == 1 {
			return 0 // defensive: should be acyclic
		}
		state[v] = 1
		best := 0.0
		for _, e := range adj[v] {
			if d := e.W + dfs(e.To); d > best {
				best = d
			}
		}
		state[v] = 2
		memo[v] = best
		return best
	}
	best := 0.0
	for v := 0; v < g.N; v++ {
		if d := dfs(v); d > best {
			best = d
		}
	}
	return best
}
