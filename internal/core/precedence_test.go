package core

import (
	"flag"
	"math"
	"slices"
	"sync"
	"testing"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/cycleratio"
	"facile/internal/uarch"
)

var precedenceCorpus = flag.Int("precedence.corpus", 0,
	"bhive seed-1 blocks TestPrecedenceMatchesGraph checks (0: 400, or 60 with -short)")

// TestPrecedenceMatchesGraph: on bhive blocks, on every built-in
// microarchitecture and in both modes, the summary solve's bound equals,
// bit for bit, the maximum cycle ratio cycleratio finds on the value
// dependence graph, and its chain is a cycle of that graph with exactly
// that ratio, starting at its lowest instruction.
//
// Run it over the whole corpus with
// go test ./internal/core -run TestPrecedenceMatchesGraph -precedence.corpus 60000 -v
func TestPrecedenceMatchesGraph(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	if *precedenceCorpus > 0 {
		n = *precedenceCorpus
	}
	cfgs := uarch.Default().All()
	if len(cfgs) != 9 {
		t.Fatalf("%d built-in microarchitectures, want 9", len(cfgs))
	}
	ana := NewAnalysis()
	solver := cycleratio.NewSolver()
	var checked, cycles int
	for i, g := range bhive.GenerateBlocks(1, n) {
		for _, cfg := range cfgs {
			for _, code := range [][]byte{g.Code, g.LoopCode} {
				block, err := bb.Build(cfg, code)
				if err != nil {
					continue
				}
				checked++
				got, chain := ana.precedenceBound(block)
				graph, nodeInstr := BuildDependenceGraph(block)
				res, err := solver.MaxRatio(graph)
				if err != nil {
					t.Fatalf("block %d on %s: %v", i, cfg.Name, err)
				}
				if math.Float64bits(got) != math.Float64bits(res.Ratio) || (len(chain) > 0) != res.HasCycle {
					t.Fatalf("block %d (%x) on %s: summary bound %v with chain %v, graph %v (cycle: %v)",
						i, code, cfg.Name, got, chain, res.Ratio, res.HasCycle)
				}
				if !res.HasCycle {
					continue
				}
				cycles++
				if err := checkChain(block, graph, nodeInstr, chain, got); err != "" {
					t.Fatalf("block %d (%x) on %s: chain %v: %s", i, code, cfg.Name, chain, err)
				}
			}
		}
	}
	if checked < 9*n {
		t.Fatalf("only %d analyses built, want at least %d", checked, 9*n)
	}
	t.Logf("%d analyses, %d with a cycle", checked, cycles)
}

// checkChain returns why chain is not a cycle of the dependence graph with
// ratio bound starting at its lowest instruction, or "" if it is. Each step
// u→v must be an edge from u's produced node to one of v's consumed nodes —
// carried (one iteration) exactly when v does not follow u — and on to v's
// produced node; the heaviest such step counts.
func checkChain(block *bb.Block, g *cycleratio.Graph, nodeInstr, chain []int, bound float64) string {
	if len(chain) == 0 {
		return "empty"
	}
	if slices.Min(chain) != chain[0] {
		return "does not start at its lowest instruction"
	}
	seen := map[int]bool{}
	for _, k := range chain {
		if seen[k] {
			return "repeats an instruction"
		}
		seen[k] = true
	}
	// An instruction's produced node is the last node built for it.
	prod := make([]int, len(block.Insts))
	for k := range prod {
		prod[k] = -1
	}
	for id, k := range nodeInstr {
		if eff := &block.Insts[k].Eff; len(eff.RegWrites) > 0 || eff.WritesFlags {
			prod[k] = id
		}
	}
	var w float64
	var t int
	for i, u := range chain {
		v := chain[(i+1)%len(chain)]
		iters := 0
		if v <= u {
			iters = 1
		}
		step := math.Inf(-1)
		for _, e1 := range g.Edges {
			if e1.From != prod[u] || prod[u] < 0 || nodeInstr[e1.To] != v || e1.T != iters || e1.To == prod[v] {
				continue
			}
			for _, e2 := range g.Edges {
				if e2.From == e1.To && e2.To == prod[v] {
					step = max(step, e1.W+e2.W)
				}
			}
		}
		if math.IsInf(step, -1) {
			return "no dependence from each instruction to the next"
		}
		w += step
		t += iters
	}
	if t == 0 || w/float64(t) != bound {
		return "ratio differs from the bound"
	}
	return ""
}

// fuzzAnalysis is the Analysis FuzzPrecedence reuses across inputs, so the
// fuzzer also exercises the reuse of a previous solve.
var fuzzAnalysis struct {
	sync.Mutex
	a Analysis
}

// FuzzPrecedence: for any block that builds, on the microarchitecture and
// in the form the first byte picks, the summary solve agrees bit for bit
// with the maximum cycle ratio of the dependence graph, and its chain is a
// critical cycle of the graph starting at its lowest instruction. Seeds:
// testdata/fuzz/FuzzPrecedence/.
func FuzzPrecedence(f *testing.F) {
	cfgs := uarch.Default().All()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		block, err := bb.Build(cfgs[int(data[0])%len(cfgs)], data[1:])
		if err != nil {
			return
		}
		fuzzAnalysis.Lock()
		got, chain := fuzzAnalysis.a.precedenceBound(block)
		chain = slices.Clone(chain)
		fuzzAnalysis.Unlock()
		graph, nodeInstr := BuildDependenceGraph(block)
		res, err := cycleratio.NewSolver().MaxRatio(graph)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(res.Ratio) || (len(chain) > 0) != res.HasCycle {
			t.Fatalf("summary bound %v with chain %v, graph %v (cycle: %v)", got, chain, res.Ratio, res.HasCycle)
		}
		if res.HasCycle {
			if err := checkChain(block, graph, nodeInstr, chain, got); err != "" {
				t.Fatalf("chain %v: %s", chain, err)
			}
		}
	})
}
