//go:build !race

package core

import (
	"testing"

	"facile/internal/bb"
	"facile/internal/uarch"
)

// Allocation regression guards for the bound-vector refactor. They are
// excluded under the race detector, whose instrumentation skews allocation
// accounting; the CI benchmark job runs them race-free.

// allocBlock is a representative loop body: a load-bearing dependence chain
// (so Precedence runs the cycle-ratio solver), port pressure, and a fused
// dec/jne pair.
func allocBlock(t testing.TB) *bb.Block {
	t.Helper()
	code := []byte{
		0x48, 0x03, 0x07, // add rax, [rdi]
		0x48, 0x83, 0xc7, 0x08, // add rdi, 8
		0x48, 0xff, 0xc9, // dec rcx
		0x75, 0xf2, // jne
	}
	block, err := bb.Build(uarch.MustByName("SKL"), code)
	if err != nil {
		t.Fatal(err)
	}
	return block
}

// TestPredictAllocBudget pins the per-call allocation cost of a cold (i.e.
// non-memoized, pool-warm) core.Predict. The only permitted allocations are
// the durable interpretability outputs (the critical-chain and
// contended-instruction copies, carved from one slab); all analysis scratch
// must come from the reused Analysis.
func TestPredictAllocBudget(t *testing.T) {
	const budget = 4 // 1 output carve today; small slack for toolchain drift
	block := allocBlock(t)
	for _, mode := range []Mode{TPU, TPL} {
		Predict(block, mode, Options{}) // warm the pool
		allocs := testing.AllocsPerRun(100, func() {
			Predict(block, mode, Options{})
		})
		if allocs > budget {
			t.Errorf("%v: core.Predict allocates %.1f/op, budget %d", mode, allocs, budget)
		}
	}
}

// TestSpeedupsZeroAllocs: the counterfactual path is pure recombination and
// must not allocate at all once the pool is warm.
func TestSpeedupsZeroAllocs(t *testing.T) {
	block := allocBlock(t)
	for _, mode := range []Mode{TPU, TPL} {
		IdealizationSpeedups(block, mode) // warm the pool
		if allocs := testing.AllocsPerRun(100, func() {
			IdealizationSpeedups(block, mode)
		}); allocs != 0 {
			t.Errorf("%v: IdealizationSpeedups allocates %.1f/op, want 0", mode, allocs)
		}
		b := ComputeBounds(block, mode, Options{})
		if allocs := testing.AllocsPerRun(100, func() {
			b.Speedups(mode)
		}); allocs != 0 {
			t.Errorf("%v: Bounds.Speedups allocates %.1f/op, want 0", mode, allocs)
		}
	}
}
