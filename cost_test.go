//go:build !race

package facile_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"facile"
	"facile/internal/asm"
	"facile/internal/x86"
)

// TestAnalyzeCostNearLinear: the cost of one uncached Analyze grows about
// linearly with block size on adversarial dependence shapes — one long
// chain, 16 independent chains, and a chain through the flags register
// (every instruction reads and writes it). A 16x larger block may take at
// most 32x as long; a per-consumer scan over every writer of a register
// (quadratic in a chain that writes one register throughout) fails it.
// Timing tests are excluded under the race detector and skipped in -short
// mode.
func TestAnalyzeCostNearLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("cost-curve timing skipped in -short mode")
	}
	const (
		small   = 4 << 10
		large   = 64 << 10
		maxGrow = 32.0
	)
	// repeat concatenates the unit until the block holds at least size bytes.
	repeat := func(size int, unit func(k int) []asm.Instr) []byte {
		var code []byte
		for k := 0; len(code) < size; k++ {
			code = append(code, asm.MustEncodeBlock(unit(k))...)
		}
		return code
	}
	vecs := []x86.Reg{
		x86.X0, x86.X1, x86.X2, x86.X3, x86.X4, x86.X5, x86.X6, x86.X7,
		x86.X8, x86.X9, x86.X10, x86.X11, x86.X12, x86.X13, x86.X14, x86.X15,
	}
	shapes := []struct {
		name string
		unit func(k int) []asm.Instr
	}{
		{"one chain", func(int) []asm.Instr {
			return []asm.Instr{
				asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
				asm.Mk(x86.IMUL, 64, asm.R(x86.RAX), asm.R(x86.RAX)),
			}
		}},
		{"16 chains", func(k int) []asm.Instr {
			r := vecs[k%len(vecs)]
			return []asm.Instr{
				asm.Mk(x86.ADDPS, 128, asm.R(r), asm.R(r)),
				asm.Mk(x86.MULPS, 128, asm.R(r), asm.R(r)),
			}
		}},
		{"flags", func(int) []asm.Instr {
			return []asm.Instr{
				asm.Mk(x86.ADC, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
				asm.Mk(x86.SBB, 64, asm.R(x86.RCX), asm.R(x86.RDX)),
				asm.MkCC(x86.CMOVCC, x86.CondNE, 64, asm.R(x86.RBX), asm.R(x86.RCX)),
			}
		}},
	}
	// fastest is the minimum of five uncached DetailFull analyses. Each is
	// timed with the collector off, from a collected heap: a 4 KiB analysis
	// fits under the minimum heap goal and never meets a collection, while
	// a 64 KiB one allocates tens of MB and meets several, which would
	// charge the collector's pacing to the algorithm. Before each, the
	// engine analyzes another block, which keeps every timed run from
	// reusing a kept decode, descriptors or bound: the scratch's block was
	// last built from other bytes (and released, as every Analyze releases
	// it), so the timed block decodes afresh under new decode and
	// descriptor generations, which no result the scratch's Analysis kept
	// matches. Every timed run pays for its decode and every bound, the
	// precedence solve included.
	other := facile.Request{Code: []byte{0x48, 0x01, 0xd8}, Arch: "SKL"} // add rax, rbx
	fastest := func(code []byte, mode facile.Mode) time.Duration {
		e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: -1})
		req := facile.Request{Code: code, Arch: "SKL", Mode: mode, Detail: facile.DetailFull}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			runtime.GC()
			if _, err := e.Analyze(context.Background(), other); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if _, err := e.Analyze(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	for _, sh := range shapes {
		for _, mode := range []facile.Mode{facile.Unroll, facile.Loop} {
			ts := fastest(repeat(small, sh.unit), mode)
			tl := fastest(repeat(large, sh.unit), mode)
			grow := float64(tl) / float64(ts)
			t.Logf("%s, %v: %d KiB %v, %d KiB %v (%.1fx)", sh.name, mode, small>>10, ts, large>>10, tl, grow)
			if grow > maxGrow {
				t.Errorf("%s, %v: 16x larger block took %.1fx as long, want <= %.0fx", sh.name, mode, grow, maxGrow)
			}
		}
	}
}
