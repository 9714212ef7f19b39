//go:build !race

package bb

import (
	"testing"

	"facile/internal/asm"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// TestBuildAllocsFlat: Build carves every instruction's descriptor, µops and
// effect registers from per-block arrays, so the number of allocations it
// makes does not depend on the number of instructions. Excluded under the
// race detector, whose instrumentation skews allocation accounting.
func TestBuildAllocsFlat(t *testing.T) {
	body := []asm.Instr{
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.M(x86.RDI, 8)),
		asm.Mk(x86.IMUL, 64, asm.R(x86.RBX), asm.R(x86.RAX)),
		asm.Mk(x86.MOV, 64, asm.MX(x86.RSI, x86.RCX, 8, 16), asm.R(x86.RBX)),
		asm.Mk(x86.XOR, 32, asm.R(x86.RDX), asm.R(x86.RDX)),
		asm.Mk(x86.ADDPS, 128, asm.R(x86.X0), asm.R(x86.X1)),
		asm.Mk(x86.CMP, 64, asm.R(x86.RDX), asm.R(x86.RAX)),
		asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
	}
	cfg := uarch.MustByName("SKL")
	allocs := func(n int) float64 {
		var ins []asm.Instr
		for k := 0; k < n; k++ {
			ins = append(ins, body[k%len(body)])
		}
		code := asm.MustEncodeBlock(ins)
		return testing.AllocsPerRun(50, func() {
			b, err := Build(cfg, code)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Insts) != n {
				t.Fatalf("%d instructions built, want %d", len(b.Insts), n)
			}
		})
	}
	small, large := allocs(7), allocs(7*64)
	if small != large {
		t.Errorf("Build allocates %.1f/op for 7 instructions, %.1f/op for %d, want equal", small, large, 7*64)
	}
}

// TestBuildIntoWarmZeroAllocs: rebuilding into a Block that has held a block
// at least as large refills its arrays in place and allocates nothing,
// whether the blocks alternate or repeat.
func TestBuildIntoWarmZeroAllocs(t *testing.T) {
	cfg := uarch.MustByName("SKL")
	large := asm.MustEncodeBlock([]asm.Instr{
		asm.Mk(x86.ADD, 64, asm.M(x86.RDI, 8), asm.R(x86.RAX)),
		asm.Mk(x86.IMUL, 64, asm.R(x86.RBX), asm.R(x86.RAX)),
		asm.Mk(x86.MOV, 64, asm.MX(x86.RSI, x86.RCX, 8, 16), asm.R(x86.RBX)),
		asm.Mk(x86.XOR, 32, asm.R(x86.RDX), asm.R(x86.RDX)),
		asm.Mk(x86.ADDPS, 128, asm.R(x86.X0), asm.R(x86.X1)),
		asm.Mk(x86.CMP, 64, asm.R(x86.RDX), asm.R(x86.RAX)),
		asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
	})
	small := asm.MustEncodeBlock([]asm.Instr{
		asm.Mk(x86.IMUL, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
		asm.Mk(x86.DEC, 64, asm.R(x86.RCX)),
		asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
	})
	var b Block
	build := func(code []byte) {
		if err := BuildInto(&b, cfg, code); err != nil {
			t.Fatal(err)
		}
	}
	build(large)
	if allocs := testing.AllocsPerRun(100, func() { build(large); build(small) }); allocs != 0 {
		t.Errorf("warm BuildInto allocates %.1f per two blocks, want 0", allocs)
	}
}
