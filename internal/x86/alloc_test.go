//go:build !race

package x86_test

import (
	"testing"

	"facile/internal/bhive"
	"facile/internal/x86"
)

// TestAppendZeroAllocs: rendering an instruction's text and computing its
// effects into buffers with room allocate nothing. Excluded under the race
// detector, whose instrumentation skews allocation accounting.
func TestAppendZeroAllocs(t *testing.T) {
	text := make([]byte, 0, 128)
	regs := make([]x86.Reg, 0, x86.MaxEffectRegs)
	for _, b := range bhive.GenerateBlocks(1, disasmBlocks) {
		for _, code := range [][]byte{b.Code, b.LoopCode} {
			insts, err := x86.DecodeBlock(code)
			if err != nil {
				t.Fatalf("%s: %v", b.ID, err)
			}
			for k := range insts {
				in := &insts[k]
				if allocs := testing.AllocsPerRun(5, func() {
					text = in.AppendText(text[:0])
					_, regs = in.AppendEffects(regs[:0])
				}); allocs != 0 {
					t.Fatalf("%s: %s: AppendText and AppendEffects allocate %.0f/op", b.ID, in.String(), allocs)
				}
			}
		}
	}
}
