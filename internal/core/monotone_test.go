package core

import (
	"fmt"
	"testing"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/uarch"
)

// TestWideningNeverRaisesItsBound: widening a front-end or issue resource
// in a design point never raises the bound of the component it feeds —
// issue_width the Issue bound, dsb_width the DSB bound, num_decoders the
// Dec bound and predec_width the Predec bound — on generated bhive corpora,
// on every built-in arch, in both modes.
func TestWideningNeverRaisesItsBound(t *testing.T) {
	type axis struct {
		param  string
		widths []int
		bound  func(*bb.Block, Mode) float64
	}
	axes := []axis{
		{"issue_width", []int{2, 3, 4, 5, 6, 8}, func(b *bb.Block, _ Mode) float64 { return IssueBound(b) }},
		{"dsb_width", []int{2, 4, 6, 8}, func(b *bb.Block, _ Mode) float64 { return DSBBound(b) }},
		{"num_decoders", []int{1, 2, 3, 4, 5}, func(b *bb.Block, _ Mode) float64 { return DecBound(b) }},
		{"predec_width", []int{3, 4, 5, 6}, PredecBound},
	}
	blocks := bhive.GenerateBlocks(3, 120)
	if testing.Short() {
		blocks = blocks[:30]
	}
	reg := uarch.Default()
	checked := 0
	for _, arch := range reg.Names() {
		for _, ax := range axes {
			var cfgs []*uarch.Config
			for _, w := range ax.widths {
				name := fmt.Sprintf("%s~%s=%d", arch, ax.param, w)
				cfg, err := reg.DeriveConfig(name, arch, fmt.Appendf(nil, `{%q:%d}`, ax.param, w))
				if err != nil {
					continue // a width the spec validator rejects for this arch
				}
				cfgs = append(cfgs, cfg)
			}
			if len(cfgs) < 2 {
				t.Fatalf("%s: fewer than two valid %s values", arch, ax.param)
			}
			for i, g := range blocks {
				for _, mode := range []Mode{TPU, TPL} {
					code := g.Code
					if mode == TPL {
						code = g.LoopCode
					}
					prev, prevName := 0.0, ""
					for k, cfg := range cfgs {
						block, err := bb.Build(cfg, code)
						if err != nil {
							break // the block uses an instruction this arch lacks
						}
						v := ax.bound(block, mode)
						if k > 0 && v > prev+1e-9 {
							t.Errorf("block %d (%s), %v: %s bound rises from %g on %s to %g on %s",
								i, g.Category, mode, ax.param, prev, prevName, v, cfg.Name)
						}
						prev, prevName = v, cfg.Name
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}
