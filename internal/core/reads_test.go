package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/uarch"
)

// perturbed returns a copy of cfg whose field with the given index differs
// from cfg's: an integer one larger, a flag flipped, a string extended, a
// role table with one more port for the first role.
func perturbed(cfg *uarch.Config, field int) *uarch.Config {
	c := *cfg
	v := reflect.ValueOf(&c).Elem().Field(field)
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		c.RolePorts[0] ^= 1 << 7
	}
	return &c
}

// TestReadsComplete: a component bound reads no configuration field but
// the block's and those Reads lists for it, and the selection context no
// field but the block's and SelectionReads: for every field a build does
// not read (bb.Reads), a config that differs from SKL in that field alone
// gives every block every bound it does not list that field for, in both
// modes, and the same LSD eligibility unless SelectionReads lists it.
func TestReadsComplete(t *testing.T) {
	skl := uarch.MustByName("SKL")
	var blocks []*bb.Block
	for _, g := range bhive.GenerateBlocks(5, 60) {
		for _, code := range [][]byte{g.Code, g.LoopCode} {
			b, err := bb.Build(skl, code)
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
		}
	}
	a := NewAnalysis()
	typ := reflect.TypeFor[uarch.Config]()
	for f := 0; f < typ.NumField(); f++ {
		key, _, _ := strings.Cut(typ.Field(f).Tag.Get("json"), ",")
		if slices.Contains(bb.Reads, key) {
			continue
		}
		other := perturbed(skl, f)
		for _, block := range blocks {
			for _, mode := range []Mode{TPU, TPL} {
				for c := Component(0); c < NumComponents; c++ {
					if slices.Contains(Reads[c], key) {
						continue
					}
					block.Cfg = skl
					want := a.Bound(block, mode, c)
					block.Cfg = other
					if got := a.Bound(block, mode, c); got != want {
						t.Fatalf("%s bound reads %s, which Reads does not list: %v on SKL, %v on the perturbed copy (%s)",
							c, key, want, got, block)
					}
				}
			}
			if !slices.Contains(SelectionReads, key) {
				block.Cfg = skl
				want := LSDEligible(block)
				block.Cfg = other
				if got := LSDEligible(block); got != want {
					t.Fatalf("LSD eligibility reads %s, which SelectionReads does not list", key)
				}
			}
			block.Cfg = skl
		}
	}
}
