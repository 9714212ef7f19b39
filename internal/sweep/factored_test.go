package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"facile"
	"facile/internal/asm"
	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/core"
	"facile/internal/kernel"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// unreadFields are the uarch.Config fields no component bound, no
// selection and no build reads, each with the reason.
var unreadFields = map[string]string{
	"name":         "identity: names the microarchitecture",
	"full_name":    "identity: names the microarchitecture",
	"cpu":          "identity: the evaluation CPU of the paper's Table 1",
	"released":     "identity: the release year",
	"iq_size":      "the predecoder model counts instructions per cycle, not queue entries",
	"retire_width": "retirement is not one of Facile's bounds",
	"rob_size":     "Facile models no reorder-buffer limit",
	"sched_size":   "Facile models no scheduler limit",
	"num_ports":    "ports enter through the role table's masks; the count only bounds them in Validate",
}

// TestFieldsMapToBounds: every field of uarch.Config, walked by
// reflection, is read by a build (bb.Reads), by a component bound
// (core.Reads), by eq. 3's selection (core.SelectionReads), or is listed as
// read by none with a reason — never both. A new field must be placed, or
// a sweep would share a bound across points that differ in it. Every
// listed key names a field.
func TestFieldsMapToBounds(t *testing.T) {
	keys := specKeys()
	read := map[string][]string{}
	for _, k := range bb.Reads {
		read[k] = append(read[k], "build")
	}
	for c := core.Component(0); c < core.NumComponents; c++ {
		for _, k := range core.Reads[c] {
			read[k] = append(read[k], c.String())
		}
	}
	for _, k := range core.SelectionReads {
		read[k] = append(read[k], "selection")
	}
	for _, key := range keys {
		readers, why := read[key], unreadFields[key]
		switch {
		case len(readers) == 0 && why == "":
			t.Errorf("uarch.Config field %q is read by no bound and not listed as unread", key)
		case len(readers) > 0 && why != "":
			t.Errorf("uarch.Config field %q is read by %v and listed as unread (%s)", key, readers, why)
		}
	}
	for key := range read {
		if !slices.Contains(keys, key) {
			t.Errorf("reads list %q, which is no uarch.Config field", key)
		}
	}
	for key := range unreadFields {
		if !slices.Contains(keys, key) {
			t.Errorf("unreadFields lists %q, which is no uarch.Config field", key)
		}
	}
}

// specKeys walks uarch.Config by reflection and returns each field's spec
// key, in field order.
func specKeys() []string {
	typ := reflect.TypeFor[uarch.Config]()
	keys := make([]string, typ.NumField())
	for i := range keys {
		keys[i], _, _ = strings.Cut(typ.Field(i).Tag.Get("json"), ",")
	}
	return keys
}

// axisValues are values a random grid sweeps each spec field over, some of
// which Config.Validate rejects or the decoder fails on.
var axisValues = map[string][]string{
	"gen":                     {`"SNB"`, `"HSW"`, `"SKL"`, `"ICL"`},
	"predec_width":            {"3", "4", "5", "6"},
	"num_decoders":            {"1", "2", "4", "5"},
	"iq_size":                 {"20", "50"},
	"dsb_width":               {"3", "4", "6", "8"},
	"idq_size":                {"8", "28", "64", "70"},
	"lsd_enabled":             {"true", "false"},
	"lsd_unroll_target":       {"0", "8", "32"},
	"jcc_erratum":             {"true", "false"},
	"issue_width":             {"0", "2", "3", "4", "6"},
	"retire_width":            {"4", "8"},
	"rob_size":                {"97", "224"},
	"sched_size":              {"60", "97"},
	"num_ports":               {"8", "10"},
	"macro_fusion":            {"true", "false"},
	"fusible_on_last_decoder": {"true", "false"},
	"fuse_with_mem":           {"true", "false"},
	"move_elim_gpr":           {"true", "false"},
	"move_elim_vec":           {"true", "false"},
	"unlaminate_indexed":      {"true", "false"},
	"load_latency":            {"0", "4", "5", "9", `"x"`},
	"fp_add_latency":          {"3", "4"},
	"fp_mul_latency":          {"4", "5"},
	"fma_latency":             {"0", "4", "5"},
	"role_ports.alu":          {"[0,1]", "[0,1,5,6]", "[0,1,5]"},
	"role_ports.load":         {"[2,3]", "[2]"},
	"role_ports.fma":          {"[]", "[0,1]", "[0]"},
	"role_ports.fpadd":        {"[0,1]", "[1]", "[5]"},
	"role_ports.branch":       {"[6]", "[0,6]"},
}

// randomGrid returns a grid over SKL of one to four axes whose params come
// from the spec's field table, each with one to three distinct values, and
// sometimes the two axes that remove the FMA units besides.
func randomGrid(rng *rand.Rand) *Grid {
	var params []string
	for _, key := range specKeys() {
		if _, ok := axisValues[key]; ok {
			params = append(params, key)
		}
	}
	for p := range axisValues {
		if strings.HasPrefix(p, "role_ports.") {
			params = append(params, p)
		}
	}
	slices.Sort(params)
	g := &Grid{Base: "SKL"}
	for _, i := range rng.Perm(len(params))[:1+rng.Intn(4)] {
		vals := axisValues[params[i]]
		ax := Axis{Param: params[i]}
		for _, j := range rng.Perm(len(vals))[:1+rng.Intn(min(3, len(vals)))] {
			ax.Values = append(ax.Values, json.RawMessage(vals[j]))
		}
		g.Axes = append(g.Axes, ax)
	}
	// Removing the FMA units takes both fields: some grids sweep the pair,
	// so points fail on the FMA block.
	if rng.Intn(3) == 0 && !slices.ContainsFunc(g.Axes, func(ax Axis) bool { return strings.Contains(ax.Param, "fma") }) {
		g.Axes = append(g.Axes,
			Axis{Param: "fma_latency", Values: []json.RawMessage{json.RawMessage("0"), json.RawMessage("4")}},
			Axis{Param: "role_ports.fma", Values: []json.RawMessage{json.RawMessage("[]"), json.RawMessage("[0,1]")}})
	}
	return g
}

// propertyBlocks are blocks that bring out each kind of entry: generated
// ones, FMA blocks that fail where the fma role has no ports, a loop whose
// jump ends on a 32-byte boundary (the JCC erratum), and an indexed load
// that unlaminates.
func propertyBlocks(seed int64, loop bool) [][]byte {
	var blocks [][]byte
	for _, g := range bhive.GenerateBlocks(seed, 10) {
		if loop {
			blocks = append(blocks, g.LoopCode)
		} else {
			blocks = append(blocks, g.Code)
		}
	}
	jcc := append(make([]byte, 0, 32), 0x48, 0x01, 0xd8)
	for len(jcc) < 30 {
		jcc = append(jcc, 0x90)
	}
	return append(blocks,
		asm.MustEncodeBlock([]asm.Instr{
			asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.MX(x86.RDI, x86.RCX, 8, 0)),
			asm.Mk(x86.VFMADD231PS, 128, asm.R(x86.X0), asm.R(x86.X1), asm.R(x86.X2)),
			asm.Mk(x86.DEC, 64, asm.R(x86.RCX)),
			asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
		}),
		append(jcc, 0x75, 0xe0),
	)
}

// TestFactoredMatchesVariantBatch is the equivalence property of the
// factored evaluation: over random grids whose axes come from the spec's
// field table, in both modes, every (point, block) pair's prediction,
// bottlenecks and error equal those of AnalyzeVariantBatchN on the point's
// variant, derived by DeriveVariant from the point's overlay, and every
// point's fold — log-speedup sum bit for bit, bottleneck counts, first
// error, pairs evaluated — equals the block-order fold of those analyses.
func TestFactoredMatchesVariantBatch(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	comps := facile.ComponentNames()
	kinds := map[string]int{}
	for trial := 0; trial < 150; trial++ {
		grid := randomGrid(rng)
		if err := grid.Validate(); err != nil {
			t.Fatal(err)
		}
		mode := facile.Mode(trial % 2)
		wl := Workload{Blocks: propertyBlocks(int64(trial), mode == facile.Loop), Mode: mode}
		eng, err := facile.NewEngine(facile.EngineConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		bases, err := basePass(ctx, eng, grid.Base, wl, 0)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := evaluate(ctx, eng, grid, wl, bases, 1+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		if pl.live > 0 && pl.group < len(wl.Blocks) {
			t.Fatalf("the tables of %d blocks span %d groups", len(wl.Blocks), pl.group)
		}
		sc := new(kernel.Scratch)
		reg := eng.Registry()
		for p := range pl.pts {
			f := &pl.pts[p]
			what := fmt.Sprintf("trial %d (%v), point %s", trial, mode, f.name)
			v, err := reg.DeriveVariant(f.name, grid.Base, pl.d.overlay(p))
			if err != nil || f.err != nil && f.pairs == 0 {
				if err == nil || f.err == nil || f.err.Error() != err.Error() {
					t.Fatalf("%s: derivation error %v, DeriveVariant %v", what, f.err, err)
				}
				kinds["invalid"]++
				continue
			}
			var want pointFold
			for i, r := range eng.AnalyzeVariantBatchN(ctx, v, requests(wl), 1) {
				tp, bn, err := pl.pair(sc, p, i, i)
				switch {
				case (err == nil) != (r.Err == nil) || err != nil && err.Error() != r.Err.Error():
					t.Fatalf("%s, block %d: error %v, analysis %v", what, i, err, r.Err)
				case err != nil:
				case tp != r.Analysis.Prediction.CyclesPerIteration:
					t.Fatalf("%s, block %d: %v cycles, analysis %v", what, i, tp, r.Analysis.Prediction.CyclesPerIteration)
				default:
					var b baseBlock
					b.scan(r.Analysis, comps)
					if uint32(bn) != b.bn {
						t.Fatalf("%s, block %d: bottlenecks %b, analysis %b", what, i, bn, b.bn)
					}
				}
				if want.err != nil {
					continue
				}
				want.pairs++
				if want.err = r.Err; r.Err == nil {
					want.logSum += math.Log(bases[i].tp / r.Analysis.Prediction.CyclesPerIteration)
					var b baseBlock
					b.scan(r.Analysis, comps)
					countBottlenecks(&want.bn, b.bn)
				}
			}
			if (f.err == nil) != (want.err == nil) || f.err != nil && f.err.Error() != want.err.Error() {
				t.Fatalf("%s: fold error %v, analyses %v", what, f.err, want.err)
			}
			if f.logSum != want.logSum || f.bn != want.bn || f.pairs != want.pairs {
				t.Fatalf("%s: fold %v %v over %d pairs, analyses %v %v over %d", what, f.logSum, f.bn, f.pairs, want.logSum, want.bn, want.pairs)
			}
			if f.err != nil {
				kinds["failed on a block"]++
			} else {
				kinds["valid"]++
			}
		}
	}
	t.Logf("points: %v", kinds)
	if len(kinds) != 3 {
		t.Fatalf("the random grids gave only %v", kinds)
	}
}

// requests are the workload's blocks as requests in its mode.
func requests(wl Workload) []facile.Request {
	reqs := make([]facile.Request, len(wl.Blocks))
	for i, code := range wl.Blocks {
		reqs[i] = facile.Request{Code: code, Mode: wl.Mode}
	}
	return reqs
}

// TestDeriveMatchesDeriveVariant: Derive, the typed derivation speclint
// lints grids with, derives every point of a grid with failing points as
// DeriveVariant derives its overlay.
func TestDeriveMatchesDeriveVariant(t *testing.T) {
	grid, err := ParseGrid([]byte(`{"base":"SKL","axes":[
		{"param":"issue_width","values":[0,4]},
		{"param":"lsd_enabled","values":[true,1]},
		{"param":"fma_latency","values":[0,4]},
		{"param":"role_ports.fma","values":[[],[0,1]]}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := grid.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	reg := facile.NewArchRegistry()
	n := 0
	Derive(grid, uarch.MustByName("SKL"), func(p int, name string, err error) {
		n++
		_, want := reg.DeriveVariant(pts[p].Name, grid.Base, pts[p].Overlay)
		if name != pts[p].Name || !reflect.DeepEqual(fmt.Sprint(err), fmt.Sprint(want)) {
			t.Errorf("point %d: %s, %v; DeriveVariant of %s: %v", p, name, err, pts[p].Name, want)
		}
	})
	if n != len(pts) {
		t.Fatalf("Derive yielded %d points, Enumerate %d", n, len(pts))
	}
}
