package sweep

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"facile"
)

func testEngine(t *testing.T) *facile.Engine {
	t.Helper()
	e, err := facile.NewEngine(facile.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testBlocks(t *testing.T, hexes ...string) [][]byte {
	t.Helper()
	out := make([][]byte, len(hexes))
	for i, h := range hexes {
		code, err := hex.DecodeString(strings.ReplaceAll(h, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = code
	}
	return out
}

// defaultBlocks is a small mixed workload: precedence-bound, port-bound,
// and issue-width-sensitive blocks, so sweeps have bottlenecks to shift.
func defaultBlocks(t *testing.T) [][]byte {
	return testBlocks(t,
		"480fafc3 48ffc9 75f7",          // imul chain: precedence-bound
		"480fafc3 480fafcb 480fafd3",    // three imuls: port-bound
		"4801d8 4829d8 4821d8 4809d8",   // four ALU ops: issue/ports
		"480307 4883c708 48ffc9 75f2",   // load+add loop
		"48ffc0 48ffc3 48ffc1 4883c202", // wide independent increments
	)
}

func mustRun(t *testing.T, g *Grid, blocks [][]byte, opts Options) *Result {
	t.Helper()
	res, err := Run(context.Background(), testEngine(t), g, Workload{Blocks: blocks, Mode: facile.Loop}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGridValidate covers the structural rejections ParseGrid promises.
func TestGridValidate(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // required substring of the error ("" = valid)
	}{
		{"valid", `{"base":"SKL","axes":[{"param":"issue_width","values":[4,6]}]}`, ""},
		{"no axes", `{"base":"SKL","axes":[]}`, ""},
		{"missing base", `{"axes":[]}`, `missing "base"`},
		{"unknown field", `{"base":"SKL","axis":[]}`, "invalid grid"},
		{"bad mode", `{"base":"SKL","mode":"sideways","axes":[]}`, "sideways"},
		{"identity param", `{"base":"SKL","axes":[{"param":"name","values":["X"]}]}`, "identity field"},
		{"repeated param", `{"base":"SKL","axes":[{"param":"rob_size","values":[1]},{"param":"rob_size","values":[2]}]}`, "repeats param"},
		{"no values", `{"base":"SKL","axes":[{"param":"rob_size","values":[]}]}`, "no values"},
		{"duplicate value", `{"base":"SKL","axes":[{"param":"rob_size","values":[224,224]}]}`, "twice"},
		{"duplicate number spelling", `{"base":"SKL","axes":[{"param":"issue_width","values":[4,4.0,4e0]}]}`, "lists value 4 twice (as 4.0)"},
		{"duplicate port list spelling", `{"base":"SKL","axes":[{"param":"role_ports.alu","values":[[0,1],[0,1e0]]}]}`, "twice"},
		{"duplicate role map order", `{"base":"SKL","axes":[{"param":"role_ports","values":[{"alu":[0],"branch":[6]},{"branch":[6],"alu":[0]}]}]}`, "twice"},
		{"distinct numbers", `{"base":"SKL","axes":[{"param":"issue_width","values":[4,4.5,40]}]}`, ""},
		{"label mismatch", `{"base":"SKL","axes":[{"param":"rob_size","values":[1,2],"labels":["a"]}]}`, "1 labels for 2 values"},
		{"label charset", `{"base":"SKL","axes":[{"param":"rob_size","values":[1],"labels":["a b"]}]}`, "illegal"},
		{"bare role prefix", `{"base":"SKL","axes":[{"param":"role_ports.","values":[[0]]}]}`, "names no role"},
		{"mixed role forms", `{"base":"SKL","axes":[{"param":"role_ports","values":[{}]},{"param":"role_ports.alu","values":[[0]]}]}`, "pick one form"},
		{"trailing data", `{"base":"SKL","axes":[]} {}`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGrid([]byte(tc.json))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestPlainValueKey: a value plainValue passes decodes and encodes back to
// its own spelling, so valueKey's shortcut keys it as the round trip does;
// the values it refuses are those that are spelled otherwise or might be.
func TestPlainValueKey(t *testing.T) {
	for _, c := range []struct {
		value string
		plain bool
	}{
		{"4", true}, {"-0", true}, {"[0,1,5,6]", true}, {"[]", true}, {"true", true},
		{"false", true}, {"null", true}, {"[true,null,[1,[-2]]]", true},
		{"123456789012345", true}, {"1234567890123456", false}, {"4.0", false},
		{"4e0", false}, {"1e21", false}, {`"x"`, false}, {`{"b":1,"a":2}`, false},
		{"100000000000000000001", false},
	} {
		var x any
		if err := json.Unmarshal([]byte(c.value), &x); err != nil {
			t.Fatal(err)
		}
		rt, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := plainValue(c.value); got != c.plain || got && string(rt) != c.value {
			t.Errorf("%s: plain %v, want %v; round trip %s", c.value, got, c.plain, rt)
		}
	}
}

// TestGridPointsExplosion: the cross product is bounded by MaxPoints even
// when the naive product overflows.
func TestGridPointsExplosion(t *testing.T) {
	g := &Grid{Base: "SKL"}
	vals := make([]json.RawMessage, 1<<8)
	for i := range vals {
		vals[i] = json.RawMessage(fmt.Sprintf("%d", i+1))
	}
	for _, p := range []string{"rob_size", "sched_size", "idq_size"} {
		g.Axes = append(g.Axes, Axis{Param: p, Values: vals})
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("24-bit grid validated: %v", err)
	}
}

// TestEmptyGridIsBasePoint: a grid with no axes enumerates exactly one
// point — the base itself — and its frontier row is a 1.0x self-comparison.
func TestEmptyGridIsBasePoint(t *testing.T) {
	g := &Grid{Base: "SKL"}
	pts, err := g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Name != "SKL~base" || pts[0].Overlay != nil {
		t.Fatalf("points = %+v", pts)
	}
	res := mustRun(t, g, defaultBlocks(t), Options{})
	if res.Points != 1 || len(res.Variants) != 1 {
		t.Fatalf("points %d, variants %d", res.Points, len(res.Variants))
	}
	v := res.Variants[0]
	if v.Rank != 1 || v.GeomeanSpeedup != 1 {
		t.Fatalf("base self-comparison row: %+v", v)
	}
	for _, s := range v.Shifts {
		if s.DeltaPP != 0 {
			t.Errorf("base vs base shifted %s by %+.2fpp", s.Component, s.DeltaPP)
		}
	}
}

// TestSinglePointGrid: one axis with one value is a single-variant sweep.
func TestSinglePointGrid(t *testing.T) {
	g := &Grid{Base: "SKL", Axes: []Axis{
		{Param: "issue_width", Values: []json.RawMessage{json.RawMessage("6")}},
	}}
	if g.Points() != 1 {
		t.Fatalf("points = %d", g.Points())
	}
	res := mustRun(t, g, defaultBlocks(t), Options{})
	if len(res.Variants) != 1 || len(res.Failed) != 0 {
		t.Fatalf("variants %d, failed %d", len(res.Variants), len(res.Failed))
	}
	v := res.Variants[0]
	if v.Name != "SKL~issue_width=6" {
		t.Errorf("variant name %q", v.Name)
	}
	if v.GeomeanSpeedup < 1 {
		t.Errorf("widening issue made SKL slower: %vx", v.GeomeanSpeedup)
	}
	if string(v.Overlay) != `{"issue_width":6}` {
		t.Errorf("overlay %s", v.Overlay)
	}
}

// TestOneValueAxes: axes of size one multiply into a single combined point
// rather than inflating the grid.
func TestOneValueAxes(t *testing.T) {
	g := &Grid{Base: "SKL", Axes: []Axis{
		{Param: "issue_width", Values: []json.RawMessage{json.RawMessage("6")}},
		{Param: "lsd_enabled", Values: []json.RawMessage{json.RawMessage("true")}},
	}}
	pts, err := g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	if pts[0].Name != "SKL~issue_width=6~lsd_enabled=true" {
		t.Errorf("name %q", pts[0].Name)
	}
	if string(pts[0].Overlay) != `{"issue_width":6,"lsd_enabled":true}` {
		t.Errorf("overlay %s", pts[0].Overlay)
	}
}

// TestEnumerateOrderAndRolePorts: the cross product enumerates with the
// last axis fastest, and dotted role params fold into one "role_ports"
// object.
func TestEnumerateOrderAndRolePorts(t *testing.T) {
	g := &Grid{Base: "SKL", Axes: []Axis{
		{Param: "issue_width", Values: []json.RawMessage{json.RawMessage("4"), json.RawMessage("6")}},
		{Param: "role_ports.alu", Values: []json.RawMessage{json.RawMessage("[0,1]"), json.RawMessage("[0,1,5]")}},
	}}
	pts, err := g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{
		"SKL~issue_width=4~role_ports.alu=[0.1]",
		"SKL~issue_width=4~role_ports.alu=[0.1.5]",
		"SKL~issue_width=6~role_ports.alu=[0.1]",
		"SKL~issue_width=6~role_ports.alu=[0.1.5]",
	}
	if len(pts) != len(wantNames) {
		t.Fatalf("points = %d", len(pts))
	}
	for i, want := range wantNames {
		if pts[i].Name != want {
			t.Errorf("point %d name %q, want %q", i, pts[i].Name, want)
		}
	}
	if string(pts[0].Overlay) != `{"issue_width":4,"role_ports":{"alu":[0,1]}}` {
		t.Errorf("overlay %s", pts[0].Overlay)
	}
}

// TestWorkerCountInvariance: the acceptance property — a 100-variant sweep
// over a real workload produces byte-identical JSON and text reports at
// every worker count.
func TestWorkerCountInvariance(t *testing.T) {
	vals := make([]json.RawMessage, 25)
	for i := range vals {
		vals[i] = json.RawMessage(fmt.Sprintf("%d", 64+8*i))
	}
	g := &Grid{Base: "SKL", Axes: []Axis{
		{Param: "rob_size", Values: vals},
		{Param: "issue_width", Values: []json.RawMessage{
			json.RawMessage("2"), json.RawMessage("3"),
			json.RawMessage("4"), json.RawMessage("6"),
		}},
	}}
	if g.Points() != 100 {
		t.Fatalf("grid is %d points, want 100", g.Points())
	}
	blocks := defaultBlocks(t)
	var wantJSON, wantText string
	for _, workers := range []int{1, 2, 7, 32} {
		res := mustRun(t, g, blocks, Options{Workers: workers})
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		text := res.Text(10)
		if wantJSON == "" {
			wantJSON, wantText = string(data), text
			continue
		}
		if string(data) != wantJSON {
			t.Errorf("workers=%d: JSON report differs from workers=1", workers)
		}
		if text != wantText {
			t.Errorf("workers=%d: text report differs from workers=1", workers)
		}
	}
}

// TestTieBreakStability: variants with identical geomean speedups rank by
// name ascending, so equal design points have a stable, documented order.
func TestTieBreakStability(t *testing.T) {
	// rob_size far above any demand of the tiny workload: every variant
	// predicts exactly like the base, so all speedups tie at 1.0.
	g := &Grid{Base: "SKL", Axes: []Axis{
		{Param: "rob_size", Values: []json.RawMessage{
			json.RawMessage("500"), json.RawMessage("400"),
			json.RawMessage("600"), json.RawMessage("450"),
		}},
	}}
	res := mustRun(t, g, testBlocks(t, "4801d8"), Options{Workers: 4})
	if len(res.Variants) != 4 {
		t.Fatalf("variants = %d", len(res.Variants))
	}
	want := []string{
		"SKL~rob_size=400", "SKL~rob_size=450",
		"SKL~rob_size=500", "SKL~rob_size=600",
	}
	for i, v := range res.Variants {
		if v.GeomeanSpeedup != 1 {
			t.Fatalf("variant %s speedup %v, want exactly 1 (tie)", v.Name, v.GeomeanSpeedup)
		}
		if v.Name != want[i] || v.Rank != i+1 {
			t.Errorf("rank %d: %s, want %s", v.Rank, v.Name, want[i])
		}
	}
}

// TestFailedPointsDoNotFailRun: a grid mixing valid and spec-invalid values
// reports the invalid points in Failed and ranks the rest.
func TestFailedPointsDoNotFailRun(t *testing.T) {
	g := &Grid{Base: "SKL", Axes: []Axis{
		{Param: "issue_width", Values: []json.RawMessage{
			json.RawMessage("4"), json.RawMessage("0"), json.RawMessage("-3"),
		}},
	}}
	res := mustRun(t, g, defaultBlocks(t), Options{})
	if len(res.Variants) != 1 || len(res.Failed) != 2 {
		t.Fatalf("variants %d, failed %d", len(res.Variants), len(res.Failed))
	}
	if res.Variants[0].Name != "SKL~issue_width=4" {
		t.Errorf("surviving variant %q", res.Variants[0].Name)
	}
	// Failed points sort by name and carry the validator's message.
	if res.Failed[0].Name != "SKL~issue_width=-3" || res.Failed[1].Name != "SKL~issue_width=0" {
		t.Errorf("failed order: %q, %q", res.Failed[0].Name, res.Failed[1].Name)
	}
	for _, f := range res.Failed {
		if f.Error == "" {
			t.Errorf("failed point %s has no error", f.Name)
		}
	}
}

// TestRunRejects covers the run-level boundary errors.
func TestRunRejects(t *testing.T) {
	e := testEngine(t)
	blocks := testBlocks(t, "4801d8")
	g := &Grid{Base: "SKL"}
	if _, err := Run(context.Background(), nil, g, Workload{Blocks: blocks, Mode: facile.Loop}, Options{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := Run(context.Background(), e, g, Workload{Mode: facile.Loop}, Options{}); err == nil {
		t.Error("empty workload accepted")
	}
	bad := &Grid{Base: "NOPE"}
	if _, err := Run(context.Background(), e, bad, Workload{Blocks: blocks, Mode: facile.Loop}, Options{}); err == nil {
		t.Error("unknown base accepted")
	}
	undecodable := Workload{Blocks: [][]byte{{0xff}}, Mode: facile.Loop}
	if _, err := Run(context.Background(), e, g, undecodable, Options{}); err == nil {
		t.Error("undecodable base workload accepted")
	}
}

// TestCancellationNoGoroutineLeak: cancelling mid-sweep returns ctx's error
// promptly and leaves no worker goroutines behind.
func TestCancellationNoGoroutineLeak(t *testing.T) {
	vals := make([]json.RawMessage, 400)
	for i := range vals {
		vals[i] = json.RawMessage(fmt.Sprintf("%d", 64+i))
	}
	g := &Grid{Base: "SKL", Axes: []Axis{{Param: "rob_size", Values: vals}}}
	blocks := defaultBlocks(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, testEngine(t), g, Workload{Blocks: blocks, Mode: facile.Loop}, Options{Workers: 4})
		done <- err
	}()
	cancel() // races the sweep start deliberately; either way Run must fail with ctx.Err()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Run did not return")
	}

	// Workers exit on cancellation; allow the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReportText pins the report surface: frontier truncation, base rates,
// and the failed-points section.
func TestReportText(t *testing.T) {
	g := &Grid{Base: "SKL", Axes: []Axis{
		{Param: "issue_width", Values: []json.RawMessage{
			json.RawMessage("2"), json.RawMessage("6"), json.RawMessage("0"),
		}},
	}}
	res := mustRun(t, g, defaultBlocks(t), Options{})
	text := res.Text(1)
	if !strings.Contains(text, "Design-space sweep — base SKL, TPL (loop), 5 blocks, 3 points") {
		t.Errorf("missing header:\n%s", text)
	}
	if !strings.Contains(text, "frontier (1 of 2 variants):") {
		t.Errorf("missing truncated frontier header:\n%s", text)
	}
	if !strings.Contains(text, "failed points (1):") {
		t.Errorf("missing failed section:\n%s", text)
	}
	if strings.Count(text, "shifts:") != 1 {
		t.Errorf("want exactly one frontier row:\n%s", text)
	}
	full := res.Text(0)
	if strings.Count(full, "shifts:") != 2 {
		t.Errorf("top<=0 must print all rows:\n%s", full)
	}
}
