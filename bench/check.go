package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"facile"
)

// outcome is the part of a prediction every check compares: the predicted
// cycles per iteration and the bottleneck list, as served.
type outcome struct {
	cycles      float64
	bottlenecks string // comma-joined, front-end first
}

func outcomeOf(a *facile.Analysis) outcome {
	return outcome{a.Prediction.CyclesPerIteration, strings.Join(a.Prediction.Bottlenecks, ",")}
}

// checkInvariant verifies the model's defining property on one analysis:
// the prediction is the maximum of the bounds the mode considers (for loop
// mode the selected front end plus the back end), and every bound flagged
// as a bottleneck attains that maximum.
func checkInvariant(a *facile.Analysis) error {
	p := &a.Prediction
	considered := func(c string) bool {
		if p.Mode == facile.Unroll {
			return true
		}
		switch c {
		case p.FrontEndSource, "Issue", "Ports", "Precedence":
			return true
		}
		return false
	}
	top := math.Inf(-1)
	for _, b := range a.Bounds {
		if considered(b.Component) {
			top = math.Max(top, b.Cycles)
		}
	}
	if got := math.Round(top*100) / 100; got != p.CyclesPerIteration {
		return fmt.Errorf("prediction %g is not the max of its considered bounds (%g)", p.CyclesPerIteration, got)
	}
	// Walked without allocating: the cold stream checks every prediction.
	flagged := 0
	for _, b := range a.Bounds {
		if !b.Bottleneck {
			continue
		}
		if b.Cycles < top-1e-9 {
			return fmt.Errorf("bottleneck %s at %g cycles is below the maximum %g", b.Component, b.Cycles, top)
		}
		if flagged >= len(p.Bottlenecks) || p.Bottlenecks[flagged] != b.Component {
			return fmt.Errorf("bottleneck list %v does not match the flagged bounds %v", p.Bottlenecks, a.Bounds)
		}
		flagged++
	}
	if flagged == 0 || flagged != len(p.Bottlenecks) {
		return fmt.Errorf("bottleneck list %v does not match the flagged bounds %v", p.Bottlenecks, a.Bounds)
	}
	return nil
}

// reference answers ops with an uncached engine, the oracle every served
// prediction is compared against. Answers are memoized by op key, so the
// repeated draws of a working set cost one analysis each. It is used from
// one goroutine.
type reference struct {
	eng  *facile.Engine
	memo map[string]outcome
}

func newReference() (*reference, error) {
	eng, err := facile.NewEngine(facile.EngineConfig{CacheSize: -1})
	if err != nil {
		return nil, err
	}
	return &reference{eng: eng, memo: make(map[string]outcome)}, nil
}

// expect returns the reference outcome of o, checking the model invariant
// on the reference analysis as well.
func (r *reference) expect(o *op) (outcome, error) {
	k := o.key()
	if out, ok := r.memo[k]; ok {
		return out, nil
	}
	a, err := r.eng.Analyze(bgCtx, o.request(facile.DetailPrediction))
	if err != nil {
		return outcome{}, fmt.Errorf("reference analysis: %w", err)
	}
	if err := checkInvariant(a); err != nil {
		return outcome{}, fmt.Errorf("reference analysis: %w", err)
	}
	out := outcomeOf(a)
	r.memo[k] = out
	return out, nil
}

var (
	keyCycles      = []byte(`"cycles_per_iteration"`)
	keyBottlenecks = []byte(`"bottlenecks"`)
	keyError       = []byte(`"error"`)
)

// scanOutcome reads the next prediction's cycles and bottleneck list out of
// a JSON response body, starting at offset from, and returns the offset
// after it. It reads only the two fields the checks compare, so the load
// generator spends microseconds, not a full decode, per response; the
// server's field order (cycles before bottlenecks within a prediction) is
// the only layout it relies on.
func scanOutcome(body []byte, from int) (outcome, int, error) {
	var out outcome
	i := bytes.Index(body[from:], keyCycles)
	if i < 0 {
		return out, 0, fmt.Errorf("response has no %s after offset %d", keyCycles, from)
	}
	pos := skipColon(body, from+i+len(keyCycles))
	end := pos
	for end < len(body) && strings.IndexByte("+-.0123456789eE", body[end]) >= 0 {
		end++
	}
	v, err := strconv.ParseFloat(string(body[pos:end]), 64)
	if err != nil {
		return out, 0, fmt.Errorf("cycles_per_iteration: %w", err)
	}
	out.cycles = v
	i = bytes.Index(body[end:], keyBottlenecks)
	if i < 0 {
		return out, 0, fmt.Errorf("response has no %s after offset %d", keyBottlenecks, end)
	}
	pos = skipColon(body, end+i+len(keyBottlenecks))
	if bytes.HasPrefix(body[pos:], []byte("null")) {
		return out, pos + 4, nil
	}
	if pos >= len(body) || body[pos] != '[' {
		return out, 0, fmt.Errorf("bottlenecks is not an array")
	}
	close := bytes.IndexByte(body[pos:], ']')
	if close < 0 {
		return out, 0, fmt.Errorf("unterminated bottlenecks array")
	}
	var names []string
	for _, f := range bytes.Split(body[pos+1:pos+close], []byte(",")) {
		if f = bytes.TrimSpace(f); len(f) > 0 {
			names = append(names, string(bytes.Trim(f, `"`)))
		}
	}
	out.bottlenecks = strings.Join(names, ",")
	return out, pos + close + 1, nil
}

func skipColon(body []byte, pos int) int {
	for pos < len(body) && (body[pos] == ' ' || body[pos] == ':' || body[pos] == '\n' || body[pos] == '\t' || body[pos] == '\r') {
		pos++
	}
	return pos
}

// scanBatch reads n predictions, in order, out of a /v1/predict/batch
// response body. Any per-item error fails the whole response.
func scanBatch(body []byte, n int) ([]outcome, error) {
	if bytes.Contains(body, keyError) {
		return nil, fmt.Errorf("batch response carries an item error")
	}
	out := make([]outcome, n)
	pos := 0
	for i := range out {
		var err error
		if out[i], pos, err = scanOutcome(body, pos); err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
	}
	return out, nil
}

// digest accumulates a workload's output digest: one line per checked
// prediction, in a deterministic order, so the digest at a given seed and
// size is a property of the model, not of scheduling.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(o *op, out outcome) {
	fmt.Fprintf(d.h, "%s %s %x %g %s\n", o.arch, o.modeName(), o.code, out.cycles, out.bottlenecks)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// goldenPath names the committed digest of a workload at seed 1; smoke-sized
// runs have their own.
func goldenPath(root, workload string, smoke bool) string {
	name := workload
	if smoke {
		name += ".smoke"
	}
	return filepath.Join(root, "bench", "testdata", "golden", name+".sha256")
}

// checkGolden compares sum with the committed digest, or rewrites it when
// update is set.
func checkGolden(root, workload string, smoke, update bool, sum string) error {
	path := goldenPath(root, workload, smoke)
	if update {
		if err := os.WriteFile(path, []byte(sum+"\n"), 0o644); err != nil {
			return fmt.Errorf("update golden: %w", err)
		}
		return nil
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden digest: %w (regenerate with -update-golden)", err)
	}
	if w := strings.TrimSpace(string(want)); w != sum {
		return fmt.Errorf("%s output digest %s does not match the golden %s", workload, sum, w)
	}
	return nil
}
