package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one (layer, replay pass): the exported calls of one layer,
// replayed over a workload's recorded inputs and timed from outside as a
// pass. Passes run one after another, not nested in time; Parent names the
// layer whose calls contain this layer's, which is what self time is
// computed against.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a top-level layer
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_unix_ns"`
	End      int64  `json:"end_unix_ns"`
	// BusyNS is the time the layer was busy: the pass's duration for a
	// serial pass, the sum of timed chunks for a chunked one, and the sum
	// of per-call latencies for a concurrent one.
	BusyNS int64 `json:"busy_ns"`
	Calls  int64 `json:"calls"`
	// Nested is how many of this layer's calls the parent's pass contains;
	// the parent's self time subtracts Nested × the per-call cost.
	Nested int64 `json:"nested"`
	Errors int64 `json:"errors"`
}

// perCallNS is the layer's busy time per call.
func (s *span) perCallNS() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.BusyNS) / float64(s.Calls)
}

// recorder keeps a workload's spans in memory until the benchmark ends.
type recorder struct {
	workload string
	spans    []*span
}

// open starts a span under parent (nil for a top-level layer).
func (r *recorder) open(name string, parent *span) *span {
	s := &span{ID: len(r.spans) + 1, Name: name, Workload: r.workload, Start: time.Now().UnixNano(), Nested: -1}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.spans = append(r.spans, s)
	return s
}

// timed runs fn as one chunk of the span's pass and adds its duration and
// call count.
func (s *span) timed(calls int64, fn func()) {
	t0 := time.Now()
	fn()
	s.BusyNS += time.Since(t0).Nanoseconds()
	s.Calls += calls
}

// replayReps is how many times timedMedian runs a chunk.
const replayReps = 3

// timedMedian runs fn replayReps times as one chunk of the span's pass and
// adds the median duration. It suits layers without state between calls:
// a garbage collection or a burst of machine noise during one run of a
// chunk of a few milliseconds does not move the pass.
func (s *span) timedMedian(calls int64, fn func()) {
	var ds [replayReps]int64
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0).Nanoseconds()
	}
	slices.Sort(ds[:])
	s.BusyNS += ds[replayReps/2]
	s.Calls += calls
}

// close ends the span. A span that recorded no busy time was a serial pass:
// it was busy for its whole duration. Nested defaults to every call.
func (s *span) close() {
	s.End = time.Now().UnixNano()
	if s.BusyNS == 0 {
		s.BusyNS = s.End - s.Start
	}
	if s.Nested < 0 {
		s.Nested = s.Calls
	}
}

// get returns the span named name, or nil.
func (r *recorder) get(name string) *span {
	for _, s := range r.spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// selfNS returns a span's self time: its busy time minus the busy time of
// the child calls its pass contains.
func (r *recorder) selfNS(p *span) float64 {
	self := float64(p.BusyNS)
	for _, c := range r.spans {
		if c.Parent == p.ID {
			self -= c.perCallNS() * float64(c.Nested)
		}
	}
	return self
}

// negativeSelf lists every span whose self time is negative by more than
// tolerance of its own busy time: its children's replays cost more than
// the parent's pass, so the attribution below it is not trustworthy.
func (r *recorder) negativeSelf(tolerance float64) []string {
	var out []string
	for _, p := range r.spans {
		if self := r.selfNS(p); self < -tolerance*float64(p.BusyNS) {
			out = append(out, fmt.Sprintf("%s: self time %.0f ns is below -%.0f%% of its busy time %d ns",
				p.Name, self, 100*tolerance, p.BusyNS))
		}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
