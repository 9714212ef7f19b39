// Command bench is facile's end-to-end benchmark. It runs four workloads
// against the surfaces users call — the facile Engine in process, and a
// facile-serve subprocess built from the same tree over loopback HTTP —
// checks every output, and prints every end-to-end metric by name and unit.
// With -trace 1 it also replays each workload's inputs through each layer's
// exported functions and reports per-layer busy time, counts and self time.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds 20] [-trace 0|1]
//	                  [-spans FILE] [-procs N] [-smoke] [-update-golden] [-out FILE]
//	bash bench/run.sh compare A.json ... [-- B.json ...]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md for the
// workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

var bgCtx = context.Background()

// childEnv names the workload a re-executed child process runs; setupEnv
// makes the child exit as soon as it is ready, so the parent can time
// set-up alone.
const (
	childEnv = "FACILE_BENCH_CHILD"
	setupEnv = "FACILE_BENCH_SETUP_ONLY"
)

// config is one invocation's settings.
type config struct {
	root     string // repository root
	serveBin string // facile-serve binary
	seed     int64
	procs    int // GOMAXPROCS of facile-serve and of child processes
	smoke    bool
	trace    bool
	update   bool // rewrite golden digests
	sz       sizes
	// speed takes the machine speed samples of the workload being run; in a
	// child process, pause has the parent take one and returns it.
	speed *speedLog
	pause func() (float64, error)
}

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
	// Repeats holds each repeat's value, for a metric taken over repeats of
	// its measurement.
	Repeats []float64 `json:"repeats,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload string           `json:"workload"`
	Metrics  map[string]value `json:"metrics"` // end to end, untraced
	// Layers holds the per-layer metrics: counters from the untraced run,
	// and with -trace 1 everything the replay measured.
	Layers map[string]value `json:"layers"`
	// Extra holds other measurements: workload-specific layer costs and
	// the load generator's validity checks.
	Extra      map[string]value `json:"extra,omitempty"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"` // transport errors, non-2xx and output mismatches
	Problems   []string         `json:"problems,omitempty"`
	Digest     string           `json:"digest,omitempty"`
	TraceFlags []string         `json:"trace_flags,omitempty"`
	Spans      []*span          `json:"spans,omitempty"`
}

func newResult(name string) *result {
	return &result{Workload: name, Metrics: map[string]value{}, Layers: map[string]value{}, Extra: map[string]value{}}
}

// maxProblems bounds how many problem messages a result keeps.
const maxProblems = 20

// problem records something wrong with the outputs; the run is then
// incorrect and the command exits non-zero.
func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// fail counts one failed operation and records why.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

// addLoad counts a load-generator phase's operations and failures.
func (r *result) addLoad(l *load) {
	r.Attempted += l.attempted
	r.Failed += l.failed
	for _, e := range l.errs {
		r.problem("%s", e)
	}
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

// latencyGroups splits the repeats of a measurement, in order, into runs of
// consecutive repeats that hold at least need latencies each; the last
// group takes any remainder. It returns each group's end index.
func latencyGroups(reps [][]float64, need int) []int {
	var ends []int
	n := 0
	for i, lat := range reps {
		if n += len(lat); n >= need {
			ends, n = append(ends, i+1), 0
		}
	}
	switch {
	case len(ends) == 0:
		ends = []int{len(reps)}
	case ends[len(ends)-1] < len(reps):
		ends[len(ends)-1] = len(reps)
	}
	return ends
}

// setLatency records latency percentiles from per-operation latencies in
// µs as measured, one slice per repeat of the measurement, and the
// machine's slowdown over each repeat. The end-to-end metrics are p50 and
// p90. p99 is an extra: on the shared machine the benchmark was built on, a
// group's p99 is set by the machine's scheduling stalls, not by the
// program — over ten runs of the same code it read from 0.9 to 45 ms per
// group of 1000 interactive requests.
func (r *result) setLatency(reps [][]float64, slows []float64) {
	r.setPercentile(r.Metrics, "latency_p50_us", 0.50, reps, slows)
	r.setPercentile(r.Metrics, "latency_p90_us", 0.90, reps, slows)
	r.setPercentile(r.Extra, "latency_p99_us", 0.99, reps, slows)
}

// setPercentile records, into m, the q-quantile of the latencies of reps.
// Consecutive repeats are grouped so that each group holds enough samples
// for minBeyond of them to lie beyond the quantile (latencyGroups), and the
// metric is the midmean over the groups of the group's quantile at the
// reference speed, so a burst of machine noise in one group does not move
// it; the extra "measured.<name>" is the same as measured. With too few
// samples for a group, the maximum stands in, with a note.
func (r *result) setPercentile(m map[string]value, name string, q float64, reps [][]float64, slows []float64) {
	var ref, measured []float64
	note, total, lo := "", 0, 0
	for _, hi := range latencyGroups(reps, int(math.Round(minBeyond/(1-q)))) {
		var xs, ms []float64
		for i := lo; i < hi; i++ {
			for _, v := range reps[i] {
				xs, ms = append(xs, atReference(v, slows[i], asDuration)), append(ms, v)
			}
		}
		lo, total = hi, total+len(ms)
		for _, g := range []struct {
			xs  []float64
			out *[]float64
		}{{xs, &ref}, {ms, &measured}} {
			v, err := percentile(g.xs, q)
			if err != nil {
				v = slices.Max(g.xs)
				note = fmt.Sprintf("maximum stands in: %v", err)
			}
			*g.out = append(*g.out, v)
		}
	}
	note = joinNotes(note, fmt.Sprintf("midmean over %d groups of repeats", len(ref)), "at the reference speed")
	m[name] = value{Value: midmean(ref), Unit: "us", Samples: total, Note: note, Repeats: ref}
	r.Extra[measuredPrefix+name] = value{Value: midmean(measured), Unit: "us", Samples: total, Repeats: measured}
}

// setRepeated records an end-to-end metric from its value in each repeat of
// the measurement: their midmean.
func (r *result) setRepeated(name, unit string, perRepeat []float64, samples int, note string) {
	if len(perRepeat) > 1 {
		note = joinNotes(note, fmt.Sprintf("midmean of %d", len(perRepeat)))
	}
	r.Metrics[name] = value{Value: midmean(perRepeat), Unit: unit, Samples: samples, Note: note, Repeats: perRepeat}
}

// joinNotes joins the non-empty notes with "; ".
func joinNotes(notes ...string) string {
	return strings.Join(slices.DeleteFunc(notes, func(s string) bool { return s == "" }), "; ")
}

// setCache records the prediction cache's behaviour over blocks lookups.
func (r *result) setCache(hits, misses, evictions float64, blocks int) {
	if hits+misses > 0 {
		r.Layers["facile.cache_hit_ratio"] = value{Value: hits / (hits + misses), Unit: "fraction"}
	}
	r.Layers["facile.cache_evictions_per_block"] = value{Value: evictions / float64(blocks), Unit: "count"}
}

// machine records where a result was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of facile-serve and the child processes
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
}

// document is what -out writes: the machine, the settings and every
// workload's result.
type document struct {
	Machine machine   `json:"machine"`
	Seed    int64     `json:"seed"`
	Smoke   bool      `json:"smoke"`
	Trace   bool      `json:"trace"`
	Results []*result `json:"results"`
}

// workload is one benchmark workload. In-process workloads run in a
// re-executed child process (a fresh heap, its own GC and its own peak
// RSS): setup prepares what the timed run needs and child runs it on the
// inputs the parent generated with inputs.
type workload struct {
	name string
	// parent runs a subprocess workload directly.
	parent func(cfg *config) (*result, error)
	// inputs, setup and child run an in-process workload.
	inputs func(cfg *config) []op
	setup  func(cfg *config) (any, error)
	child  func(cfg *config, state any, ops []op) (*result, error)
}

var workloads = []workload{
	{name: "cold-stream", inputs: coldStreamInputs, setup: coldStreamSetup, child: coldStreamChild},
	{name: "batch-eval", parent: batchEval},
	{name: "interactive", parent: interactive},
	{name: "sweep", inputs: sweepInputs, setup: sweepSetup, child: sweepChild},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the benchmark command; it returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload (default: all)")
		seed    = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = fs.Int("seconds", runSeconds, "BENCHMARK.json's run_seconds; the work is fixed for it, so no other value is accepted")
		trace   = fs.Int("trace", 0, "1: also replay each layer and report the per-layer metrics")
		spans   = fs.String("spans", "", "with -trace 1, write the spans as JSON lines to this file")
		procs   = fs.Int("procs", runtime.NumCPU(), "GOMAXPROCS of facile-serve and the child processes")
		smoke   = fs.Bool("smoke", false, "run every workload at about 1% size")
		update  = fs.Bool("update-golden", false, "rewrite the golden output digests (seed 1 only)")
		out     = fs.String("out", "", "write the full results document to this file")
		root    = fs.String("root", ".", "repository root")
		serve   = fs.String("serve", "", "facile-serve binary (default: build it under .bench_build)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := &config{
		root: *root, serveBin: *serve, seed: *seed, procs: *procs,
		smoke: *smoke, trace: *trace == 1, update: *update,
	}
	cfg.sz = sizesFor(cfg.smoke)
	if child := os.Getenv(childEnv); child != "" {
		return childMain(cfg, child, stdout)
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if cfg.update && cfg.seed != 1 {
		return fail(errors.New("-update-golden needs -seed 1"))
	}
	if cfg.procs < 1 {
		return fail(errors.New("-procs must be positive"))
	}
	if *seconds != runSeconds {
		return fail(fmt.Errorf("-seconds %d: the workloads' sizes are fixed for %d s", *seconds, runSeconds))
	}
	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return fail(err)
		}
		todo = []workload{*w}
	}
	if err := prepare(cfg); err != nil {
		return fail(err)
	}
	doc := &document{Machine: machineRecord(cfg), Seed: cfg.seed, Smoke: cfg.smoke, Trace: cfg.trace}
	for i := range todo {
		res, err := runWorkload(cfg, &todo[i])
		if err != nil {
			return fail(fmt.Errorf("%s: %w", todo[i].name, err))
		}
		doc.Results = append(doc.Results, res)
		printResult(stdout, res)
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(fmt.Errorf("write -out: %w", err))
		}
	}
	if *spans != "" && cfg.trace {
		var all []*span
		for _, r := range doc.Results {
			all = append(all, r.Spans...)
		}
		if err := writeSpans(*spans, all); err != nil {
			return fail(err)
		}
	}
	line, ok := summary(cfg, doc.Results)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// prepare checks the checkout and builds facile-serve from it.
func prepare(cfg *config) error {
	abs, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	cfg.root = abs
	if _, err := os.Stat(filepath.Join(cfg.root, "go.mod")); err != nil {
		return fmt.Errorf("%s is not the repository root: %w", cfg.root, err)
	}
	if cfg.serveBin != "" {
		return nil
	}
	cfg.serveBin = filepath.Join(cfg.root, ".bench_build", "bin", "facile-serve")
	cmd := exec.Command("go", "build", "-o", cfg.serveBin, "./cmd/facile-serve")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build facile-serve: %v: %s", err, out)
	}
	return nil
}

// runWorkload runs one workload and checks its digest against the golden.
func runWorkload(cfg *config, w *workload) (*result, error) {
	var res *result
	var err error
	cfg.speed = newSpeedLog()
	if w.parent != nil {
		res, err = w.parent(cfg)
	} else {
		res, err = runChildren(cfg, w)
	}
	if err != nil {
		return nil, err
	}
	res.recordSpeed(cfg.speed)
	if cfg.seed == 1 {
		if err := checkGolden(cfg.root, w.name, cfg.smoke, cfg.update, res.Digest); err != nil {
			res.problem("%v", err)
		}
	}
	return res, nil
}

// runChildren runs an in-process workload: setupReps child processes that
// only set up, each timed from exec to the child's "ready" line, then one
// that runs. The set-ups come first, while this process is quiet:
// generating a large input leaves its collector busy.
func runChildren(cfg *config, w *workload) (*result, error) {
	var setups, slows []float64
	speed := cfg.meter()
	for i := 0; i < cfg.sz.setupReps; i++ {
		if err := speed.begin(); err != nil {
			return nil, err
		}
		d, _, err := execChild(cfg, w.name, nil)
		if err != nil {
			return nil, err
		}
		slow, err := speed.end()
		if err != nil {
			return nil, err
		}
		setups, slows = append(setups, d), append(slows, slow)
	}
	_, res, err := execChild(cfg, w.name, w.inputs(cfg))
	if err != nil {
		return nil, err
	}
	res.setTiming("setup_s", "s", asDuration, setups, slows, len(setups), "")
	return res, nil
}

// execChild runs one child process. With nil ops it only sets up. It
// returns the set-up time in seconds and, for a full run, the child's
// result. Each "pause" line the child prints asks for a machine speed
// sample, taken with the child stopped; the sample, written as a line to
// the child's standard input, lets it go on.
func execChild(cfg *config, name string, ops []op) (float64, *result, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	args := []string{
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-procs", strconv.Itoa(cfg.procs),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		"-root", cfg.root, "-serve", cfg.serveBin,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+name, "GOMAXPROCS="+strconv.Itoa(cfg.procs))
	if ops == nil {
		cmd.Env = append(cmd.Env, setupEnv+"=1")
	}
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = diesWithParent()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, fmt.Errorf("start child: %w", err)
	}
	// Standard input stays open after the inputs, for the pause answers;
	// Wait closes it.
	werr := make(chan error, 1)
	go func() { werr <- writeOps(stdin, ops) }()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 64<<20)
	var setup float64
	var last []byte
	var pauseErr error
	for sc.Scan() {
		switch {
		case setup == 0 && sc.Text() == "ready":
			setup = time.Since(t0).Seconds()
			continue
		case sc.Text() == "pause" && pauseErr == nil:
			var ms float64
			if ms, pauseErr = cfg.speed.sample(cmd.Process.Pid); pauseErr == nil {
				_, pauseErr = fmt.Fprintf(stdin, "%g\n", ms)
			}
			if pauseErr != nil {
				cmd.Process.Kill()
			}
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	// A set-up-only child exits without reading its input, so writing it may
	// fail; only a full run needs every input delivered.
	if err := <-werr; err != nil && ops != nil {
		return 0, nil, fmt.Errorf("send inputs to child: %w", err)
	}
	switch {
	case pauseErr != nil:
		return 0, nil, fmt.Errorf("child %s: speed sample: %w", name, pauseErr)
	case scanErr != nil:
		return 0, nil, fmt.Errorf("read child output: %w", scanErr)
	case waitErr != nil:
		return 0, nil, fmt.Errorf("child %s: %w", name, waitErr)
	case setup == 0:
		return 0, nil, fmt.Errorf("child %s never reported ready", name)
	case ops == nil:
		return setup, nil, nil
	}
	res := newResult(name)
	if err := json.Unmarshal(last, res); err != nil {
		return 0, nil, fmt.Errorf("child %s result: %w", name, err)
	}
	return setup, res, nil
}

// childMain is a re-executed child: set up, report ready, then read the
// inputs from standard input, run, and print the result as JSON. For each
// speed sample its measurement takes it prints "pause" and waits for the
// parent, which samples the machine's speed meanwhile and sends the sample
// back.
func childMain(cfg *config, name string, stdout io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", name, err)
		return 1
	}
	w, err := findWorkload(name)
	if err != nil || w.child == nil {
		return fail(fmt.Errorf("not an in-process workload"))
	}
	state, err := w.setup(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "ready")
	if os.Getenv(setupEnv) != "" {
		return 0
	}
	in := bufio.NewReader(os.Stdin)
	ops, err := readOps(in)
	if err != nil {
		return fail(err)
	}
	cfg.pause = func() (float64, error) {
		fmt.Fprintln(stdout, "pause")
		line, err := in.ReadString('\n')
		if err != nil {
			return 0, fmt.Errorf("wait for the parent's speed sample: %w", err)
		}
		return strconv.ParseFloat(strings.TrimSpace(line), 64)
	}
	res, err := w.child(cfg, state, ops)
	if err != nil {
		return fail(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

func machineRecord(cfg *config) machine {
	m := machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: cfg.procs, Go: runtime.Version(),
		OS: runtime.GOOS + "/" + runtime.GOARCH, CPU: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout that is not a repository has no commit; the ceiling keeps
	// git from reporting an enclosing repository's instead.
	cmd := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cfg.root))
	if out, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// printResult prints a workload's metrics, one per line, by name and unit.
func printResult(w io.Writer, r *result) {
	section := func(title string, m map[string]value) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := m[k]
			line := fmt.Sprintf("%-12s %-6s %-36s %14.6g %s", r.Workload, title, k, v.Value, v.Unit)
			if v.Samples > 0 {
				line += fmt.Sprintf("  (n=%d)", v.Samples)
			}
			if v.Note != "" {
				line += "  [" + v.Note + "]"
			}
			fmt.Fprintln(w, line)
		}
	}
	section("e2e", r.Metrics)
	fmt.Fprintf(w, "%-12s %-6s %-36s %14.6g fraction  (%d failed of %d)\n", r.Workload, "e2e", "error_frac",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	section("layer", r.Layers)
	section("extra", r.Extra)
	for _, f := range r.TraceFlags {
		fmt.Fprintf(w, "%-12s trace check: %s\n", r.Workload, f)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%-12s PROBLEM: %s\n", r.Workload, p)
	}
}

// endToEnd names the end-to-end metrics every workload reports, in
// BENCHMARK.json order.
var endToEnd = []string{"setup_s", "blocks_per_s", "latency_p50_us", "latency_p90_us", "peak_rss_mb"}

// summary renders the final JSON line: the end-to-end metrics untraced, the
// per-layer metrics with -trace 1. With several workloads, metric names
// are prefixed with the workload's. A metric that is missing or not finite
// makes the run incorrect.
func summary(cfg *config, results []*result) (string, bool) {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		names, src := endToEnd, r.Metrics
		if cfg.trace {
			names, src = perLayer, r.Layers
		}
		for _, k := range names {
			v, ok := src[k]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				fmt.Fprintf(os.Stderr, "bench: %s: metric %s is missing or not finite\n", r.Workload, k)
				out.Correct = false
				continue
			}
			if len(results) > 1 {
				k = r.Workload + "." + k
			}
			out.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, out.Attempted, out.Failed), false
	}
	return string(data), out.Correct
}
