// Command facile-bench is the BHive-scale accuracy harness: it streams CSV
// corpora of (hex_block, measured_cycles) rows through facile's batch engine
// and a configurable set of opponent predictors, and reports per-(arch, mode)
// MAPE, Kendall's tau-b, and error percentiles — the paper's Table 2
// shoot-out as a repeatable command.
//
// Usage:
//
//	facile-bench [flags] ARCH/MODE=corpus.csv ...
//	facile-bench SKL/unroll=testdata/accuracy/skl_u.csv \
//	             SKL/loop=testdata/accuracy/skl_l.csv -json report.json
//
// Each positional argument names one corpus: the microarchitecture (as known
// to the registry), the throughput notion ("unroll"/"tpu" or "loop"/"tpl"),
// and the CSV path. Corpora are evaluated in argument order; the text report
// goes to stdout and -json additionally writes the machine-readable report
// that cmd/benchjson embeds into BENCH_*.json for the CI accuracy gate.
//
// The pipeline is streaming end to end: rows are read in -chunk batches,
// fanned through Engine.AnalyzeBatchN, scored by the opponents in parallel,
// and folded into constant-size accumulators — memory does not grow with the
// corpus, and the report bytes are identical for every -workers value.
//
// Opponents (-predictors) come from internal/baselines; learned entrants
// (ithemal, difftune, learning-bl) are trained per arch on a disjoint
// -train-n/-train-seed corpus before evaluation. The special entrant "mca"
// runs the external llvm-mca binary through the internal/mca subprocess
// adapter, budgeted to -mca-limit blocks; when no binary is found the
// entrant is skipped with a note rather than failing the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"facile"
	"facile/internal/accuracy"
	"facile/internal/baselines"
	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/mca"
	"facile/internal/uarch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "facile-bench:", err)
		os.Exit(1)
	}
}

// corpusSpec is one parsed ARCH/MODE=path argument.
type corpusSpec struct {
	cfg  *uarch.Config
	mode facile.Mode
	path string
}

// defaultPredictors is the standard shoot-out field: the pipesim referee and
// the three learned models, next to facile itself (always evaluated).
const defaultPredictors = "uica,ithemal,difftune,learning-bl"

// run is the testable entry point: parses args, evaluates every corpus, and
// writes the deterministic text report to stdout (plus -json when asked).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("facile-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		predictors = fs.String("predictors", defaultPredictors,
			"comma-separated opponents: uica, ithemal, difftune, learning-bl, llvm-mca, osaca, cqa, iaca, mca (external binary)")
		trainN    = fs.Int("train-n", 256, "training-corpus size for the learned opponents")
		trainSeed = fs.Int64("train-seed", 1001, "training-corpus seed (disjoint from evaluation corpora)")
		chunk     = fs.Int("chunk", accuracy.DefaultChunk, "streaming chunk size (rows per AnalyzeBatchN call)")
		workers   = fs.Int("workers", 0, "batch worker count (0 = GOMAXPROCS); the report bytes do not depend on it")
		jsonOut   = fs.String("json", "", "also write the report as JSON to this file")
		dedup     = fs.Bool("dedup", true, "reject corpora with duplicate blocks")
		mcaPath   = fs.String("mca", "", "llvm-mca binary for the 'mca' entrant (default: autodetect on PATH)")
		mcaLimit  = fs.Int64("mca-limit", 256, "block budget for the external llvm-mca entrant (0 = whole corpus)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no corpora; want positional ARCH/MODE=path arguments (e.g. SKL/unroll=corpus.csv)")
	}

	specs := make([]corpusSpec, 0, fs.NArg())
	archs := make([]string, 0, fs.NArg())
	seen := map[string]bool{}
	for _, arg := range fs.Args() {
		spec, err := parseSpec(arg)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
		if !seen[spec.cfg.Name] {
			seen[spec.cfg.Name] = true
			archs = append(archs, spec.cfg.Name)
		}
	}

	names, err := parsePredictors(*predictors)
	if err != nil {
		return err
	}
	var referee *mca.Referee
	if contains(names, "mca") {
		path := *mcaPath
		if path == "" {
			var ok bool
			if path, ok = mca.LookPath(); !ok {
				fmt.Fprintln(stderr, "facile-bench: no llvm-mca binary found; skipping the 'mca' entrant")
				names = remove(names, "mca")
			}
		}
		if path != "" {
			referee = mca.NewReferee(path)
		}
	}

	// Corpus blocks do not repeat, so memoization only churns: disable the
	// engine cache for the stream.
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: archs, CacheSize: -1, Workers: *workers})
	if err != nil {
		return err
	}

	report := &accuracy.Report{Command: "facile-bench " + strings.Join(args, " ")}
	if needsTraining(names) {
		report.TrainSeed = *trainSeed
		report.TrainN = *trainN
	}

	opponents := map[string][]accuracy.Opponent{} // per arch, trained once
	for _, spec := range specs {
		opps, ok := opponents[spec.cfg.Name]
		if !ok {
			opps = buildOpponents(spec.cfg, names, *trainSeed, *trainN, referee, *mcaLimit)
			opponents[spec.cfg.Name] = opps
		}
		f, err := os.Open(spec.path)
		if err != nil {
			return err
		}
		rd := accuracy.NewReader(f, accuracy.ReaderOptions{RejectDuplicates: *dedup})
		res, err := accuracy.RunCorpus(context.Background(), accuracy.RunOptions{
			Engine:    engine,
			Cfg:       spec.cfg,
			Chunk:     *chunk,
			Workers:   *workers,
			Opponents: opps,
		}, spec.mode, spec.path, rd)
		f.Close()
		if err != nil {
			return err
		}
		report.Corpora = append(report.Corpora, *res)
	}

	if _, err := io.WriteString(stdout, report.Text()); err != nil {
		return err
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// parseSpec parses one ARCH/MODE=path corpus argument.
func parseSpec(arg string) (corpusSpec, error) {
	lhs, path, ok := strings.Cut(arg, "=")
	if !ok || path == "" {
		return corpusSpec{}, fmt.Errorf("bad corpus %q: want ARCH/MODE=path", arg)
	}
	archName, modeName, ok := strings.Cut(lhs, "/")
	if !ok {
		return corpusSpec{}, fmt.Errorf("bad corpus %q: want ARCH/MODE=path", arg)
	}
	cfg, err := uarch.ByName(archName)
	if err != nil {
		return corpusSpec{}, fmt.Errorf("bad corpus %q: %v", arg, err)
	}
	mode, err := facile.ParseMode(modeName)
	if err != nil {
		return corpusSpec{}, fmt.Errorf("bad corpus %q: %v", arg, err)
	}
	return corpusSpec{cfg: cfg, mode: mode, path: path}, nil
}

// parsePredictors validates the -predictors list. "facile" is accepted as a
// no-op (facile is always evaluated, as the first report row).
func parsePredictors(list string) ([]string, error) {
	known := map[string]bool{
		"uica": true, "ithemal": true, "difftune": true, "learning-bl": true,
		"llvm-mca": true, "osaca": true, "cqa": true, "iaca": true, "mca": true,
	}
	var names []string
	for _, raw := range strings.Split(list, ",") {
		name := strings.ToLower(strings.TrimSpace(raw))
		if name == "" || name == "facile" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown predictor %q (want uica, ithemal, difftune, learning-bl, llvm-mca, osaca, cqa, iaca, or mca)", name)
		}
		names = append(names, name)
	}
	return names, nil
}

func needsTraining(names []string) bool {
	return contains(names, "ithemal") || contains(names, "difftune") || contains(names, "learning-bl")
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func remove(names []string, drop string) []string {
	out := names[:0]
	for _, n := range names {
		if n != drop {
			out = append(out, n)
		}
	}
	return out
}

// buildOpponents assembles the shoot-out field for one arch, training the
// learned entrants on a disjoint corpus (same recipe as internal/eval:
// bhive.Generate + bb.Build + pipesim measurements).
func buildOpponents(cfg *uarch.Config, names []string, trainSeed int64, trainN int, referee *mca.Referee, mcaLimit int64) []accuracy.Opponent {
	var blocks []*bb.Block
	var meas []float64
	if needsTraining(names) {
		for _, bm := range bhive.Generate(trainSeed, trainN) {
			block, err := bb.Build(cfg, bm.Code)
			if err != nil {
				continue
			}
			blocks = append(blocks, block)
			meas = append(meas, bhive.MeasureBlock(block, false))
		}
	}
	var opps []accuracy.Opponent
	for _, name := range names {
		switch name {
		case "uica":
			opps = append(opps, accuracy.Opponent{Predictor: accuracy.Baseline{P: baselines.UiCA{}}})
		case "ithemal":
			opps = append(opps, accuracy.Opponent{Predictor: accuracy.Baseline{P: baselines.TrainIthemal(blocks, meas)}})
		case "difftune":
			opps = append(opps, accuracy.Opponent{Predictor: accuracy.Baseline{P: baselines.TrainDiffTune(blocks)}})
		case "learning-bl":
			opps = append(opps, accuracy.Opponent{Predictor: accuracy.Baseline{P: baselines.TrainLearningBL(blocks, meas)}})
		case "llvm-mca":
			opps = append(opps, accuracy.Opponent{Predictor: accuracy.Baseline{P: baselines.LLVMMCA{}}})
		case "osaca":
			opps = append(opps, accuracy.Opponent{Predictor: accuracy.Baseline{P: baselines.OSACA{}}})
		case "cqa":
			opps = append(opps, accuracy.Opponent{Predictor: accuracy.Baseline{P: baselines.CQA{}}})
		case "iaca":
			opps = append(opps, accuracy.Opponent{Predictor: accuracy.Baseline{P: baselines.IACA{}}})
		case "mca":
			opps = append(opps, accuracy.Opponent{
				Predictor: accuracy.MCA{Referee: referee, Arch: cfg.Name},
				Limit:     mcaLimit,
			})
		}
	}
	return opps
}
